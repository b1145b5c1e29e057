import random

import pytest

from ordep import (
    ConstantOD,
    OrderCompatOD,
    Relation,
    Schema,
    brute_validate_canonical,
    check_constant,
    check_order_compatible,
)
from ordep.partitions import (
    class_labels,
    empty_context_partition,
    first_split,
    first_swap,
    partition_set,
    partition_single,
    product,
    sorted_partition,
)

from helpers import random_int_relation, random_relation


def int_relation(*cols):
    schema = Schema(tuple((f"a{i}", "integer") for i in range(len(cols))))
    return Relation.from_columns(schema, [list(c) for c in cols])


def test_partition_single_taxes_year(taxes):
    p = partition_single(taxes, taxes.attr_index("year"))
    assert p.classes == ((0, 1, 2), (3, 4, 5))
    assert p.row_count == 6


def test_partition_single_strips_singletons_taxes_salary(taxes):
    p = partition_single(taxes, taxes.attr_index("salary"))
    assert p.classes == ((1, 5),)
    assert p.stripped_row_count == 2


def test_partition_set_matches_single(taxes):
    one = partition_single(taxes, 1)
    many = partition_set(taxes, [1])
    assert one == many


def test_partition_set_superkey(taxes):
    p = partition_set(taxes, [taxes.attr_index("ID"), taxes.attr_index("year")])
    assert p.classes == ()
    assert p.is_superkey()
    assert not partition_single(taxes, taxes.attr_index("ID")).is_superkey()


def test_empty_context_partition():
    rel = int_relation([1, 2, 3])
    assert empty_context_partition(rel).classes == ((0, 1, 2),)
    tiny = int_relation([1])
    assert empty_context_partition(tiny).classes == ()
    assert empty_context_partition(tiny).is_superkey()


def test_sorted_partition_taxes_bin(taxes):
    tau = sorted_partition(taxes, taxes.attr_index("bin"))
    assert tau.classes == ((0, 3), (1, 4), (2, 5))
    assert tau.position == (0, 1, 2, 0, 1, 2)


def test_sorted_partition_keeps_singletons(taxes):
    tau = sorted_partition(taxes, taxes.attr_index("salary"))
    # ranks (2,4,5,1,3,4): ascending classes with singletons intact
    assert tau.classes == ((3,), (0,), (4,), (1, 5), (2,))


def test_bucket_split_example():
    # Eight rows; the context column groups them {t1},{t2},{t3,t4,t5},
    # {t6,t7},{t8} and the ordered column ranks them in five classes.
    x = [1, 2, 3, 3, 3, 4, 4, 5]
    a = [2, 5, 1, 3, 1, 2, 4, 1]
    rel = int_relation(x, a)
    tau = sorted_partition(rel, 1)
    assert tau.classes == ((2, 4, 7), (0, 5), (3,), (6,), (1,))
    assert tau.position == (1, 4, 0, 2, 0, 1, 3, 0)
    ctx = partition_set(rel, [0])
    assert ctx.classes == ((2, 3, 4), (5, 6))
    assert tau.bucketize((2, 3, 4)) == ((2, 4), (3,))
    assert tau.bucketize((5, 6)) == ((5,), (6,))
    assert tau.bucketize((0,)) == ((0,),)


def test_product_of_year_and_position(taxes):
    yr = partition_single(taxes, taxes.attr_index("year"))
    pos = partition_single(taxes, taxes.attr_index("position"))
    both = product(yr, pos)
    direct = partition_set(taxes, [taxes.attr_index("year"), taxes.attr_index("position")])
    assert both == direct
    assert both.is_superkey()


def test_product_matches_direct_grouping():
    rng = random.Random(11)
    for _ in range(120):
        rel = random_int_relation(rng, max_attrs=5, max_rows=12, max_domain=3)
        attrs = list(range(rel.attr_count))
        k = rng.randint(1, rel.attr_count - 1)
        left = rng.sample(attrs, k)
        right = rng.sample(attrs, rng.randint(1, rel.attr_count))
        p = partition_set(rel, left)
        q = partition_set(rel, right)
        direct = partition_set(rel, sorted(set(left) | set(right)))
        assert product(p, q) == direct
        assert product(p, q, class_labels(p)) == direct


def test_product_rejects_row_count_mismatch():
    p = partition_single(int_relation([1, 1]), 0)
    q = partition_single(int_relation([1, 1, 1]), 0)
    with pytest.raises(ValueError):
        product(p, q)


def test_check_constant_taxes(taxes):
    pos = partition_single(taxes, taxes.attr_index("position"))
    assert check_constant(pos, taxes.column("bin"))
    assert not check_constant(pos, taxes.column("salary"))


def test_check_constant_empty_partition_is_vacuous():
    rel = int_relation([1, 2], [5, 9])
    p = partition_set(rel, [0])  # all singletons
    assert p.classes == ()
    assert check_constant(p, rel.column(1))


def test_check_order_compatible_taxes(taxes):
    yr = partition_single(taxes, taxes.attr_index("year"))
    tau_bin = sorted_partition(taxes, taxes.attr_index("bin"))
    assert check_order_compatible(yr, tau_bin, taxes.column("salary"))
    assert not check_order_compatible(yr, tau_bin, taxes.column("subgroup"))


def test_check_order_compatible_ties_on_left_are_free():
    rel = int_relation([7, 7, 7], [1, 1, 2], [5, 3, 6])
    ctx = partition_set(rel, [0])
    tau = sorted_partition(rel, 1)
    # rows 0 and 1 tie on the middle attribute; 5 vs 3 is not a swap
    assert check_order_compatible(ctx, tau, rel.column(2))


def test_check_order_compatible_ties_on_right_are_free():
    rel = int_relation([7, 7], [1, 2], [4, 4])
    ctx = partition_set(rel, [0])
    tau = sorted_partition(rel, 1)
    assert check_order_compatible(ctx, tau, rel.column(2))


def test_check_order_compatible_detects_swap():
    rel = int_relation([7, 7, 7], [1, 1, 2], [5, 3, 4])
    ctx = partition_set(rel, [0])
    tau = sorted_partition(rel, 1)
    # row 0 (1,5) against row 2 (2,4): up on one, down on the other
    assert not check_order_compatible(ctx, tau, rel.column(2))


def test_check_order_compatible_swap_hidden_by_context():
    rel = int_relation([1, 2], [1, 2], [9, 3])
    split = partition_set(rel, [0])  # separates the swapped rows
    joined = empty_context_partition(rel)
    tau = sorted_partition(rel, 1)
    assert check_order_compatible(split, tau, rel.column(2))
    assert not check_order_compatible(joined, tau, rel.column(2))


def test_witness_scans_agree_with_oracle():
    # A scan returns None exactly when the dependency holds, and
    # otherwise a pair the oracle itself rejects: on the two-row
    # relation of that pair alone the dependency fails, so the rows
    # agree on the context and split on A, or order A and B oppositely.
    rng = random.Random(83)
    for _ in range(600):
        rel = random_relation(rng, max_attrs=6, max_rows=16, with_nulls=True)
        attrs = list(range(rel.attr_count))
        a, b = rng.sample(attrs, 2)
        ctx = rng.sample([x for x in attrs if x not in (a, b)], rng.randint(0, min(3, rel.attr_count - 2)))
        part = partition_set(rel, ctx)
        rows = list(zip(*rel.raw_columns))
        for od, pair in (
            (ConstantOD(ctx, a), first_split(part, rel.column(a))),
            (OrderCompatOD(ctx, a, b), first_swap(part, sorted_partition(rel, a), rel.column(b))),
        ):
            assert (pair is None) == brute_validate_canonical(rel, od)
            if pair is not None:
                s, t = pair
                assert s != t
                assert not brute_validate_canonical(Relation.from_rows(rel.schema, [rows[s], rows[t]]), od)


def test_first_swap_orders_its_pair_by_a():
    rel = int_relation([7, 7, 7], [1, 1, 2], [5, 3, 4])
    ctx = partition_set(rel, [0])
    # row 0 (1,5) precedes row 2 (2,4) on the middle attribute
    assert first_swap(ctx, sorted_partition(rel, 1), rel.column(2)) == (0, 2)
    assert first_split(ctx, rel.column(2)) == (0, 1)


def test_stripped_partition_orders_classes_by_head():
    rel = int_relation([2, 1, 2, 1, 3])
    p = partition_single(rel, 0)
    assert p.classes == ((0, 2), (1, 3))
