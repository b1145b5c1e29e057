import random

from ordep import discovery, partitions
from ordep import (
    ConstantOD,
    OracleConfig,
    OrderCompatOD,
    Relation,
    Schema,
    brute_discover,
    discover,
    discover_unpruned,
    is_minimal_constant,
    is_minimal_oc,
    validate_canonical,
)

from helpers import random_relation


def int_relation(*cols):
    schema = Schema(tuple((f"a{i}", "integer") for i in range(len(cols))))
    return Relation.from_columns(schema, [list(c) for c in cols])


def od_level(od):
    return len(od.context) + (1 if isinstance(od, ConstantOD) else 2)


def test_taxes_discovery_golden(taxes):
    res = discover(taxes)
    assert len(res.ods) == 109
    assert res.levels_processed == 4
    assert res.exhausted
    m = set(res.ods)
    pos, bin_, sal = (taxes.attr_index(n) for n in ("position", "bin", "salary"))
    year = taxes.attr_index("year")
    assert ConstantOD(frozenset({pos}), bin_) in m
    assert OrderCompatOD(frozenset(), bin_, sal) in m
    # valid but subsumed by the empty-context form above
    assert OrderCompatOD(frozenset({year}), bin_, sal) not in m


def test_taxes_output_is_valid_and_minimal(taxes):
    for od in discover(taxes).ods:
        assert validate_canonical(taxes, od)
        if isinstance(od, ConstantOD):
            assert is_minimal_constant(taxes, od.context, od.attr)
        else:
            assert is_minimal_oc(taxes, od.context, od.a, od.b)


def test_discover_deterministic(taxes):
    a = discover(taxes)
    b = discover(taxes)
    assert a.ods == b.ods
    assert a.stats == b.stats


def test_pruning_removes_nodes_but_not_output():
    # the third attribute is determined by the first two in every way
    # that matters, so one lattice node dies before the top level
    rel = int_relation([1, 2, 3], [10, 20, 30], [5, 5, 7])
    pruned = discover(rel)
    full = discover_unpruned(rel)
    assert set(pruned.ods) == set(full.ods)
    assert len(pruned.ods) == 7
    assert pruned.stats.nodes_generated == 6
    assert full.stats.nodes_generated == 7
    assert pruned.stats.nodes_pruned == 1
    assert full.stats.nodes_pruned == 0


def test_zero_rows():
    rel = int_relation([], [])
    res = discover(rel)
    assert set(res.ods) == {ConstantOD(frozenset(), 0), ConstantOD(frozenset(), 1)}
    assert res.levels_processed == 1
    assert res.exhausted


def test_single_row():
    rel = int_relation([3], [9])
    res = discover(rel)
    assert set(res.ods) == {ConstantOD(frozenset(), 0), ConstantOD(frozenset(), 1)}
    assert res.levels_processed == 1
    assert res.exhausted
    assert set(discover_unpruned(rel).ods) == set(res.ods)


def test_identical_rows_yield_constants_only():
    rel = int_relation([4, 4], [9, 9])
    res = discover(rel)
    assert set(res.ods) == {ConstantOD(frozenset(), 0), ConstantOD(frozenset(), 1)}
    assert res.exhausted


def test_max_level_caps_traversal(taxes):
    res = discover(taxes, max_level=2)
    assert res.max_level == 2
    assert res.levels_processed == 2
    assert not res.exhausted
    assert len(res.ods) == 31
    assert all(od_level(od) <= 2 for od in res.ods)
    full = discover(taxes)
    assert set(res.ods) == {od for od in full.ods if od_level(od) <= 2}


def test_max_level_one(taxes):
    res = discover(taxes, max_level=1)
    assert res.ods == ()
    assert res.levels_processed == 1
    assert not res.exhausted


def test_max_level_beyond_width_is_exhaustive(taxes):
    assert discover(taxes, max_level=99).ods == discover(taxes).ods


def test_stats_shape(taxes):
    res = discover(taxes)
    stats = res.stats
    assert [s.level for s in stats.levels] == list(range(1, res.levels_processed + 1))
    assert stats.nodes_generated == sum(s.nodes_generated for s in stats.levels)
    assert stats.constant_checks == sum(s.constant_checks for s in stats.levels)
    assert stats.swap_checks == sum(s.swap_checks for s in stats.levels)
    assert sum(s.ods_found for s in stats.levels) == len(res.ods)


def test_emission_order_is_levelwise(taxes):
    levels = [od_level(od) for od in discover(taxes).ods]
    assert levels == sorted(levels)


def test_pruned_and_unpruned_and_brute_agree():
    rng = random.Random(47)
    for _ in range(40):
        rel = random_relation(rng, max_attrs=5, max_rows=12)
        fast = discover(rel)
        slow = discover_unpruned(rel)
        assert set(fast.ods) == set(slow.ods)
        assert fast.stats.nodes_generated <= slow.stats.nodes_generated
        brute = brute_discover(rel, OracleConfig(check_budget=10_000_000))
        assert set(fast.ods) == set(brute)


def test_discovered_set_is_exactly_the_minimal_valid_ones():
    rng = random.Random(53)
    for _ in range(25):
        rel = random_relation(rng, max_attrs=4, max_rows=8)
        m = set(discover(rel).ods)
        for od in m:
            assert validate_canonical(rel, od)
            if isinstance(od, ConstantOD):
                assert is_minimal_constant(rel, od.context, od.attr)
            else:
                assert is_minimal_oc(rel, od.context, od.a, od.b)


def test_label_cache_builds_one_label_list_per_left_operand(monkeypatch):
    # Unpruned, all 2^5 nodes exist.  A product at level l+1 takes its
    # left operand from a level-l node whose last attribute is not the
    # largest, so labels are built C(4, l) times against C(5, l+1)
    # products.
    labelled = []
    products = []

    def counting_labels(p):
        labelled.append(p)
        return partitions.class_labels(p)

    def checked_product(p, q, p_labels=None):
        out = partitions.product(p, q, p_labels)
        assert out == partitions.product(p, q)
        products.append(out)
        return out

    monkeypatch.setattr(discovery, "class_labels", counting_labels)
    monkeypatch.setattr(discovery, "product", checked_product)
    rel = int_relation([1, 1, 2, 2], [1, 2, 1, 2], [3, 3, 3, 4], [1, 1, 1, 1], [2, 1, 2, 1])
    res = discover_unpruned(rel)
    assert len(products) == 10 + 10 + 5 + 1
    assert len(labelled) == 4 + 6 + 4 + 1
    monkeypatch.undo()
    assert res.ods == discover_unpruned(rel).ods


def _with_duplicates(rng, rel):
    """rel's rows, each repeated 1-3 times, shuffled."""
    rows = [row for row in zip(*rel.raw_columns) for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    return Relation.from_rows(rel.schema, rows)


def _duplicate_row_cases():
    rng = random.Random(61)
    one = Schema((("a0", "integer"),))
    two = Schema((("a0", "integer"), ("a1", "text")), "nulls_last")
    three = Schema((("a0", "integer"), ("a1", "integer"), ("a2", "float")))
    yield Relation.from_rows(two, [])
    yield Relation.from_rows(two, [(1, "x")])
    yield Relation.from_rows(three, [(4, 9, 0.5)] * 4)
    yield Relation.from_rows(one, [(3,), (1,), (3,), (2,), (1,)])
    yield Relation.from_rows(two, [(None, "x"), (2, None), (None, "x"), (1, "y"), (2, None)])
    for i in range(40):
        base = random_relation(rng, max_attrs=5, max_rows=10, with_nulls=i % 2 == 1)
        yield _with_duplicates(rng, base)


def test_duplicate_rows_do_not_change_discovery(monkeypatch):
    rng = random.Random(67)
    for rel in _duplicate_row_cases():
        before = (rel.row_count, rel.columns, rel.raw_columns)
        distinct = Relation.from_rows(rel.schema, list(dict.fromkeys(zip(*rel.raw_columns))))
        for max_level in (None, rng.randint(1, rel.attr_count)):
            brute = brute_discover(rel, OracleConfig(max_level=max_level, check_budget=10_000_000))
            for run in (discover, discover_unpruned):
                res = run(rel, max_level)
                assert res.distinct_rows == distinct.row_count
                assert res.ods == run(distinct, max_level).ods
                # The lattice over every row, duplicates included.
                with monkeypatch.context() as m:
                    m.setattr(discovery, "_distinct_rows", lambda r: r)
                    every_row = run(rel, max_level)
                assert res.ods == every_row.ods
                assert res.exhausted == every_row.exhausted
                assert res.levels_processed == every_row.levels_processed
                # A one-row relation stops after level 1 with exhausted
                # set, so only uncapped runs agree with the distinct table.
                if max_level is None:
                    assert res.exhausted == run(distinct).exhausted
                assert set(res.ods) == set(brute)
        assert (rel.row_count, rel.columns, rel.raw_columns) == before
