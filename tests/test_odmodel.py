import random
from itertools import combinations

import pytest

from ordep import (
    ConstantOD,
    ListOD,
    ODSyntaxError,
    OrderCompatOD,
    Relation,
    Schema,
    brute_validate_list,
    find_splits,
    find_swaps,
    format_od,
    lex_leq,
    map_list_to_canonical,
    map_od_attrs,
    normalize_spec,
    order_compatible,
    order_equivalent,
    parse_od,
    satisfies_list_od,
    validate_canonical,
    violations,
)

from ordep import odmodel

from helpers import random_int_relation, random_relation, with_duplicates


def int_relation(*cols):
    schema = Schema(tuple((f"a{i}", "integer") for i in range(len(cols))))
    return Relation.from_columns(schema, [list(c) for c in cols])


def test_normalize_spec_drops_repeats():
    assert normalize_spec(("a", "b", "a", "c", "b")) == ("a", "b", "c")
    assert normalize_spec(()) == ()


def test_list_od_normalizes_sides():
    od = ListOD(("a", "b", "a"), ("c", "c"))
    assert od.lhs == ("a", "b")
    assert od.rhs == ("c",)


def test_constant_od_rejects_trivial():
    with pytest.raises(ODSyntaxError):
        ConstantOD(frozenset({"a"}), "a")


def test_order_compat_od_rejects_trivial():
    with pytest.raises(ODSyntaxError):
        OrderCompatOD(frozenset(), "a", "a")
    with pytest.raises(ODSyntaxError):
        OrderCompatOD(frozenset({"a"}), "a", "b")
    with pytest.raises(ODSyntaxError):
        OrderCompatOD(frozenset({"b"}), "a", "b")


def test_order_compat_od_stores_sorted_pair():
    od = OrderCompatOD(frozenset(), "b", "a")
    assert (od.a, od.b) == ("a", "b")
    assert od == OrderCompatOD(frozenset(), "a", "b")


def test_lex_leq():
    rel = int_relation([1, 1, 2], [5, 7, 0])
    assert lex_leq(rel, 0, 1, ["a0", "a1"])
    assert not lex_leq(rel, 1, 0, ["a0", "a1"])
    assert lex_leq(rel, 0, 0, ["a0"])
    assert lex_leq(rel, 1, 2, ["a0"])
    assert not lex_leq(rel, 1, 2, ["a1"])


def test_satisfies_list_od_taxes(taxes):
    assert satisfies_list_od(taxes, ListOD(("salary",), ("tax", "percentage")))
    assert satisfies_list_od(taxes, ListOD(("salary",), ("group", "subgroup")))
    assert not satisfies_list_od(taxes, ListOD(("position",), ("salary",)))
    assert not satisfies_list_od(taxes, ListOD(("salary",), ("subgroup",)))


def test_satisfies_list_od_empty_sides(taxes):
    # An empty lhs orders nothing unless the rhs is constant overall;
    # an empty rhs is vacuous.
    assert satisfies_list_od(taxes, ListOD(("salary",), ()))
    assert not satisfies_list_od(taxes, ListOD((), ("salary",)))


def test_order_equivalent():
    rel = int_relation([1, 2, 3], [10, 20, 30], [3, 2, 1])
    assert order_equivalent(rel, ("a0",), ("a1",))
    assert not order_equivalent(rel, ("a0",), ("a2",))
    # prefix direction alone is not equivalence
    two = int_relation([1, 1], [2, 1])
    assert satisfies_list_od(two, ListOD(("a0", "a1"), ("a0",)))
    assert not order_equivalent(two, ("a0",), ("a0", "a1"))


def test_order_compatible_taxes(taxes):
    assert order_compatible(taxes, ("bin",), ("salary",))
    assert not order_compatible(taxes, ("bin",), ("subgroup",))


def test_map_example_pair_lists():
    od = ListOD(("A", "B"), ("C", "D"))
    mapped = set(map_list_to_canonical(od))
    assert mapped == {
        ConstantOD(frozenset({"A", "B"}), "C"),
        ConstantOD(frozenset({"A", "B"}), "D"),
        OrderCompatOD(frozenset(), "A", "C"),
        OrderCompatOD(frozenset({"C"}), "A", "D"),
        OrderCompatOD(frozenset({"A"}), "B", "C"),
        OrderCompatOD(frozenset({"A", "C"}), "B", "D"),
    }
    assert len(map_list_to_canonical(od)) == 6


def test_map_drops_trivial_members():
    assert map_list_to_canonical(ListOD(("A",), ("A",))) == ()
    assert map_list_to_canonical(ListOD(("A", "B"), ("B", "A"))) == (
        OrderCompatOD(frozenset(), "A", "B"),
    )


def test_map_size_bound():
    rng = random.Random(3)
    names = list("ABCDEFG")
    for _ in range(100):
        lhs = tuple(rng.sample(names, rng.randint(0, 4)))
        rhs = tuple(rng.sample(names, rng.randint(0, 4)))
        od = ListOD(lhs, rhs)
        mapped = map_list_to_canonical(od)
        assert len(mapped) == len(set(mapped))
        assert len(mapped) <= len(od.rhs) + len(od.lhs) * len(od.rhs)


def test_map_agrees_with_data_on_random_relations():
    rng = random.Random(17)
    for _ in range(150):
        rel = random_int_relation(rng, max_attrs=4, max_rows=7)
        names = rel.schema.names
        lhs = tuple(rng.sample(names, rng.randint(0, rel.attr_count)))
        rhs = tuple(rng.sample(names, rng.randint(0, rel.attr_count)))
        od = ListOD(lhs, rhs)
        conj = all(validate_canonical(rel, m) for m in map_list_to_canonical(od))
        assert conj == brute_validate_list(rel, od)


def test_validate_canonical_taxes(taxes):
    assert validate_canonical(taxes, ConstantOD(frozenset({"position"}), "bin"))
    assert validate_canonical(taxes, OrderCompatOD(frozenset({"year"}), "bin", "salary"))
    assert not validate_canonical(taxes, OrderCompatOD(frozenset({"year"}), "bin", "subgroup"))
    assert not validate_canonical(taxes, ConstantOD(frozenset({"position"}), "salary"))


def test_find_splits_taxes(taxes):
    assert find_splits(taxes, ["position"], ["salary"]) == ((1, 4), (2, 5), (3, 6))
    assert find_splits(taxes, ["position"], ["bin"]) == ()


def test_find_swaps_taxes(taxes):
    swaps = find_swaps(taxes, [], "salary", "subgroup")
    assert (1, 2) in swaps
    assert swaps == ((1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (4, 2), (4, 3), (4, 5), (4, 6), (6, 3))
    assert find_swaps(taxes, ["year"], "bin", "salary") == ()


def test_find_swaps_orientation():
    # The pair is reported with the row that is lower on the first
    # attribute in front, regardless of file order.
    rel = int_relation([2, 1], [1, 2])
    assert find_swaps(rel, [], 0, 1) == ((2, 1),)


def test_pair_generators_list_pairs_in_output_order():
    # Reference: every row pair, tested on rank columns, then sorted.
    # The generators instead walk rows s in ascending order and list
    # the qualifying rows t of s's context class; their output must be
    # the same pairs, already strictly increasing.
    rng = random.Random(1608)
    checked = {"split": 0, "swap": 0}
    for draw in range(320):
        rel = random_relation(rng, max_attrs=6, max_rows=16, with_nulls=True)
        if draw % 2:
            rel = with_duplicates(rng, rel)
        names = list(rel.schema.names)
        a, b = sorted(rng.sample(names, 2))  # as OrderCompatOD stores them
        rest = [n for n in names if n not in (a, b)]
        ctx = rng.sample(rest, rng.randint(0, min(3, len(rest))))

        def key(cols, r):
            return tuple(rel.column(c)[r] for c in cols)

        same_class = [(s, t) for s, t in combinations(range(rel.row_count), 2) if key(ctx, s) == key(ctx, t)]
        ca, cb = rel.column(a), rel.column(b)
        want_splits = sorted((s + 1, t + 1) for s, t in same_class if ca[s] != ca[t])
        want_swaps = sorted(
            (s + 1, t + 1) if ca[s] < ca[t] else (t + 1, s + 1)
            for s, t in same_class
            if (ca[s] - ca[t]) * (cb[s] - cb[t]) < 0
        )
        for kind, gen, want, od in (
            ("split", odmodel._split_pairs(rel, ctx, [a]), want_splits, ConstantOD(ctx, a)),
            ("swap", odmodel._swap_pairs(rel, ctx, a, b), want_swaps, OrderCompatOD(ctx, a, b)),
        ):
            pairs = list(gen)
            assert all(p < q for p, q in zip(pairs, pairs[1:])), (kind, pairs)
            assert pairs == want, kind
            found = find_splits(rel, ctx, [a]) if kind == "split" else find_swaps(rel, ctx, a, b)
            assert found == tuple(want)
            assert [r.pairs for r in violations(rel, od)] == ([found] if found else [])
            checked[kind] += bool(want)
        # A list dependency merges its members' swap streams.
        for report in violations(rel, ListOD((*ctx, a), (b,))):
            assert all(p < q for p, q in zip(report.pairs, report.pairs[1:]))
    assert min(checked.values()) > 100, checked


def test_violations_constant(taxes):
    reports = violations(taxes, ConstantOD(frozenset({"position"}), "salary"))
    assert len(reports) == 1
    assert reports[0].kind == "split"
    assert reports[0].pairs == ((1, 4), (2, 5), (3, 6))
    assert violations(taxes, ConstantOD(frozenset({"position"}), "bin")) == ()


def test_violations_order_compat(taxes):
    reports = violations(taxes, OrderCompatOD(frozenset({"year"}), "bin", "subgroup"))
    assert len(reports) == 1
    assert reports[0].kind == "swap"
    assert all(s in (1, 2, 3, 4, 5, 6) and t in (1, 2, 3, 4, 5, 6) for s, t in reports[0].pairs)


def test_violations_list_form(taxes):
    reports = violations(taxes, ListOD(("position",), ("salary",)))
    kinds = {r.kind for r in reports}
    assert "split" in kinds
    ok = violations(taxes, ListOD(("salary",), ("tax", "percentage")))
    assert ok == ()


def test_violations_agree_with_checks():
    rng = random.Random(23)
    for _ in range(120):
        rel = random_int_relation(rng, max_attrs=4, max_rows=7)
        names = list(rel.schema.names)
        ctx = frozenset(rng.sample(names, rng.randint(0, rel.attr_count - 2)))
        rest = [n for n in names if n not in ctx]
        a, b = rng.sample(rest, 2)
        od = OrderCompatOD(ctx, a, b)
        assert (violations(rel, od) == ()) == validate_canonical(rel, od)
        odc = ConstantOD(ctx, a)
        assert (violations(rel, odc) == ()) == validate_canonical(rel, odc)


def test_parse_od_forms():
    od = parse_od("[A,B] -> [C]")
    assert od == ListOD(("A", "B"), ("C",))
    od = parse_od("{A,B}: [] |-> C")
    assert od == ConstantOD(frozenset({"A", "B"}), "C")
    od = parse_od("{A}: C ~ B")
    assert od == OrderCompatOD(frozenset({"A"}), "B", "C")
    assert parse_od("{}: B ~ A") == OrderCompatOD(frozenset(), "A", "B")
    assert parse_od("[] -> []") == ListOD((), ())


def test_parse_od_whitespace_and_charset():
    assert parse_od("  { x.1 , pct% } :  []  |->  y_2  ") == ConstantOD(
        frozenset({"x.1", "pct%"}), "y_2"
    )


def test_parse_od_rejects_malformed():
    for text in (
        "",
        "A -> B",
        "[A] -> C",
        "{A}: B ~",
        "{A}: [] -> B",
        "{A): B ~ C",
        "[A,] -> [B]",
        "{A B}: [] |-> C",
    ):
        with pytest.raises(ODSyntaxError):
            parse_od(text)


def test_parse_od_rejects_trivial_canonical():
    with pytest.raises(ODSyntaxError):
        parse_od("{A}: [] |-> A")
    with pytest.raises(ODSyntaxError):
        parse_od("{A}: A ~ B")
    with pytest.raises(ODSyntaxError):
        parse_od("{}: A ~ A")


def test_format_od_round_trip():
    for text in ("[A,B] -> [C]", "{A,B}: [] |-> C", "{A}: B ~ C", "{}: A ~ B"):
        od = parse_od(text)
        assert parse_od(format_od(od)) == od


def test_format_od_sorts_context_and_renames():
    od = OrderCompatOD(frozenset({2, 0}), 3, 1)
    names = ("w", "x", "y", "z")
    assert format_od(od, names) == "{w,y}: x ~ z"
    assert format_od(ConstantOD(frozenset({1}), 0), names) == "{x}: [] |-> w"


def test_map_od_attrs():
    od = OrderCompatOD(frozenset({"x"}), "y", "z")
    upper = map_od_attrs(od, str.upper)
    assert upper == OrderCompatOD(frozenset({"X"}), "Y", "Z")
    lst = map_od_attrs(ListOD(("a",), ("b",)), str.upper)
    assert lst == ListOD(("A",), ("B",))
    const = map_od_attrs(ConstantOD(frozenset({"a"}), "b"), str.upper)
    assert const == ConstantOD(frozenset({"A"}), "B")
