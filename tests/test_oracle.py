import random
from itertools import combinations

import pytest

from ordep import (
    BudgetExceededError,
    ConstantOD,
    ListOD,
    OracleConfig,
    OrderCompatOD,
    Relation,
    Schema,
    ViolationReport,
    brute_discover,
    brute_validate_canonical,
    brute_validate_list,
    discover,
    find_splits,
    lex_leq,
    load_csv,
    satisfies_list_od,
    validate_canonical,
    violations,
)

from helpers import random_relation, with_duplicates


def draw_canonical(rng, rel):
    names = list(rel.schema.names)
    ctx = frozenset(rng.sample(names, rng.randint(0, rel.attr_count - 2)))
    rest = [n for n in names if n not in ctx]
    if rng.random() < 0.5:
        return ConstantOD(ctx, rng.choice(rest))
    a, b = rng.sample(rest, 2)
    return OrderCompatOD(ctx, a, b)


def draw_list_side(rng, names):
    """Up to len(names) attributes; half the time drawn with replacement,
    so a side may repeat attributes as well as overlap the other side."""
    k = rng.randint(0, len(names))
    if rng.random() < 0.5:
        return tuple(rng.sample(names, k))
    return tuple(rng.choice(names) for _ in range(k))


def test_lex_leq_orders_nulls_by_policy():
    first = Relation.from_columns(Schema((("a", "integer"),), "nulls_first"), [[None, 1]])
    last = Relation.from_columns(Schema((("a", "integer"),), "nulls_last"), [[None, 1]])
    assert lex_leq(first, 0, 1, ["a"]) and not lex_leq(first, 1, 0, ["a"])
    assert lex_leq(last, 1, 0, ["a"]) and not lex_leq(last, 0, 1, ["a"])


@pytest.mark.parametrize(
    "call",
    [
        lambda rel: brute_validate_canonical(rel, OrderCompatOD(frozenset({"year"}), "bin", "salary")),
        lambda rel: brute_validate_list(rel, ListOD(("year",), ("bin",))),
        lambda rel: lex_leq(rel, 0, 1, ["year", "bin"]),
        lambda rel: brute_discover(rel, OracleConfig(max_level=2)),
    ],
    ids=["brute_validate_canonical", "brute_validate_list", "lex_leq", "brute_discover"],
)
def test_oracle_without_raw_values_says_so(call, taxes_csv, taxes_schema):
    call(load_csv(taxes_csv, taxes_schema, raw=True))
    with pytest.raises(ValueError, match="load the relation with raw=True"):
        call(load_csv(taxes_csv, taxes_schema, raw=False))


def test_brute_validate_canonical_taxes(taxes):
    assert brute_validate_canonical(taxes, ConstantOD(frozenset({"position"}), "bin"))
    assert not brute_validate_canonical(taxes, ConstantOD(frozenset({"position"}), "salary"))
    assert brute_validate_canonical(taxes, OrderCompatOD(frozenset({"year"}), "bin", "salary"))
    assert not brute_validate_canonical(taxes, OrderCompatOD(frozenset({"year"}), "bin", "subgroup"))


def test_brute_agrees_with_partition_validator():
    rng = random.Random(29)
    for _ in range(300):
        rel = random_relation(rng, max_attrs=5, max_rows=12, with_nulls=rng.random() < 0.5)
        if rel.attr_count < 2:
            continue
        od = draw_canonical(rng, rel)
        assert brute_validate_canonical(rel, od) == validate_canonical(rel, od)


def test_brute_list_agrees_with_rank_check():
    rng = random.Random(31)
    for _ in range(300):
        rel = random_relation(rng, max_attrs=4, max_rows=10, with_nulls=rng.random() < 0.5)
        names = list(rel.schema.names)
        od = ListOD(draw_list_side(rng, names), draw_list_side(rng, names))
        assert brute_validate_list(rel, od) == satisfies_list_od(rel, od)


def test_list_violations_match_the_pairwise_definition():
    # Split pairs: equal on lhs, unequal on rhs.  Swap pairs: strictly
    # ordered one way by lhs and the other way by rhs.  Both read raw
    # values through lex_leq, not the rank encoding violations uses.
    # The later draws are wider and hold repeated rows.  A swap that
    # ties on lhs[0] or rhs[0] comes from a mapped member past the
    # first; the test counts the draws with such a swap and at least
    # two attributes on each side.
    rng = random.Random(37)
    kinds = {"split": 0, "swap": 0}
    multi_member_swaps = 0
    for draw in range(650):
        if draw < 250:
            rel = random_relation(rng, max_attrs=4, max_rows=10, with_nulls=True)
        else:
            rel = with_duplicates(rng, random_relation(rng, max_attrs=5, max_rows=8, with_nulls=True))
        names = list(rel.schema.names)
        od = ListOD(draw_list_side(rng, names), draw_list_side(rng, names))
        rows = range(rel.row_count)

        def ties(s, t, spec):
            return lex_leq(rel, s, t, spec) and lex_leq(rel, t, s, spec)

        splits = tuple(
            (s + 1, t + 1)
            for s, t in combinations(rows, 2)
            if ties(s, t, od.lhs) and not ties(s, t, od.rhs)
        )
        swaps = tuple(
            (s + 1, t + 1)
            for s in rows
            for t in rows
            if not lex_leq(rel, t, s, od.lhs) and not lex_leq(rel, s, t, od.rhs)
        )
        assert splits == find_splits(rel, od.lhs, [a for a in od.rhs if a not in od.lhs])
        want = tuple(
            ViolationReport(kind, od.lhs, od.rhs, pairs)
            for kind, pairs in (("split", splits), ("swap", swaps))
            if pairs
        )
        assert violations(rel, od) == want
        for report in want:
            kinds[report.kind] += 1
        multi_member_swaps += (
            len(od.lhs) >= 2
            and len(od.rhs) >= 2
            and any(ties(s - 1, t - 1, od.lhs[:1]) or ties(s - 1, t - 1, od.rhs[:1]) for s, t in swaps)
        )
    assert kinds["split"] > 50 and kinds["swap"] > 50
    assert multi_member_swaps > 50


def test_null_policy_changes_verdicts():
    schema_first = Schema((("a", "integer"), ("b", "integer")), "nulls_first")
    schema_last = Schema((("a", "integer"), ("b", "integer")), "nulls_last")
    cols = [[1, 2], [None, 1]]
    od = OrderCompatOD(frozenset(), "a", "b")
    first = Relation.from_columns(schema_first, cols)
    last = Relation.from_columns(schema_last, cols)
    assert brute_validate_canonical(first, od)
    assert validate_canonical(first, od)
    assert not brute_validate_canonical(last, od)
    assert not validate_canonical(last, od)


def test_brute_discover_taxes_matches_lattice(taxes):
    assert set(brute_discover(taxes, OracleConfig(check_budget=10_000_000))) == set(
        discover(taxes).ods
    )


def test_brute_discover_level_cap(taxes):
    capped = brute_discover(taxes, OracleConfig(max_level=2, check_budget=10_000_000))
    assert capped
    for od in capped:
        size = len(od.context) + (1 if isinstance(od, ConstantOD) else 2)
        assert size <= 2
    assert set(capped) == set(discover(taxes, max_level=2).ods)


def test_brute_discover_deterministic_order(taxes):
    a = brute_discover(taxes, OracleConfig(max_level=3, check_budget=10_000_000))
    b = brute_discover(taxes, OracleConfig(max_level=3, check_budget=10_000_000))
    assert a == b
    levels = [len(od.context) + (1 if isinstance(od, ConstantOD) else 2) for od in a]
    assert levels == sorted(levels)


def test_budget_exhaustion(taxes):
    with pytest.raises(BudgetExceededError):
        brute_discover(taxes, OracleConfig(check_budget=10))


def test_budget_counts_only_fresh_checks():
    schema = Schema((("a", "integer"), ("b", "integer")))
    rel = Relation.from_columns(schema, [[1, 2], [1, 2]])
    # five distinct candidate checks occur; memoization absorbs the
    # repeats the minimality probes would otherwise re-run
    found = brute_discover(rel, OracleConfig(check_budget=5))
    assert found == (
        OrderCompatOD(frozenset(), 0, 1),
        ConstantOD(frozenset({0}), 1),
        ConstantOD(frozenset({1}), 0),
    )
