"""End-to-end acceptance checks.

Each test prints one `[criterion NN] PASS/FAIL - description` line so a
plain pytest run doubles as a scorecard. The heavier criteria reuse one
shared suite of random relations and report wall-clock budgets as part
of the verdict.
"""

import gc
import random
import time
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest

from ordep import (
    ConstantOD,
    ListOD,
    OrderCompatOD,
    Relation,
    Schema,
    discover,
    discover_unpruned,
    find_splits,
    find_swaps,
    map_list_to_canonical,
    parse_od,
    validate_canonical,
)
from ordep.oracle import brute_discover, brute_validate_canonical, brute_validate_list
from ordep.partitions import partition_set, partition_single, sorted_partition

from helpers import random_relation, random_int_relation


def run_criterion(num: int, desc: str, body) -> None:
    failures: list[str] = []
    try:
        body(failures)
    except Exception as exc:
        failures.append(f"error: {exc!r}")
    verdict = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {verdict} - {desc}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def int_relation(*cols):
    schema = Schema(tuple((f"a{i}", "integer") for i in range(len(cols))))
    return Relation.from_columns(schema, [list(c) for c in cols])


@pytest.fixture(scope="module")
def suite():
    """500 random relations with pruned, unpruned, and brute-force runs."""
    rng = random.Random(501)
    rels = [random_relation(rng) for _ in range(500)]
    t0 = time.perf_counter()
    pruned = [discover(r) for r in rels]
    brute = [frozenset(brute_discover(r)) for r in rels]
    oracle_seconds = time.perf_counter() - t0
    unpruned = [discover_unpruned(r) for r in rels]
    return SimpleNamespace(
        rels=rels,
        pruned=pruned,
        brute=brute,
        unpruned=unpruned,
        oracle_seconds=oracle_seconds,
    )


def test_criterion_01(taxes):
    def body(f):
        t0 = time.perf_counter()
        cases = (
            ("{position}: [] |-> bin", True),
            ("{year}: bin ~ salary", True),
            ("{year}: bin ~ subgroup", False),
            ("{position}: [] |-> salary", False),
        )
        for text, expected in cases:
            if validate_canonical(taxes, parse_od(text)) is not expected:
                f.append(f"{text} should be {expected}")
        if time.perf_counter() - t0 >= 1.0:
            f.append("took 1 s or longer")

    run_criterion(1, "tax-table constant and order-compatibility verdicts", body)


def test_criterion_02(taxes):
    def body(f):
        t0 = time.perf_counter()
        splits = find_splits(taxes, {"position"}, {"salary"})
        if set(splits) != {(1, 4), (2, 5), (3, 6)}:
            f.append(f"splits were {splits}")
        swaps = find_swaps(taxes, frozenset(), "salary", "subgroup")
        if (1, 2) not in set(swaps):
            f.append(f"(1, 2) missing from swaps {swaps}")
        if time.perf_counter() - t0 >= 1.0:
            f.append("took 1 s or longer")

    run_criterion(2, "split and swap witnesses on the tax table", body)


def test_criterion_03(taxes):
    def body(f):
        t0 = time.perf_counter()
        year = partition_single(taxes, taxes.attr_index("year"))
        if year.classes != ((0, 1, 2), (3, 4, 5)):
            f.append(f"year classes were {year.classes}")
        salary = partition_single(taxes, taxes.attr_index("salary"))
        if salary.classes != ((1, 5),):
            f.append(f"stripped salary classes were {salary.classes}")
        tau = sorted_partition(taxes, "bin")
        if tau.classes != ((0, 3), (1, 4), (2, 5)):
            f.append(f"sorted bin classes were {tau.classes}")
        if tau.position != (0, 1, 2, 0, 1, 2):
            f.append(f"bin positions were {tau.position}")
        # context column groups eight rows as {t1},{t2},{t3,t4,t5},
        # {t6,t7},{t8}; bucketizing a class must keep sorted order and
        # drop singleton buckets exactly as the partition does
        rel = int_relation([1, 2, 3, 3, 3, 4, 4, 5], [2, 5, 1, 3, 1, 2, 4, 1])
        btau = sorted_partition(rel, 1)
        ctx = partition_set(rel, [0])
        checks = (
            (btau.classes, ((2, 4, 7), (0, 5), (3,), (6,), (1,))),
            (btau.position, (1, 4, 0, 2, 0, 1, 3, 0)),
            (ctx.classes, ((2, 3, 4), (5, 6))),
            (btau.bucketize((2, 3, 4)), ((2, 4), (3,))),
            (btau.bucketize((5, 6)), ((5,), (6,))),
        )
        for got, want in checks:
            if got != want:
                f.append(f"bucket split: {got} != {want}")
        if time.perf_counter() - t0 >= 1.0:
            f.append("took 1 s or longer")

    run_criterion(3, "equivalence, stripped, and sorted partitions with bucket splits", body)


def test_criterion_04():
    def body(f):
        got = set(map_list_to_canonical(ListOD(("A", "B"), ("C", "D"))))
        want = {
            ConstantOD(frozenset("AB"), "C"),
            ConstantOD(frozenset("AB"), "D"),
            OrderCompatOD(frozenset(), "A", "C"),
            OrderCompatOD(frozenset("C"), "A", "D"),
            OrderCompatOD(frozenset("A"), "B", "C"),
            OrderCompatOD(frozenset("AC"), "B", "D"),
        }
        if got != want:
            f.append(f"mapped set was {got}")

    run_criterion(4, "list dependency mapped to its six canonical dependencies", body)


def test_criterion_05(suite):
    def body(f):
        bad = sum(
            1
            for res, want in zip(suite.pruned, suite.brute)
            if frozenset(res.ods) != want
        )
        if bad:
            f.append(f"{bad} of {len(suite.rels)} relations disagree with brute force")
        if suite.oracle_seconds >= 120:
            f.append(f"took {suite.oracle_seconds:.1f} s (budget 120 s)")

    run_criterion(5, "search output matches brute-force discovery on 500 random relations", body)


def test_criterion_06():
    def body(f):
        t0 = time.perf_counter()
        rng = random.Random(601)
        checked = bad = 0
        while checked < 1000:
            rel = random_relation(rng)
            names = list(rel.schema.names)
            for _ in range(8):
                lhs = rng.sample(names, rng.randint(0, min(3, len(names))))
                rhs = rng.sample(names, rng.randint(0, min(3, len(names))))
                od = ListOD(tuple(lhs), tuple(rhs))
                direct = brute_validate_list(rel, od)
                mapped = all(
                    validate_canonical(rel, c) for c in map_list_to_canonical(od)
                )
                checked += 1
                bad += direct is not mapped
        if bad:
            f.append(f"{bad} of {checked} pairs disagree")
        elapsed = time.perf_counter() - t0
        if elapsed >= 60:
            f.append(f"took {elapsed:.1f} s (budget 60 s)")

    run_criterion(6, "list satisfaction equals its mapped canonical conjunction on 1000 pairs", body)


def test_criterion_07(suite):
    def body(f):
        for res, full in zip(suite.pruned, suite.unpruned):
            if list(res.ods) != list(full.ods):
                f.append("pruned and unpruned outputs differ")
                break
            if res.stats.nodes_generated > full.stats.nodes_generated:
                f.append("pruning generated extra nodes")
                break
        rel = int_relation([1, 2, 3], [10, 20, 30], [5, 5, 7])
        res, full = discover(rel), discover_unpruned(rel)
        if set(res.ods) != set(full.ods):
            f.append("constructed case changes output under pruning")
        if not res.stats.nodes_generated < full.stats.nodes_generated:
            f.append(
                f"expected strictly fewer nodes, got {res.stats.nodes_generated} "
                f"vs {full.stats.nodes_generated}"
            )

    run_criterion(7, "pruning never changes output and strictly shrinks one lattice", body)


def _groups(rel, ctx):
    key_attrs = tuple(sorted(ctx))
    g: dict[tuple, list[int]] = {}
    for t in range(rel.row_count):
        g.setdefault(tuple(rel.columns[i][t] for i in key_attrs), []).append(t)
    return list(g.values())


def _raw_constant(rel, ctx, a) -> bool:
    col = rel.columns[a]
    return all(len({col[t] for t in cls}) <= 1 for cls in _groups(rel, ctx))


def _raw_oc(rel, ctx, a, b) -> bool:
    ca, cb = rel.columns[a], rel.columns[b]
    for cls in _groups(rel, ctx):
        for s in cls:
            for t in cls:
                if ca[s] < ca[t] and cb[s] > cb[t]:
                    return False
    return True


def _contexts(attrs, cap):
    out = [frozenset()]
    for r in range(1, cap + 1):
        out.extend(frozenset(c) for c in combinations(attrs, r))
    return out


def test_criterion_08():
    RULES = (
        "reflexivity identity commutativity strengthen propagate "
        "augmentation-c augmentation-oc chain "
        "transitivity weak-transitivity normalization"
    ).split()
    NEEDED = 200

    def body(f):
        rng = random.Random(88)
        counts = dict.fromkeys(RULES, 0)

        def check(rule, conclusion):
            counts[rule] += 1
            if not conclusion:
                f.append(f"{rule}: conclusion failed on a premise-satisfying instance")

        attempts = 0
        while min(counts.values()) < NEEDED and attempts < 4000 and not f:
            attempts += 1
            rel = random_int_relation(rng)
            attrs = range(rel.attr_count)
            ctxs = _contexts(attrs, 2)
            for X in ctxs:
                consts = [a for a in attrs if _raw_constant(rel, X, a)]
                for A in X:
                    if counts["reflexivity"] < NEEDED:
                        check("reflexivity", _raw_constant(rel, X, A))
                    for B in attrs:
                        if counts["normalization"] < NEEDED:
                            check("normalization", _raw_oc(rel, X, A, B))
                for A in attrs:
                    if counts["identity"] < NEEDED:
                        check("identity", _raw_oc(rel, X, A, A))
                for A in consts:
                    for B in attrs:
                        if B != A and counts["propagate"] < NEEDED:
                            check("propagate", _raw_oc(rel, X, A, B))
                        if counts["strengthen"] < NEEDED and _raw_constant(rel, X | {A}, B):
                            check("strengthen", _raw_constant(rel, X, B))
                    for Z in ctxs[:6]:
                        if counts["augmentation-c"] < NEEDED:
                            check("augmentation-c", _raw_constant(rel, X | Z, A))
                if consts and counts["transitivity"] < NEEDED:
                    Y = frozenset(consts) | X
                    zs = [a for a in attrs if _raw_constant(rel, Y, a)]
                    if zs:
                        check(
                            "transitivity",
                            all(_raw_constant(rel, X, z) for z in zs),
                        )
                for A, B in combinations(attrs, 2):
                    if _raw_oc(rel, X, A, B):
                        if counts["commutativity"] < NEEDED:
                            check("commutativity", _raw_oc(rel, X, B, A))
                        if counts["augmentation-oc"] < NEEDED:
                            Z = ctxs[rng.randrange(len(ctxs))]
                            check("augmentation-oc", _raw_oc(rel, X | Z, A, B))
                if counts["chain"] < NEEDED and rel.attr_count >= 3:
                    for A, B, C in permutations(attrs, 3):
                        if (
                            _raw_oc(rel, X, A, B)
                            and _raw_oc(rel, X, B, C)
                            and _raw_oc(rel, X | {B}, A, C)
                        ):
                            check("chain", _raw_oc(rel, X, A, C))
                            break
            if counts["weak-transitivity"] < NEEDED and rel.attr_count >= 3:
                pool = list(attrs)
                for _ in range(12):
                    Xl = rng.sample(pool, rng.randint(1, 2))
                    Yl = rng.sample(pool, rng.randint(1, 2))
                    Zl = rng.sample(pool, rng.randint(1, 2))
                    ok = all(
                        _raw_oc(rel, set(Xl[:i]) | set(Yl[:j]), Xl[i], Yl[j])
                        for i in range(len(Xl))
                        for j in range(len(Yl))
                    ) and all(
                        _raw_oc(rel, set(Yl[:j]) | set(Zl[:k]), Yl[j], Zl[k])
                        for j in range(len(Yl))
                        for k in range(len(Zl))
                    ) and all(_raw_constant(rel, set(Yl), z) for z in Zl)
                    if ok:
                        check(
                            "weak-transitivity",
                            all(
                                _raw_oc(rel, set(Xl[:i]) | set(Zl[:k]), Xl[i], Zl[k])
                                for i in range(len(Xl))
                                for k in range(len(Zl))
                            ),
                        )
                        break
        short = {r: c for r, c in counts.items() if c < NEEDED}
        if short and not f:
            f.append(f"instance quota missed: {short}")

    run_criterion(8, "eight inference rules and three derived rules hold on 200 data instances each", body)


def _scaling_relation(rows: int) -> Relation:
    rng = random.Random(90)
    cols: list[list[int]] = [[] for _ in range(8)]
    for _ in range(rows):
        a = rng.randrange(8)
        b = rng.randrange(8)
        row = (
            a,
            b,
            a // 2,
            3 * b + 1,
            rng.randrange(3),
            rng.randrange(3),
            rng.randrange(2),
            rng.randrange(2),
        )
        for col, v in zip(cols, row):
            col.append(v)
    schema = Schema(tuple((f"c{i}", "integer") for i in range(8)))
    return Relation.from_columns(schema, cols)


def _timed_discover(rel):
    best = float("inf")
    result = None
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = discover(rel)
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return result, best


def test_criterion_09():
    def body(f):
        t0 = time.perf_counter()
        small, t_small = _timed_discover(_scaling_relation(10_000))
        big, t_big = _timed_discover(_scaling_relation(100_000))
        # same column structure at both sizes, so the lattice work per
        # tuple is identical and only the row count grows
        if set(small.ods) != set(big.ods):
            f.append("dependency sets differ between sizes")
        for field in ("nodes_generated", "constant_checks", "swap_checks", "keys_found"):
            a, b = getattr(small.stats, field), getattr(big.stats, field)
            if a != b:
                f.append(f"{field} differs between sizes ({a} vs {b})")
        ratio = t_big / t_small
        if ratio > 15:
            f.append(f"100k rows took {ratio:.1f}x the 10k time (bound 15x)")
        total = time.perf_counter() - t0
        if total >= 300:
            f.append(f"took {total:.1f} s (budget 300 s)")

    run_criterion(9, "runtime grows at most 15x from 10k to 100k rows", body)


def test_criterion_10():
    def body(f):
        rng = random.Random(1001)
        checked = bad = 0
        while checked < 2000:
            rel = random_relation(
                rng, max_attrs=5, max_rows=12, with_nulls=rng.random() < 0.5
            )
            if rel.attr_count < 2:
                continue
            names = list(rel.schema.names)
            ctx = frozenset(rng.sample(names, rng.randint(0, rel.attr_count - 2)))
            rest = [n for n in names if n not in ctx]
            if rng.random() < 0.5:
                od = ConstantOD(ctx, rng.choice(rest))
            else:
                a, b = rng.sample(rest, 2)
                od = OrderCompatOD(ctx, a, b)
            checked += 1
            bad += validate_canonical(rel, od) is not brute_validate_canonical(rel, od)
        if bad:
            f.append(f"{bad} of {checked} draws disagree with the pairwise oracle")

    run_criterion(10, "partition validators agree with the pairwise oracle on 2000 draws", body)
