"""Seeded input generators for the three benchmark workloads.

Each generator takes the workload seed and a directory, writes the only
files the program will see (CSV tables, schema files, premise files) and
returns a manifest: the closed-loop schedule of CLI calls, grouped into
blocks, with the expected outcome of every call.  Expected outcomes come
from `ordep.oracle` or from counts made here on the raw generated values,
never from the code under test.

The paper's datasets (flight, ncvoter, ...) are not in the repository, so
the tables imitate their shapes: row count, column count, small domains,
planted correlated columns, near-key and noisy columns.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from datetime import date, timedelta
from itertools import combinations

from ordep.odmodel import ConstantOD, ListOD, OrderCompatOD, format_od, parse_od
from ordep.oracle import brute_discover, brute_validate_canonical, brute_validate_list
from ordep.relation import Relation, Schema

WHY = {
    "tall": "100k x 8 discover: tiny lattice, per-row work (CSV load, partition products, checks) dominates",
    "wide": "1k x 14 discover: ~14k lattice nodes, discovery bookkeeping and products dominate, CSV load is negligible",
    "queries": "closed-loop validate/infer mix: small reloads, list-OD and witness paths, inference at full caps",
}


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512, so they do not depend on
    # PYTHONHASHSEED and give the same stream on every run.
    return random.Random(f"{workload}:{seed}")


def _write_table(directory, stem, names, types, cols):
    """Write a CSV and its schema file; return their paths."""
    csv_path = os.path.join(directory, stem + ".csv")
    schema_path = os.path.join(directory, stem + ".schema.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*cols):
            fh.write(",".join(map(str, row)) + "\n")
    schema = {"attributes": [{"name": n, "type": t} for n, t in zip(names, types)]}
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh)
    return csv_path, schema_path


def _raw_relation(names, types, cols) -> Relation:
    """A relation carrying raw values only, for the oracle.

    The oracle reads `raw_columns` and the schema and nothing else, so
    the rank encoding of the code under test is bypassed entirely.
    """
    return Relation(Schema(tuple(zip(names, types))), len(cols[0]), (), tuple(tuple(c) for c in cols))


def _projection(names, types, cols, attrs) -> Relation:
    """Distinct rows of the projection onto `attrs`, as a raw relation.

    A canonical or list dependency over `attrs` holds on a table exactly
    when it holds on the distinct rows of this projection: pairs of rows
    equal on every attribute involved can never witness a violation.
    """
    idx = [names.index(a) for a in attrs]
    rows = sorted(set(zip(*(cols[i] for i in idx))))
    return _raw_relation(list(attrs), [types[i] for i in idx], [list(c) for c in zip(*rows)])


# --------------------------------------------------------------------------
# Discover workloads.


def tall_table(rng, rows, noise_cols):
    """Integer columns, domains 2-8, two planted correlated pairs."""
    a = [rng.randrange(8) for _ in range(rows)]
    b = [rng.randrange(6) for _ in range(rows)]
    names = ["a", "b", "a_half", "b3"]
    cols = [a, b, [x // 2 for x in a], [3 * x + 1 for x in b]]
    # Fixed domains: the seed changes values, not the workload's shape.
    for i, dom in enumerate((2, 4, 6, 8)[:noise_cols]):
        names.append(f"n{i}")
        cols.append([rng.randrange(dom) for _ in range(rows)])
    planted = ["{a}: [] |-> a_half", "{}: a ~ a_half", "{b}: [] |-> b3", "{b3}: [] |-> b", "{}: b ~ b3"]
    return names, cols, planted


def wide_table(rng, rows, extra_cols):
    """Small domains, derived columns, a near-key and a noisy copy."""
    a = [rng.randrange(4) for _ in range(rows)]
    b = [rng.randrange(5) for _ in range(rows)]
    c = [rng.randrange(3) for _ in range(rows)]
    d = [rng.randrange(6) for _ in range(rows)]
    names = ["a", "b", "c", "d", "s", "m", "h", "key", "d_noisy"]
    cols = [
        a,
        b,
        c,
        d,
        [3 * x + y for x, y in zip(a, b)],
        [x * y for x, y in zip(a, b)],
        [x // 2 for x in a],
        [rng.randrange(rows * 20) for _ in range(rows)],
        [x if rng.random() > 0.03 else rng.randrange(6) for x in d],
    ]
    for i, dom in enumerate((2, 3, 4, 5, 6)[:extra_cols]):
        names.append(f"r{i}")
        cols.append([rng.randrange(dom) for _ in range(rows)])
    planted = ["{a}: [] |-> h", "{}: a ~ h", "{a,b}: [] |-> s"]
    return names, cols, planted


# Full-size shape and the down-sized shape checked against the oracle,
# which is exponential in columns and quadratic in rows.
DISCOVER_SHAPES = {
    "tall": (tall_table, (100_000, 4), (300, 3)),
    "wide": (wide_table, (1_000, 5), (80, 0)),
}


def _discover_manifest(workload, seed, directory):
    table, full, small = DISCOVER_SHAPES[workload]
    names, cols, planted = table(_rng(workload, seed), *full)
    types = ["integer"] * len(names)
    csv_path, schema_path = _write_table(directory, workload, names, types, cols)
    sn, sc, _ = table(_rng(workload + "-small", seed), *small)
    small_csv, small_schema = _write_table(directory, workload + "_small", sn, ["integer"] * len(sn), sc)
    op = {
        "kind": "discover",
        "argv": ["discover", "--input", csv_path, "--schema", schema_path, "--format", "json"],
        "exit": 0,
        "planted": planted,
    }
    return {
        "workload": workload,
        "seed": seed,
        "why": WHY[workload],
        "shape": {"rows": len(cols[0]), "columns": len(names)},
        "blocks": [[op]],
        "min_blocks": 3,
        "oracle_check": ["discover", "--input", small_csv, "--schema", small_schema, "--format", "json"],
    }


# --------------------------------------------------------------------------
# Queries workload.

QUERY_ROWS = 1_000
BLOCKS = 2  # distinct blocks generated; the loop cycles through them


def query_table(rng, rows):
    grp = [rng.randrange(20) for _ in range(rows)]
    cat = [rng.randrange(10) for _ in range(rows)]
    score = [rng.randrange(50) for _ in range(rows)]
    spec = [
        ("grp", "integer", grp),
        ("grp2", "integer", [2 * g + 1 for g in grp]),
        ("cat", "integer", cat),
        ("half", "integer", [c // 2 for c in cat]),
        ("score", "integer", score),
        ("code", "text", [f"k{s:03d}" for s in score]),
        ("day", "date", [date(2020, 1, 1) + timedelta(days=s) for s in score]),
        ("combo", "integer", [g * 10 + c for g, c in zip(grp, cat)]),
        ("price", "float", [rng.randrange(10_000) / 100 for _ in range(rows)]),
        ("rnd", "integer", [rng.randrange(rows) for _ in range(rows)]),
    ]
    return [s[0] for s in spec], [s[1] for s in spec], [s[2] for s in spec]


# Planted dependencies that hold by construction; the oracle still
# decides every expected answer.
VALID_CANONICAL = [
    "{grp}: [] |-> grp2",
    "{}: grp ~ grp2",
    "{cat}: [] |-> half",
    "{}: cat ~ half",
    "{score}: [] |-> code",
    "{}: score ~ day",
    "{grp,cat}: [] |-> combo",
    "{combo}: [] |-> cat",
    "{}: combo ~ grp",
    "{grp}: cat ~ combo",
]
VALID_LIST = [
    "[grp] -> [grp2]",
    "[grp,cat] -> [combo]",
    "[combo] -> [grp,cat]",
    "[score] -> [day,code]",
    "[cat,grp] -> [half]",
    "[day] -> [score]",
]
INVALID_LIST = ["[cat] -> [grp]", "[grp] -> [cat]", "[score] -> [rnd]", "[half] -> [cat]"]
# One split (constant), one swap (compatibility) and one list witness:
# find_splits, find_swaps and the quadratic list scan.
WITNESS = ["{half}: [] |-> cat", "{cat}: grp ~ rnd", "[grp] -> [cat]"]

# Per block of 50 validate calls.  The valid list dependencies (the
# quadratic pairwise check) plus the witness calls are 22% of calls, so
# validate_p90_ms falls inside that group and p50 inside the canonical one.
N_CANONICAL, N_VALID_LIST, N_INVALID_LIST = 35, 8, 4


def _od_attrs(od):
    if isinstance(od, ListOD):
        return list(dict.fromkeys(od.lhs + od.rhs))
    if isinstance(od, ConstantOD):
        return sorted(od.context) + [od.attr]
    return sorted(od.context) + [od.a, od.b]


def oracle_valid(names, types, cols, od) -> bool:
    rel = _projection(names, types, cols, _od_attrs(od))
    if isinstance(od, ListOD):
        return brute_validate_list(rel, od)
    return brute_validate_canonical(rel, od)


def _random_canonical(rng, names):
    size = rng.choice((0, 1, 1, 2))
    picked = rng.sample(names, size + 2)
    ctx = frozenset(picked[:size])
    if rng.random() < 0.5:
        return ConstantOD(ctx, picked[size])
    return OrderCompatOD(ctx, picked[size], picked[size + 1])


def _equal_pairs(keys) -> int:
    """Unordered pairs of rows with equal keys."""
    return sum(k * (k - 1) // 2 for k in Counter(keys).values())


def _swapped_pairs(keys_a, keys_b, groups) -> int:
    """Pairs of rows in one group ordered one way by a, the other by b."""
    by_group: dict = {}
    for g, ka, kb in zip(groups, keys_a, keys_b):
        by_group.setdefault(g, Counter())[(ka, kb)] += 1
    total = 0
    for counts in by_group.values():
        for (a1, b1), k1 in counts.items():
            for (a2, b2), k2 in counts.items():
                if a1 < a2 and b2 < b1:
                    total += k1 * k2
    return total


def witness_count(names, cols, od) -> int:
    """Number of witness pairs `violations()` should report for od.

    Counted over distinct value combinations weighted by multiplicity,
    straight from the pairwise definitions in `ordep.odmodel`: splits are
    pairs equal on the left side and unequal on the right, swaps are
    pairs ordered oppositely by the two sides.
    """
    col = dict(zip(names, cols))

    def keys(attrs):
        return list(zip(*(col[a] for a in attrs))) if attrs else [()] * len(cols[0])

    if isinstance(od, ListOD):
        lhs, rhs = list(od.lhs), list(od.rhs)
        extra = [a for a in rhs if a not in lhs]
        split = _equal_pairs(keys(lhs)) - _equal_pairs(keys(lhs + extra)) if extra else 0
        return split + _swapped_pairs(keys(lhs), keys(rhs), keys([]))
    ctx = sorted(od.context)
    if isinstance(od, ConstantOD):
        return _equal_pairs(keys(ctx)) - _equal_pairs(keys(ctx + [od.attr]))
    return _swapped_pairs(keys([od.a]), keys([od.b]), keys(ctx))


def premise_relation(rng, universe, rows=30):
    """A small relation with two derived columns, so the premise set
    has constants and compatibilities to chain through."""
    names = [chr(ord("A") + i) for i in range(universe)]
    cols = [[rng.randrange(3) for _ in range(rows)] for _ in range(universe - 2)]
    cols.append([x // 2 for x in cols[0]])
    cols.append([x + y for x, y in zip(cols[1], cols[2])])
    return names, cols


def _all_canonical(universe):
    out = []
    attrs = range(universe)
    for size in range(universe - 1):
        for ctx in combinations(attrs, size):
            rest = [x for x in attrs if x not in ctx]
            out += [ConstantOD(frozenset(ctx), a) for a in rest]
            out += [OrderCompatOD(frozenset(ctx), a, b) for a, b in combinations(rest, 2)]
    return out


# Per block of 50 infer calls: (universe, premise sets, derivable and
# non-derivable targets per set).  Non-derivable targets at universe 7
# (a full closure, ~0.5 s each) are 16% of calls, so infer_p90_ms falls
# inside that group; p50 falls among the universe-6 calls.
INFER_PLAN = [(5, 4, 2, 2), (6, 6, 2, 2), (7, 3, 0, 2), (7, 2, 1, 1)]


def _infer_calls(rng, directory, block):
    calls = []
    for universe, sets, n_yes, n_no in INFER_PLAN:
        cands = _all_canonical(universe)
        for _ in range(sets):
            names, cols = premise_relation(rng, universe)
            types = ["integer"] * universe
            rel = _raw_relation(names, types, cols)
            premises = brute_discover(rel)
            path = os.path.join(directory, f"premises_{block}_{len(calls)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"universe": names, "ods": [format_od(od, names) for od in premises]}, fh)
            order = list(cands)
            rng.shuffle(order)
            prem = set(premises)
            yes, no = [], []
            for od in order:
                if len(yes) >= n_yes and len(no) >= n_no:
                    break
                if od in prem:
                    continue
                if brute_validate_canonical(rel, od):
                    if len(yes) < n_yes:
                        yes.append(od)
                elif len(no) < n_no:
                    no.append(od)
            for od, want in [(od, True) for od in yes] + [(od, False) for od in no]:
                text = format_od(od, names)
                argv = ["infer", text, "--premises", path, "--format", "json", "--max-chain", str(universe - 2)]
                # Derivable targets at universe 5 also ask for the derivation path.
                traced = want and universe == 5
                if traced:
                    argv.append("--trace")
                calls.append({"kind": "infer", "argv": argv, "exit": 0 if want else 1,
                              "answer": "yes" if want else "no", "target": text, "trace": traced})
    return calls


def _validate_calls(rng, names, types, cols, csv_path, schema_path):
    base = ["--input", csv_path, "--schema", schema_path, "--format", "json"]
    texts = rng.sample(VALID_CANONICAL, 6)
    while len(texts) < N_CANONICAL:
        texts.append(format_od(_random_canonical(rng, names)))
    texts += [rng.choice(VALID_LIST) for _ in range(N_VALID_LIST)]
    texts += rng.sample(INVALID_LIST, N_INVALID_LIST)
    calls = []
    for text in texts:
        od = parse_od(text)
        valid = oracle_valid(names, types, cols, od)
        calls.append({"kind": "validate", "argv": ["validate", text] + base,
                      "exit": 0 if valid else 1, "valid": valid})
    for text in WITNESS:
        od = parse_od(text)
        if oracle_valid(names, types, cols, od):
            raise AssertionError(f"witness dependency {text} unexpectedly holds")
        calls.append({"kind": "validate", "argv": ["validate", text, "--witnesses"] + base,
                      "exit": 1, "valid": False, "witness_pairs": witness_count(names, cols, od)})
    return calls


def _jsonable(value):
    # ISO dates compare in date order as strings.
    return value.isoformat() if isinstance(value, date) else value


def _queries_manifest(seed, directory):
    rng = _rng("queries", seed)
    names, types, cols = query_table(rng, QUERY_ROWS)
    csv_path, schema_path = _write_table(directory, "queries", names, types, cols)
    blocks = []
    for block in range(BLOCKS):
        calls = _validate_calls(rng, names, types, cols, csv_path, schema_path)
        calls += _infer_calls(rng, directory, block)
        rng.shuffle(calls)
        blocks.append(calls)
    return {
        "workload": "queries",
        "seed": seed,
        "why": WHY["queries"],
        "shape": {"rows": QUERY_ROWS, "columns": len(names)},
        "blocks": blocks,
        "min_blocks": 2,
        # Raw values let the harness verify sampled witness pairs.
        "table": {"names": names, "columns": [[_jsonable(v) for v in c] for c in cols]},
        "oracle_check": None,
    }


def generate(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's inputs into `directory` and return its manifest."""
    os.makedirs(directory, exist_ok=True)
    if workload in DISCOVER_SHAPES:
        manifest = _discover_manifest(workload, seed, directory)
    elif workload == "queries":
        manifest = _queries_manifest(seed, directory)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest
