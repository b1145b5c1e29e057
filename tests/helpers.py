"""Seeded generators shared by the randomized tests."""

import csv
import random
from datetime import date, timedelta
from itertools import compress, islice, pairwise, repeat
from operator import eq, lt

from ordep import ParseError, Relation, Schema
from ordep.relation import parse_value

TYPE_POOL = ("integer", "integer", "float", "text", "date")


def domain_values(rng: random.Random, typ: str, size: int) -> list:
    seeds = rng.sample(range(50), size)
    if typ == "integer":
        return seeds
    if typ == "float":
        return [v / 4 for v in seeds]
    if typ == "date":
        return [date(2020, 1, 1) + timedelta(days=v) for v in seeds]
    return [f"v{v:02d}" for v in seeds]


def random_relation(
    rng: random.Random,
    max_attrs: int = 6,
    max_rows: int = 30,
    max_domain: int = 4,
    with_nulls: bool = False,
) -> Relation:
    """A small relation with mixed column types and tiny domains.

    Tiny domains keep equivalence classes large, so dependencies of
    both kinds actually occur instead of everything being a key.
    """
    n_attr = rng.randint(2, max_attrs)
    n_rows = rng.randint(1, max_rows)
    types = [rng.choice(TYPE_POOL) for _ in range(n_attr)]
    policy = rng.choice(("nulls_first", "nulls_last")) if with_nulls else "nulls_first"
    schema = Schema(tuple((f"a{i}", t) for i, t in enumerate(types)), policy)
    cols = []
    for t in types:
        dom = domain_values(rng, t, rng.randint(1, max_domain))
        col = [rng.choice(dom) for _ in range(n_rows)]
        if with_nulls:
            col = [None if rng.random() < 0.15 else v for v in col]
        cols.append(col)
    return Relation.from_columns(schema, cols)


def with_duplicates(rng: random.Random, rel: Relation) -> Relation:
    """rel's rows, each repeated 1-3 times, shuffled."""
    rows = [row for row in zip(*rel.raw_columns) for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    return Relation.from_rows(rel.schema, rows)


def seed_patterns_reference(cols) -> set:
    """Reference for `discovery._patterns`, comparing row tuples element
    by element: each distinct (agree mask, mask of the attributes on
    which the second row is greater) of the first row paired with every
    other and of the neighbours in lexicographic order over the columns
    and over the columns reversed."""
    rows = list(zip(*cols))
    if len(rows) < 2:
        return set()
    bits = [1 << a for a in range(len(cols))]
    samples = (
        (zip(repeat(rows[0]), islice(rows, 1, None)), bits),
        (pairwise(sorted(rows)), bits),
        (pairwise(sorted(zip(*cols[::-1]))), bits[::-1]),
    )
    return {
        (sum(compress(order, map(eq, s, t))), sum(compress(order, map(lt, s, t))))
        for pairs, order in samples
        for s, t in pairs
    }


def random_int_relation(
    rng: random.Random,
    max_attrs: int = 5,
    max_rows: int = 8,
    max_domain: int = 3,
) -> Relation:
    """Integer-only variant; handy when a test re-checks raw values."""
    n_attr = rng.randint(2, max_attrs)
    n_rows = rng.randint(2, max_rows)
    schema = Schema(tuple((f"a{i}", "integer") for i in range(n_attr)))
    cols = []
    for _ in range(n_attr):
        dom = rng.randint(1, max_domain)
        cols.append([rng.randrange(dom + 1) for _ in range(n_rows)])
    return Relation.from_columns(schema, cols)


def load_csv_rowwise(path, schema: Schema, has_header: bool = True) -> Relation:
    """Reference loader: a row-major scan that parses every cell with
    parse_value and encodes through Relation.from_rows.  load_csv must
    give the same relation, or raise the same ParseError."""
    names = schema.names
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        order = list(range(len(names)))
        start_row = 1
        if has_header:
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("file is empty but a header was expected")
            dupes = {h for h in header if header.count(h) > 1}
            if dupes:
                raise ParseError(f"duplicate header names: {sorted(dupes)}", row=1)
            if set(header) != set(names):
                raise ParseError(
                    f"header {header} does not match schema attributes {list(names)}",
                    row=1,
                )
            order = [header.index(n) for n in names]
            start_row = 2
        raw_rows = []
        for lineno, fields in enumerate(reader, start=start_row):
            if len(fields) != len(names):
                raise ParseError(f"expected {len(names)} fields, got {len(fields)}", row=lineno)
            row = []
            for i in range(len(names)):
                try:
                    row.append(parse_value(fields[order[i]], schema.type_of(i)))
                except ParseError as exc:
                    raise ParseError(exc.args[0], row=lineno, column=names[i]) from None
            raw_rows.append(row)
    try:
        return Relation.from_rows(schema, raw_rows)
    except ParseError as exc:
        raise ParseError(f"encoding failed: {exc}") from exc


def infer_schema_rowwise(path, has_header: bool = True, null_policy: str = "nulls_first") -> Schema:
    """Reference schema guess: every non-empty cell of a column is
    trial-parsed as integer, then float, then date; text otherwise."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError("cannot infer a schema from an empty file")
    if has_header:
        names, data = rows[0], rows[1:]
    else:
        names = [f"c{i + 1}" for i in range(len(rows[0]))]
        data = rows
    types = []
    for i, name in enumerate(names):
        cells = [r[i] for r in data if i < len(r) and r[i] != ""]
        chosen = "text"
        for cand in ("integer", "float", "date"):
            try:
                for c in cells:
                    parse_value(c, cand)
            except ParseError:
                continue
            chosen = cand
            break
        types.append((name, chosen))
    return Schema(tuple(types), null_policy)
