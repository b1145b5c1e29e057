"""Typed relations with order-preserving integer rank columns.

A relation is loaded once, every column is replaced by dense integer
ranks (1..d for the d distinct non-null values, in ascending value
order), and all downstream validation and discovery work happens on
those ranks.  Nulls are mapped below or above every value depending on
the null policy.  Row identity is positional: internally rows are
0-based, while anything user-facing (violation reports, CLI output)
uses the 1-based row number of the input file.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import namedtuple
from datetime import date
from operator import itemgetter

from .errors import ParseError, SchemaError

TYPES = ("integer", "float", "text", "date")
NULL_POLICIES = ("nulls_first", "nulls_last", "reject")

_PY_TYPES = {
    "integer": int,
    "float": float,
    "text": str,
    "date": date,
}


class Schema(namedtuple("Schema", "attributes null_policy")):
    """Ordered attribute declarations plus the relation's null policy.

    attributes: tuple of (name, type) pairs; type is one of
    "integer", "float", "text", "date".
    """

    __slots__ = ()

    def __new__(cls, attributes, null_policy="nulls_first"):
        attributes = tuple((n, t) for n, t in attributes)
        seen = set()
        for name, typ in attributes:
            if not name:
                raise SchemaError("empty attribute name")
            if name in seen:
                raise SchemaError(f"duplicate attribute name {name!r}")
            seen.add(name)
            if typ not in TYPES:
                raise SchemaError(f"unknown type {typ!r} for attribute {name!r}")
        if null_policy not in NULL_POLICIES:
            raise SchemaError(f"unknown null policy {null_policy!r}")
        return tuple.__new__(cls, (attributes, null_policy))

    # `_replace` rebuilds through `_make`: send it through the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.attributes)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.attributes):
            if n == name:
                return i
        raise SchemaError(f"no attribute named {name!r}")

    def type_of(self, idx: int) -> str:
        return self.attributes[idx][1]

    @classmethod
    def from_json(cls, text: str) -> "Schema":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"schema is not valid JSON: {exc}") from exc
        if isinstance(doc, list):
            attrs, policy = doc, "nulls_first"
        elif isinstance(doc, dict):
            attrs = doc.get("attributes")
            policy = doc.get("null_policy", "nulls_first")
        else:
            raise SchemaError("schema must be a JSON object or array")
        if not isinstance(attrs, list):
            raise SchemaError('schema object needs an "attributes" array')
        pairs = []
        for rec in attrs:
            if not isinstance(rec, dict) or not all(isinstance(rec.get(k), str) for k in ("name", "type")):
                raise SchemaError("each attribute record needs a string name and type")
            pairs.append((rec["name"], rec["type"]))
        return cls(tuple(pairs), policy)

    def to_json(self) -> str:
        doc = {
            "attributes": [{"name": n, "type": t} for n, t in self.attributes],
            "null_policy": self.null_policy,
        }
        return json.dumps(doc, indent=2)


_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def parse_value(text: str, typ: str):
    """Parse one CSV field under the declared type. Empty field is null.

    Text holding lone surrogates (bytes that were not UTF-8, read with
    errors="surrogateescape") is rejected under every type.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"not valid UTF-8: {text!r}") from None
    if text == "":
        return None
    if typ == "integer":
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"not an integer: {text!r}")
    if typ == "float":
        try:
            val = float(text)
        except ValueError:
            raise ParseError(f"not a float: {text!r}")
        if math.isnan(val):
            # NaN has no place in a total order.
            raise ParseError("NaN is not allowed")
        return val
    if typ == "date":
        # Python 3.11+ fromisoformat also takes 20200101, 2020-W01-1, ...
        if _ISO_DATE.fullmatch(text):
            try:
                return date.fromisoformat(text)
            except ValueError:
                pass
        raise ParseError(f"not an ISO date: {text!r}")
    return text


def encode_ranks(values, typ: str, null_policy: str = "nulls_first") -> list[int]:
    """Map raw values to dense order-preserving ranks.

    Distinct non-null values get 1..d in ascending order; nulls get 0
    under nulls_first, d+1 under nulls_last, and raise under reject.
    Equal values always share a rank, so both equality and relative
    order survive the encoding.
    """
    py = _PY_TYPES[typ]
    nonnull = []
    has_null = False
    for v in values:
        if v is None:
            has_null = True
            continue
        if typ == "float" and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if not isinstance(v, py) or isinstance(v, bool):
            raise ParseError(f"value {v!r} does not match declared type {typ!r}")
        if typ == "float" and math.isnan(v):
            raise ParseError("NaN is not allowed")
        nonnull.append(v)
    if has_null and null_policy == "reject":
        raise ParseError("null value under reject policy")
    distinct = sorted(set(nonnull))
    rank = {v: i + 1 for i, v in enumerate(distinct)}
    null_rank = 0 if null_policy == "nulls_first" else len(distinct) + 1
    out = []
    for v in values:
        if v is None:
            out.append(null_rank)
        elif typ == "float" and isinstance(v, int):
            out.append(rank[float(v)])
        else:
            out.append(rank[v])
    return out


class Relation(namedtuple("Relation", "schema row_count columns raw_columns", defaults=((),))):
    """An immutable table of rank-encoded columns.

    columns[i][t] is the rank of row t under attribute i; raw_columns
    keeps the parsed values so reference checks can bypass the encoding
    entirely, and is () on a relation loaded without them.  The repr
    leaves raw_columns out.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Relation(schema={self.schema!r}, row_count={self.row_count!r}, columns={self.columns!r})"

    @property
    def attr_count(self) -> int:
        return len(self.schema.attributes)

    def attr_index(self, attr) -> int:
        if isinstance(attr, int):
            if not 0 <= attr < self.attr_count:
                raise SchemaError(f"attribute index {attr} out of range")
            return attr
        return self.schema.index(attr)

    def attr_name(self, idx: int) -> str:
        return self.schema.attributes[idx][0]

    def column(self, attr) -> tuple[int, ...]:
        return self.columns[self.attr_index(attr)]

    def raw_column(self, attr) -> tuple:
        return self.raw_columns[self.attr_index(attr)]

    @classmethod
    def from_columns(cls, schema: Schema, cols) -> "Relation":
        cols = [list(c) for c in cols]
        if len(cols) != len(schema.attributes):
            raise SchemaError(
                f"expected {len(schema.attributes)} columns, got {len(cols)}"
            )
        n = len(cols[0]) if cols else 0
        for c in cols:
            if len(c) != n:
                raise SchemaError("columns differ in length")
        ranked = tuple(
            tuple(encode_ranks(c, schema.type_of(i), schema.null_policy))
            for i, c in enumerate(cols)
        )
        return cls(schema, n, ranked, tuple(tuple(c) for c in cols))

    @classmethod
    def from_rows(cls, schema: Schema, rows) -> "Relation":
        rows = list(rows)
        k = len(schema.attributes)
        for r, row in enumerate(rows):
            if len(row) != k:
                raise ParseError(f"expected {k} fields, got {len(row)}", row=r + 1)
        cols = [[row[i] for row in rows] for i in range(k)]
        return cls.from_columns(schema, cols)


def _read_records(path):
    """Every CSV record of a UTF-8 file, plus a ParseError naming the
    record the csv module could not read (a field over
    csv.field_size_limit(), say), or None when all were read.

    Bytes that are not UTF-8 become lone surrogates, which parse_value
    rejects, so they are reported like any bad cell, with row and column.
    """
    records = []
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            for fields in csv.reader(fh):
                records.append(fields)
        except csv.Error as exc:
            return records, ParseError(f"unreadable CSV record: {exc}", row=len(records) + 1)
    return records, None


def load_csv(path, schema: Schema, has_header: bool = True, raw: bool = True) -> Relation:
    """Load an RFC-4180 CSV file under a declared schema.

    With a header, columns are matched to schema attributes by name (any
    file order); without one, positionally.  Every data row must have
    exactly one field per attribute.  Empty fields are nulls.

    Work is done column by column: each distinct text of a column is
    parsed once, the distinct values are ranked once, and every cell is
    mapped through text -> rank and text -> value.  Texts that parse to
    equal values ("1", "01") share a rank, and each row keeps its own
    parsed value.  Errors are those of a row-major scan: the first bad
    row wins (wrong width, unreadable record, or a cell that does not
    parse), then its first bad column in schema order; a null under the
    reject policy is reported only when nothing else is wrong.

    With raw=False the relation carries rank columns only
    (`raw_columns == ()`): the cell -> value map is skipped, and with it
    one reference per cell held for as long as the relation lives.  Only
    the brute-force oracle reads raw values, so the CLI loads them only
    under --oracle.  Errors and everything else are the same either way.
    """
    names = schema.names
    records, stop = _read_records(path)
    order = list(range(len(names)))
    start_row = 1
    if has_header:
        if not records:
            raise stop or ParseError("file is empty but a header was expected")
        header = records[0]
        dupes = {h for h in header if header.count(h) > 1}
        if dupes:
            raise ParseError(f"duplicate header names: {sorted(dupes)}", row=1)
        if set(header) != set(names):
            raise ParseError(
                f"header {header} does not match schema attributes {list(names)}",
                row=1,
            )
        order = [header.index(n) for n in names]
        del records[0]
        start_row = 2
    for r, fields in enumerate(records):
        if len(fields) != len(names):
            stop = ParseError(f"expected {len(names)} fields, got {len(fields)}", row=start_row + r)
            del records[r:]
            break
    texts = [tuple(map(itemgetter(j), records)) for j in order]
    del records

    # Distinct texts come in first-occurrence order, so the first text a
    # column fails on sits in that column's earliest bad row.
    values = []
    bad = []
    for i, col in enumerate(texts):
        parsed = {}
        for text in dict.fromkeys(col):
            try:
                parsed[text] = parse_value(text, schema.type_of(i))
            except ParseError as exc:
                bad.append((col.index(text), i, exc.args[0]))
                break
        values.append(parsed)
    if bad:
        r, i, message = min(bad)
        raise ParseError(message, row=start_row + r, column=names[i])
    if stop is not None:
        raise stop

    columns = []
    for i, (col, parsed) in enumerate(zip(texts, values)):
        try:
            ranks = encode_ranks(list(parsed.values()), schema.type_of(i), schema.null_policy)
        except ParseError as exc:
            raise ParseError(f"encoding failed: {exc}") from exc
        rank_of = dict(zip(parsed, ranks))
        columns.append(tuple(map(rank_of.__getitem__, col)))
    raw_columns = ()
    if raw:
        raw_columns = tuple(tuple(map(parsed.__getitem__, col)) for col, parsed in zip(texts, values))
    return Relation(schema, len(texts[0]) if texts else 0, tuple(columns), raw_columns)


def infer_schema(path, has_header: bool = True, null_policy: str = "nulls_first") -> Schema:
    """Guess a schema by trial parsing: integer, then float, date, text.

    Each distinct non-empty text of a column is tried once per type.
    Convenience for the CLI; declared schemas are authoritative.
    """
    rows, stop = _read_records(path)
    if not rows:
        raise stop or ParseError("cannot infer a schema from an empty file")
    if has_header:
        names, data, start_row = rows[0], rows[1:], 2
        for name in names:
            try:
                parse_value(name, "text")
            except ParseError as exc:
                raise ParseError(exc.args[0], row=1) from None
    else:
        names = [f"c{i + 1}" for i in range(len(rows[0]))]
        data, start_row = rows, 1
    types = []
    bad = []
    for i, name in enumerate(names):
        texts = dict.fromkeys(r[i] for r in data if i < len(r))
        texts.pop("", None)
        for cand in ("integer", "float", "date", "text"):
            try:
                for text in texts:
                    parse_value(text, cand)
            except ParseError as exc:
                failed = (text, exc.args[0])
                continue
            types.append((name, cand))
            break
        else:
            # Only text that is not UTF-8 fails as text.
            text, message = failed
            r = next(r for r, row in enumerate(data) if i < len(row) and row[i] == text)
            bad.append((r, i, message))
    if bad:
        r, i, message = min(bad)
        raise ParseError(message, row=start_row + r, column=names[i])
    if stop is not None:
        raise stop
    return Schema(tuple(types), null_policy)
