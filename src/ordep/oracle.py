"""Brute-force reference implementations.

Everything in this module works on the raw parsed values, never on the
rank encodings, and spells out the pairwise definitions directly.  It
exists to cross-check the partition-based validators and the lattice
discovery; it shares no logic with them, so a bug would have to be made
twice to go unnoticed.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .errors import BudgetExceededError
from .inference import is_minimal_constant, is_minimal_oc
from .odmodel import ConstantOD, ListOD, OrderCompatOD, od_sort_key


class OracleConfig(namedtuple("OracleConfig", "max_level check_budget")):
    """Bounds on a brute-force discovery: attributes per dependency
    (None for no cap) and validity checks before it gives up."""

    __slots__ = ()

    def __new__(cls, max_level=None, check_budget=1_000_000):
        if max_level is not None and max_level < 1:
            raise ValueError(f"max_level must be at least 1, got {max_level}")
        return tuple.__new__(cls, (max_level, check_budget))

    # `_replace` rebuilds through `_make`: send it through the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


def _require_raw(rel) -> None:
    """Fail loudly on a relation loaded without raw values."""
    if len(rel.raw_columns) != rel.attr_count:
        raise ValueError("the oracle reads raw values: load the relation with raw=True")


def _value_key(rel):
    """Comparator key making nulls orderable per the relation's policy."""
    if rel.schema.null_policy == "nulls_last":
        return lambda v: (1, 0) if v is None else (0, v)
    return lambda v: (0, 0) if v is None else (1, v)


def _context_groups(rel, context):
    idx = sorted(rel.attr_index(a) for a in set(context))
    groups: dict[tuple, list[int]] = {}
    for t in range(rel.row_count):
        key = tuple(rel.raw_columns[i][t] for i in idx)
        groups.setdefault(key, []).append(t)
    return list(groups.values())


def brute_validate_canonical(rel, od) -> bool:
    """Pairwise check of a canonical dependency on raw values."""
    _require_raw(rel)
    key = _value_key(rel)
    if isinstance(od, ConstantOD):
        col = rel.raw_column(od.attr)
        for rows in _context_groups(rel, od.context):
            first = col[rows[0]]
            for t in rows:
                if col[t] != first:
                    return False
        return True
    ca = rel.raw_column(od.a)
    cb = rel.raw_column(od.b)
    for rows in _context_groups(rel, od.context):
        for s, t in combinations(rows, 2):
            ka_s, ka_t = key(ca[s]), key(ca[t])
            kb_s, kb_t = key(cb[s]), key(cb[t])
            if ka_s < ka_t and kb_s > kb_t:
                return False
            if ka_s > ka_t and kb_s < kb_t:
                return False
    return True


def lex_leq(rel, s: int, t: int, spec) -> bool:
    """Row s precedes-or-ties row t under the lexicographic spec,
    compared on raw values."""
    _require_raw(rel)
    key = _value_key(rel)
    for a in spec:
        col = rel.raw_column(a)
        ks, kt = key(col[s]), key(col[t])
        if ks < kt:
            return True
        if ks > kt:
            return False
    return True


def brute_validate_list(rel, od: ListOD) -> bool:
    """Pairwise check of a list dependency on raw values."""
    _require_raw(rel)
    key = _value_key(rel)
    lhs = [rel.attr_index(a) for a in od.lhs]
    rhs = [rel.attr_index(a) for a in od.rhs]
    raw = rel.raw_columns

    def leq(s, t, spec):
        for a in spec:
            ks, kt = key(raw[a][s]), key(raw[a][t])
            if ks < kt:
                return True
            if ks > kt:
                return False
        return True

    n = rel.row_count
    for s in range(n):
        for t in range(n):
            if leq(s, t, lhs) and not leq(s, t, rhs):
                return False
    return True


class _BudgetedValidator:
    """Memoizing brute validator that counts every fresh check."""

    def __init__(self, rel, budget):
        self.rel = rel
        self.budget = budget
        self.spent = 0
        self.cache: dict = {}

    def __call__(self, rel, od) -> bool:
        if isinstance(od, ConstantOD):
            key = ("c", od.context, od.attr)
        else:
            key = ("s", od.context, od.a, od.b)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        self.spent += 1
        if self.spent > self.budget:
            raise BudgetExceededError(f"oracle exceeded its budget of {self.budget} checks")
        verdict = brute_validate_canonical(self.rel, od)
        self.cache[key] = verdict
        return verdict


def brute_discover(rel, config: OracleConfig = OracleConfig()) -> tuple:
    """Enumerate every minimal canonical dependency by exhaustion.

    Candidates range over all contexts; a constant candidate plus its
    attribute must fit in max_level attributes, a compatibility
    candidate plus its pair likewise.  Validity and minimality both go
    through the raw-value validator.
    """
    _require_raw(rel)
    n_attrs = rel.attr_count
    cap = n_attrs if config.max_level is None else min(config.max_level, n_attrs)
    attrs = range(n_attrs)
    check = _BudgetedValidator(rel, config.check_budget)
    found = []
    for size in range(0, cap):
        for ctx_tuple in combinations(attrs, size):
            ctx = frozenset(ctx_tuple)
            for a in attrs:
                if a in ctx:
                    continue
                od = ConstantOD(ctx, a)
                if check(rel, od) and is_minimal_constant(rel, ctx, a, validate=check):
                    found.append(od)
            if size + 2 > cap:
                continue
            for a, b in combinations([x for x in attrs if x not in ctx], 2):
                od = OrderCompatOD(ctx, a, b)
                if check(rel, od) and is_minimal_oc(rel, ctx, a, b, validate=check):
                    found.append(od)
    found.sort(key=od_sort_key)
    return tuple(found)
