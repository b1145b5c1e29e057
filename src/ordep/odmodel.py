"""Order dependencies: list form, canonical set form, and their semantics.

A list dependency `[A,B] -> [C,D]` states that sorting by the left list
also sorts by the right list (lexicographically, ties broken by later
attributes).  Every list dependency is equivalent to a polynomial-size
set of canonical dependencies of just two shapes:

* ConstantOD  -- `{X}: [] |-> A`: within each group of rows equal on
  the context X, attribute A is single-valued;
* OrderCompatOD -- `{X}: A ~ B`: within each group equal on X, no two
  rows order one way by A and the opposite way by B (no swap).

A list dependency is decided through that equivalence only: it holds
exactly when every member of its mapped set holds, and each member is
checked on partitions.  The pairwise definitions on raw values live in
`oracle`, which cross-checks this module.  Row pairs are enumerated here
only to list witnesses (`find_splits`, `find_swaps`), and a list
dependency's witnesses are those of its mapping (`violations`).  Pairs
come out in their final (s, t) order, one context class at a time: for
each row s, ascending, the qualifying rows t of s's class, ascending.
Nothing is sorted afterwards, and the CLI writes them in batches.

Attribute identifiers are deliberately generic: the discovery engine
works with 0-based column indices, while parsed text and inference over
abstract schemas use attribute-name strings.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import ODSyntaxError
from .partitions import partition_set, sorted_partition, check_constant, check_order_compatible


def normalize_spec(spec) -> tuple:
    """Drop repeated attributes, keeping first occurrences.

    Later occurrences of an attribute can never break a tie the first
    occurrence left, so the shortened list orders rows identically.
    """
    seen = set()
    out = []
    for a in spec:
        if a not in seen:
            seen.add(a)
            out.append(a)
    return tuple(out)


def is_trivial(context, attrs) -> bool:
    """Whether the canonical dependency relating attrs under context
    holds on any data: an attribute repeats (identity) or sits in its
    own context (reflexivity).  Such dependencies are never built."""
    return len(set(attrs)) < len(attrs) or any(a in context for a in attrs)


class ListOD(namedtuple("ListOD", "lhs rhs")):
    """A list-form dependency lhs -> rhs. Both sides are normalized."""

    __slots__ = ()

    def __new__(cls, lhs, rhs):
        return tuple.__new__(cls, (normalize_spec(lhs), normalize_spec(rhs)))

    # `_replace` rebuilds through `_make`: send it through the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


class ConstantOD(namedtuple("ConstantOD", "context attr")):
    """`context: [] |-> attr`; trivial forms (attr in context) are rejected."""

    __slots__ = ()

    def __new__(cls, context, attr):
        context = frozenset(context)
        if attr in context:
            raise ODSyntaxError(f"trivial constant dependency: {attr!r} is in its own context")
        return tuple.__new__(cls, (context, attr))

    _make = classmethod(lambda cls, fields: cls(*fields))


class OrderCompatOD(namedtuple("OrderCompatOD", "context a b")):
    """`context: a ~ b`, stored with a < b; trivial forms are rejected."""

    __slots__ = ()

    def __new__(cls, context, a, b):
        context = frozenset(context)
        if a == b:
            raise ODSyntaxError("trivial order compatibility: identical attributes")
        if a in context or b in context:
            raise ODSyntaxError("trivial order compatibility: attribute is in its own context")
        if b < a:
            a, b = b, a
        return tuple.__new__(cls, (context, a, b))

    _make = classmethod(lambda cls, fields: cls(*fields))


def od_level(od) -> int:
    """Attributes a canonical dependency spans: its context plus the
    one (constant) or two (order compatibility) it relates."""
    return len(od.context) + (1 if isinstance(od, ConstantOD) else 2)


def od_attrs(od) -> tuple:
    """The attributes a canonical dependency mentions: its context, then
    the one or two it relates."""
    if isinstance(od, ConstantOD):
        return (*od.context, od.attr)
    return (*od.context, od.a, od.b)


def od_sort_key(od):
    """Level-first order of canonical dependencies: level, sorted
    context, constants before order compatibilities, attributes."""
    return (
        od_level(od),
        tuple(sorted(od.context)),
        0 if isinstance(od, ConstantOD) else 1,
        (od.attr,) if isinstance(od, ConstantOD) else (od.a, od.b),
    )


class ViolationReport(namedtuple("ViolationReport", "kind over attrs pairs")):
    """Witness pairs for one failed check.

    kind is "split" (rows equal on `over` but unequal on `attrs`) or
    "swap" (rows in one `over`-class ordered oppositely by the two
    attrs).  Pairs carry 1-based row numbers of the input.
    """

    __slots__ = ()


def _resolve(rel, attrs):
    return [rel.attr_index(a) for a in attrs]


def _row_keys(rel, spec) -> list[tuple]:
    """Each row's tuple of ranks under spec; tuples compare
    lexicographically, ties broken by later attributes."""
    cols = [rel.columns[a] for a in _resolve(rel, spec)]
    return list(zip(*cols)) if cols else [()] * rel.row_count


def map_list_to_canonical(od: ListOD) -> tuple:
    """Translate a list dependency into its equivalent canonical set.

    For lhs X = [x1..xk] and rhs Y = [y1..ym]:
      * {X}: [] |-> yj for every j, and
      * {x1..x(i-1), y1..y(j-1)}: xi ~ yj for every i, j,
    with trivial members dropped.  At most |Y| + |X||Y| dependencies.
    """
    X, Y = od.lhs, od.rhs
    ctx_all = frozenset(X)
    out = []
    for yj in Y:
        if not is_trivial(ctx_all, (yj,)):
            out.append(ConstantOD(ctx_all, yj))
    for i in range(len(X)):
        for j in range(len(Y)):
            ctx = frozenset(X[:i]) | frozenset(Y[:j])
            if not is_trivial(ctx, (X[i], Y[j])):
                out.append(OrderCompatOD(ctx, X[i], Y[j]))
    return tuple(dict.fromkeys(out))


def validate_canonical(rel, od) -> bool:
    """Check one canonical dependency against the data via partitions."""
    ctx = partition_set(rel, [rel.attr_index(a) for a in od.context])
    if isinstance(od, ConstantOD):
        return check_constant(ctx, rel.column(od.attr))
    tau = sorted_partition(rel, od.a)
    return check_order_compatible(ctx, tau, rel.column(od.b))


def satisfies_list_od(rel, od: ListOD) -> bool:
    """Check lhs -> rhs through its canonical mapping: the list
    dependency holds exactly when every mapped member does."""
    return all(validate_canonical(rel, c) for c in map_list_to_canonical(od))


def order_equivalent(rel, x, y) -> bool:
    """Both lists sort the relation identically (each implies the other)."""
    return satisfies_list_od(rel, ListOD(tuple(x), tuple(y))) and satisfies_list_od(
        rel, ListOD(tuple(y), tuple(x))
    )


def order_compatible(rel, x, y) -> bool:
    """The concatenations xy and yx are order equivalent."""
    x, y = tuple(x), tuple(y)
    return order_equivalent(rel, x + y, y + x)


def _by_row(rel, context):
    """(s, class, i) for every row s of a context class, by ascending
    s, where class is s's class (ascending rows) and i its position."""
    where = [None] * rel.row_count
    for rows in partition_set(rel, context).classes:
        for i, s in enumerate(rows):
            where[s] = (s, rows, i)
    return [w for w in where if w is not None]


def _split_pairs(rel, x, y):
    """Yield find_splits' pairs in ascending (s, t) order."""
    keys = _row_keys(rel, y)
    number = list(range(1, rel.row_count + 1))  # one int per row, shared by its pairs
    for s, rows, i in _by_row(rel, x):
        key, ns = keys[s], number[s]
        yield from [(ns, number[t]) for t in rows[i + 1 :] if keys[t] != key]


def _swap_pairs(rel, context, a, b):
    """Yield find_swaps' pairs in ascending (s, t) order."""
    ca, cb = rel.column(a), rel.column(b)
    number = list(range(1, rel.row_count + 1))
    for s, rows, _ in _by_row(rel, context):
        sa, sb, ns = ca[s], cb[s], number[s]
        yield from [(ns, number[t]) for t in rows if ca[t] > sa and cb[t] < sb]


def find_splits(rel, x, y) -> tuple[tuple[int, int], ...]:
    """All row pairs equal on x but unequal on y, as 1-based (s, t), s < t."""
    return tuple(_split_pairs(rel, x, y))


def find_swaps(rel, context, a, b) -> tuple[tuple[int, int], ...]:
    """All swaps of (a, b) within context classes.

    Each pair is reported as 1-based (s, t) with s strictly before t on
    a and strictly after t on b.
    """
    return tuple(_swap_pairs(rel, context, a, b))


def violations(rel, od) -> tuple[ViolationReport, ...]:
    """Witness reports for a failed dependency of any form: its split
    pairs, then its swap pairs, each report present only when non-empty.

    A list dependency's witnesses are those of its canonical mapping.
    Its split pairs, equal on lhs but not on rhs, are the union of the
    mapped constants' splits.  A swap is a pair (s, t) that lhs orders
    strictly s first and rhs strictly t first.  Let lhs[i] and rhs[j]
    be the first attributes of each list on which s and t differ: the
    two rows share a class of lhs[:i] + rhs[:j], lhs[i] orders them one
    way and rhs[j] the other.  So the pair is a swap of exactly one
    mapped member, `{lhs[:i], rhs[:j]}: lhs[i] ~ rhs[j]` (non-trivial,
    as the rows agree on its context and differ on both attributes),
    and `find_swaps` orients it by lhs[i] as the list form does.
    Conversely every such member's swap is a list swap.  The members'
    swap sets are therefore disjoint and their union is the list's, so
    merging the members' ordered swap streams lists it in order.
    """
    if isinstance(od, ListOD):
        from heapq import merge  # here, to keep it off the CLI's import path

        lhs, rhs = over, attrs = od.lhs, od.rhs
        splits = find_splits(rel, lhs, [a for a in rhs if a not in lhs])
        members = [(lhs[:i] + rhs[:j], x, y) for i, x in enumerate(lhs) for j, y in enumerate(rhs)]
        swaps = tuple(merge(*(_swap_pairs(rel, c, x, y) for c, x, y in members if not is_trivial(c, (x, y)))))
    elif isinstance(od, ConstantOD):
        over, attrs = tuple(sorted(od.context)), (od.attr,)
        splits, swaps = find_splits(rel, od.context, attrs), ()
    else:
        over, attrs = tuple(sorted(od.context)), (od.a, od.b)
        splits, swaps = (), find_swaps(rel, od.context, od.a, od.b)
    return tuple(
        ViolationReport(kind, over, attrs, pairs)
        for kind, pairs in (("split", splits), ("swap", swaps))
        if pairs
    )


# ---------------------------------------------------------------------------
# Textual syntax.
#
#   list form      [A,B] -> [C,D]
#   constant form  {A,B}: [] |-> C
#   compat form    {A}: B ~ C
#
# Attribute names are runs of word characters, dots, or percent signs.

_NAME = r"[\w.%]+"
_LIST_RE = re.compile(r"^\s*\[(?P<lhs>[^\]]*)\]\s*->\s*\[(?P<rhs>[^\]]*)\]\s*$")
_CONST_RE = re.compile(r"^\s*\{(?P<ctx>[^}]*)\}\s*:\s*\[\s*\]\s*\|->\s*(?P<attr>" + _NAME + r")\s*$")
_OC_RE = re.compile(
    r"^\s*\{(?P<ctx>[^}]*)\}\s*:\s*(?P<a>" + _NAME + r")\s*~\s*(?P<b>" + _NAME + r")\s*$"
)


def _parse_names(text: str, what: str) -> tuple[str, ...]:
    text = text.strip()
    if not text:
        return ()
    names = []
    for tok in text.split(","):
        tok = tok.strip()
        if not re.fullmatch(_NAME, tok):
            raise ODSyntaxError(f"bad attribute name {tok!r} in {what}")
        names.append(tok)
    return tuple(names)


def parse_canonical_parts(text: str):
    """Split canonical dependency text into raw parts without the
    non-triviality checks: ("constant", ctx, attr) or ("oc", ctx, a, b),
    or None when the text is not canonical syntax at all."""
    m = _CONST_RE.match(text)
    if m:
        return ("constant", frozenset(_parse_names(m.group("ctx"), "context")), m.group("attr"))
    m = _OC_RE.match(text)
    if m:
        return (
            "oc",
            frozenset(_parse_names(m.group("ctx"), "context")),
            m.group("a"),
            m.group("b"),
        )
    return None


def parse_od(text: str):
    """Parse dependency text into a ListOD, ConstantOD, or OrderCompatOD.

    Raises ODSyntaxError for malformed text and for canonical forms
    that are trivial (for example `{A}: A ~ B`).
    """
    m = _LIST_RE.match(text)
    if m:
        return ListOD(_parse_names(m.group("lhs"), "lhs"), _parse_names(m.group("rhs"), "rhs"))
    parts = parse_canonical_parts(text)
    if parts is not None:
        if parts[0] == "constant":
            return ConstantOD(parts[1], parts[2])
        return OrderCompatOD(parts[1], parts[2], parts[3])
    raise ODSyntaxError(f"unrecognized dependency syntax: {text!r}")


def format_od(od, names=None) -> str:
    """Render a dependency in the textual syntax.

    `names` maps attribute ids to display names (for index-based
    dependencies pass the schema's name tuple).  Context attributes are
    rendered in ascending id order.
    """

    def disp(a):
        return str(names[a]) if names is not None else str(a)

    if isinstance(od, ListOD):
        return "[{}] -> [{}]".format(
            ",".join(disp(a) for a in od.lhs), ",".join(disp(a) for a in od.rhs)
        )
    ctx = "{" + ",".join(disp(a) for a in sorted(od.context)) + "}"
    if isinstance(od, ConstantOD):
        return f"{ctx}: [] |-> {disp(od.attr)}"
    return f"{ctx}: {disp(od.a)} ~ {disp(od.b)}"


def map_od_attrs(od, fn):
    """Rebuild a dependency with every attribute id passed through fn."""
    if isinstance(od, ListOD):
        return ListOD(tuple(fn(a) for a in od.lhs), tuple(fn(a) for a in od.rhs))
    if isinstance(od, ConstantOD):
        return ConstantOD(frozenset(fn(a) for a in od.context), fn(od.attr))
    return OrderCompatOD(frozenset(fn(a) for a in od.context), fn(od.a), fn(od.b))
