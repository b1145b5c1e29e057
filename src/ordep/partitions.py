"""Equivalence-class partitions over rank columns.

Three views of a column (or column set) drive everything here:

* a stripped partition: the equivalence classes of rows agreeing on a
  set of attributes, with singleton classes removed (a lone row can
  never witness a violation);
* a sorted partition: the classes of a single attribute ordered by
  ascending rank, singletons included, used as the ordering index for
  swap checks;
* products: the stripped partition of a union of attribute sets,
  computed from two existing partitions in linear time.

Classes are tuples of 0-based row indices in ascending order; lists of
classes are ordered by their smallest member, which makes every
operation reproducible.  Partitions built from the columns themselves
group rows in one step, `_group_rows`, whose groups come out ascending
and ordered by first row.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter


class StrippedPartition(namedtuple("StrippedPartition", "classes row_count")):
    """Equivalence classes of size >= 2, each ascending, ordered by head."""

    __slots__ = ()

    @property
    def stripped_row_count(self) -> int:
        return sum(len(c) for c in self.classes)

    def is_superkey(self) -> bool:
        # No class of size >= 2 means all rows are distinct on the set.
        return not self.classes


class SortedPartition(namedtuple("SortedPartition", "classes row_count position")):
    """All classes of one attribute, ascending by rank, singletons kept.

    position[t] is the index of row t's class within `classes`; the
    check routines use it as an O(1) ordering lookup instead of
    rescanning the class list.  The repr leaves it out.
    """

    __slots__ = ()

    def __repr__(self):
        return f"SortedPartition(classes={self.classes!r}, row_count={self.row_count!r})"

    def bucketize(self, rows) -> tuple[tuple[int, ...], ...]:
        """Split `rows` into maximal runs equal on the attribute,
        ordered ascending by rank. Row order within a bucket follows
        the input order."""
        groups: dict[int, list[int]] = {}
        for t in rows:
            groups.setdefault(self.position[t], []).append(t)
        return tuple(tuple(groups[p]) for p in sorted(groups))


def _group_rows(keys) -> dict:
    """Rows grouped by key: key -> ascending list of the rows t whose
    key is keys[t], with keys in order of their first row."""
    groups: dict = {}
    for t, key in enumerate(keys):
        g = groups.get(key)
        if g is None:
            groups[key] = [t]
        else:
            g.append(t)
    return groups


def partition_single(rel, attr) -> StrippedPartition:
    """Stripped partition of one attribute."""
    groups = _group_rows(rel.column(attr))
    return StrippedPartition(tuple(tuple(g) for g in groups.values() if len(g) >= 2), rel.row_count)


def partition_set(rel, attrs) -> StrippedPartition:
    """Stripped partition of an attribute set, grouped from scratch.

    The incremental route during lattice traversal is `product`; this
    is the direct constructor for standalone validation.
    """
    idx = sorted(rel.attr_index(a) for a in set(attrs))
    if not idx:
        return empty_context_partition(rel)
    groups = _group_rows(zip(*(rel.columns[i] for i in idx)))
    return StrippedPartition(tuple(tuple(g) for g in groups.values() if len(g) >= 2), rel.row_count)


def empty_context_partition(rel) -> StrippedPartition:
    """Partition of the empty attribute set: one class of all rows
    (empty once stripped when the relation has fewer than two rows)."""
    if rel.row_count >= 2:
        return StrippedPartition((tuple(range(rel.row_count)),), rel.row_count)
    return StrippedPartition((), rel.row_count)


def sorted_partition(rel, attr) -> SortedPartition:
    """Sorted partition of one attribute (ascending rank, singletons in)."""
    groups = _group_rows(rel.column(attr))
    classes = tuple(tuple(groups[r]) for r in sorted(groups))
    position = [0] * rel.row_count
    for i, cls in enumerate(classes):
        for t in cls:
            position[t] = i
    return SortedPartition(classes, rel.row_count, tuple(position))


def class_labels(p: StrippedPartition) -> list[int]:
    """Row -> class id map for p, -1 on rows p strips away.

    Callers taking several products against the same left operand can
    build this once and pass it to each product call.
    """
    label = [-1] * p.row_count
    for ci, cls in enumerate(p.classes):
        for t in cls:
            label[t] = ci
    return label


def product(
    p: StrippedPartition, q: StrippedPartition, p_labels: list[int] | None = None
) -> StrippedPartition:
    """Stripped partition of the union of the two underlying sets.

    Probe-table intersection: label every row covered by p with its
    class id, then split each class of q by those labels.  Rows only in
    singleton classes of either side can never land in a class of size
    two, so stripping loses nothing.
    """
    if p.row_count != q.row_count:
        raise ValueError("partitions are over different relations")
    label = class_labels(p) if p_labels is None else p_labels
    # One scratch slot per class of p, cleared after each class of q.
    buckets: list = [None] * len(p.classes)
    out = []
    for cls in q.classes:
        touched = []
        for t in cls:
            li = label[t]
            if li >= 0:
                b = buckets[li]
                if b is None:
                    buckets[li] = [t]
                    touched.append(li)
                else:
                    b.append(t)
        for li in touched:
            rows = buckets[li]
            buckets[li] = None
            if len(rows) >= 2:
                out.append(tuple(rows))
    out.sort(key=itemgetter(0))
    return StrippedPartition(tuple(out), p.row_count)


def first_split(context: StrippedPartition, ranks):
    """The first pair of rows (s, t) that share a class of the context
    but differ on the ranked column, or None when there is none."""
    for cls in context.classes:
        s = cls[0]
        first = ranks[s]
        for t in cls:
            if ranks[t] != first:
                return s, t
    return None


def first_swap(context: StrippedPartition, tau_a: SortedPartition, b_ranks):
    """A pair of rows (s, t) that share a class of the context with s
    strictly before t on A and strictly after it on B, or None when no
    class holds such a swap.

    Within a class, rows are bucketed by their position in tau_a (the
    A-ordering); walking buckets in ascending A order, every B rank
    must be at least the largest B rank seen in strictly earlier
    buckets.  Ties on A impose no constraint, so a bucket is only
    checked against earlier buckets, not against itself.  The first
    bucket that breaks this fails the class, which is then rescanned
    for the two rows that hold those B ranks.
    """
    pos = tau_a.position
    for cls in context.classes:
        buckets: dict[int, list[int]] = {}
        for t in cls:
            p = pos[t]
            rb = b_ranks[t]
            mm = buckets.get(p)
            if mm is None:
                buckets[p] = [rb, rb]
            else:
                if rb < mm[0]:
                    mm[0] = rb
                elif rb > mm[1]:
                    mm[1] = rb
        if len(buckets) < 2:
            continue
        max_before = -1
        for p in sorted(buckets):
            mn, mx = buckets[p]
            if mn < max_before:
                s = next(t for t in cls if pos[t] < p and b_ranks[t] == max_before)
                return s, next(t for t in cls if pos[t] == p and b_ranks[t] == mn)
            if mx > max_before:
                max_before = mx
    return None


def check_constant(context: StrippedPartition, ranks) -> bool:
    """True iff the ranked column is single-valued inside every class."""
    return first_split(context, ranks) is None


def check_order_compatible(context: StrippedPartition, tau_a: SortedPartition, b_ranks) -> bool:
    """True iff no class of the context holds a swap between A and B."""
    return first_swap(context, tau_a, b_ranks) is None
