"""Level-wise lattice discovery of all minimal canonical dependencies.

The lattice of attribute sets is walked bottom-up.  A node X of size l
carries the stripped partition over X plus two candidate sets:

* const_cands: attributes A for which `X minus A: [] |-> A` might still
  be minimal (kept over the full schema, not just X, because a valid
  constant dependency also rules out every attribute outside X);
* oc_cands: unordered pairs {A,B} from X for which the compatibility
  `X minus {A,B}: A ~ B` might still be minimal.

Candidate sets shrink monotonically along the lattice: a node inherits
the intersection (constants) or filtered union (pairs) of its parents',
so work already ruled out below is never redone.  A node whose
candidate sets are both empty can be deleted along with every superset,
which provably removes no minimal dependency.

Validating a constant candidate needs the parent's partition, and a
pair candidate the grandparent's, so partitions are kept for a trailing
window of two levels and dropped afterwards.  New partitions come from
the linear-time product of the two parents that generated the node.

Only distinct rows enter the lattice.  Both canonical forms are defined
on pairs of rows: a split is a pair that agrees on the context and
differs on A, a swap a pair that agrees on the context and orders A and
B oppositely.  Two identical rows agree on every attribute, so they are
neither, and a pair that uses a dropped copy has the same values as the
pair that uses the kept row instead, which remains.  A dependency is
therefore valid on the table exactly when it is valid on its distinct
rows, and since minimality is defined through validity alone, so is
being minimal.  The traversal reads the data only through those
validity answers and the superkey shortcut.  The shortcut answers a
constant over a superkey context with "valid", which is the true answer
on either row set.  An order compatibility over a superkey context
never reaches the shortcut: every constant over that context is valid,
so its attributes have already left the candidate sets the pair test
reads.  The candidate sets, the surviving nodes and the emitted
sequence are thus identical on both row sets; only the work done
differs, including which contexts the statistics count as keys.
Dropping rows never drops a value, so the rank columns stay dense.  The
stop rule for relations of at most one row reads the input's row count,
so `levels_processed` and `exhausted` do not depend on the duplicates
either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .odmodel import ConstantOD, OrderCompatOD
from .partitions import (
    check_constant,
    check_order_compatible,
    class_labels,
    empty_context_partition,
    partition_single,
    product,
    sorted_partition,
)
from .relation import Relation


@dataclass
class LevelStats:
    level: int
    nodes_generated: int = 0
    nodes_pruned: int = 0
    constant_checks: int = 0
    swap_checks: int = 0
    keys_found: int = 0
    ods_found: int = 0


@dataclass(frozen=True)
class DiscoveryStats:
    levels: tuple[LevelStats, ...]

    @property
    def nodes_generated(self) -> int:
        return sum(s.nodes_generated for s in self.levels)

    @property
    def nodes_pruned(self) -> int:
        return sum(s.nodes_pruned for s in self.levels)

    @property
    def constant_checks(self) -> int:
        return sum(s.constant_checks for s in self.levels)

    @property
    def swap_checks(self) -> int:
        return sum(s.swap_checks for s in self.levels)

    @property
    def keys_found(self) -> int:
        return sum(s.keys_found for s in self.levels)


@dataclass(frozen=True)
class DiscoveryResult:
    """Every minimal canonical dependency with at most max_level
    attributes overall (context plus checked attributes), in a
    deterministic emission order, plus traversal statistics and the
    number of distinct rows the traversal ran over."""

    ods: tuple
    stats: DiscoveryStats
    levels_processed: int
    max_level: int
    exhausted: bool
    distinct_rows: int


class _Node:
    __slots__ = ("attrs", "partition", "const_cands", "oc_cands")

    def __init__(self, attrs, partition):
        self.attrs = attrs
        self.partition = partition
        self.const_cands = set()
        self.oc_cands = set()


def discover(rel, max_level: int | None = None) -> DiscoveryResult:
    """Find the complete minimal set of canonical dependencies."""
    return _run(rel, max_level, prune=True)


def discover_unpruned(rel, max_level: int | None = None) -> DiscoveryResult:
    """Same result as discover(), with node deletion and superkey
    shortcuts disabled; only the statistics differ."""
    return _run(rel, max_level, prune=False)


def _sorted_attrs(attrs):
    return tuple(sorted(attrs))


def _distinct_rows(rel):
    """rel restricted to the first occurrence of each rank row, or rel
    itself when its rows are already distinct.  The result carries rank
    columns only: the lattice never reads raw values."""
    rows = dict.fromkeys(zip(*rel.columns))
    if len(rows) == rel.row_count:
        return rel
    return Relation(rel.schema, len(rows), tuple(zip(*rows)))


def _run(rel, max_level, prune: bool) -> DiscoveryResult:
    input_rows = rel.row_count
    rel = _distinct_rows(rel)
    n_attrs = rel.attr_count
    cap = n_attrs if max_level is None else max(1, min(max_level, n_attrs))
    cols = rel.columns
    taus = [sorted_partition(rel, a) for a in range(n_attrs)]
    all_attrs = frozenset(range(n_attrs))

    ods = []
    level_stats: list[LevelStats] = []

    root = _Node(frozenset(), empty_context_partition(rel))
    root.const_cands = set(range(n_attrs))
    grandparents: dict[frozenset, _Node] = {}
    parents: dict[frozenset, _Node] = {root.attrs: root}
    nodes: dict[frozenset, _Node] = {
        frozenset({a}): _Node(frozenset({a}), partition_single(rel, a)) for a in range(n_attrs)
    }

    level = 1
    exhausted = True
    while nodes:
        stats = LevelStats(level=level, nodes_generated=len(nodes))
        level_stats.append(stats)
        order = sorted(nodes, key=_sorted_attrs)

        # First pass: derive candidate sets from the parents.
        for X in order:
            node = nodes[X]
            inherited = None
            for a in X:
                pc = parents[X - {a}].const_cands
                inherited = set(pc) if inherited is None else inherited & pc
            node.const_cands = inherited
            if level == 2:
                node.oc_cands = {X}
            elif level > 2:
                pool = set()
                for c in X:
                    pool |= parents[X - {c}].oc_cands
                node.oc_cands = {
                    pair for pair in pool if all(pair in parents[X - {d}].oc_cands for d in X - pair)
                }

        # Second pass: validate surviving candidates.
        for X in order:
            node = nodes[X]
            for a in sorted(X & node.const_cands):
                ctx = X - {a}
                part = parents[ctx].partition
                if prune and part.is_superkey():
                    stats.keys_found += 1
                    valid = True
                else:
                    stats.constant_checks += 1
                    valid = check_constant(part, cols[a])
                if valid:
                    ods.append(ConstantOD(ctx, a))
                    stats.ods_found += 1
                    node.const_cands.discard(a)
                    node.const_cands -= all_attrs - X
            for pair in sorted(node.oc_cands, key=_sorted_attrs):
                a, b = sorted(pair)
                if (
                    a not in parents[X - {b}].const_cands
                    or b not in parents[X - {a}].const_cands
                ):
                    node.oc_cands.discard(pair)
                    continue
                ctx = X - pair
                part = grandparents[ctx].partition if level > 2 else root.partition
                if prune and part.is_superkey():
                    # Valid over a superkey context, but never minimal.
                    stats.keys_found += 1
                    node.oc_cands.discard(pair)
                    continue
                stats.swap_checks += 1
                if check_order_compatible(part, taus[a], cols[b]):
                    ods.append(OrderCompatOD(ctx, a, b))
                    stats.ods_found += 1
                    node.oc_cands.discard(pair)

        # Third pass: drop nodes that can no longer contribute.
        if prune and level >= 2:
            dead = [X for X, node in nodes.items() if not node.const_cands and not node.oc_cands]
            for X in dead:
                del nodes[X]
            stats.nodes_pruned = len(dead)

        if input_rows <= 1 or level >= cap:
            exhausted = input_rows <= 1 or not _next_level_keys(nodes)
            break
        grandparents = parents
        parents = nodes
        nodes = _next_level(parents)
        level += 1

    return DiscoveryResult(
        ods=tuple(ods),
        stats=DiscoveryStats(tuple(level_stats)),
        levels_processed=level_stats[-1].level if level_stats else 0,
        max_level=cap,
        exhausted=exhausted,
        distinct_rows=rel.row_count,
    )


def _prefix_blocks(level_nodes):
    """Group node keys by their sorted (l-1)-prefix."""
    blocks: dict[tuple, list[tuple]] = {}
    for X in level_nodes:
        t = _sorted_attrs(X)
        blocks.setdefault(t[:-1], []).append(t)
    for members in blocks.values():
        members.sort()
    return blocks


def _next_level_keys(level_nodes):
    keys = []
    for members in _prefix_blocks(level_nodes).values():
        for t1, t2 in combinations(members, 2):
            candidate = frozenset(t1) | frozenset(t2)
            if all(candidate - {a} in level_nodes for a in candidate):
                keys.append((frozenset(t1), frozenset(t2), candidate))
    return keys


def _next_level(level_nodes):
    nxt: dict[frozenset, _Node] = {}
    # Consecutive pairs within a prefix block share the left operand,
    # so its row->class labels are built once and reused.
    last_left = None
    last_labels = None
    for left, right, candidate in _next_level_keys(level_nodes):
        p = level_nodes[left].partition
        if left != last_left:
            last_left = left
            last_labels = class_labels(p)
        part = product(p, level_nodes[right].partition, last_labels)
        nxt[candidate] = _Node(candidate, part)
    return nxt
