"""Level-wise lattice discovery of all minimal canonical dependencies.

The lattice of attribute sets is walked bottom-up.  An attribute set
is an int bitmask, bit a standing for attribute a.  A node X of size l
carries the stripped partition over X plus two candidate sets:

* const_cands: a bitmask of the attributes A for which
  `X minus A: [] |-> A` might still be minimal (kept over the full
  schema, not just X, because a valid constant dependency also rules
  out every attribute outside X);
* oc_cands: a bitmask over attribute pairs, bit a*n + b (n attributes)
  standing for the pair (A, B) with A < B from X for which the
  compatibility `X minus {A,B}: A ~ B` might still be minimal.

Candidate sets shrink monotonically along the lattice, so work already
ruled out below is never redone.  A node's constant candidates are the
intersection of its parents'.  A pair is an OC candidate of X when it
is one of every parent that holds both its attributes, so X's pair
mask is the AND, over its members c, of the mask of the parent without
c with every pair involving c added: that parent lets through each
pair it cannot hold, and a pair with an attribute outside X is cleared
by every parent whose removed attribute is not in the pair.  Walking
the set bits in ascending order visits the pairs in lexicographic
order.  A node whose candidate sets are both empty can be deleted along
with every superset, which provably removes no minimal dependency.

Partitions are built on demand.  A node above level 1 is generated by
two nodes one level down that share all but their last attribute.  The
node keeps the two generators and builds its partition the first time
it is read: by a constant check or superkey test over X, made at a
node one level up; by an order compatibility check over X, made two
levels up; or while building a node X generated.  The partition is a
generator's partition refined by the single attribute that generator
lacks (the stripped-partition product of TANE, Huhtala et al. 1999,
with a one-attribute operand): the left generator lacks X's last
attribute, the right one its second-to-last.  A generator already
built is used; when neither is, the left one is built first, the same
way.  The node then drops the generators, so ancestors nothing else
holds are freed.  Most nodes only ever feed candidate sets, so most
partitions are never built.  Each attribute labels its rows at most
once per run, the first time it refines a partition.

The order in which partitions are built, and the generator each is
refined from, cannot change any answer.  The stripped partition of an
attribute set is unique: the groups of at least two rows that agree on
the set, each ascending, ordered by first row, which is the form
`product` returns.  Whenever and through whichever node it is built, a
check reads the partition an eager traversal would have read, so every
check, superkey test and emitted dependency is the same; only the
number of products taken differs.

A failed check leaves behind the pair of rows that falsifies it, kept
as its agree mask: the attributes on which the two rows are equal.
The pair that splits A, or that orders A and B oppositely, does so
under every context inside its agree mask, so a later check of the same
attribute or pair over such a context is answered "invalid" before its
partition is read or built.  Only the maximal masks of each attribute
and each pair are kept, since a mask covers every context its subsets
cover.  This is the negative cover of HyFD (Papenbrock and Naumann,
SIGMOD 2016), used only to refute: a check that no stored mask covers
scans its partition as before, so nothing is ever found valid this
way, and every answer is the one the scan would give.  A refuted check
still counts as a constant or swap check.  It skips the superkey test,
which could not have fired: the two rows differ on A, so they are
distinct, and they agree on the context, so the context's partition
holds them in one class and is not a superkey.  Without pruning there
is no superkey test to skip.  Candidate sets, emission order and every
statistic are therefore those of a run that scans every check; only
the partitions built differ, and a node's generators may be held
longer.

The lists do not start empty: before level 1 they are seeded from a
sample of pairs of distinct rows, as in HyFD's sampling phase.  The
sample pairs the first row with every other row, and each row with its
neighbour in lexicographic order over the columns and over the columns
reversed, which finds pairs that agree on a long prefix or suffix of
the schema.  Each pair gives its agree mask and the mask of attributes
on which its second row is greater, and each distinct pattern is kept
once.  A pattern witnesses a split of A when A is outside its agree
mask, and a swap of A and B when both are outside it and the second
row is greater on exactly one of them.  Each list takes the agree masks
of its witnesses, most agreeing attributes first, keeps those no
earlier one contains, and stops at n masks for n attributes.  A seeded
mask is thus the agree mask of a real split or swap of two distinct
rows, exactly what a failed scan leaves behind, so the argument above
holds unchanged: answers, emission order, `levels_processed`,
`exhausted` and every statistic are those of an unseeded run, and only
`partitions_built` and the work done differ.

The sample works on packed rows.  Each distinct row becomes one int of
n fields, each as wide as the largest rank plus a guard bit, column 0
in the most significant field (and, for the reversed order, in the
least), so integer order is lexicographic order and the two sorts
compare ints.  For a sampled pair (s, t), with H the guard bits and L
the lowest bit of every field, ((s ^ t | H) - L) & H holds the guards
of the fields where the rows differ and ((t | H) - s) & H those where t
is at least s: a field's guard absorbs its own borrow, so none crosses
into the next field.  Both are C-level maps over the sample, and only
the distinct masks are spelled in binary and read back, one character
per field, as attribute bits.  The seeding thus costs n maps over the
N distinct rows per key, two sorts of N ints, seven int operations on
(n * width)-bit ints for each of the 3(N - 1) sampled pairs, and one
conversion per distinct mask.  Each of the n(n + 1)/2 lists then
filters the patterns at C level until it holds n masks, so no list
grows beyond n and every later refutation test scans at most n seeded
masks plus those learned during the walk.

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

from collections import namedtuple
from itertools import combinations, compress, groupby, repeat
from operator import add, and_, lshift, mul, or_, sub, xor

from .odmodel import ConstantOD, OrderCompatOD
from .partitions import (
    class_labels,
    empty_context_partition,
    partition_single,
    product,
    sorted_partition,
)

# The lattice needs the falsifying pair, not just the verdict.  The two
# scans are bound to the names of the boolean checks they underlie
# because perfbench/spans.py times and counts the checks by wrapping
# exactly these two module attributes.
from .partitions import first_split as check_constant
from .partitions import first_swap as check_order_compatible
from .relation import Relation


class LevelStats:
    """Work done on one lattice level, counted while the walk runs."""

    __slots__ = (
        "level",
        "nodes_generated",
        "nodes_pruned",
        "constant_checks",
        "swap_checks",
        "keys_found",
        "ods_found",
    )
    __hash__ = None

    def __init__(
        self,
        level,
        nodes_generated=0,
        nodes_pruned=0,
        constant_checks=0,
        swap_checks=0,
        keys_found=0,
        ods_found=0,
    ):
        self.level = level
        self.nodes_generated = nodes_generated
        self.nodes_pruned = nodes_pruned
        self.constant_checks = constant_checks
        self.swap_checks = swap_checks
        self.keys_found = keys_found
        self.ods_found = ods_found

    def as_dict(self) -> dict:
        """The counts by name, in field order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        return "LevelStats(" + ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items()) + ")"


class DiscoveryStats(namedtuple("DiscoveryStats", "levels")):
    """Per-level statistics of one walk, with their totals."""

    __slots__ = ()

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


_RESULT_FIELDS = "ods stats levels_processed max_level exhausted distinct_rows partitions_built"


class DiscoveryResult(namedtuple("DiscoveryResult", _RESULT_FIELDS)):
    """Every minimal canonical dependency with at most max_level
    attributes overall (context plus checked attributes), in a
    deterministic emission order, plus traversal statistics, the
    number of distinct rows the traversal ran over, and the number of
    partition products it took."""

    __slots__ = ()


class _Node:
    """A lattice node over the attribute set `mask`, whose set bits are
    `members` in ascending order.  Until its partition is read it holds
    None there and the (left, right) nodes that generated it."""

    __slots__ = ("mask", "members", "partition", "generators", "const_cands", "oc_cands")

    def __init__(self, mask, members, partition=None, generators=None):
        self.mask = mask
        self.members = members
        self.partition = partition
        self.generators = generators
        self.const_cands = 0
        self.oc_cands = 0


def discover(rel, max_level: int | None = None) -> DiscoveryResult:
    """Find the complete minimal set of canonical dependencies over at
    most max_level attributes each (at least 1; None for no cap)."""
    return _run(rel, max_level, prune=True)


def discover_unpruned(rel, max_level: int | None = None) -> DiscoveryResult:
    """Same result as discover(), with node deletion and superkey
    shortcuts disabled; only the statistics differ."""
    return _run(rel, max_level, prune=False)


def _distinct_rows(rel):
    """rel restricted to the first occurrence of each rank row, or rel
    itself when its rows are already distinct.  The result carries rank
    columns only: the lattice never reads raw values."""
    rows = dict.fromkeys(zip(*rel.columns))
    if len(rows) == rel.row_count:
        return rel
    return Relation(rel.schema, len(rows), tuple(zip(*rows)))


def _run(rel, max_level, prune: bool) -> DiscoveryResult:
    if max_level is not None and max_level < 1:
        raise ValueError(f"max_level must be at least 1, got {max_level}")
    input_rows = rel.row_count
    rel = _distinct_rows(rel)
    n_attrs = rel.attr_count
    cap = n_attrs if max_level is None else min(max_level, n_attrs)
    cols = rel.columns
    taus = [sorted_partition(rel, a) for a in range(n_attrs)]
    singles = [partition_single(rel, a) for a in range(n_attrs)]
    labels = [None] * n_attrs
    built = 0

    def partition(node):
        nonlocal built
        # Walk down to a built ancestor, through a built generator where
        # there is one and the left one otherwise, then refine back up by
        # the one attribute each step adds.
        path = []
        while node.partition is None:
            path.append(node)
            left, right = node.generators
            node = right if left.partition is None and right.partition is not None else left
        for child in reversed(path):
            a = (child.mask ^ node.mask).bit_length() - 1
            if labels[a] is None:
                labels[a] = class_labels(singles[a])
            child.partition = product(singles[a], node.partition, labels[a])
            child.generators = None
            node = child
        built += len(path)
        return node.partition

    def agree_mask(s, t):
        return sum(1 << i for i, col in enumerate(cols) if col[s] == col[t])

    # Agree masks of row pairs known to falsify a check: splits[a] for
    # constants on a, swaps[a][b] for compatibilities of a and b.  They
    # start from a sample of pairs and grow with every failed scan.
    splits, swaps = _seed(cols)
    ods = []
    level_stats: list[LevelStats] = []

    root = _Node(0, (), empty_context_partition(rel))
    root.const_cands = (1 << n_attrs) - 1
    grandparents: dict[int, _Node] = {}
    parents: dict[int, _Node] = {0: root}
    order = [_Node(1 << a, (a,), singles[a]) for a in range(n_attrs)]
    # involving[c]: the bits of every pair that holds attribute c.
    involving = [0] * n_attrs
    for a, b in combinations(range(n_attrs), 2):
        involving[a] |= 1 << (a * n_attrs + b)
        involving[b] |= 1 << (a * n_attrs + b)

    level = 1
    exhausted = True
    while order:
        stats = LevelStats(level=level, nodes_generated=len(order))
        level_stats.append(stats)

        for node in order:
            X = node.mask
            # Candidates left over from the parents.
            const_cands = -1
            for a in node.members:
                const_cands &= parents[X ^ (1 << a)].const_cands
            oc_cands = 0
            if level == 2:
                a, b = node.members
                oc_cands = 1 << (a * n_attrs + b)
            elif level > 2:
                oc_cands = -1
                for c in node.members:
                    oc_cands &= parents[X ^ (1 << c)].oc_cands | involving[c]

            # Validate the surviving candidates.
            for a in node.members:
                bit = 1 << a
                if not const_cands & bit:
                    continue
                ctx = parents[X ^ bit]
                masks = splits[a]
                if _refuted(masks, ctx.mask):
                    stats.constant_checks += 1
                    continue
                part = partition(ctx)
                if prune and part.is_superkey():
                    stats.keys_found += 1
                else:
                    stats.constant_checks += 1
                    split = check_constant(part, cols[a])
                    if split is not None:
                        _remember(masks, agree_mask(*split))
                        continue
                ods.append(ConstantOD(frozenset(ctx.members), a))
                stats.ods_found += 1
                const_cands &= X ^ bit
            node.const_cands = const_cands
            rest = oc_cands
            while rest:
                pair = rest & -rest
                rest ^= pair
                a, b = divmod(pair.bit_length() - 1, n_attrs)
                bit_a, bit_b = 1 << a, 1 << b
                if not (parents[X ^ bit_b].const_cands & bit_a and parents[X ^ bit_a].const_cands & bit_b):
                    oc_cands ^= pair
                    continue
                ctx = grandparents[X ^ bit_a ^ bit_b]
                masks = swaps[a][b]
                if _refuted(masks, ctx.mask):
                    stats.swap_checks += 1
                    continue
                part = partition(ctx)
                if prune and part.is_superkey():
                    # Valid over a superkey context, but never minimal.
                    stats.keys_found += 1
                    oc_cands ^= pair
                    continue
                stats.swap_checks += 1
                swap = check_order_compatible(part, taus[a], cols[b])
                if swap is not None:
                    _remember(masks, agree_mask(*swap))
                    continue
                ods.append(OrderCompatOD(frozenset(ctx.members), a, b))
                stats.ods_found += 1
                oc_cands ^= pair
            node.oc_cands = oc_cands

        # Drop nodes that can no longer contribute.
        if prune and level >= 2:
            alive = [node for node in order if node.const_cands or node.oc_cands]
            stats.nodes_pruned = len(order) - len(alive)
            order = alive
        nodes = {node.mask: node for node in order}

        if input_rows <= 1 or level >= cap:
            exhausted = input_rows <= 1 or next(_joins(order, nodes), None) is None
            break
        grandparents = parents
        parents = nodes
        order = [
            _Node(left.mask | right.mask, left.members + right.members[-1:], generators=(left, right))
            for left, right in _joins(order, nodes)
        ]
        level += 1

    return DiscoveryResult(
        ods=tuple(ods),
        stats=DiscoveryStats(tuple(level_stats)),
        levels_processed=level_stats[-1].level if level_stats else 0,
        max_level=cap,
        exhausted=exhausted,
        distinct_rows=rel.row_count,
        partitions_built=built,
    )


def _seed(cols):
    """Refutation lists (splits, swaps) from the sampled `_patterns`.
    Each list takes the agree masks of the patterns that witness it,
    most agreeing attributes first, and keeps at most one maximal mask
    per attribute."""
    n_attrs = len(cols)
    splits = [[] for _ in range(n_attrs)]
    swaps = [[[] for _ in range(n_attrs)] for _ in range(n_attrs)]
    patterns = sorted(_patterns(cols), key=lambda p: (-p[0].bit_count(), p))
    full = (1 << n_attrs) - 1
    agree = [m for m, _ in patterns]
    differ = [full ^ m for m in agree]
    above = [u for _, u in patterns]
    below = [full ^ m ^ u for m, u in patterns]
    for a in range(n_attrs):
        splits[a] = _maximal(compress(agree, map(and_, differ, repeat(1 << a))), n_attrs)
    for a, b in combinations(range(n_attrs), 2):
        # A swap differs on a and b, with the second row above on one
        # and below on the other.
        ab = (1 << a) | (1 << b)
        opposite = map(mul, map(and_, above, repeat(ab)), map(and_, below, repeat(ab)))
        swaps[a][b] = _maximal(compress(agree, opposite), n_attrs)
    return splits, swaps


def _patterns(cols) -> set:
    """Each distinct (agree mask, mask of the attributes on which the
    second row is greater) of a sample of pairs of distinct rows: the
    first row with every other, and the neighbours in lexicographic
    order over the columns and over the columns reversed."""
    n_attrs = len(cols)
    if not cols or len(cols[0]) < 2:
        return set()
    # Every row is one int of n fields, one per column, each as wide as
    # the largest rank plus a guard bit that is 0 in a key.  Column 0 is
    # the most significant field of `fwd` and the least of `rev`.
    width = max(map(max, cols)).bit_length() + 1
    fwd = _packed(cols, width)
    lex = sorted(fwd)
    rev = sorted(_packed(cols[::-1], width))
    guards = int(("1" + "0" * (width - 1)) * n_attrs, 2)
    lows = guards >> (width - 1)

    def guard_masks(s, t):
        # Per field, the guard survives (x | guard) - 1 iff x != 0, and
        # (t | guard) - s iff t >= s; no borrow crosses a field.
        differ = map(and_, map(sub, map(or_, map(xor, s, t), repeat(guards)), repeat(lows)), repeat(guards))
        at_least = map(and_, map(sub, map(or_, t, repeat(guards)), s), repeat(guards))
        return set(zip(differ, at_least))

    # In the binary spelling of a guard mask, attribute a's guard is
    # character a * width of a `fwd` mask and (n - 1 - a) * width of a
    # `rev` one.  Each distinct mask is spelled once.
    spelling = f"0{n_attrs * width}b"
    full = (1 << n_attrs) - 1
    forward = guard_masks([fwd[0]] * (len(fwd) - 1), fwd[1:]) | guard_masks(lex, lex[1:])
    reverse = guard_masks(rev, rev[1:])
    patterns = set()
    for masks, first, step in ((forward, (n_attrs - 1) * width, -width), (reverse, 0, width)):
        attrs = {m: int(format(m, spelling)[first::step], 2) for d, g in masks for m in (d, d & g)}
        patterns.update((full ^ attrs[d], attrs[d & g]) for d, g in masks)
    return patterns


def _packed(cols, width):
    """Each row of `cols` (non-negative ranks below 2**width) as one
    int, `width` bits per column, the first column most significant:
    integer order is lexicographic order."""
    keys = cols[0]
    for col in cols[1:]:
        keys = list(map(add, map(lshift, keys, repeat(width)), col))
    return keys


def _maximal(candidates, cap) -> list:
    """The candidate masks that no earlier one contains, at most `cap`
    of them.  Candidates come by descending size, so no mask kept
    contains an earlier one either."""
    masks, outside = [], []
    for m in candidates:
        if all(map(and_, outside, repeat(m))):
            masks.append(m)
            if len(masks) == cap:
                break
            outside.append(~m)
    return masks


def _refuted(masks, ctx_mask) -> bool:
    """True iff some stored agree mask covers the context: its pair of
    rows agrees on every attribute of the context."""
    for m in masks:
        if not ctx_mask & ~m:
            return True
    return False


def _remember(masks, new) -> None:
    """Add agree mask `new` to `masks` and drop the masks it contains,
    which cover no context it does not.  No stored mask contains `new`:
    it comes from a check that none of them refuted, and it covers that
    check's context."""
    masks[:] = [m for m in masks if m & ~new]
    masks.append(new)


def _joins(order, nodes):
    """The (left, right) generator pairs of the next level: nodes of
    `order` that differ only in their last attribute and whose union has
    every one-smaller subset in `nodes`.  `order` is lexicographic by
    members, so its prefix blocks are contiguous and the unions come
    out lexicographic too."""
    for prefix, block in groupby(order, key=lambda node: node.members[:-1]):
        for left, right in combinations(block, 2):
            union = left.mask | right.mask
            if all(union ^ (1 << a) in nodes for a in prefix):
                yield left, right
