"""Bounded forward chaining over the canonical dependency axioms.

The rules are spelled out once, in the rule table `_consequences`, over
non-trivial canonical dependencies (trivial ones are true by
construction and never stored).  `closure`, `derives` and
`derive_with_trace` run its passes to a fixpoint; `apply_axioms_once`
is a single pass.

  commutativity     X: A ~ B  derives  X: B ~ A          (implicit: storage is unordered)
  strengthen        X: [] |-> A  and  XA: [] |-> B   derive  X: [] |-> B
  propagate         X: [] |-> A                      derives X: A ~ B for any B
  augmentation-c    X: [] |-> A                      derives ZX: [] |-> A
  augmentation-oc   X: A ~ B                         derives ZX: A ~ B
  chain             X: A ~ B1, X: Bi ~ Bi+1 (i<n), X: Bn ~ C,
                    and XBi: A ~ C for every i       derive  X: A ~ C

Reflexivity (X: [] |-> A for A in X) and identity (X: A ~ A) only ever
produce trivial dependencies, so applying them is a no-op here.

The chainer is bounded, not a decision procedure: conclusions are kept
only while their context fits max_context_size, and chain instances use
at most max_chain_length intermediate attributes.  Within a universe of
attributes the bounded closure is finite, so iteration terminates.

Constant targets at full context cap.  Read `X: [] |-> A` as the
functional dependency X -> A, and let X+ be the attribute closure of X
over the constant premises (Beeri & Bernstein, TODS 1979).

  Theorem.  If max_context_size >= |U| for the universe U and the
  target's attributes lie in U, the chaser derives `X: [] |-> A`
  exactly when A is in X+.

  Proof.  Only reflexivity, strengthen and augmentation-c conclude a
  constant, and none of them reads an order compatibility, so the
  constant premises alone decide which constants are reached.
  Strengthen is FD transitivity and augmentation-c is FD augmentation,
  both sound, so every derived X: [] |-> A has A in X+.  Conversely,
  let C1, C2, ..., Ck be the order in which the closure adds the
  attributes of X+ outside X: each Cj has a premise Yj: [] |-> Cj with
  Yj inside X C1..C(j-1).  Augmentation-c (or the premise itself) gives
  X C1..C(j-1): [] |-> Cj, a context of at most |X+| - 1 <= |U| - 1
  attributes.  Then strengthen, from X C1..C(i-1): [] |-> Ci and
  X C1..Ci: [] |-> Cj, gives X C1..C(i-1): [] |-> Cj; so
  X C1..Ci: [] |-> Cj is derived from i = j - 1 down to i = 0, which is
  X: [] |-> Cj.  No step builds a context larger than |X+| - 1.

`derives` answers such targets from X+ without chasing, and answers an
order compatibility X: A ~ B with A or B in X+ as derivable (propagate
from X: [] |-> A).  Every other answer, and all of
`derive_with_trace`, still comes from the chaser.  Below the
cap the proof's contexts, which grow to |X+| - 1 attributes, may not
fit, so the chaser answers there; and augmentation ranges over the
universe only, so a target that mentions an attribute outside it is
left to the chaser as well.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, permutations
from operator import attrgetter

from .odmodel import ConstantOD, OrderCompatOD, is_trivial, od_attrs, validate_canonical


class DerivationLimit(namedtuple("DerivationLimit", "max_context_size max_chain_length")):
    """Bounds on a derivation: the largest context it may build and the
    longest chain of order compatibilities it may follow."""

    __slots__ = ()

    def __new__(cls, max_context_size, max_chain_length=3):
        if max_context_size < 0 or max_chain_length < 0:
            raise ValueError("limits must be non-negative")
        return tuple.__new__(cls, (max_context_size, max_chain_length))

    # `_replace` rebuilds through `_make`: send it through the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


class ODSet:
    """An immutable collection of non-trivial canonical dependencies
    over an explicit attribute universe."""

    __slots__ = ("universe", "constants", "ocs")

    def __init__(self, universe, ods=()):
        self.universe = frozenset(universe)
        consts, ocs = set(), set()
        for od in ods:
            if not isinstance(od, (ConstantOD, OrderCompatOD)):
                raise TypeError(f"not a canonical dependency: {od!r}")
            for a in od_attrs(od):
                if a not in self.universe:
                    raise ValueError(f"attribute {a!r} is outside the universe")
            if isinstance(od, ConstantOD):
                consts.add(od)
            else:
                ocs.add(od)
        self.constants = frozenset(consts)
        self.ocs = frozenset(ocs)

    def __len__(self):
        return len(self.constants) + len(self.ocs)

    def __iter__(self):
        return iter(sorted(self.constants | self.ocs, key=_od_key))

    def __contains__(self, od):
        return od in self.constants or od in self.ocs

    def __eq__(self, other):
        return (
            isinstance(other, ODSet)
            and self.universe == other.universe
            and self.constants == other.constants
            and self.ocs == other.ocs
        )

    def __hash__(self):
        return hash((self.universe, self.constants, self.ocs))


def holds_constant(s: ODSet, context: frozenset, attr) -> bool:
    """Membership with trivial dependencies counted as present."""
    return is_trivial(context, (attr,)) or ConstantOD(context, attr) in s.constants


def holds_oc(s: ODSet, context: frozenset, a, b) -> bool:
    return is_trivial(context, (a, b)) or OrderCompatOD(context, a, b) in s.ocs


def _chase(s: ODSet, lim: DerivationLimit, target=None, want_trace=False):
    """Run passes of the rule table to fixpoint (or until target appears).

    Returns (constants, ocs, provenance).  Provenance maps each derived
    dependency to (rule name, premise tuple); premises given as input
    are absent from the map.
    """
    univ = sorted(s.universe)
    consts = set(s.constants)
    ocs = set(s.ocs)
    prov: dict = {}
    changed = True
    while changed and target not in consts and target not in ocs:
        changed = False
        for od, rule, premises in _consequences(consts, ocs, univ, lim):
            pool = consts if isinstance(od, ConstantOD) else ocs
            if od not in pool:
                # Added before the pass resumes, so later rules of the
                # same pass already see it.
                pool.add(od)
                changed = True
                if want_trace:
                    prov[od] = (rule, premises)
    return consts, ocs, prov


def _consequences(consts, ocs, univ, lim: DerivationLimit):
    """The rule table: one pass of every rule over the dependencies in
    consts and ocs, yielding (conclusion, rule name, premise tuple).

    Premises are read in context-first order from the live sets, so a
    caller that adds each conclusion before resuming lets the rest of
    the pass build on it.  Conclusions already present are yielded too.
    """
    max_ctx = lim.max_context_size
    # Constant-premise rules.
    for od in sorted(consts, key=_od_key):
        X, A = od.context, od.attr
        # propagate: X: [] |-> A gives X: A ~ B for every other B.
        if len(X) <= max_ctx:
            for B in univ:
                if B != A and B not in X:
                    yield OrderCompatOD(X, A, B), "propagate", (od,)
        # augmentation: blow the context up by any disjoint Z.
        rest = [z for z in univ if z not in X and z != A]
        for r in range(1, max_ctx - len(X) + 1):
            for extra in combinations(rest, r):
                yield ConstantOD(X | frozenset(extra), A), "augmentation-c", (od,)
        # strengthen: X: [] |-> A and XA: [] |-> B give X: [] |-> B.
        # Every partner shares the context XA, so ordering them by
        # attribute is their `_od_key` order.
        if len(X) <= max_ctx:
            xa = X | {A}
            partners = [c for c in consts if c.context == xa and c.attr not in X]
            for other in sorted(partners, key=attrgetter("attr")):
                yield ConstantOD(X, other.attr), "strengthen", (od, other)
    # Compatibility-premise rules.
    for od in sorted(ocs, key=_od_key):
        X = od.context
        rest = [z for z in univ if z not in X and z not in (od.a, od.b)]
        for r in range(1, max_ctx - len(X) + 1):
            for extra in combinations(rest, r):
                yield OrderCompatOD(X | frozenset(extra), od.a, od.b), "augmentation-oc", (od,)
    # chain: contexts that carry at least one compatibility.
    for X in sorted({od.context for od in ocs}, key=lambda c: (len(c), tuple(sorted(c)))):
        if len(X) > max_ctx:
            continue
        avail = [z for z in univ if z not in X]
        for A, C in combinations(avail, 2):
            if OrderCompatOD(X, A, C) in ocs:
                continue
            mids = [m for m in avail if m != A and m != C]
            hit = _find_chain(ocs, X, A, C, mids, lim.max_chain_length)
            if hit is not None:
                yield OrderCompatOD(X, A, C), "chain", hit


def _od_key(od):
    """Context-first order of canonical dependencies: context size,
    sorted context, constants before order compatibilities, attributes.
    All dependencies over one context are adjacent here, unlike under
    the level-first `odmodel.od_sort_key`."""
    return (
        len(od.context),
        tuple(sorted(od.context)),
        0 if isinstance(od, ConstantOD) else 1,
        (od.attr,) if isinstance(od, ConstantOD) else (od.a, od.b),
    )


def _find_chain(ocs, X, A, C, mids, max_len):
    """First premise tuple proving X: A ~ C through <= max_len middles.

    Only middles m with X: A ~ m in ocs can start a chain, so they are
    found once; a candidate is dropped at its first premise missing from
    ocs, before the rest are built.  Candidates come in the order of
    permutations(mids, n) for n = 1, 2, ..."""
    starts = [(m, OrderCompatOD(X, A, m)) for m in mids]
    starts = [(m, link) for m, link in starts if link in ocs]
    for n in range(1, max_len + 1):
        for first, link in starts:
            rest = [m for m in mids if m != first]
            for tail in permutations(rest, n - 1):
                premises = [link]
                for p in _chain_premises(X, A, C, (first, *tail)):
                    if p not in ocs:
                        break
                    premises.append(p)
                else:
                    return tuple(premises)
    return None


def _chain_premises(X, A, C, seq):
    """The chain rule's premises for middles seq after the first link
    X: A ~ seq[0], in order: the links seq[0] ~ ... ~ seq[-1] ~ C over
    X, then XBi: A ~ C per middle."""
    path = (*seq, C)
    for u, v in zip(path, path[1:]):
        yield OrderCompatOD(X, u, v)
    for m in seq:
        yield OrderCompatOD(X | {m}, A, C)


def apply_axioms_once(s: ODSet, lim: DerivationLimit) -> ODSet:
    """s plus every dependency one rule application away, within limits:
    a single pass of the rule table over s alone."""
    derived = [od for od, _, _ in _consequences(s.constants, s.ocs, sorted(s.universe), lim)]
    return ODSet(s.universe, [*s.constants, *s.ocs, *derived])


def closure(s: ODSet, lim: DerivationLimit) -> ODSet:
    """Least fixpoint of the rules under the given limits."""
    consts, ocs, _ = _chase(s, lim)
    return ODSet(s.universe, consts | ocs)


def _attribute_closure(constants, attrs) -> set:
    """X+ for X = attrs: the attributes that the constant dependencies
    `constants` determine from attrs, each read as an FD."""
    closed = set(attrs)
    changed = True
    while changed:
        changed = False
        for od in constants:
            if od.attr not in closed and od.context <= closed:
                closed.add(od.attr)
                changed = True
    return closed


def _decided_by_closure(s: ODSet, target, lim: DerivationLimit):
    """The chaser's answer for target when the attribute closure of its
    context settles it, else None: only at full context cap and for a
    target inside the universe, where the theorem above holds."""
    if lim.max_context_size < len(s.universe) or not isinstance(target, (ConstantOD, OrderCompatOD)):
        return None
    if not s.universe.issuperset(od_attrs(target)):
        return None
    closed = _attribute_closure(s.constants, target.context)
    if isinstance(target, ConstantOD):
        return target.attr in closed
    # propagate from X: [] |-> a (or b) concludes X: a ~ b.
    return True if target.a in closed or target.b in closed else None


def derives(s: ODSet, target, lim: DerivationLimit) -> bool:
    """Whether the premises derive the target within the limits.

    Trivial targets hold structurally; pass raw parts through
    holds_constant / holds_oc for those, since trivial dependency
    objects cannot be built.
    """
    known = _decided_by_closure(s, target, lim)
    if known is not None:
        return known
    consts, ocs, _ = _chase(s, lim, target=target)
    return target in consts or target in ocs


def derive_with_trace(s: ODSet, target, lim: DerivationLimit):
    """One derivation path for the target, or None.

    Returns a list of (od, rule, premises) in dependency order; input
    premises appear with rule "premise" and no antecedents.
    """
    consts, ocs, prov = _chase(s, lim, target=target, want_trace=True)
    if target not in consts and target not in ocs:
        return None
    path = []
    seen = set()

    def visit(od):
        if od in seen:
            return
        seen.add(od)
        entry = prov.get(od)
        if entry is None:
            path.append((od, "premise", ()))
            return
        rule, premises = entry
        for p in premises:
            visit(p)
        path.append((od, rule, premises))

    visit(target)
    return path


def is_minimal_constant(rel, context: frozenset, attr, validate=None) -> bool:
    """No smaller context yields the same constant dependency, and no
    context attribute is itself implied by the rest of the context.

    Assumes `context: [] |-> attr` is valid on rel.  `validate`
    defaults to the partition-based check; the brute-force oracle
    injects its own.
    """
    if validate is None:
        validate = validate_canonical
    context = frozenset(context)
    for r in range(len(context)):
        for sub in combinations(sorted(context), r):
            if validate(rel, ConstantOD(frozenset(sub), attr)):
                return False
    for b in context:
        if validate(rel, ConstantOD(context - {b}, b)):
            return False
    return True


def is_minimal_oc(rel, context: frozenset, a, b, validate=None) -> bool:
    """Minimality of `context: a ~ b` given that it is valid on rel:
    no proper subcontext suffices, neither side is constant under the
    context, and no context attribute is implied by the others."""
    if validate is None:
        validate = validate_canonical
    context = frozenset(context)
    for r in range(len(context)):
        for sub in combinations(sorted(context), r):
            if validate(rel, OrderCompatOD(frozenset(sub), a, b)):
                return False
    if validate(rel, ConstantOD(context, a)) or validate(rel, ConstantOD(context, b)):
        return False
    for c in context:
        if validate(rel, ConstantOD(context - {c}, c)):
            return False
    return True
