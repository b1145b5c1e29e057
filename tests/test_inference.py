import hashlib
import random
from itertools import combinations

import pytest

from ordep import (
    ConstantOD,
    DerivationLimit,
    ListOD,
    ODSet,
    OrderCompatOD,
    Relation,
    Schema,
    apply_axioms_once,
    closure,
    derive_with_trace,
    derives,
    discover,
    format_od,
    holds_constant,
    holds_oc,
    is_minimal_constant,
    is_minimal_oc,
    validate_canonical,
)
from ordep import inference
from ordep.oracle import brute_discover, brute_validate_canonical

from helpers import random_int_relation, random_relation

RULES = {"premise", "strengthen", "propagate", "augmentation-c", "augmentation-oc", "chain"}


def oc(ctx, a, b):
    return OrderCompatOD(frozenset(ctx), a, b)


def const(ctx, a):
    return ConstantOD(frozenset(ctx), a)


def test_limit_rejects_negative():
    with pytest.raises(ValueError):
        DerivationLimit(-1)
    with pytest.raises(ValueError):
        DerivationLimit(2, -1)
    assert DerivationLimit(2).max_chain_length == 3


def test_odset_basics():
    s = ODSet("ABC", [const("", "A"), oc("", "B", "C"), const("", "A")])
    assert len(s) == 2
    assert const("", "A") in s
    assert oc("", "C", "B") in s
    assert oc("", "A", "B") not in s
    assert s == ODSet("ABC", [oc("", "B", "C"), const("", "A")])
    assert hash(s) == hash(ODSet("ABC", [oc("", "B", "C"), const("", "A")]))


def test_odset_rejects_foreign_attrs_and_list_form():
    with pytest.raises(ValueError):
        ODSet("AB", [const("", "Z")])
    with pytest.raises(TypeError):
        ODSet("AB", [ListOD(("A",), ("B",))])


def test_odset_iteration_is_deterministic():
    ods = [oc("C", "A", "B"), const("", "B"), const("", "A"), oc("", "A", "C")]
    s = ODSet("ABC", ods)
    listed = list(s)
    assert listed == [const("", "A"), const("", "B"), oc("", "A", "C"), oc("C", "A", "B")]
    assert listed == list(ODSet("ABC", reversed(ods)))


def test_holds_treats_trivial_as_present():
    s = ODSet("ABC")
    assert holds_constant(s, frozenset({"A"}), "A")
    assert not holds_constant(s, frozenset({"A"}), "B")
    assert holds_oc(s, frozenset(), "A", "A")
    assert holds_oc(s, frozenset({"A"}), "A", "B")
    assert not holds_oc(s, frozenset(), "A", "B")


def test_propagate_and_augment_from_one_constant():
    s = ODSet("ABC", [const("", "A")])
    out = closure(s, DerivationLimit(2))
    assert oc("", "A", "B") in out
    assert oc("", "A", "C") in out
    assert const("B", "A") in out
    assert const("BC", "A") in out
    assert oc("C", "A", "B") in out


def test_strengthen():
    s = ODSet("AB", [const("", "A"), const("A", "B")])
    out = closure(s, DerivationLimit(2))
    assert const("", "B") in out


def test_chain_single_middle():
    univ = {"A", "C", "M"}
    s = ODSet(univ, [oc("", "A", "M"), oc("", "C", "M"), oc("M", "A", "C")])
    assert derives(s, oc("", "A", "C"), DerivationLimit(1, max_chain_length=1))
    assert not derives(s, oc("", "A", "C"), DerivationLimit(1, max_chain_length=0))


def test_chain_respects_length_limit():
    univ = {"A", "C", "M1", "M2"}
    premises = [
        oc("", "A", "M1"),
        oc("", "M1", "M2"),
        oc("", "M2", "C"),
        oc(["M1"], "A", "C"),
        oc(["M2"], "A", "C"),
    ]
    s = ODSet(univ, premises)
    target = oc("", "A", "C")
    assert not derives(s, target, DerivationLimit(1, max_chain_length=1))
    assert derives(s, target, DerivationLimit(1, max_chain_length=2))
    # The chain step lists its links in path order, then XBi: A ~ C per middle.
    path = derive_with_trace(s, target, DerivationLimit(1, max_chain_length=2))
    assert path[-1] == (target, "chain", tuple(premises))


def test_context_cap_blocks_augmentation():
    s = ODSet("ABC", [oc("", "A", "B")])
    target = oc("C", "A", "B")
    assert not derives(s, target, DerivationLimit(0))
    assert derives(s, target, DerivationLimit(1))


def test_derives_premise_itself():
    s = ODSet("AB", [oc("", "A", "B")])
    assert derives(s, oc("", "A", "B"), DerivationLimit(0, 0))


def test_trace_structure():
    s = ODSet("ABC", [const("", "A"), const("A", "B")])
    lim = DerivationLimit(2)
    target = const("", "B")
    path = derive_with_trace(s, target, lim)
    assert path is not None
    assert path[-1][0] == target
    seen = set()
    for od, rule, premises in path:
        assert rule in RULES
        assert (rule == "premise") == (premises == ())
        for p in premises:
            assert p in seen
        seen.add(od)
    assert derive_with_trace(ODSet("ABC"), oc("", "A", "B"), lim) is None


def test_apply_axioms_once_is_one_step():
    s = ODSet("ABC", [const("", "A"), const("A", "B")])
    lim = DerivationLimit(2)
    once = apply_axioms_once(s, lim)
    assert const("", "B") in once
    assert s.constants <= once.constants and s.ocs <= once.ocs
    full = closure(s, lim)
    assert once.constants <= full.constants and once.ocs <= full.ocs
    # strengthen on {}: |-> B needs the first step's output, so a
    # second application still grows the set
    again = apply_axioms_once(once, lim)
    assert oc("", "B", "C") in again
    assert oc("", "B", "C") not in once


def test_closure_idempotent():
    rng = random.Random(5)
    univ = ["A", "B", "C", "D"]
    for _ in range(20):
        ods = []
        for _ in range(rng.randint(1, 4)):
            ctx = frozenset(rng.sample(univ, rng.randint(0, 2)))
            rest = [u for u in univ if u not in ctx]
            if rng.random() < 0.5 and rest:
                ods.append(ConstantOD(ctx, rng.choice(rest)))
            elif len(rest) >= 2:
                a, b = rng.sample(rest, 2)
                ods.append(OrderCompatOD(ctx, a, b))
        s = ODSet(univ, ods)
        lim = DerivationLimit(2, 2)
        out = closure(s, lim)
        assert closure(out, lim) == out


def test_closure_monotone():
    rng = random.Random(6)
    univ = ["A", "B", "C"]
    pool = []
    for ctx_size in range(0, 2):
        for ctx in combinations(univ, ctx_size):
            rest = [u for u in univ if u not in ctx]
            pool += [ConstantOD(frozenset(ctx), a) for a in rest]
            pool += [OrderCompatOD(frozenset(ctx), a, b) for a, b in combinations(rest, 2)]
    lim = DerivationLimit(2, 1)
    for _ in range(25):
        small = rng.sample(pool, rng.randint(0, 3))
        extra = rng.sample(pool, rng.randint(0, 3))
        lo = closure(ODSet(univ, small), lim)
        hi = closure(ODSet(univ, small + extra), lim)
        assert lo.constants <= hi.constants
        assert lo.ocs <= hi.ocs


def test_closure_of_discovered_set_is_sound_on_data():
    rng = random.Random(41)
    for _ in range(40):
        rel = random_int_relation(rng, max_attrs=4, max_rows=6)
        m = ODSet(range(rel.attr_count), discover(rel).ods)
        out = closure(m, DerivationLimit(rel.attr_count, 2))
        for od in out:
            assert validate_canonical(rel, od)


def test_closure_of_discovered_set_is_complete_on_data():
    # Every dependency the data satisfies must be derivable from the
    # discovered minimal set once the limits cover the whole universe.
    rng = random.Random(42)
    for _ in range(20):
        rel = random_int_relation(rng, max_attrs=4, max_rows=6)
        n = rel.attr_count
        m = ODSet(range(n), discover(rel).ods)
        lim = DerivationLimit(n, max(0, n - 2))
        out = closure(m, lim)
        attrs = range(n)
        for size in range(0, n):
            for ctx_tuple in combinations(attrs, size):
                ctx = frozenset(ctx_tuple)
                rest = [a for a in attrs if a not in ctx]
                for a in rest:
                    od = ConstantOD(ctx, a)
                    if validate_canonical(rel, od):
                        assert od in out
                for a, b in combinations(rest, 2):
                    od = OrderCompatOD(ctx, a, b)
                    if validate_canonical(rel, od):
                        assert od in out


def test_constant_targets_derive_from_discovered_set_exactly_when_valid():
    # At full caps a constant target is decided by the attribute closure
    # of its context; over the oracle's minimal set that must be exactly
    # the constant dependencies the data satisfies, nulls included.
    rng = random.Random(43)
    for _ in range(150):
        rel = random_relation(rng, max_attrs=5, max_rows=12, max_domain=3, with_nulls=True)
        n = rel.attr_count
        m = ODSet(range(n), brute_discover(rel))
        lim = DerivationLimit(n, max(0, n - 2))
        for size in range(n):
            for ctx in combinations(range(n), size):
                for a in range(n):
                    if a not in ctx:
                        od = const(ctx, a)
                        assert derives(m, od, lim) == brute_validate_canonical(rel, od), od


def test_is_minimal_constant_taxes(taxes):
    assert is_minimal_constant(taxes, frozenset({"position"}), "bin")
    assert not is_minimal_constant(taxes, frozenset({"position", "year"}), "bin")


def test_is_minimal_oc_taxes(taxes):
    assert is_minimal_oc(taxes, frozenset(), "bin", "salary")
    assert not is_minimal_oc(taxes, frozenset({"year"}), "bin", "salary")


def test_is_minimal_oc_rejects_constant_side():
    schema = Schema((("a0", "integer"), ("a1", "integer")))
    rel = Relation.from_columns(schema, [[5, 5], [1, 2]])
    assert validate_canonical(rel, oc("", "a0", "a1"))
    assert not is_minimal_oc(rel, frozenset(), "a0", "a1")


def test_minimality_uses_injected_validator():
    hits = []

    def fake(rel, od):
        hits.append(od)
        return od == ConstantOD(frozenset({"A"}), "B")

    ok = is_minimal_constant(None, frozenset({"A", "B"}), "C", validate=fake)
    assert not ok
    assert ConstantOD(frozenset({"A"}), "B") in hits


def random_premises(rng, univ, max_ods):
    """Up to max_ods non-trivial canonical dependencies over univ."""
    ods = []
    for _ in range(rng.randint(1, max_ods)):
        ctx = frozenset(rng.sample(univ, rng.randint(0, min(2, len(univ) - 2))))
        rest = [u for u in univ if u not in ctx]
        if rng.random() < 0.4:
            ods.append(ConstantOD(ctx, rng.choice(rest)))
        else:
            a, b = rng.sample(rest, 2)
            ods.append(OrderCompatOD(ctx, a, b))
    return ods


# One digest per seeded premise set: sha256 of the format_od text of
# closure, apply_axioms_once, and the derives answer and
# derive_with_trace path (rule names included) for up to five targets.
# Taken from the chaser that spelled the rules out in both _chase and
# apply_axioms_once; any change to a closure, an answer or a derivation
# path changes a digest.
GOLDEN_INFERENCE_DIGESTS = (
    "0806ee9c60f7f796f7953e9dd65235fd23dd28d0cd702fdb0cc7a633ecb88d22",
    "deccc7fb54fd4b2a4c551cf080ef92d6f1f37f65662c15de96174e32b07bc4a6",
    "c4c8754e3a3607501dafbfb0906cb49e6c91232ad9b20e9bd35a9120d0676503",
    "f15f0744fc131de8a153b7174bb287a68f0601cc51e133dc0294b1bf3ed24d4e",
    "9ccd5dc96d6ffad6d3add94507931b43a402204ca5cf133890e70a58f21a788c",
    "1c245492a1b71eed0a2f0325a6b41c0f1eb2a050e83f747d6e0ff051b9f72b49",
    "35f30ed6a30e86a9d0a445b03b913032428e3138050b449a8d514e8dee4fa1a6",
    "244b446c9ce1176d22ecc2f9c5706fa7a3f1486d3021be4a1240a831c49e1896",
    "c3ea9bb10e690a080f141f2fb81f57ee8d3bd05e86a24738645517eb779e1895",
    "94951d4f5ca7a1675c40542f53e6e698ab0c1d16d51656f7994cc2d81e92700e",
    "30cfd44236de0a03fb13f26eb93fe87bc7f53a21e43adee7e038e202b3176d18",
    "a6465ac258a14f8f8aa715a20295bbcc089f9a90e37f65edb65c83496af2ceb4",
    "a2e4828f42fdc3d2d3581a2558add952c988cdd91373fbe2dd83d690d1346cab",
    "d04119bcce642dba3c0a3c80a28fbeb829cd1dd148737ca6f09239a3335aee4c",
    "d11f898cfcea67fa948ca9924d2b20dfac9d42c5bc08001122d041018c19ff73",
    "b8af612a5d6c12afe50bd46f96cf7e4a42d816b71ea1bd0d6ca6d2925b472434",
    "f2ec4405e88aa47cbaa2580ac08636e92c56954f5e5770d19967d3783fd145f3",
    "04201957acda59869c8923167206706dd6123d9404246a68ece453b6b8d64660",
    "f63461b5654ded2a08b02a71a2d70068d7d8469b8dde0f6e6b63eb4664abef24",
    "c7c79e5024dc3f0996b96e43c295ae679a89dd37b1ec0e43173ccca6a430fd55",
    "7cf36418389657aee7a4ec8b034829689da01bdcfdeb89abeac84fc4a57f69ce",
    "e80fdf2248bc231afcadffdbfd3ceae12c86a82a1f9f128b81d99f8dfd682429",
    "c0c28acda06beb2df8d03ef78ad591521ff25c1e9b713911095ddddcc228f6f6",
    "a28bab542792613f76e0145c140317f56d1e6b440efd3405d4903449c34d9c32",
    "69d60eca0642e1365b2e4b612fabf3dfd7379f6993b72e6acf68876fb1c3923b",
    "7073dbcf6ffeb3c852349e4c9fd5a52ba7e1852790cd614ad54b2d029dd2593a",
    "1de44a52b1a3a4df831cb7487c318f61890938365476485a2fda3b8eb9e34725",
    "cb0a6fc15171fe52afa5f09ccb846bdd06b868e7938e71327a44b390b33a3b12",
    "f4b892cc1a912ced5e283051edcc22608e0f0ad7e41fdc8b85b5b438467bd721",
    "19a316a826407441f2e0eccd0d25372493fd443c4cc460a5c5c0f090332b95b1",
)


def inference_digests(n):
    rng = random.Random(83)
    digests = []
    for i in range(n):
        univ = "ABCDEF"[: 3 + i % 4]
        s = ODSet(univ, random_premises(rng, univ, 2 + i % 4))
        lim = DerivationLimit(rng.randint(0, len(univ)), rng.randint(0, 3))
        full = closure(s, lim)
        lines = ["closure " + format_od(od) for od in full]
        lines += ["once " + format_od(od) for od in apply_axioms_once(s, lim)]
        # Random targets, mostly not derivable, plus the derived members
        # of the closure with the smallest contexts, whose paths go
        # through the rules.
        derived = [od for od in full if od not in s]
        targets = random_premises(random.Random(i), univ, 2) + derived[:3]
        for target in targets:
            lines.append(f"derives {format_od(target)} {derives(s, target, lim)}")
            for od, rule, premises in derive_with_trace(s, target, lim) or ():
                lines.append(f"  {format_od(od)} via {rule}: " + "; ".join(map(format_od, premises)))
        digests.append(hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return tuple(digests)


def test_inference_matches_golden_digests():
    assert inference_digests(len(GOLDEN_INFERENCE_DIGESTS)) == GOLDEN_INFERENCE_DIGESTS


def test_applying_axioms_once_to_a_fixpoint_is_the_closure():
    # closure and apply_axioms_once read the same rule table; stepping
    # the single application until nothing changes must reach the
    # closure, for every limit.
    rng = random.Random(84)
    for i in range(40):
        univ = "ABCDE"[: 3 + i % 3]
        s = ODSet(univ, random_premises(rng, univ, 4))
        lim = DerivationLimit(rng.randint(0, len(univ)), rng.randint(0, 2))
        step = s
        while True:
            nxt = apply_axioms_once(step, lim)
            if nxt == step:
                break
            step = nxt
        assert step == closure(s, lim)


def closure_targets(rng, s):
    """Constant and compatibility targets over s.universe, half of each
    kind taken from the attribute closure of its context, a premise
    compatibility augmented by one attribute, and library targets that
    mention an attribute outside the universe."""
    univ = sorted(s.universe)
    targets = []
    if s.ocs:
        p = rng.choice(sorted(s.ocs, key=format_od))
        extra = [u for u in univ if u not in p.context and u not in (p.a, p.b)]
        targets.append(oc(p.context.union(rng.sample(extra, min(1, len(extra)))), p.a, p.b))
    for _ in range(2):
        ctx = frozenset(rng.sample(univ, rng.randint(0, len(univ) - 2)))
        rest = [u for u in univ if u not in ctx]
        closed = sorted(inference._attribute_closure(s.constants, ctx) - ctx)
        targets.append(const(ctx, rng.choice(closed or rest)))
        targets.append(const(ctx, rng.choice(rest)))
        a = rng.choice(closed or rest)
        targets.append(oc(ctx, a, rng.choice([r for r in rest if r != a])))
        targets.append(oc(ctx, *rng.sample(rest, 2)))
        targets.append(const(ctx | {"Z"}, rng.choice(closed or rest)))
    targets.append(const((), "Z"))
    targets.append(oc((), univ[0], "Z"))
    return targets


def test_attribute_closure_answers_equal_the_chaser(monkeypatch):
    # derives consults the attribute closure first; with that step off,
    # every answer comes from the chaser.  Paths are compared as well, so
    # derive_with_trace must stay the chaser's.
    def answers():
        for s, lim, targets in cases:
            for target in targets:
                path = derive_with_trace(s, target, lim)
                steps = [(format_od(od), rule, [format_od(p) for p in ps]) for od, rule, ps in path or ()]
                yield derives(s, target, lim), path is not None, steps

    rng = random.Random(91)
    cases = []
    for i in range(18):
        n = 2 + i % 6
        univ = "ABCDEFG"[:n]
        s = ODSet(univ, random_premises(rng, univ, 2 + i % 4))
        for lim in (
            DerivationLimit(n + i % 2, rng.randint(0, 3)),
            DerivationLimit(rng.randint(0, n - 1), rng.randint(0, 3)),
        ):
            cases.append((s, lim, closure_targets(rng, s)))
    with_closure = list(answers())
    monkeypatch.setattr(inference, "_decided_by_closure", lambda s, target, lim: None)
    assert with_closure == list(answers())
