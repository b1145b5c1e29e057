import hashlib
import random

import pytest

from ordep import discovery, partitions
from ordep import (
    ConstantOD,
    OracleConfig,
    OrderCompatOD,
    Relation,
    Schema,
    brute_discover,
    discover,
    discover_unpruned,
    is_minimal_constant,
    is_minimal_oc,
    validate_canonical,
)

from helpers import random_relation


def int_relation(*cols):
    schema = Schema(tuple((f"a{i}", "integer") for i in range(len(cols))))
    return Relation.from_columns(schema, [list(c) for c in cols])


def od_level(od):
    return len(od.context) + (1 if isinstance(od, ConstantOD) else 2)


def test_taxes_discovery_golden(taxes):
    res = discover(taxes)
    assert len(res.ods) == 109
    assert res.levels_processed == 4
    assert res.exhausted
    m = set(res.ods)
    pos, bin_, sal = (taxes.attr_index(n) for n in ("position", "bin", "salary"))
    year = taxes.attr_index("year")
    assert ConstantOD(frozenset({pos}), bin_) in m
    assert OrderCompatOD(frozenset(), bin_, sal) in m
    # valid but subsumed by the empty-context form above
    assert OrderCompatOD(frozenset({year}), bin_, sal) not in m


def test_taxes_discovery_builds_fewer_products_than_nodes(taxes, monkeypatch):
    products = []

    def counting_product(p, q, p_labels=None):
        products.append(p)
        return partitions.product(p, q, p_labels)

    monkeypatch.setattr(discovery, "product", counting_product)
    res = discover(taxes)
    assert res.partitions_built == len(products)
    assert res.partitions_built < res.stats.nodes_generated


# sha256 over the per-run digests of one relation's six runs (discover
# and discover_unpruned, max_level None, 2 and 3), each the sha256 of
# repr((ods, stats, levels_processed, exhausted, distinct_rows)).  Taken
# from the eager frozenset lattice that preceded deferred products; any
# change to emission order or to a stats field changes a digest.
GOLDEN_RUN_DIGESTS = (
    "d0e2f49d3b2b5bd73cb53e564ec2bfdc7157c3b95d13db70707bec6dbe8e709b",
    "a121677cd5506bb42b153fdeaaf14e3790fc312e4c143dbfab674cd6fe9ffe8e",
    "24a4d4ddc89617bd3cbbecc785efe283539d52f4893a8576cfa4c3063d2c4d89",
    "8a7a36e660bee956f98aa653c942e9b66333956c0f437f556cb0264f116bb4e2",
    "a876ec43deccfcff168ed2f23b274e261d09f8aa0b995cb924edbfffec9b73ae",
    "97698e29ae80282ae8b9f48afeb237deaf7f6cb1b88530cba48277687fc6be99",
    "a76b6e90c491cb79672f7e13d11c78fe1ced6964493f72665e626455b2785922",
    "03db6fa570d4f39980f525ca1825a2bd1649b6a4490fc353577b0e718b144f5f",
    "2c69fa4160f48d5ca08ae4ae8241516cf3b696f52a45f71381dc89ea3a4998c8",
    "992679404bc50e1565ed5a2fd793a1162d619652dfa9585ac89d0ae0dc804c4d",
    "45c1ad278809e9f67c86f6faad05c7b123a271a273c74fe2f48df339ca3e36d5",
    "bbbcbf7cab8800ab64f28e71255b3579e7050c35fd48449b39b5be599bbb2811",
    "2abbcdc34b2bf6eae7d22dde81211fc8e1610081ee96aac9341b5e4a3be3505c",
    "3c7081b93ec30e80d1ee9a37c8bc32ea5d2943d3a32db2d70104b087f6ac57db",
    "b7187d0baaeee5824825be3816e16d2ef2c161f50a7114d7c10bf8d5e988baf8",
    "54a19afe2e88011b70c995093c6f399ccf9fe822fa5bdf54dca0293824856e43",
    "8ce5a7b44f2cf7209f556aed9268178ba9bd7ff2c7c116f44118dcb9cb676f2d",
    "5419cd9100a2480262abd4a2075d73a1e3d058c5d4cb520d078e5edb6025f8fe",
    "0e49c2998d677b6b2ee6577ac869588fd328e623e24d8413a96162627a56e70e",
    "22675297fc1044557bbf901f43891dba56562e3cf8347473448b569cb9bd38d1",
)


def test_output_and_stats_match_golden_digests():
    rng = random.Random(71)
    digests = []
    for i in range(len(GOLDEN_RUN_DIGESTS)):
        rel = random_relation(rng, max_attrs=7, max_rows=(12, 40)[i % 2], with_nulls=i % 3 == 0)
        h = hashlib.sha256()
        for run in (discover, discover_unpruned):
            for max_level in (None, 2, 3):
                res = run(rel, max_level)
                text = repr((res.ods, res.stats, res.levels_processed, res.exhausted, res.distinct_rows))
                h.update(hashlib.sha256(text.encode()).digest())
        digests.append(h.hexdigest())
    assert tuple(digests) == GOLDEN_RUN_DIGESTS


def test_taxes_output_is_valid_and_minimal(taxes):
    for od in discover(taxes).ods:
        assert validate_canonical(taxes, od)
        if isinstance(od, ConstantOD):
            assert is_minimal_constant(taxes, od.context, od.attr)
        else:
            assert is_minimal_oc(taxes, od.context, od.a, od.b)


def test_discover_deterministic(taxes):
    a = discover(taxes)
    b = discover(taxes)
    assert a.ods == b.ods
    assert a.stats == b.stats


def test_pruning_removes_nodes_but_not_output():
    # the third attribute is determined by the first two in every way
    # that matters, so one lattice node dies before the top level
    rel = int_relation([1, 2, 3], [10, 20, 30], [5, 5, 7])
    pruned = discover(rel)
    full = discover_unpruned(rel)
    assert set(pruned.ods) == set(full.ods)
    assert len(pruned.ods) == 7
    assert pruned.stats.nodes_generated == 6
    assert full.stats.nodes_generated == 7
    assert pruned.stats.nodes_pruned == 1
    assert full.stats.nodes_pruned == 0


def test_zero_rows():
    rel = int_relation([], [])
    res = discover(rel)
    assert set(res.ods) == {ConstantOD(frozenset(), 0), ConstantOD(frozenset(), 1)}
    assert res.levels_processed == 1
    assert res.exhausted


def test_single_row():
    rel = int_relation([3], [9])
    res = discover(rel)
    assert set(res.ods) == {ConstantOD(frozenset(), 0), ConstantOD(frozenset(), 1)}
    assert res.levels_processed == 1
    assert res.exhausted
    assert set(discover_unpruned(rel).ods) == set(res.ods)


def test_identical_rows_yield_constants_only():
    rel = int_relation([4, 4], [9, 9])
    res = discover(rel)
    assert set(res.ods) == {ConstantOD(frozenset(), 0), ConstantOD(frozenset(), 1)}
    assert res.exhausted


def test_max_level_caps_traversal(taxes):
    res = discover(taxes, max_level=2)
    assert res.max_level == 2
    assert res.levels_processed == 2
    assert not res.exhausted
    assert len(res.ods) == 31
    assert all(od_level(od) <= 2 for od in res.ods)
    full = discover(taxes)
    assert set(res.ods) == {od for od in full.ods if od_level(od) <= 2}


def test_max_level_one(taxes):
    res = discover(taxes, max_level=1)
    assert res.ods == ()
    assert res.levels_processed == 1
    assert not res.exhausted


def test_max_level_below_one_is_rejected(taxes):
    for max_level in (0, -1):
        for run in (discover, discover_unpruned):
            with pytest.raises(ValueError):
                run(taxes, max_level)
        with pytest.raises(ValueError):
            brute_discover(taxes, OracleConfig(max_level=max_level))


def test_max_level_beyond_width_is_exhaustive(taxes):
    assert discover(taxes, max_level=99).ods == discover(taxes).ods


def test_stats_shape(taxes):
    res = discover(taxes)
    stats = res.stats
    assert [s.level for s in stats.levels] == list(range(1, res.levels_processed + 1))
    assert stats.nodes_generated == sum(s.nodes_generated for s in stats.levels)
    assert stats.constant_checks == sum(s.constant_checks for s in stats.levels)
    assert stats.swap_checks == sum(s.swap_checks for s in stats.levels)
    assert sum(s.ods_found for s in stats.levels) == len(res.ods)


def test_emission_order_is_levelwise(taxes):
    levels = [od_level(od) for od in discover(taxes).ods]
    assert levels == sorted(levels)


def test_pruned_and_unpruned_and_brute_agree():
    rng = random.Random(47)
    for _ in range(40):
        rel = random_relation(rng, max_attrs=5, max_rows=12)
        fast = discover(rel)
        slow = discover_unpruned(rel)
        assert set(fast.ods) == set(slow.ods)
        assert fast.stats.nodes_generated <= slow.stats.nodes_generated
        brute = brute_discover(rel, OracleConfig(check_budget=10_000_000))
        assert set(fast.ods) == set(brute)


def test_discovered_set_is_exactly_the_minimal_valid_ones():
    rng = random.Random(53)
    for _ in range(25):
        rel = random_relation(rng, max_attrs=4, max_rows=8)
        m = set(discover(rel).ods)
        for od in m:
            assert validate_canonical(rel, od)
            if isinstance(od, ConstantOD):
                assert is_minimal_constant(rel, od.context, od.attr)
            else:
                assert is_minimal_oc(rel, od.context, od.a, od.b)


def test_label_cache_builds_one_label_list_per_left_operand(monkeypatch):
    # Products are taken only for partitions a check reads.  Level 1
    # finds a3 constant, so no set holding a3 keeps a constant
    # candidate; level 2 finds {a1}: [] |-> a4 and {a4}: [] |-> a1, so
    # none holding both a1 and a4 does either.  That leaves {0,1,2} and
    # {0,2,4} as the only level-3 nodes with constant checks, and their
    # six checks would read the five level-2 partitions {0,1}, {0,2},
    # {1,2}, {0,4} and {2,4}.  Four of them are refuted by row pairs
    # remembered from level 1: rows 0 and 2 split a0 and agree on
    # {1,2,3,4}, and rows 0 and 1 split a1 and a4 and agree on {0,2,3}.
    # The pairs that split a2, rows 2 and 3 over {a0} and rows 1 and 3
    # over {a1}, agree on {0,3} and {1,3,4}, so a2 is checked over
    # {0,1} and {0,4}.  Every other check reads the root or a single
    # attribute, or is refuted, so two products are built, both with
    # left operand {0}: one label list.
    labelled = []
    products = []

    def counting_labels(p):
        labelled.append(p)
        return partitions.class_labels(p)

    def checked_product(p, q, p_labels=None):
        out = partitions.product(p, q, p_labels)
        assert out == partitions.product(p, q)
        products.append(out)
        return out

    monkeypatch.setattr(discovery, "class_labels", counting_labels)
    monkeypatch.setattr(discovery, "product", checked_product)
    rel = int_relation([1, 1, 2, 2], [1, 2, 1, 2], [3, 3, 3, 4], [1, 1, 1, 1], [2, 1, 2, 1])
    res = discover_unpruned(rel)
    assert len(products) == res.partitions_built == 2
    assert len(labelled) == 1
    assert len(labelled) == len({id(p) for p in labelled})
    monkeypatch.undo()
    assert res.ods == discover_unpruned(rel).ods


def test_refuting_from_remembered_pairs_changes_no_result(monkeypatch):
    # The reference run never refutes: every check scans its partition.
    # Refutation may only skip work, so answers, emission order and
    # every statistic must match it.
    refute = discovery._refuted
    refuted = 0

    def counting_refuted(masks, ctx_mask):
        nonlocal refuted
        hit = refute(masks, ctx_mask)
        refuted += hit
        return hit

    def outcome(res):
        return res.ods, res.stats, res.levels_processed, res.exhausted, res.distinct_rows

    rng = random.Random(89)
    runs = 0
    for i in range(170):
        rel = random_relation(rng, max_attrs=6, max_rows=24, with_nulls=i % 2 == 1)
        if i % 3 == 0:
            rel = _with_duplicates(rng, rel)
        for run in (discover, discover_unpruned):
            for max_level in (None, 2, 3):
                with monkeypatch.context() as m:
                    m.setattr(discovery, "_refuted", lambda masks, ctx_mask: False)
                    ref = run(rel, max_level)
                with monkeypatch.context() as m:
                    m.setattr(discovery, "_refuted", counting_refuted)
                    res = run(rel, max_level)
                assert outcome(res) == outcome(ref)
                assert res.partitions_built <= ref.partitions_built
                runs += 1
    assert runs >= 1_000
    assert refuted > 1_000


def test_remembered_masks_stay_maximal():
    masks = []
    for new in (0b0001, 0b0110, 0b1000, 0b0111):
        discovery._remember(masks, new)
    assert masks == [0b1000, 0b0111]
    assert discovery._refuted(masks, 0b0101)
    assert discovery._refuted(masks, 0)
    assert not discovery._refuted(masks, 0b1001)
    assert not discovery._refuted([], 0)


def _with_duplicates(rng, rel):
    """rel's rows, each repeated 1-3 times, shuffled."""
    rows = [row for row in zip(*rel.raw_columns) for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    return Relation.from_rows(rel.schema, rows)


def _duplicate_row_cases():
    rng = random.Random(61)
    one = Schema((("a0", "integer"),))
    two = Schema((("a0", "integer"), ("a1", "text")), "nulls_last")
    three = Schema((("a0", "integer"), ("a1", "integer"), ("a2", "float")))
    yield Relation.from_rows(two, [])
    yield Relation.from_rows(two, [(1, "x")])
    yield Relation.from_rows(three, [(4, 9, 0.5)] * 4)
    yield Relation.from_rows(one, [(3,), (1,), (3,), (2,), (1,)])
    yield Relation.from_rows(two, [(None, "x"), (2, None), (None, "x"), (1, "y"), (2, None)])
    for i in range(40):
        base = random_relation(rng, max_attrs=5, max_rows=10, with_nulls=i % 2 == 1)
        yield _with_duplicates(rng, base)


def test_duplicate_rows_do_not_change_discovery(monkeypatch):
    rng = random.Random(67)
    for rel in _duplicate_row_cases():
        before = (rel.row_count, rel.columns, rel.raw_columns)
        distinct = Relation.from_rows(rel.schema, list(dict.fromkeys(zip(*rel.raw_columns))))
        for max_level in (None, rng.randint(1, rel.attr_count)):
            brute = brute_discover(rel, OracleConfig(max_level=max_level, check_budget=10_000_000))
            for run in (discover, discover_unpruned):
                res = run(rel, max_level)
                assert res.distinct_rows == distinct.row_count
                assert res.ods == run(distinct, max_level).ods
                # The lattice over every row, duplicates included.
                with monkeypatch.context() as m:
                    m.setattr(discovery, "_distinct_rows", lambda r: r)
                    every_row = run(rel, max_level)
                assert res.ods == every_row.ods
                assert res.exhausted == every_row.exhausted
                assert res.levels_processed == every_row.levels_processed
                # A one-row relation stops after level 1 with exhausted
                # set, so only uncapped runs agree with the distinct table.
                if max_level is None:
                    assert res.exhausted == run(distinct).exhausted
                assert set(res.ods) == set(brute)
        assert (rel.row_count, rel.columns, rel.raw_columns) == before
