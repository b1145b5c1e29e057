"""Semantics of the package's record types.

The immutable records are named tuples: positional and keyword
construction, defaults, normalisation and validation, immutability,
value equality and hashing, and a repr that lists the public fields.
`LevelStats` is the one mutable record: it compares by value and is
unhashable.
"""

import random

import pytest

from ordep import (
    ConstantOD,
    DerivationLimit,
    DiscoveryResult,
    DiscoveryStats,
    LevelStats,
    ListOD,
    ODSyntaxError,
    OracleConfig,
    OrderCompatOD,
    Relation,
    Schema,
    SchemaError,
    SortedPartition,
    StrippedPartition,
    ViolationReport,
)

SCHEMA = Schema((("x", "integer"), ("y", "text")))
STATS = DiscoveryStats((LevelStats(1, 2), LevelStats(2, nodes_generated=1, ods_found=1)))

# type, positional arguments, the fields they store
RECORDS = [
    (ListOD, (["A", "B", "A"], ("C", "C")), (("A", "B"), ("C",))),
    (ConstantOD, ({2, 1}, 3), (frozenset({1, 2}), 3)),
    (OrderCompatOD, ([0], 5, 2), (frozenset({0}), 2, 5)),
    (ViolationReport, ("swap", (0,), (1, 2), ((1, 3),)), ("swap", (0,), (1, 2), ((1, 3),))),
    (StrippedPartition, (((0, 2),), 3), (((0, 2),), 3)),
    (SortedPartition, (((0, 2), (1,)), 3, (0, 1, 0)), (((0, 2), (1,)), 3, (0, 1, 0))),
    (Schema, ([["x", "integer"], ("y", "text")], "nulls_last"), ((("x", "integer"), ("y", "text")), "nulls_last")),
    (
        Relation,
        (SCHEMA, 2, ((1, 2), (2, 1)), ((5, 7), ("b", "a"))),
        (SCHEMA, 2, ((1, 2), (2, 1)), ((5, 7), ("b", "a"))),
    ),
    (DiscoveryStats, (STATS.levels,), (STATS.levels,)),
    (DiscoveryResult, ((), STATS, 2, 3, True, 4, 5), ((), STATS, 2, 3, True, 4, 5)),
    (DerivationLimit, (2, 4), (2, 4)),
    (OracleConfig, (3, 10), (3, 10)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize(("cls", "args", "stored"), RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, args, stored):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(cls._fields, args)))
    assert tuple(by_position) == tuple(by_keyword) == stored
    assert [getattr(by_keyword, f) for f in cls._fields] == list(stored)
    assert by_keyword._asdict() == dict(zip(cls._fields, stored))


def test_defaults():
    assert Schema((("x", "integer"),)).null_policy == "nulls_first"
    assert Relation(SCHEMA, 0, ((), ())).raw_columns == ()
    assert DerivationLimit(2).max_chain_length == 3
    assert OracleConfig() == (None, 1_000_000)
    assert list(LevelStats(4).as_dict().items()) == [
        ("level", 4),
        ("nodes_generated", 0),
        ("nodes_pruned", 0),
        ("constant_checks", 0),
        ("swap_checks", 0),
        ("keys_found", 0),
        ("ods_found", 0),
    ]


INVALID = [
    (lambda: ConstantOD({"A"}, "A"), ODSyntaxError, "trivial constant dependency: 'A' is in its own context"),
    (lambda: OrderCompatOD((), "A", "A"), ODSyntaxError, "trivial order compatibility: identical attributes"),
    (
        lambda: OrderCompatOD({"B"}, "A", "B"),
        ODSyntaxError,
        "trivial order compatibility: attribute is in its own context",
    ),
    (lambda: Schema((("", "integer"),)), SchemaError, "empty attribute name"),
    (lambda: Schema((("x", "integer"), ("x", "text"))), SchemaError, "duplicate attribute name 'x'"),
    (lambda: Schema((("x", "blob"),)), SchemaError, "unknown type 'blob' for attribute 'x'"),
    (lambda: Schema((), "middle"), SchemaError, "unknown null policy 'middle'"),
    (lambda: DerivationLimit(-1), ValueError, "limits must be non-negative"),
    (lambda: DerivationLimit(1, -1), ValueError, "limits must be non-negative"),
    (lambda: OracleConfig(0), ValueError, "max_level must be at least 1, got 0"),
    (lambda: ConstantOD({1}, 2)._replace(attr=1), ODSyntaxError, "trivial constant dependency: 1 is in its own context"),
    (lambda: SCHEMA._replace(null_policy="middle"), SchemaError, "unknown null policy 'middle'"),
    (lambda: OracleConfig()._replace(max_level=-2), ValueError, "max_level must be at least 1, got -2"),
]


@pytest.mark.parametrize(("build", "error", "message"), INVALID, ids=[m for _, _, m in INVALID])
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_replace_normalises_like_construction():
    od = OrderCompatOD({"X"}, "B", "A")
    moved = od._replace(a="Z")
    assert moved == OrderCompatOD({"X"}, "B", "Z")
    assert (moved.a, moved.b) == ("B", "Z")
    assert ListOD(("A",), ("B",))._replace(rhs=["B", "A", "B"]).rhs == ("B", "A")
    assert ConstantOD(set(), 1)._replace(context=[2, 3]).context == frozenset({2, 3})


@pytest.mark.parametrize(("cls", "args", "stored"), RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, args, stored):
    record = cls(*args)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(record) == stored


@pytest.mark.parametrize(("cls", "args", "stored"), RECORDS, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(cls, args, stored):
    first, second = cls(*args), cls(*stored)
    assert first == second and not first != second
    if cls is not DiscoveryStats and cls is not DiscoveryResult:  # they hold mutable LevelStats
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


def test_level_stats_compare_by_value_and_are_unhashable():
    stats = LevelStats(3, constant_checks=2)
    assert stats == LevelStats(3, 0, 0, 2)
    stats.swap_checks += 1
    assert stats != LevelStats(3, 0, 0, 2)
    assert stats.as_dict()["swap_checks"] == 1
    assert (stats == 3) is False
    with pytest.raises(TypeError):
        hash(stats)
    with pytest.raises(AttributeError):
        stats.extra = 1


def test_dependency_kinds_never_compare_equal():
    rng = random.Random(1505)
    universe = ["A", "B", "C", "D"]
    for _ in range(2000):
        a, b = rng.sample(universe, 2)
        rest = [x for x in universe if x not in (a, b)]
        ctx = rng.sample(rest, rng.randint(0, len(rest)))
        side = rng.sample(universe, rng.randint(0, 2))
        drawn = [ConstantOD(ctx, a), OrderCompatOD(ctx, a, b), ListOD(ctx, side), ListOD(side, [a])]
        for x in drawn:
            for y in drawn:
                if type(x) is not type(y):
                    assert x != y and not x == y
        assert ConstantOD(ctx, a) == ConstantOD(list(reversed(ctx)), a)
        assert OrderCompatOD(ctx, a, b) == OrderCompatOD(ctx, b, a)
        assert hash(OrderCompatOD(ctx, a, b)) == hash(OrderCompatOD(set(ctx), b, a))


REPRS = [
    (ListOD(("A", "B"), ("C",)), "ListOD(lhs=('A', 'B'), rhs=('C',))"),
    (ConstantOD({1}, 2), "ConstantOD(context=frozenset({1}), attr=2)"),
    (OrderCompatOD((), "B", "A"), "OrderCompatOD(context=frozenset(), a='A', b='B')"),
    (
        ViolationReport("split", (0,), (1,), ((1, 2),)),
        "ViolationReport(kind='split', over=(0,), attrs=(1,), pairs=((1, 2),))",
    ),
    (StrippedPartition(((0, 1),), 3), "StrippedPartition(classes=((0, 1),), row_count=3)"),
    (SortedPartition(((0, 1), (2,)), 3, (0, 0, 1)), "SortedPartition(classes=((0, 1), (2,)), row_count=3)"),
    (Schema((("x", "integer"),)), "Schema(attributes=(('x', 'integer'),), null_policy='nulls_first')"),
    (
        Relation(Schema((("x", "integer"),)), 2, ((2, 1),), ((9, 4),)),
        "Relation(schema=Schema(attributes=(('x', 'integer'),), null_policy='nulls_first'),"
        " row_count=2, columns=((2, 1),))",
    ),
    (
        LevelStats(2, 3, keys_found=1),
        "LevelStats(level=2, nodes_generated=3, nodes_pruned=0, constant_checks=0,"
        " swap_checks=0, keys_found=1, ods_found=0)",
    ),
    (
        DiscoveryResult((ConstantOD((), 0),), DiscoveryStats((LevelStats(1),)), 1, 2, False, 5, 0),
        "DiscoveryResult(ods=(ConstantOD(context=frozenset(), attr=0),),"
        " stats=DiscoveryStats(levels=(LevelStats(level=1, nodes_generated=0, nodes_pruned=0,"
        " constant_checks=0, swap_checks=0, keys_found=0, ods_found=0),)),"
        " levels_processed=1, max_level=2, exhausted=False, distinct_rows=5, partitions_built=0)",
    ),
    (DerivationLimit(2), "DerivationLimit(max_context_size=2, max_chain_length=3)"),
    (OracleConfig(), "OracleConfig(max_level=None, check_budget=1000000)"),
]


@pytest.mark.parametrize(("record", "text"), REPRS, ids=[t.split("(")[0] for _, t in REPRS])
def test_repr_is_pinned(record, text):
    assert repr(record) == text
