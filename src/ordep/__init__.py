"""Order dependency discovery, validation, mapping, and inference."""

from .discovery import DiscoveryResult, DiscoveryStats, LevelStats, discover, discover_unpruned
from .errors import BudgetExceededError, ODSyntaxError, OrdepError, ParseError, SchemaError
from .inference import (
    DerivationLimit,
    ODSet,
    apply_axioms_once,
    closure,
    derive_with_trace,
    derives,
    holds_constant,
    holds_oc,
    is_minimal_constant,
    is_minimal_oc,
)
from .odmodel import (
    ConstantOD,
    ListOD,
    OrderCompatOD,
    ViolationReport,
    find_splits,
    find_swaps,
    format_od,
    map_list_to_canonical,
    map_od_attrs,
    normalize_spec,
    order_compatible,
    order_equivalent,
    parse_od,
    satisfies_list_od,
    validate_canonical,
    violations,
)
from .partitions import (
    SortedPartition,
    StrippedPartition,
    check_constant,
    check_order_compatible,
    empty_context_partition,
    partition_set,
    partition_single,
    product,
    sorted_partition,
)
from .relation import Relation, Schema, encode_ranks, infer_schema, load_csv

__version__ = "0.1.0"

# The brute-force reference is imported on first use (PEP 562), so
# importing the package does not load it.
_ORACLE_NAMES = frozenset(
    ("OracleConfig", "brute_discover", "brute_validate_canonical", "brute_validate_list", "lex_leq")
)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BudgetExceededError",
    "ConstantOD",
    "DerivationLimit",
    "DiscoveryResult",
    "DiscoveryStats",
    "LevelStats",
    "ListOD",
    "ODSet",
    "ODSyntaxError",
    "OracleConfig",
    "OrderCompatOD",
    "OrdepError",
    "ParseError",
    "Relation",
    "Schema",
    "SchemaError",
    "SortedPartition",
    "StrippedPartition",
    "ViolationReport",
    "apply_axioms_once",
    "brute_discover",
    "brute_validate_canonical",
    "brute_validate_list",
    "check_constant",
    "check_order_compatible",
    "closure",
    "derive_with_trace",
    "derives",
    "discover",
    "discover_unpruned",
    "empty_context_partition",
    "encode_ranks",
    "find_splits",
    "find_swaps",
    "format_od",
    "holds_constant",
    "holds_oc",
    "infer_schema",
    "is_minimal_constant",
    "is_minimal_oc",
    "lex_leq",
    "load_csv",
    "map_list_to_canonical",
    "map_od_attrs",
    "normalize_spec",
    "order_compatible",
    "order_equivalent",
    "parse_od",
    "partition_set",
    "partition_single",
    "product",
    "satisfies_list_od",
    "sorted_partition",
    "validate_canonical",
    "violations",
]
