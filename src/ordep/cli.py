"""Command-line interface.

Four subcommands: discover, validate, map, infer.  Reports go to stdout
(JSON or text) and are byte-identical across runs with the same inputs
and flags; wall-clock timing goes to stderr so it never perturbs the
report.  Exit codes: 0 success, 1 a validation or derivation answered
no, 2 usage or parse failure, 3 a configured budget or limit stopped
the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from .discovery import discover, discover_unpruned
from .errors import BudgetExceededError, OrdepError
from .inference import DerivationLimit, ODSet, derive_with_trace, derives
from .odmodel import (
    ConstantOD,
    ListOD,
    format_od,
    is_trivial,
    map_list_to_canonical,
    map_od_attrs,
    od_attrs,
    od_level,
    od_sort_key,
    parse_canonical_parts,
    parse_od,
    satisfies_list_od,
    validate_canonical,
    violations,
)
from .relation import NULL_POLICIES, Schema, infer_schema, load_csv

_POLICY_FLAG = {"first": "nulls_first", "last": "nulls_last", "reject": "reject"}


_BATCH = 4096  # witness pairs rendered per string
# Stands for a pair array in `_dumps` output, which holds no other NUL:
# strings are rendered with control characters escaped.
_HOLE = "\0"


class RunReport:
    """Everything one invocation produced, in serialization order."""

    def __init__(self, command: str, input: dict | None, flags: dict, results: dict):
        self.command = command
        self.input = input
        self.flags = flags
        self.results = results

    def to_json(self) -> str:
        return "".join(self._pieces())

    def write(self, out) -> None:
        """Write `to_json()` to out piece by piece: a report listing 10^5
        witness pairs is never held as one string."""
        for piece in self._pieces():
            out.write(piece)

    def _pieces(self):
        doc = {"command": self.command}
        if self.input is not None:
            doc["input"] = self.input
        doc["flags"] = self.flags
        doc.update(self.results)
        arrays = []
        head, *tails = _dumps(doc, "\n", arrays).split(_HOLE)
        yield head
        for (pairs, indent), tail in zip(arrays, tails):
            inner = indent + "  "
            deeper = inner + "  "
            yield "[" + inner
            yield from _joined(pairs, f"[{deeper}%d,{deeper}%d{inner}]", "," + inner)
            yield indent + "]"
            yield tail
        yield "\n"


class _Pairs:
    """Witness row pairs (s, t), two ints each, marked so that `_dumps`
    leaves them to `RunReport` to render in batches.  It wraps the
    tuple rather than copying it: a list witness can hold 10^5 pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs


def _joined(pairs, fmt, sep):
    """sep.join(fmt % pair for pair in pairs), in pieces of _BATCH pairs."""
    for i in range(0, len(pairs), _BATCH):
        if i:
            yield sep
        yield sep.join([fmt % p for p in pairs[i : i + _BATCH]])


def _dumps(obj, indent, arrays) -> str:
    """json.dumps(obj, indent=2), byte for byte, for report documents
    (string keys).  With indent, json.dumps runs CPython's pure-Python
    encoder, which takes seconds over the 10^5 witness pairs a report
    can list.  A non-empty `_Pairs` is rendered as `_HOLE`, and its
    pairs and indent are appended to `arrays` for the caller to fill
    the hole with."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_quote(k)}: {_dumps(v, inner, arrays)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(obj) is _Pairs:
        if not obj.pairs:
            return "[]"
        arrays.append((obj.pairs, indent))
        return _HOLE
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_dumps(v, inner, arrays) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if type(obj) is str:
        return _quote(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    return json.dumps(obj)


def _int_at_least(low):
    """argparse type for an integer flag that must be at least `low`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ordep", description="Order dependency toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--input", required=True, help="CSV file")
        p.add_argument("--schema", help="schema JSON file")
        p.add_argument("--infer-schema", action="store_true", help="guess the schema by trial parsing")
        p.add_argument("--no-header", action="store_true", help="the CSV has no header row")
        p.add_argument("--null-policy", choices=sorted(_POLICY_FLAG), help="override the schema's null policy")

    def add_common(p):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--seed", type=int, help="accepted and echoed; no behavior depends on it")
        p.add_argument(
            "--threads", type=_int_at_least(1), default=1, help="reserved; execution is sequential"
        )

    p = sub.add_parser("discover", help="find all minimal order dependencies")
    add_data_flags(p)
    add_common(p)
    p.add_argument("--max-level", type=_int_at_least(1), help="cap on attributes per lattice node")
    p.add_argument("--no-prune", action="store_true", help="disable node deletion and key shortcuts")
    p.add_argument("--oracle", action="store_true", help="use the brute-force reference instead")

    p = sub.add_parser("validate", help="check one dependency against the data")
    p.add_argument("od", help="dependency text")
    add_data_flags(p)
    add_common(p)
    p.add_argument("--witnesses", action="store_true", help="list violating row pairs")
    p.add_argument("--oracle", action="store_true", help="use the brute-force reference instead")

    p = sub.add_parser("map", help="translate a list dependency to canonical form")
    p.add_argument("od", help="list dependency text")
    add_common(p)

    p = sub.add_parser("infer", help="derive a dependency from premises by the axioms")
    p.add_argument("target", help="canonical dependency text")
    p.add_argument("--premises", required=True, help="JSON file with universe and ods")
    add_common(p)
    p.add_argument("--max-context", type=_int_at_least(0), help="context size limit (default: universe size)")
    p.add_argument("--max-chain", type=_int_at_least(0), default=3, help="chain length limit")
    p.add_argument("--trace", action="store_true", help="print one derivation path")
    return parser


def _load_relation(args):
    """The input relation, with raw values only under --oracle (the only
    reader of them), and the report's input fingerprint."""
    import hashlib

    if args.schema:
        with open(args.schema, encoding="utf-8") as fh:
            schema = Schema.from_json(fh.read())
    elif args.infer_schema:
        schema = infer_schema(args.input, has_header=not args.no_header)
    else:
        raise OrdepError("either --schema or --infer-schema is required")
    if args.null_policy:
        schema = Schema(schema.attributes, _POLICY_FLAG[args.null_policy])
    rel = load_csv(args.input, schema, has_header=not args.no_header, raw=args.oracle)
    fingerprint = {
        "path": args.input,
        "rows": rel.row_count,
        "attributes": rel.attr_count,
        "schema_sha256": hashlib.sha256(schema.to_json().encode()).hexdigest(),
    }
    return rel, fingerprint


def _od_record(od, names) -> dict:
    rec = {"kind": "constant" if isinstance(od, ConstantOD) else "order_compatible"}
    rec["context"] = [names[a] for a in sorted(od.context)]
    if isinstance(od, ConstantOD):
        rec["attr"] = names[od.attr]
    else:
        rec["a"] = names[od.a]
        rec["b"] = names[od.b]
    rec["level"] = od_level(od)
    rec["text"] = format_od(od, names)
    return rec


def _common_flags(args) -> dict:
    return {"format": args.format, "seed": args.seed, "threads": args.threads}


def _cmd_discover(args) -> int:
    rel, fingerprint = _load_relation(args)
    names = rel.schema.names
    flags = _common_flags(args)
    flags.update(
        {
            "max_level": args.max_level,
            "prune": not args.no_prune,
            "oracle": args.oracle,
            "null_policy": rel.schema.null_policy,
        }
    )
    started = time.perf_counter()
    if args.oracle:
        from .oracle import OracleConfig, brute_discover

        found = brute_discover(rel, OracleConfig(max_level=args.max_level))
        results = {"ods": [_od_record(od, names) for od in sorted(found, key=od_sort_key)]}
        results["od_count"] = len(found)
        results["stats"] = None
        work = ""
    else:
        run = discover_unpruned(rel, args.max_level) if args.no_prune else discover(rel, args.max_level)
        results = {
            "ods": [_od_record(od, names) for od in sorted(run.ods, key=od_sort_key)]
        }
        results["od_count"] = len(run.ods)
        results["stats"] = {
            "levels": [s.as_dict() for s in run.stats.levels],
            "totals": {
                "nodes_generated": run.stats.nodes_generated,
                "nodes_pruned": run.stats.nodes_pruned,
                "constant_checks": run.stats.constant_checks,
                "swap_checks": run.stats.swap_checks,
                "keys_found": run.stats.keys_found,
            },
            "levels_processed": run.levels_processed,
            "exhausted": run.exhausted,
        }
        work = (
            f" over {run.distinct_rows} distinct of {rel.row_count} rows,"
            f" {run.partitions_built} partitions built"
        )
    elapsed = time.perf_counter() - started
    report = RunReport("discover", fingerprint, flags, results)
    if args.format == "json":
        report.write(sys.stdout)
    else:
        for rec in results["ods"]:
            sys.stdout.write(rec["text"] + "\n")
    print(f"discover: {results['od_count']} dependencies{work} in {elapsed:.3f}s", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    od = parse_od(args.od)
    rel, fingerprint = _load_relation(args)
    od_idx = map_od_attrs(od, rel.attr_index)
    if args.oracle:
        from .oracle import brute_validate_canonical, brute_validate_list

        valid = (brute_validate_list if isinstance(od_idx, ListOD) else brute_validate_canonical)(rel, od_idx)
    elif isinstance(od_idx, ListOD):
        valid = satisfies_list_od(rel, od_idx)
    else:
        valid = validate_canonical(rel, od_idx)
    results = {"od": format_od(od_idx, rel.schema.names), "valid": valid}
    if args.witnesses and not valid:
        results["witnesses"] = [
            {
                "kind": v.kind,
                "over": [rel.schema.names[a] for a in v.over],
                "attrs": [rel.schema.names[a] for a in v.attrs],
                "pairs": _Pairs(v.pairs),
            }
            for v in violations(rel, od_idx)
        ]
    flags = _common_flags(args)
    flags.update({"witnesses": args.witnesses, "oracle": args.oracle, "null_policy": rel.schema.null_policy})
    report = RunReport("validate", fingerprint, flags, results)
    if args.format == "json":
        report.write(sys.stdout)
    else:
        sys.stdout.write(("valid" if valid else "invalid") + f": {results['od']}\n")
        for w in results.get("witnesses", []):
            sys.stdout.write(f"  {w['kind']} witnesses: ")
            for piece in _joined(w["pairs"].pairs, "(%d,%d)", " "):
                sys.stdout.write(piece)
            sys.stdout.write("\n")
    return 0 if valid else 1


def _cmd_map(args) -> int:
    od = parse_od(args.od)
    if not isinstance(od, ListOD):
        raise OrdepError("map expects a list dependency like [A,B] -> [C,D]")
    mapped = map_list_to_canonical(od)
    results = {
        "od": format_od(od),
        "ods": [format_od(m) for m in mapped],
        "od_count": len(mapped),
    }
    report = RunReport("map", None, _common_flags(args), results)
    if args.format == "json":
        report.write(sys.stdout)
    else:
        for text in results["ods"]:
            sys.stdout.write(text + "\n")
    return 0


def _parse_premises(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not _is_strings(doc.get("ods")):
        raise OrdepError('premises file needs an object with an "ods" array of strings')
    ods = [parse_od(t) for t in doc["ods"]]
    for od in ods:
        if isinstance(od, ListOD):
            raise OrdepError("premises must be canonical dependencies, not list form")
    mentioned = {a for od in ods for a in od_attrs(od)}
    universe = doc.get("universe", sorted(mentioned))
    if not _is_strings(universe):
        raise OrdepError('premises "universe" must be an array of strings')
    if not mentioned.issubset(universe):
        raise OrdepError(f"premises use attributes outside the universe: {sorted(mentioned.difference(universe))}")
    return ODSet(frozenset(universe), ods)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _cmd_infer(args) -> int:
    premises = _parse_premises(args.premises)
    # A trivial target holds on any data and cannot be built as a
    # dependency object, so it is answered from its raw parts.
    parts = parse_canonical_parts(args.target)
    if parts is not None and is_trivial(parts[1], parts[2:]):
        results = {"target": args.target.strip(), "answer": "yes", "derivable": True, "trivial": True}
        flags = _common_flags(args)
        flags.update({"max_context": args.max_context, "max_chain": args.max_chain, "trace": args.trace})
        report = RunReport("infer", None, flags, results)
        if args.format == "json":
            report.write(sys.stdout)
        else:
            sys.stdout.write(f"yes (trivial): {results['target']}\n")
        return 0
    target = parse_od(args.target)
    if isinstance(target, ListOD):
        raise OrdepError("infer expects a canonical dependency target")
    universe = premises.universe.union(od_attrs(target))
    premises = ODSet(universe, premises.constants | premises.ocs)
    max_ctx = args.max_context if args.max_context is not None else len(universe)
    lim = DerivationLimit(max_ctx, args.max_chain)
    at_caps = max_ctx >= len(universe) and args.max_chain >= max(0, len(universe) - 2)
    trace = derive_with_trace(premises, target, lim) if args.trace else None
    derivable = trace is not None if args.trace else derives(premises, target, lim)
    if derivable:
        answer = "yes"
    elif at_caps:
        answer = "no"
    else:
        answer = "not derivable within limits"
    results = {"target": format_od(target), "answer": answer, "derivable": derivable}
    if trace:
        results["trace"] = [
            {"od": format_od(od), "rule": rule, "premises": [format_od(p) for p in prems]}
            for od, rule, prems in trace
        ]
    flags = _common_flags(args)
    flags.update({"max_context": max_ctx, "max_chain": args.max_chain, "trace": args.trace})
    report = RunReport("infer", None, flags, results)
    if args.format == "json":
        report.write(sys.stdout)
    else:
        sys.stdout.write(f"{answer}: {results['target']}\n")
        for step in results.get("trace", []):
            via = f" via {step['rule']}" if step["rule"] != "premise" else " (premise)"
            sys.stdout.write(f"  {step['od']}{via}\n")
    if derivable:
        return 0
    return 1 if at_caps else 3


_parser = None  # built by the first `main` call, so importing builds none


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes.
        return 2 if exc.code else 0
    handlers = {
        "discover": _cmd_discover,
        "validate": _cmd_validate,
        "map": _cmd_map,
        "infer": _cmd_infer,
    }
    try:
        return handlers[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OrdepError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
