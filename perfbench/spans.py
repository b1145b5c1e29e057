"""Per-layer tracing from outside the program.

Each public function of a layer is wrapped in the module that looks it
up (a `from x import f` binds f in the importing module, so that is the
name to patch).  A wrapper records one span per call: the operation it
belongs to, its name, start, end and the span that called it.  Spans
stay in memory and are written once, by `Tracer.write`.  Nothing under
`src/` changes, and `uninstall` restores every original function.

The oracle is ground truth for the checks and is never wrapped.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute) -> span name.  The span name's prefix is the layer.
PATCH_POINTS = {
    ("ordep.cli", "main"): "cli.main",
    ("ordep.cli", "load_csv"): "relation.load_csv",
    ("ordep.relation", "encode_ranks"): "relation.encode_ranks",
    ("ordep.cli", "discover"): "discovery.discover",
    ("ordep.discovery", "product"): "partitions.product",
    ("ordep.discovery", "class_labels"): "partitions.class_labels",
    ("ordep.discovery", "check_constant"): "partitions.check_constant",
    ("ordep.discovery", "check_order_compatible"): "partitions.check_oc",
    ("ordep.discovery", "partition_single"): "partitions.partition_single",
    ("ordep.discovery", "sorted_partition"): "partitions.sorted_partition",
    ("ordep.odmodel", "partition_set"): "partitions.partition_set",
    ("ordep.odmodel", "sorted_partition"): "partitions.sorted_partition",
    ("ordep.odmodel", "check_constant"): "partitions.check_constant",
    ("ordep.odmodel", "check_order_compatible"): "partitions.check_oc",
    ("ordep.cli", "validate_canonical"): "odmodel.validate_canonical",
    ("ordep.cli", "satisfies_list_od"): "odmodel.satisfies_list_od",
    ("ordep.cli", "violations"): "odmodel.violations",
    ("ordep.cli", "derives"): "inference.derives",
    ("ordep.cli", "derive_with_trace"): "inference.derive_with_trace",
}

# Bookkeeping done by the wrappers (counting rows, looking up ids) is
# recorded as a span of its own, so it is not charged to any layer.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list = []  # (op, name, start, end, parent index)
        self.stack: list[int] = []
        self.op = -1
        self.counts = {
            "product_rows_out": 0,
            "products_used": 0,
            "witness_pairs": 0,
            "derivable": 0,
            "nodes_generated": 0,
            "nodes_pruned": 0,
            "constant_checks": 0,
            "swap_checks": 0,
            "keys_found": 0,
        }
        # Products of the current discover call, by id, each held alive
        # so CPython cannot hand its id to a later partition.
        self._products: dict[int, object] = {}
        self._used: set[int] = set()
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        return idx, parent

    def _wrap(self, name, fn, after):
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx] = (self.op, name, start, end, parent)
            if after is not None:
                b_idx, b_parent = self._open()
                b_start = perf_counter()
                after(args, return_value)
                self.stack.pop()
                self.spans[b_idx] = (self.op, BOOKKEEPING, b_start, perf_counter(), b_parent)
            return return_value

        return wrapper

    def _after_product(self, args, part):
        self.counts["product_rows_out"] += sum(len(c) for c in part.classes)
        self._products[id(part)] = part

    def _after_check(self, args, _):
        if id(args[0]) in self._products:
            self._used.add(id(args[0]))

    def _after_discover(self, args, run):
        stats = run.stats
        for key in ("nodes_generated", "nodes_pruned", "constant_checks", "swap_checks", "keys_found"):
            self.counts[key] += getattr(stats, key)
        self.counts["products_used"] += len(self._used)
        self._products.clear()
        self._used.clear()

    def _after_violations(self, args, reports):
        self.counts["witness_pairs"] += sum(len(r.pairs) for r in reports)

    def _after_derives(self, args, answer):
        self.counts["derivable"] += bool(answer)

    def install(self):
        hooks = {
            ("ordep.discovery", "product"): self._after_product,
            ("ordep.discovery", "check_constant"): self._after_check,
            ("ordep.discovery", "check_order_compatible"): self._after_check,
            ("ordep.cli", "discover"): self._after_discover,
            ("ordep.cli", "violations"): self._after_violations,
            ("ordep.cli", "derives"): self._after_derives,
            ("ordep.cli", "derive_with_trace"): self._after_derives,
        }
        for (module, attr), name in PATCH_POINTS.items():
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, hooks.get((module, attr))))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path):
        """Write every span, one per line: op, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        A span's self time is its duration minus the time covered by its
        direct children; calls nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - child[i]
        return out


def layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float) -> dict:
    """Every per-layer metric, each summed over the traced operations and
    divided by their number `ops` (reported as trace.ops)."""
    t = tracer.totals()
    c = tracer.counts

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    products = calls("partitions.product")
    labels = calls("partitions.class_labels")
    derive_calls = calls("inference.derives") + calls("inference.derive_with_trace")
    per_op = {
        "relation.load_s": total("relation.load_csv"),
        "relation.encode_s": total("relation.encode_ranks"),
        "relation.parse_s": total("relation.load_csv") - total("relation.encode_ranks"),
        "partitions.product_calls": products,
        "partitions.product_s": total("partitions.product"),
        "partitions.product_rows_out": c["product_rows_out"],
        "partitions.class_labels_calls": labels,
        "partitions.class_labels_s": total("partitions.class_labels"),
        "partitions.check_constant_calls": calls("partitions.check_constant"),
        "partitions.check_constant_s": total("partitions.check_constant"),
        "partitions.check_oc_calls": calls("partitions.check_oc"),
        "partitions.check_oc_s": total("partitions.check_oc"),
        "partitions.partition_set_s": total("partitions.partition_set"),
        "discovery.self_s": self_time("discovery.discover"),
        "discovery.nodes_generated": c["nodes_generated"],
        "discovery.nodes_pruned": c["nodes_pruned"],
        "discovery.constant_checks": c["constant_checks"],
        "discovery.swap_checks": c["swap_checks"],
        "discovery.keys_found": c["keys_found"],
        "odmodel.validate_canonical_s": total("odmodel.validate_canonical"),
        "odmodel.satisfies_list_od_s": total("odmodel.satisfies_list_od"),
        "odmodel.violations_s": total("odmodel.violations"),
        "odmodel.witness_pairs": c["witness_pairs"],
        "inference.derives_calls": derive_calls,
        "inference.derives_s": total("inference.derives") + total("inference.derive_with_trace"),
        "cli.self_s": self_time("cli.main"),
        "trace.bookkeeping_s": total(BOOKKEEPING),
    }
    out = {name: value / ops for name, value in per_op.items()}
    # Ratios, each over the base named beside it in BENCHMARK.json.
    out["partitions.label_reuse_ratio"] = 1 - labels / products if products else 0.0
    out["partitions.products_used_ratio"] = c["products_used"] / products if products else 0.0
    out["inference.derivable_ratio"] = c["derivable"] / derive_calls if derive_calls else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.ops"] = ops
    return out
