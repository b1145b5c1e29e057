"""Seeded benchmark of `ordep` discover, validate and infer.

Usage, from the repository root:

    python3 perfbench/run.py --workload tall|wide|queries --seed N --seconds S --trace 0|1

One run generates the workload's inputs from the seed into
.perfbench_work/<workload>/, runs the measured closed loop in a worker
process of its own (so its peak RSS is the workload's alone), checks
every output, and prints a
human-readable summary on stderr and, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list, each with the unit declared there.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
WORKER_TIMEOUT_S = 150


def oracle_check(argv):
    """Down-sized discover: the OD list must equal the --oracle output."""
    from ordep import cli

    outputs = []
    for extra in ([], ["--oracle"]):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv + extra)
        if code != 0:
            return f"exit {code} on {' '.join(argv + extra)}"
        outputs.append(json.loads(out.getvalue())["ods"])
    if outputs[0] != outputs[1]:
        return f"discover and --oracle disagree: {len(outputs[0])} vs {len(outputs[1])} dependencies"
    return None


def end_to_end_metrics(worker):
    """The end_to_end metrics of one untraced run."""
    times = [s for _, s in worker["samples"]]
    return {
        "setup_s": statistics.median(worker["setup_s"]),
        "call_p50_ms": statistics.median(times) * 1000,
        "calls_per_s": len(times) / sum(times),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def _p(values, q):
    """Percentile q (1-99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def detail_lines(workload, samples):
    """The per-call-type figures, with their sample counts."""
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    lines = []
    if "discover" in by_kind:
        t = by_kind["discover"]
        lines.append(f"discover_s        {statistics.median(t):.4f} s  (median of n={len(t)})")
    for kind in ("validate", "infer"):
        t = [s * 1000 for s in by_kind.get(kind, [])]
        if len(t) >= 2:
            lines.append(f"{kind}_p50_ms   {statistics.median(t):.3f} ms  (n={len(t)})")
            lines.append(f"{kind}_p90_ms   {_p(t, 90):.3f} ms  (n={len(t)}, {sum(x > _p(t, 90) for x in t)} beyond)")
    if workload == "queries":
        lines.append(f"queries_per_s     {len(samples) / sum(s for _, s in samples):.3f} 1/s")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["tall", "wide", "queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ordep", "cli.py")) or not os.path.isfile("BENCHMARK.json"):
        print("error: run from the repository root; src/ordep or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path[:0] = ["src", HERE]
    import gen

    workdir = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    started = perf_counter()
    manifest = gen.generate(args.workload, args.seed, workdir)
    gen_s = perf_counter() - started

    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(workdir, "manifest.json"),
             str(args.seconds), str(args.trace)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker ran past {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.splitlines()[-1])

    checks = worker["checks"]
    attempted, failed, problems = checks["attempted"], checks["failed"], list(checks["problems"])
    if manifest["oracle_check"]:
        attempted += 1
        problem = oracle_check(manifest["oracle_check"])
        if problem:
            failed += 1
            problems.append(problem)

    samples = worker["samples"]
    metrics = worker["layers"] if args.trace else end_to_end_metrics(worker)
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    summary = [f"workload {args.workload} seed {args.seed}: {manifest['why']}",
               f"inputs generated in {gen_s:.2f} s; {len(samples)} calls measured"]
    if not args.trace:
        summary.append(f"setup_s is the median of n={len(worker['setup_s'])} imports, each in a fresh process")
    summary += [f"{m['name']:<34} {metrics[m['name']]:.6g} {m['unit']}" for m in wanted]
    if not args.trace:
        summary += detail_lines(args.workload, samples)
    summary.append(f"error_rate        {failed / attempted:.4f}  ({failed} failed of {attempted} checked)")
    summary += [f"FAILED CHECK: {p}" for p in problems]
    print("\n".join(summary), file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
