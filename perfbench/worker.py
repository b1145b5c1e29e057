"""Measured loop of one workload, run in a process of its own.

Usage: python3 perfbench/worker.py MANIFEST SECONDS TRACE

It drives `ordep.cli.main` in-process from one closed-loop caller (the
next call starts when the previous one has returned and been checked),
cycling through the manifest's blocks of calls until the next block
would end after SECONDS, but running at least the manifest's
`min_blocks`.  It prints one JSON object: per-call latencies by kind,
set-up samples, the process's peak RSS, the check tally and, with
TRACE=1, the per-layer metrics.

With TRACE=1 the time is split: an untraced pass, then the same
schedule traced, so the tracing overhead is measured on identical calls.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

sys.path.insert(0, "src")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ordep import cli  # noqa: E402

import spans  # noqa: E402

SETUP_PER_GAP = 5


def call(argv):
    """One CLI invocation: (exit code, seconds, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    # A CLI user starts from a fresh heap; collect the previous call's
    # garbage outside the timed region.
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue()


class Checker:
    """Checks every output against the manifest's expected outcome."""

    def __init__(self, manifest):
        self.table = manifest.get("table")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[tuple, str] = {}

    def check(self, op, code, out):
        self.attempted += 1
        problems = self._problems(op, code, out)
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{' '.join(op['argv'][:2])}: {'; '.join(problems)}")

    def _problems(self, op, code, out):
        found = []
        if code != op["exit"]:
            found.append(f"exit {code}, expected {op['exit']}")
        # Same arguments, same bytes: the report is deterministic.
        digest = hashlib.sha256(out.encode()).hexdigest()
        first = self.first_digest.setdefault(tuple(op["argv"]), digest)
        if digest != first:
            found.append("stdout differs from the first run of the same call")
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return found + ["stdout is not JSON"]
        kind = op["kind"]
        if kind == "discover":
            texts = {rec["text"] for rec in doc["ods"]}
            if doc["od_count"] != len(doc["ods"]):
                found.append("od_count does not match the listed dependencies")
            missing = [t for t in op["planted"] if t not in texts]
            if missing:
                found.append(f"planted dependencies missing: {missing}")
        elif kind == "validate":
            if doc["valid"] != op["valid"]:
                found.append(f"valid={doc['valid']}, oracle says {op['valid']}")
            if "witness_pairs" in op:
                found += self._witness_problems(op, doc)
        elif kind == "infer":
            if doc["answer"] != op["answer"]:
                found.append(f"answer {doc['answer']}, oracle says {op['answer']}")
            if op["trace"] and (not doc.get("trace") or doc["trace"][-1]["od"] != op["target"]):
                found.append("derivation path does not end at the target")
        return found

    def _witness_problems(self, op, doc):
        reports = doc.get("witnesses", [])
        total = sum(len(r["pairs"]) for r in reports)
        if total != op["witness_pairs"]:
            return [f"{total} witness pairs, expected {op['witness_pairs']}"]
        names = self.table["names"]
        cols = self.table["columns"]
        list_form = op["argv"][1].lstrip().startswith("[")
        rng = random.Random(total)
        for rep in reports:
            over = [cols[names.index(a)] for a in rep["over"]]
            attrs = [cols[names.index(a)] for a in rep["attrs"]]
            for s, t in rng.sample(rep["pairs"], min(20, len(rep["pairs"]))):
                s, t = s - 1, t - 1
                if not _violates(rep["kind"], list_form, over, attrs, s, t):
                    return [f"reported pair ({s + 1},{t + 1}) is no {rep['kind']}"]
        return []


def _violates(kind, list_form, over, attrs, s, t):
    """Whether rows s, t (0-based) really form the reported violation."""
    key = lambda cols, r: tuple(c[r] for c in cols)  # noqa: E731
    if kind == "swap" and list_form:
        return key(over, s) < key(over, t) and key(attrs, t) < key(attrs, s)
    if key(over, s) != key(over, t):
        return False
    if kind == "split":
        return key(attrs, s) != key(attrs, t)
    (a, b) = attrs
    return a[s] < a[t] and b[s] > b[t]


def import_times(samples):
    """Times of `import ordep.cli`, each in a fresh process.

    The clock runs inside the child around the import alone, so
    interpreter start-up, which is not the program's, stays out.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    code = "import time; t = time.perf_counter(); import ordep.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        times.append(float(proc.stdout))
    return times


def run_loop(manifest, seconds, min_blocks, checker, tracer=None, setup=None):
    """Closed loop over the blocks; returns [(kind, seconds), ...].

    With a `setup` list, set-up samples are appended to it before each
    block and after the last one, outside the measured calls, so they
    are spread over the run instead of landing in one slow spell of a
    shared machine.
    """
    blocks = manifest["blocks"]
    samples = []
    spent = 0.0  # in blocks, so set-up sampling does not shorten the loop
    done = 0
    while True:
        if setup is not None:
            setup += import_times(SETUP_PER_GAP)
        started = perf_counter()
        for op in blocks[done % len(blocks)]:
            if tracer is not None:
                tracer.op += 1
            code, elapsed, out = call(op["argv"])
            samples.append((op["kind"], elapsed))
            checker.check(op, code, out)
        done += 1
        spent += perf_counter() - started
        if done >= min_blocks and spent + spent / done > seconds:
            if setup is not None:
                setup += import_times(SETUP_PER_GAP)
            return samples


def main(argv):
    manifest_path, seconds, traced = argv[0], float(argv[1]), argv[2] == "1"
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    checker = Checker(manifest)
    result = {}
    if not traced:
        # The first import may write bytecode caches; users pay that once.
        import_times(1)
        result["setup_s"] = []
        samples = run_loop(manifest, seconds, manifest["min_blocks"], checker, setup=result["setup_s"])
    else:
        plain = run_loop(manifest, seconds / 2, 1, checker)
        tracer = spans.Tracer()
        tracer.install()
        try:
            samples = run_loop(manifest, seconds / 2, 1, checker, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(os.path.dirname(manifest_path), "spans.tsv"))
        # Same schedule from the same start, so position n is the same call.
        n = min(len(plain), len(samples))
        ratio = sum(s for _, s in samples[:n]) / sum(s for _, s in plain[:n]) - 1
        result["layers"] = spans.layer_metrics(tracer, len(samples), ratio)
    result["samples"] = samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["checks"] = {"attempted": checker.attempted, "failed": checker.failed, "problems": checker.problems}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
