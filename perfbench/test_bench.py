"""Self-tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import filecmp
import json
import os
import random
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from ordep import cli  # noqa: E402
from ordep.odmodel import map_od_attrs, parse_od, violations  # noqa: E402
from ordep.relation import Relation, Schema  # noqa: E402

WORKLOADS = ("tall", "wide", "queries")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _generate(tmp_path, monkeypatch, workload, seed, sub):
    # Relative paths, so manifests from two directories compare equal.
    target = tmp_path / sub
    target.mkdir()
    monkeypatch.chdir(target)
    gen.generate(workload, seed, "inputs")
    return target / "inputs"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, monkeypatch, workload):
    a = _generate(tmp_path, monkeypatch, workload, 7, "a")
    b = _generate(tmp_path, monkeypatch, workload, 7, "b")
    c = _generate(tmp_path, monkeypatch, workload, 8, "c")
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
    _, mismatch, _ = filecmp.cmpfiles(a, c, names, shallow=False)
    assert f"{workload}.csv" in mismatch


def test_benchmark_json_follows_its_format():
    doc = declared()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    assert {w["name"]: w["why"] for w in doc["workloads"]} == gen.WHY
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_metric_computed_is_declared():
    doc = declared()
    worker = {"samples": [("discover", 1.0), ("discover", 2.0)], "peak_rss_mb": 10.0, "setup_s": [0.1, 0.2]}
    assert set(run.end_to_end_metrics(worker)) == {m["name"] for m in doc["end_to_end"]}
    layers = spans.layer_metrics(spans.Tracer(), 1, 0.0)
    assert set(layers) == {m["name"] for m in doc["per_layer"]}


def _small_table(tmp_path):
    rng = random.Random(3)
    names, cols, _ = gen.tall_table(rng, 60, 2)
    return gen._write_table(str(tmp_path), "t", names, ["integer"] * len(names), cols)


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path, capsys):
    csv_path, schema_path = _small_table(tmp_path)
    originals = {key: getattr(__import__(key[0], fromlist=["_"]), key[1]) for key in spans.PATCH_POINTS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        assert cli.main(["discover", "--input", csv_path, "--schema", schema_path, "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    for key, fn in originals.items():
        assert getattr(__import__(key[0], fromlist=["_"]), key[1]) is fn
    by_index = tracer.spans
    assert by_index[0][1] == "cli.main" and by_index[0][4] == -1
    for op, name, start, end, parent in by_index[1:]:
        assert parent >= 0 and by_index[parent][2] <= start <= end <= by_index[parent][3]
    layers = spans.layer_metrics(tracer, 1, 0.0)
    assert layers["partitions.product_calls"] > 0
    assert 0 < layers["partitions.products_used_ratio"] <= 1
    assert layers["discovery.nodes_generated"] > 0
    assert layers["relation.encode_s"] > 0 and layers["relation.parse_s"] > 0
    capsys.readouterr()


def test_witness_count_matches_the_pairwise_definition():
    rng = random.Random(5)
    names, types, cols = gen.query_table(rng, 60)
    rel = Relation.from_columns(Schema(tuple(zip(names, types))), cols)
    for text in gen.WITNESS + ["{grp}: cat ~ score", "[cat,grp] -> [rnd]"]:
        od = parse_od(text)
        reports = violations(rel, map_od_attrs(od, rel.attr_index))
        assert gen.witness_count(names, cols, od) == sum(len(r.pairs) for r in reports), text


def test_a_planted_wrong_answer_is_counted_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest = gen.generate("queries", 4, "inputs")
    ops = [op for op in manifest["blocks"][0] if op["kind"] == "validate" and "witness_pairs" not in op][:3]
    wrong = dict(ops[0], valid=not ops[0]["valid"], exit=1 - ops[0]["exit"])
    manifest["blocks"] = [[wrong] + ops[1:]]
    manifest["min_blocks"] = 1
    with open("inputs/planted.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "inputs/planted.json", "0", "0"],
        capture_output=True, text=True, check=True, env=env,
    )
    checks = json.loads(proc.stdout.splitlines()[-1])["checks"]
    assert checks["attempted"] == 3 and checks["failed"] == 1


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
