import csv
import hashlib
import io
import json
import random
import tracemalloc
from contextlib import redirect_stdout
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

from helpers import random_relation
from ordep import ConstantOD, ListOD, OrderCompatOD, cli, discover, discover_unpruned, violations
from ordep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_premises(tmp_path, doc):
    path = tmp_path / "premises.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_discover_text(capsys, taxes_csv, taxes_schema_file):
    code, out, err = run(
        capsys, "discover", "--input", taxes_csv, "--schema", taxes_schema_file
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 109
    assert "{}: bin ~ salary" in lines
    assert "{position}: [] |-> bin" in lines
    assert "dependencies" in err and "109" in err


def test_discover_stdout_is_byte_stable(capsys, taxes_csv, taxes_schema_file):
    argv = ["discover", "--input", taxes_csv, "--schema", taxes_schema_file, "--format", "json"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_discover_json_shape(capsys, taxes_csv, taxes_schema_file):
    code, out, _ = run(
        capsys,
        "discover", "--input", taxes_csv, "--schema", taxes_schema_file,
        "--format", "json", "--seed", "7", "--threads", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "discover"
    assert doc["input"]["rows"] == 6
    assert doc["input"]["attributes"] == 9
    assert doc["flags"]["seed"] == 7
    assert doc["flags"]["threads"] == 2
    assert doc["flags"]["prune"] is True
    assert doc["od_count"] == 109
    assert len(doc["ods"]) == 109
    assert doc["stats"]["levels_processed"] == 4
    assert doc["stats"]["exhausted"] is True
    assert doc["stats"]["totals"]["nodes_generated"] == sum(
        lvl["nodes_generated"] for lvl in doc["stats"]["levels"]
    )
    rec = doc["ods"][0]
    assert set(rec) == {"kind", "context", "level", "text"} | (
        {"attr"} if rec["kind"] == "constant" else {"a", "b"}
    )


def test_discover_no_prune_and_oracle_agree(capsys, taxes_csv, taxes_schema_file):
    base = ["--input", taxes_csv, "--schema", taxes_schema_file]
    _, fast, _ = run(capsys, "discover", *base)
    _, slow, _ = run(capsys, "discover", *base, "--no-prune")
    _, brute, _ = run(capsys, "discover", *base, "--oracle", "--max-level", "3")
    _, capped, _ = run(capsys, "discover", *base, "--max-level", "3")
    assert fast == slow
    assert brute == capped


def test_discover_with_duplicate_rows_reports_the_file(capsys, tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,b\n1,2\n1,2\n2,3\n1,2\n")
    base = ["discover", "--input", str(path), "--infer-schema", "--format", "json"]
    code, out, err = run(capsys, *base)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["rows"] == 4
    assert "over 2 distinct of 4 rows" in err
    _, brute, _ = run(capsys, *base, "--oracle")
    assert doc["ods"] == json.loads(brute)["ods"]


def test_discover_reports_partitions_built_on_stderr(capsys, taxes, taxes_csv, taxes_schema_file):
    base = ["discover", "--input", taxes_csv, "--schema", taxes_schema_file]
    for flags, lattice in (((), discover), (("--no-prune",), discover_unpruned)):
        code, _, err = run(capsys, *base, *flags)
        assert code == 0
        built = lattice(taxes).partitions_built
        assert built > 0
        assert f"over 6 distinct of 6 rows, {built} partitions built in " in err
    _, _, err = run(capsys, *base, "--oracle", "--max-level", "2")
    assert "partitions built" not in err


def test_only_oracle_runs_load_raw_values(capsys, monkeypatch, taxes_csv, taxes_schema_file):
    seen = []

    def recording_load_csv(*args, **kwargs):
        seen.append(kwargs["raw"])
        return load_csv(*args, **kwargs)

    load_csv = cli.load_csv
    monkeypatch.setattr(cli, "load_csv", recording_load_csv)
    base = ["--input", taxes_csv, "--schema", taxes_schema_file]
    for argv in (["discover", *base, "--max-level", "2"], ["validate", "{year}: bin ~ salary", *base]):
        for extra in ([], ["--oracle"]):
            assert run(capsys, *argv, *extra)[0] == 0
    assert seen == [False, True, False, True]


def test_validate_list_od_valid(capsys, taxes_csv, taxes_schema_file):
    code, out, _ = run(
        capsys,
        "validate", "[salary] -> [tax,percentage]",
        "--input", taxes_csv, "--schema", taxes_schema_file,
    )
    assert code == 0
    assert out == "valid: [salary] -> [tax,percentage]\n"


def test_validate_invalid_with_witnesses(capsys, taxes_csv, taxes_schema_file):
    code, out, _ = run(
        capsys,
        "validate", "{position}: [] |-> salary",
        "--input", taxes_csv, "--schema", taxes_schema_file, "--witnesses",
    )
    assert code == 1
    assert "invalid: {position}: [] |-> salary" in out
    assert "(1,4) (2,5) (3,6)" in out


# sha256 over `validate OD --witnesses` for every list dependency on the
# taxes table whose sides (each without repeats) hold at most three
# attributes between them, 2,548 in all, lhs-major in the order of
# `permutations` over the schema's names: per dependency, the exit code
# and stdout of the JSON report, then of the text report.  Taken from the
# pairwise list check that preceded validation through the canonical
# mapping.
GOLDEN_LIST_VALIDATE_DIGEST = "108ff67afe5810bd844e24705538420c727c479715e5d2d898cc70cd5800c270"


def test_list_validation_matches_golden_digest(capsys, monkeypatch, taxes, taxes_csv):
    # Relative paths, so the reports do not depend on the checkout's location.
    monkeypatch.chdir(Path(taxes_csv).parent)
    # The flags are parsed once per format: on six rows argparse would
    # otherwise take most of each call.
    base = ["validate", "", "--input", "taxes.csv", "--schema", "taxes.schema.json", "--witnesses"]
    parsed = [cli._build_parser().parse_args(base + ["--format", fmt]) for fmt in ("json", "text")]
    sides = [p for k in range(4) for p in permutations(taxes.schema.names, k)]
    h = hashlib.sha256()
    count = 0
    for lhs in sides:
        for rhs in sides:
            if len(lhs) + len(rhs) > 3:
                continue
            for args in parsed:
                args.od = f"[{','.join(lhs)}] -> [{','.join(rhs)}]"
                code = cli._cmd_validate(args)
                h.update(f"{code}\n{capsys.readouterr().out}".encode())
            count += 1
    assert count == 2548
    assert h.hexdigest() == GOLDEN_LIST_VALIDATE_DIGEST


def test_validate_oracle_agrees(capsys, taxes_csv, taxes_schema_file):
    for od, expected in (("{year}: bin ~ salary", 0), ("{year}: bin ~ subgroup", 1)):
        plain = run(capsys, "validate", od, "--input", taxes_csv, "--schema", taxes_schema_file)
        oracle = run(
            capsys, "validate", od, "--input", taxes_csv, "--schema", taxes_schema_file, "--oracle"
        )
        assert plain[0] == oracle[0] == expected
        assert plain[1] == oracle[1]


def test_validate_trivial_canonical_is_usage_error(capsys, taxes_csv, taxes_schema_file):
    code, _, err = run(
        capsys, "validate", "{bin}: [] |-> bin",
        "--input", taxes_csv, "--schema", taxes_schema_file,
    )
    assert code == 2
    assert "error" in err


def test_validate_json_includes_witnesses(capsys, taxes_csv, taxes_schema_file):
    code, out, _ = run(
        capsys,
        "validate", "{}: salary ~ subgroup",
        "--input", taxes_csv, "--schema", taxes_schema_file,
        "--witnesses", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["witnesses"][0]["kind"] == "swap"
    assert [1, 2] in doc["witnesses"][0]["pairs"]
    # The pair lists take RunReport's one-format-per-pair path.
    assert out == json.dumps(doc, indent=2) + "\n"


def test_map_example(capsys):
    code, out, _ = run(capsys, "map", "[A,B] -> [C,D]")
    assert code == 0
    assert out.splitlines() == [
        "{A,B}: [] |-> C",
        "{A,B}: [] |-> D",
        "{}: A ~ C",
        "{C}: A ~ D",
        "{A}: B ~ C",
        "{A,C}: B ~ D",
    ]


def test_map_rejects_canonical_input(capsys):
    code, _, err = run(capsys, "map", "{A}: B ~ C")
    assert code == 2
    assert "error" in err


def test_infer_yes(capsys, tmp_path):
    premises = write_premises(
        tmp_path,
        {"universe": ["A", "B"], "ods": ["{}: [] |-> A", "{A}: [] |-> B"]},
    )
    code, out, _ = run(capsys, "infer", "{}: [] |-> B", "--premises", premises)
    assert code == 0
    assert out.startswith("yes")


def test_infer_no_at_natural_caps(capsys, tmp_path):
    premises = write_premises(tmp_path, {"universe": ["A", "B"], "ods": []})
    code, out, _ = run(capsys, "infer", "{}: A ~ B", "--premises", premises)
    assert code == 1
    assert out.startswith("no")


def test_infer_limited_is_distinct_from_no(capsys, tmp_path):
    premises = write_premises(
        tmp_path, {"universe": ["A", "B", "C", "D"], "ods": ["{}: A ~ B"]}
    )
    code, out, _ = run(
        capsys, "infer", "{C}: A ~ B", "--premises", premises, "--max-context", "0"
    )
    assert code == 3
    assert out.startswith("not derivable within limits")
    code, out, _ = run(capsys, "infer", "{C}: A ~ B", "--premises", premises)
    assert code == 0


def test_infer_trivial_target(capsys, tmp_path):
    premises = write_premises(tmp_path, {"universe": ["A", "B"], "ods": []})
    code, out, _ = run(capsys, "infer", "{A}: [] |-> A", "--premises", premises)
    assert code == 0
    assert "trivial" in out
    code, out, _ = run(capsys, "infer", "{A}: A ~ B", "--premises", premises)
    assert code == 0
    assert "trivial" in out


def test_infer_trace(capsys, tmp_path):
    premises = write_premises(
        tmp_path,
        {"universe": ["A", "B"], "ods": ["{}: [] |-> A", "{A}: [] |-> B"]},
    )
    code, out, _ = run(
        capsys, "infer", "{}: [] |-> B", "--premises", premises, "--trace"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes: {}: [] |-> B"
    assert any("premise" in ln for ln in lines[1:])
    assert lines[-1] == "  {}: [] |-> B via strengthen"


def test_infer_json_flags(capsys, tmp_path):
    premises = write_premises(tmp_path, {"universe": ["A", "B"], "ods": ["{}: A ~ B"]})
    code, out, _ = run(
        capsys, "infer", "{}: A ~ B", "--premises", premises,
        "--format", "json", "--max-chain", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "yes"
    assert doc["derivable"] is True
    assert doc["flags"]["max_chain"] == 1
    assert doc["flags"]["max_context"] == 2


def test_infer_rejects_list_premise(capsys, tmp_path):
    premises = write_premises(tmp_path, {"ods": ["[A] -> [B]"]})
    code, _, err = run(capsys, "infer", "{}: A ~ B", "--premises", premises)
    assert code == 2
    assert "error" in err


def test_null_policy_override_flips_verdict(capsys, tmp_path):
    csv = tmp_path / "nulls.csv"
    csv.write_text("a,b\n1,\n2,1\n")
    base = ["validate", "{}: a ~ b", "--input", str(csv), "--infer-schema"]
    assert main(base + ["--null-policy", "first"]) == 0
    capsys.readouterr()
    assert main(base + ["--null-policy", "last"]) == 1
    capsys.readouterr()


def test_infer_schema_flag(capsys, taxes_csv):
    code, out, _ = run(
        capsys, "discover", "--input", taxes_csv, "--infer-schema", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["rows"] == 6
    # trial parsing types salary as integer; the dependency set is the
    # same because ranks only depend on relative order
    assert doc["od_count"] == 109


def test_usage_errors_exit_two(capsys, tmp_path, taxes_csv, taxes_schema_file):
    bad_schema = tmp_path / "bad.schema.json"
    bad_schema.write_text('{"attributes": [{"name": ["a"], "type": "integer"}]}')
    cases = [
        ["discover", "--input", taxes_csv],  # no schema source
        ["discover", "--input", str(tmp_path / "missing.csv"), "--infer-schema"],
        ["validate", "not an od", "--input", taxes_csv, "--schema", taxes_schema_file],
        ["frobnicate"],
        ["discover", "--input", taxes_csv, "--schema", taxes_schema_file, "--format", "yaml"],
        ["discover", "--input", taxes_csv, "--schema", str(bad_schema)],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()


def assert_one_line_usage_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1


def test_max_level_below_one_is_usage_error(capsys, tmp_path):
    csv = tmp_path / "const.csv"
    csv.write_text("a,b\n1,5\n2,5\n3,5\n")
    base = ["discover", "--input", str(csv), "--infer-schema"]
    for value in ("0", "-1"):
        for extra in ([], ["--oracle"]):
            code, out, err = run(capsys, *base, "--max-level", value, *extra)
            assert_one_line_usage_error(code, err)
            assert out == ""
            assert "--max-level: must be at least 1" in err
    code, out, _ = run(capsys, *base, "--max-level", "1")
    assert (code, out) == (0, "{}: [] |-> b\n")
    code, out, _ = run(capsys, *base, "--max-level", "1", "--oracle")
    assert (code, out) == (0, "{}: [] |-> b\n")


def test_threads_below_one_is_usage_error(capsys, taxes_csv, taxes_schema_file):
    data = ["--input", taxes_csv, "--schema", taxes_schema_file]
    commands = (["discover", *data], ["validate", "[ID] -> [year]", *data], ["map", "[A] -> [B]"])
    for argv in commands:
        for value in ("0", "-5"):
            code, out, err = run(capsys, *argv, "--threads", value)
            assert_one_line_usage_error(code, err)
            assert out == ""
            assert "--threads: must be at least 1" in err
        code, _, err = run(capsys, *argv, "--threads", "x")
        assert_one_line_usage_error(code, err)
    code, out, _ = run(capsys, "map", "[A] -> [B]", "--threads", "1", "--format", "json")
    assert code == 0 and json.loads(out)["flags"]["threads"] == 1


def test_negative_infer_limits_are_usage_errors(capsys, tmp_path):
    premises = write_premises(tmp_path, {"universe": ["A", "B"], "ods": ["{}: A ~ B"]})
    for flag in ("--max-context", "--max-chain"):
        code, out, err = run(capsys, "infer", "{}: A ~ B", "--premises", premises, flag, "-1")
        assert_one_line_usage_error(code, err)
        assert out == ""
        assert f"{flag}: must be at least 0" in err
        code, _, err = run(capsys, "infer", "{}: A ~ B", "--premises", premises, flag, "x")
        assert_one_line_usage_error(code, err)
        code, out, _ = run(capsys, "infer", "{}: A ~ B", "--premises", premises, flag, "0")
        assert (code, out) == (0, "yes: {}: A ~ B\n")


def test_infer_bad_premises_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["infer", "{}: A ~ B", "--premises", str(bad)]) == 2
    capsys.readouterr()
    malformed = [
        ["not an object"],
        {"ods": [5]},
        {"ods": "{}: A ~ B"},
        {"universe": 3, "ods": ["{}: A ~ B"]},
        {"universe": "AB", "ods": ["{}: A ~ B"]},
        {"universe": [1, "A"], "ods": ["{}: A ~ B"]},
        {"universe": ["A"], "ods": ["{}: A ~ B"]},
    ]
    for doc in malformed:
        premises = write_premises(tmp_path, doc)
        code, out, err = run(capsys, "infer", "{}: A ~ B", "--premises", premises)
        assert_one_line_usage_error(code, err)
        assert out == "", doc
    premises = write_premises(tmp_path, {"universe": ["A", "B", "C"], "ods": ["{}: A ~ B"]})
    assert run(capsys, "infer", "{}: A ~ B", "--premises", premises)[:2] == (0, "yes: {}: A ~ B\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "discover" in out


def test_one_parser_serves_every_call(capsys, monkeypatch, tmp_path, taxes_csv, taxes_schema_file):
    # `main` builds its parser once per process; every call through it
    # must print and exit exactly as through a parser of its own.
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    premises = write_premises(
        tmp_path, {"universe": ["A", "B", "C"], "ods": ["{}: [] |-> A", "{A}: [] |-> B"]}
    )
    data = ["--input", taxes_csv, "--schema", taxes_schema_file]
    calls = [
        ["discover", *data],
        ["validate", "{position}: [] |-> salary", *data, "--witnesses", "--format", "json"],
        ["map", "[A,B] -> [C,D]"],
        ["infer", "{}: [] |-> B", "--premises", premises, "--trace"],
        ["discover", *data, "--max-level", "0"],
        ["--help"],
        ["infer", "{}: B ~ C", "--premises", premises, "--format", "json", "--max-context", "0"],
        ["validate", "[salary] -> [tax,percentage]", *data],
    ]
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    shared = [run(capsys, *argv) for argv in calls]
    assert len(built) == 1
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(capsys, *argv))
    assert len(built) == 1 + len(calls)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 0, 2, 0, 0, 0]


def test_report_json_matches_indented_json_dumps():
    """RunReport renders witness pairs without json's pure-Python
    encoder; the bytes must still be json.dumps(doc, indent=2)."""
    rng = random.Random(1608)
    for trial in range(300):
        rel = random_relation(rng, max_rows=40, with_nulls=True)
        names = rel.schema.names
        a, b, c = rng.sample(range(rel.attr_count), 2) + [rng.randrange(rel.attr_count)]
        od = rng.choice([
            ConstantOD(frozenset({c}) - {a}, a),
            OrderCompatOD(frozenset({c}) - {a, b}, a, b),
            ListOD((a, c), (b,)),
        ])
        witnesses = [
            {
                "kind": v.kind,
                "over": [names[i] for i in v.over],
                "attrs": [names[i] for i in v.attrs],
                "pairs": v.pairs,
            }
            for v in violations(rel, od)
        ]
        witnesses.append({"kind": "split", "over": [], "attrs": ["caf\u00e9"], "pairs": []})
        results = {"od": "x", "valid": not witnesses[:-1], "witnesses": witnesses, "stats": None}
        flags = {"seed": trial, "oracle": False, "ratio": trial / 7, "levels": [[1, 2, 3], []]}
        report = cli.RunReport("validate", {"path": "t.csv", "rows": rel.row_count}, flags, results)
        doc = {"command": "validate", "input": report.input, "flags": flags, **results}
        assert report.to_json() == json.dumps(doc, indent=2) + "\n"


class Pieces(io.StringIO):
    """A StringIO that remembers the length of its longest write."""

    longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))
        return super().write(text)


def test_streamed_report_matches_indented_json_dumps():
    """RunReport.write streams `_Pairs` arrays in batches and renders
    everything else in one piece; its bytes must equal
    json.dumps(doc, indent=2) for the same reports, and for pair lists
    empty, of exactly one batch and of more than one batch."""
    rng = random.Random(1608)
    batch = [(s, s + 1) for s in range(1, cli._BATCH + 1)]
    extra = [[], batch, batch + [(7, 9)], batch * 2 + [(1, 2)]]
    for trial in range(300 + len(extra)):
        rel = random_relation(rng, max_rows=40, with_nulls=True)
        names = rel.schema.names
        a, b, c = rng.sample(range(rel.attr_count), 2) + [rng.randrange(rel.attr_count)]
        od = rng.choice([
            ConstantOD(frozenset({c}) - {a}, a),
            OrderCompatOD(frozenset({c}) - {a, b}, a, b),
            ListOD((a, c), (b,)),
        ])
        witnesses = [(v.kind, [names[i] for i in v.over], [names[i] for i in v.attrs], v.pairs)
                     for v in violations(rel, od)]
        if trial >= 300:
            witnesses.append(("swap", [], ["caf\u00e9"], tuple(extra[trial - 300])))
        docs = [
            [{"kind": k, "over": o, "attrs": at, "pairs": wrap(p)} for k, o, at, p in witnesses]
            for wrap in (cli._Pairs, list)
        ]
        flags = {"seed": trial, "oracle": False, "ratio": trial / 7, "levels": [[1, 2, 3], []]}
        report = cli.RunReport("validate", {"path": "t.csv"}, flags, {"od": "x", "witnesses": docs[0]})
        doc = {"command": "validate", "input": report.input, "flags": flags, "od": "x", "witnesses": docs[1]}
        out = Pieces()
        report.write(out)
        expected = json.dumps(doc, indent=2) + "\n"
        assert out.getvalue() == report.to_json() == expected
        # A pair renders to about 50 characters at this depth.
        assert out.longest < 64 * cli._BATCH
        if trial == 300 + len(extra) - 1:
            assert len(expected) > 2 * out.longest


def test_text_witness_lines_are_written_in_batches(capsys, tmp_path):
    # 100 rows, a ascending and b descending: every one of the 4,950
    # row pairs is a swap, more than one batch of them.
    path = tmp_path / "swaps.csv"
    path.write_text("a,b\n" + "".join(f"{i},{-i}\n" for i in range(100)))
    code, out, _ = run(capsys, "validate", "{}: a ~ b", "--input", str(path), "--infer-schema", "--witnesses")
    pairs = [(s, t) for s in range(1, 101) for t in range(s + 1, 101)]
    assert len(pairs) > cli._BATCH
    assert code == 1
    assert out == "invalid: {}: a ~ b\n  swap witnesses: " + " ".join(f"({s},{t})" for s, t in pairs) + "\n"


def test_list_witness_report_memory_stays_proportional_to_its_output(tmp_path):
    # [grp] -> [cat] on 300 seeded rows lists 22,315 pairs in 1.1 MB
    # of JSON.  Building the report as one string (every pair tuple, a
    # global sort, one string per pair, one join and a copy) peaked at
    # about 5.2x the output's length under tracemalloc.  Listing the
    # pairs in output order and writing them in batches peaks at about
    # 2.6x, most of it the pair tuples the report keeps and the
    # StringIO.  The bound sits between the two.
    rng = random.Random(2016)
    path = tmp_path / "groups.csv"
    path.write_text("grp,cat\n" + "".join(f"{rng.randrange(20)},{rng.randrange(10)}\n" for _ in range(300)))
    argv = ["validate", "[grp] -> [cat]", "--witnesses", "--format", "json", "--input", str(path), "--infer-schema"]
    out = io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(out.getvalue())
    assert code == 1
    assert sum(len(w["pairs"]) for w in doc["witnesses"]) == 22315
    assert peak < 4 * len(out.getvalue())


def test_undecodable_or_unreadable_input_exits_two(capsys, tmp_path):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"a,b\n1,2\n\xff,4\n")
    huge = tmp_path / "huge.csv"
    huge.write_text(f"a,b\n1,2\n{'1' * (csv.field_size_limit() + 8868)},4\n")
    schema = tmp_path / "schema.json"
    schema.write_text('[{"name": "a", "type": "integer"}, {"name": "b", "type": "integer"}]')
    for path, expected in ((latin1, "not valid UTF-8: '\\udcff' at row 3 column 'a'"),
                           (huge, "unreadable CSV record: field larger than field limit")):
        for argv in (
            ["discover", "--input", str(path), "--schema", str(schema)],
            ["discover", "--input", str(path), "--infer-schema"],
            ["validate", "{}: a ~ b", "--input", str(path), "--schema", str(schema)],
        ):
            code, out, err = run(capsys, *argv)
            assert_one_line_usage_error(code, err)
            assert expected in err and out == "", argv
    # Schema and premise files are read as UTF-8 too.
    bad_schema = tmp_path / "latin1.schema.json"
    bad_schema.write_bytes(b'[{"name": "a", "type": "integer"}, {"name": "b\xff", "type": "text"}]')
    premises = tmp_path / "latin1.premises.json"
    premises.write_bytes(b'{"ods": ["{}: a ~ b\xff"]}')
    for argv in (
        ["discover", "--input", str(latin1), "--schema", str(bad_schema)],
        ["infer", "{}: a ~ b", "--premises", str(premises)],
    ):
        code, out, err = run(capsys, *argv)
        assert_one_line_usage_error(code, err)
        assert "can't decode byte 0xff" in err and out == "", argv
