import csv
import io
import random
from datetime import date

import pytest

from helpers import infer_schema_rowwise, load_csv_rowwise
from ordep import ParseError, Relation, Schema, SchemaError, encode_ranks, infer_schema, load_csv
from ordep.relation import parse_value


def test_schema_rejects_bad_type():
    with pytest.raises(SchemaError):
        Schema((("a", "integer"), ("b", "decimal")))


def test_schema_rejects_duplicate_name():
    with pytest.raises(SchemaError):
        Schema((("a", "integer"), ("a", "float")))


def test_schema_rejects_empty_name():
    with pytest.raises(SchemaError):
        Schema((("", "integer"),))


def test_schema_rejects_bad_policy():
    with pytest.raises(SchemaError):
        Schema((("a", "integer"),), "nulls_middle")


def test_schema_json_round_trip():
    schema = Schema((("a", "integer"), ("b", "date")), "nulls_last")
    again = Schema.from_json(schema.to_json())
    assert again == schema


def test_schema_from_json_bare_array():
    schema = Schema.from_json('[{"name": "x", "type": "text"}]')
    assert schema.attributes == (("x", "text"),)
    assert schema.null_policy == "nulls_first"


def test_schema_from_json_errors():
    with pytest.raises(SchemaError):
        Schema.from_json("not json")
    with pytest.raises(SchemaError):
        Schema.from_json('{"null_policy": "nulls_first"}')
    with pytest.raises(SchemaError):
        Schema.from_json('[{"name": "x"}]')
    with pytest.raises(SchemaError):
        Schema.from_json('"just a string"')
    for text in (
        '{"attributes": 5}',
        '{"attributes": {"name": "x", "type": "text"}}',
        '[{"name": ["a"], "type": "integer"}]',
        '{"attributes": [{"name": "x", "type": ["text"]}]}',
    ):
        with pytest.raises(SchemaError):
            Schema.from_json(text)


def test_schema_index_and_type_of():
    schema = Schema((("a", "integer"), ("b", "float")))
    assert schema.index("b") == 1
    assert schema.type_of(0) == "integer"
    with pytest.raises(SchemaError):
        schema.index("c")


def test_parse_value_by_type():
    assert parse_value("42", "integer") == 42
    assert parse_value("-3", "integer") == -3
    assert parse_value("2.5", "float") == 2.5
    assert parse_value("2021-06-30", "date") == date(2021, 6, 30)
    assert parse_value("hello", "text") == "hello"


def test_parse_value_empty_is_null_for_every_type():
    for typ in ("integer", "float", "text", "date"):
        assert parse_value("", typ) is None


def test_parse_value_rejects_garbage():
    with pytest.raises(ParseError):
        parse_value("4.5", "integer")
    with pytest.raises(ParseError):
        parse_value("abc", "float")
    with pytest.raises(ParseError):
        parse_value("junk", "date")


def test_parse_value_rejects_nan():
    with pytest.raises(ParseError):
        parse_value("nan", "float")


def test_encode_ranks_dense_ascending():
    assert encode_ranks([30, 10, 20, 10], "integer") == [3, 1, 2, 1]


def test_encode_ranks_taxes_salary():
    sal = [5000.0, 8000.0, 10000.0, 4500.0, 6000.0, 8000.0]
    assert encode_ranks(sal, "float") == [2, 4, 5, 1, 3, 4]


def test_encode_ranks_taxes_position():
    posit = ["secr", "mngr", "direct", "secr", "mngr", "direct"]
    assert encode_ranks(posit, "text") == [3, 2, 1, 3, 2, 1]


def test_encode_ranks_null_policies():
    vals = [7, None, 3]
    assert encode_ranks(vals, "integer", "nulls_first") == [2, 0, 1]
    assert encode_ranks(vals, "integer", "nulls_last") == [2, 3, 1]
    with pytest.raises(ParseError):
        encode_ranks(vals, "integer", "reject")


def test_encode_ranks_all_null():
    assert encode_ranks([None, None], "integer", "nulls_first") == [0, 0]
    assert encode_ranks([None, None], "text", "nulls_last") == [1, 1]


def test_encode_ranks_int_coerced_in_float_column():
    assert encode_ranks([1, 1.5, 2], "float") == [1, 2, 3]
    assert encode_ranks([2, 2.0], "float") == [1, 1]


def test_encode_ranks_type_mismatch():
    with pytest.raises(ParseError):
        encode_ranks([1, "two"], "integer")
    with pytest.raises(ParseError):
        encode_ranks([True], "integer")
    with pytest.raises(ParseError):
        encode_ranks([1.5], "integer")
    with pytest.raises(ParseError):
        encode_ranks([float("nan")], "float")


def test_encode_ranks_dates():
    d = [date(2021, 3, 1), date(2020, 1, 1), date(2021, 3, 1)]
    assert encode_ranks(d, "date") == [2, 1, 2]


def test_encode_ranks_preserves_order_and_ties():
    rng = random.Random(7)
    for _ in range(50):
        vals = [rng.randrange(6) for _ in range(rng.randint(1, 12))]
        ranks = encode_ranks(vals, "integer")
        for i in range(len(vals)):
            for j in range(len(vals)):
                assert (vals[i] < vals[j]) == (ranks[i] < ranks[j])
                assert (vals[i] == vals[j]) == (ranks[i] == ranks[j])


def test_from_columns_and_from_rows_agree():
    schema = Schema((("a", "integer"), ("b", "text")))
    cols = [[1, 2, 1], ["x", "y", "x"]]
    rows = [[1, "x"], [2, "y"], [1, "x"]]
    assert Relation.from_columns(schema, cols) == Relation.from_rows(schema, rows)


def test_from_columns_shape_errors():
    schema = Schema((("a", "integer"), ("b", "integer")))
    with pytest.raises(SchemaError):
        Relation.from_columns(schema, [[1, 2]])
    with pytest.raises(SchemaError):
        Relation.from_columns(schema, [[1, 2], [3]])
    with pytest.raises(ParseError):
        Relation.from_rows(schema, [[1, 2], [3]])


def test_relation_lookups():
    schema = Schema((("a", "integer"), ("b", "integer")))
    rel = Relation.from_columns(schema, [[5, 6], [8, 7]])
    assert rel.attr_count == 2
    assert rel.row_count == 2
    assert rel.attr_index("b") == 1
    assert rel.attr_index(0) == 0
    assert rel.attr_name(1) == "b"
    assert rel.column("b") == (2, 1)
    assert rel.raw_column("b") == (8, 7)
    with pytest.raises(SchemaError):
        rel.attr_index(2)
    with pytest.raises(SchemaError):
        rel.attr_index("zzz")


def test_load_csv_taxes(taxes):
    assert taxes.row_count == 6
    assert taxes.attr_count == 9
    assert taxes.column("salary") == (2, 4, 5, 1, 3, 4)
    assert taxes.column("position") == (3, 2, 1, 3, 2, 1)
    assert taxes.raw_column("year") == (16, 16, 16, 15, 15, 15)


def test_load_csv_header_order_independent(tmp_path, taxes_schema, taxes):
    path = tmp_path / "shuffled.csv"
    path.write_text(
        "year,ID,position,bin,salary,percentage,tax,group,subgroup\n"
        "16,10,secr,1,5000,20,1000,A,III\n"
        "16,11,mngr,2,8000,25,2000,C,II\n"
        "16,12,direct,3,10000,30,3000,D,I\n"
        "15,10,secr,1,4500,20,900,A,III\n"
        "15,11,mngr,2,6000,25,1500,C,I\n"
        "15,12,direct,3,8000,25,2000,C,II\n"
    )
    assert load_csv(path, taxes_schema) == taxes


def test_load_csv_no_header(tmp_path):
    schema = Schema((("a", "integer"), ("b", "text")))
    path = tmp_path / "bare.csv"
    path.write_text("1,x\n2,y\n")
    rel = load_csv(path, schema, has_header=False)
    assert rel.raw_column("a") == (1, 2)
    assert rel.raw_column("b") == ("x", "y")


def test_load_csv_empty_fields_are_nulls(tmp_path):
    schema = Schema((("a", "integer"), ("b", "text")))
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1,\n,x\n")
    rel = load_csv(path, schema)
    assert rel.raw_column("a") == (1, None)
    assert rel.raw_column("b") == (None, "x")
    assert rel.column("a") == (1, 0)


def test_load_csv_header_mismatch(tmp_path):
    schema = Schema((("a", "integer"),))
    path = tmp_path / "bad.csv"
    path.write_text("z\n1\n")
    with pytest.raises(ParseError):
        load_csv(path, schema)


def test_load_csv_duplicate_header(tmp_path):
    schema = Schema((("a", "integer"), ("b", "integer")))
    path = tmp_path / "dup.csv"
    path.write_text("a,a\n1,2\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_csv(path, schema)


def test_load_csv_ragged_row(tmp_path):
    schema = Schema((("a", "integer"), ("b", "integer")))
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path, schema)


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    schema = Schema((("a", "integer"), ("b", "integer")))
    path = tmp_path / "cell.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, schema)
    assert err.value.row == 3
    assert err.value.column == "b"
    assert "row 3" in str(err.value)
    assert "'b'" in str(err.value)


def test_load_csv_empty_file(tmp_path):
    schema = Schema((("a", "integer"),))
    path = tmp_path / "void.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_csv(path, schema)


def test_load_csv_header_only(tmp_path):
    schema = Schema((("a", "integer"),))
    path = tmp_path / "empty.csv"
    path.write_text("a\n")
    rel = load_csv(path, schema)
    assert rel.row_count == 0


def test_infer_schema_mixed(tmp_path):
    path = tmp_path / "mix.csv"
    path.write_text(
        "n,x,d,s\n"
        "1,1.5,2021-01-02,aa\n"
        ",2,2021-02-03,1x\n"
        "3,,,\n"
    )
    schema = infer_schema(path)
    assert schema.attributes == (
        ("n", "integer"),
        ("x", "float"),
        ("d", "date"),
        ("s", "text"),
    )


def test_infer_schema_no_header(tmp_path):
    path = tmp_path / "noh.csv"
    path.write_text("1,a\n2,b\n")
    schema = infer_schema(path, has_header=False)
    assert schema.names == ("c1", "c2")
    assert schema.attributes[0][1] == "integer"


def test_infer_schema_empty_file(tmp_path):
    path = tmp_path / "void.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        infer_schema(path)


def test_parse_value_date_is_exactly_yyyy_mm_dd():
    assert parse_value("2020-01-01", "date") == date(2020, 1, 1)
    # Python 3.11+ date.fromisoformat accepts these; 3.10 does not.
    for text in ("20200101", "2020-W01-1", "2020-001", "2020-1-01", "2020-01-01 "):
        with pytest.raises(ParseError, match="not an ISO date"):
            parse_value(text, "date")


def test_load_csv_merges_equal_values_and_keeps_raw_texts(tmp_path):
    schema = Schema((("n", "integer"), ("x", "float")))
    path = tmp_path / "merge.csv"
    path.write_text('n,x\n1,-0.0\n01,0.0\n" 1",0\n2,-1\n')
    rel = load_csv(path, schema)
    assert rel.column("n") == (1, 1, 1, 2)
    assert rel.column("x") == (2, 2, 2, 1)
    assert [repr(v) for v in rel.raw_column("x")] == ["-0.0", "0.0", "0.0", "-1.0"]


def load_error(path, schema, has_header=True):
    with pytest.raises(ParseError) as err:
        load_csv(path, schema, has_header)
    return str(err.value), err.value.row, err.value.column


def test_load_csv_reports_the_first_bad_row_then_column(tmp_path):
    schema = Schema((("a", "integer"), ("b", "integer")), "reject")
    path = tmp_path / "bad.csv"
    # The file's column order is b, a; schema order decides within a row.
    path.write_text("b,a\n1,\nx,y\n3\n")
    assert load_error(path, schema)[1:] == (3, "a")
    path.write_text("b,a\n1,2\n3\n,x\n")
    assert load_error(path, schema)[:2] == ("expected 2 fields, got 1 at row 3", 3)
    path.write_text("b,a\n1,\n2,3\n")
    assert load_error(path, schema)[0] == "encoding failed: null value under reject policy"


def test_load_csv_rejects_undecodable_bytes_as_a_bad_cell(tmp_path):
    schema = Schema((("a", "integer"), ("b", "text")))
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,2\n3,caf\xe9\n\xff,4\n")
    message, row, column = load_error(path, schema)
    assert (row, column) == (3, "b")
    assert message.startswith("not valid UTF-8")
    path.write_bytes(b"a,b\n1,2\nx,\xff\n")
    assert load_error(path, schema)[1:] == (3, "a")


def test_unreadable_record_names_its_row_after_earlier_bad_cells(tmp_path):
    schema = Schema((("a", "integer"), ("b", "text")))
    path = tmp_path / "huge.csv"
    big = "9" * (csv.field_size_limit() + 10)
    path.write_text(f"a,b\n1,x\n2,{big}\n")
    message, row, column = load_error(path, schema)
    assert message.startswith("unreadable CSV record") and (row, column) == (3, None)
    path.write_text(f"a,b\nq,x\n2,{big}\n")
    assert load_error(path, schema)[1:] == (2, "a")
    with pytest.raises(ParseError, match="unreadable CSV record.* at row 3"):
        infer_schema(path)


def test_infer_schema_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,x\n2,\xe9\n")
    with pytest.raises(ParseError) as err:
        infer_schema(path)
    assert (err.value.row, err.value.column) == (3, "b")
    path.write_bytes(b"a,\xe9\n1,x\n")
    with pytest.raises(ParseError, match="row 1"):
        infer_schema(path)


# Field texts per type: valid ones (several merge to one value) and bad
# ones.  A lone surrogate is written as the byte it escapes ("\udcff" is
# 0xff), which is not UTF-8.
GOOD_TEXTS = {
    "integer": ["1", "01", " 1", "-0", "0", "+2", "2", "10", "1_0"],
    "float": ["-0.0", "0.0", "0", "1.5", "1.50", "1e1", "10", "inf", "-inf", "2"],
    "text": ["a", "b", "B", " a", "a,b", 'q"q', "caf\u00e9", "10", "2020-01-01"],
    "date": ["2020-01-01", "2020-01-02", "2019-12-31", "2020-02-29"],
}
BAD_TEXTS = {
    "integer": ["x", "1.5", "\udcff"],
    "float": ["nan", "abc", "-nan"],
    "text": ["\udcff", "x\udce9"],
    "date": ["20200101", "2020-W01-1", "2020-13-01", "2021-02-29"],
}


def random_csv(rng):
    """A small CSV (bytes), its schema and header flag, drawn to hit
    every error kind at random positions in some files."""
    k = rng.randint(1, 4)
    types = [rng.choice(sorted(GOOD_TEXTS)) for _ in range(k)]
    policy = rng.choice(("nulls_first", "nulls_last", "reject"))
    schema = Schema(tuple((f"a{i}", t) for i, t in enumerate(types)), policy)
    has_header = rng.random() < 0.7
    order = rng.sample(range(k), k) if has_header else list(range(k))
    p_null = rng.choice((0, 0.1, 0.3))
    p_bad = rng.choice((0, 0, 0.02, 0.1))
    p_ragged = rng.choice((0, 0, 0.05))
    pools = [rng.sample(GOOD_TEXTS[t], rng.randint(1, len(GOOD_TEXTS[t]))) for t in types]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if has_header:
        writer.writerow([f"a{j}" for j in order])
    for _ in range(rng.randint(0, 12)):
        cells = {}
        for i, t in enumerate(types):
            if rng.random() < p_bad:
                cells[i] = rng.choice(BAD_TEXTS[t])
            elif rng.random() < p_null:
                cells[i] = ""
            else:
                cells[i] = rng.choice(pools[i])
        fields = [cells[j] for j in order]
        if rng.random() < p_ragged:
            fields = fields[:-1] if rng.random() < 0.5 else fields + ["1"]
        writer.writerow(fields)
    return out.getvalue().encode("utf-8", "surrogateescape"), schema, has_header


def outcome(load, *args):
    try:
        rel = load(*args)
    except ParseError as exc:
        return ("error", str(exc), exc.row, exc.column)
    typed_raw = tuple(tuple((type(v), repr(v)) for v in col) for col in rel.raw_columns)
    return (rel.schema, rel.row_count, rel.columns, typed_raw)


def test_load_csv_matches_rowwise_reference(tmp_path):
    rng = random.Random(2016)
    errors = 0
    for i in range(1200):
        data, schema, has_header = random_csv(rng)
        # A fresh name per case: overwriting one non-empty file costs
        # tens of milliseconds on some filesystems, writing a new one
        # almost nothing.
        path = tmp_path / f"fuzz{i}.csv"
        path.write_bytes(data)
        expected = outcome(load_csv_rowwise, path, schema, has_header)
        assert outcome(load_csv, path, schema, has_header) == expected, data
        # Without raw values: the same relation minus them, or the same error.
        rank_only = expected if expected[0] == "error" else expected[:3] + ((),)
        assert outcome(load_csv, path, schema, has_header, False) == rank_only, data
        errors += expected[0] == "error"
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            with pytest.raises(ParseError, match="not valid UTF-8"):
                infer_schema(path, has_header)
            continue
        if data:
            assert infer_schema(path, has_header) == infer_schema_rowwise(path, has_header), data
    assert 200 < errors < 1000
