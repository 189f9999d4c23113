"""Dataset round-trips and the command-line front end."""

import csv
import io
import json
from pathlib import Path

import pytest

from choquetlike import (
    Capacity, DatasetFormatError, GridSpec, Interval, Scalar, Vector,
    capacity_family, dissimilarity, parse_dataset, verifier,
)
from choquetlike.cli import _results_json, main
from choquetlike.order import MAX_GRID
from oracles import classical_choquet_increments, mu_lookup


class TestDatasets:
    def test_csv_parse(self):
        ds = parse_dataset("0.2,0.5,0.9\n0.1,0.1,0.4\n", "scalar")
        assert ds.kind == "scalar" and ds.n == 3 and ds.ids is None
        assert ds.rows == ((Scalar(0.2), Scalar(0.5), Scalar(0.9)),
                           (Scalar(0.1), Scalar(0.1), Scalar(0.4)))

    def test_json_parse_intervals(self):
        ds = parse_dataset("[[[0.2, 0.4], [0.5, 0.7]], [[0, 0], [1, 1.0]]]",
                           "interval")
        assert ds.kind == "interval" and ds.n == 2 and ds.ids is None
        assert ds.rows == ((Interval(0.2, 0.4), Interval(0.5, 0.7)),
                           (Interval(0.0, 0.0), Interval(1.0, 1.0)))

    def test_json_parse_vectors_with_ids(self):
        ds = parse_dataset('{"kind": "vector", "ids": ["a", 7], '
                           '"rows": [[[0.2, 0.4], [0.5, 0.7]], [[0, 0], [1, 1]]]}',
                           "vector")
        assert ds.kind == "vector" and ds.n == 2
        assert ds.rows == ((Vector((0.2, 0.4)), Vector((0.5, 0.7))),
                           (Vector((0.0, 0.0)), Vector((1.0, 1.0))))
        assert ds.row_ids() == ["a", "7"]

    def test_malformed_inputs(self):
        with pytest.raises(DatasetFormatError):
            parse_dataset("[[0.2, 0.4], [0.5]]", "interval")
        with pytest.raises(DatasetFormatError):
            parse_dataset("[]", "interval")
        with pytest.raises(DatasetFormatError):
            parse_dataset('[[[0.1,0.2],[0.3,0.4]],[[0.1,0.2]]]', "interval")
        with pytest.raises(DatasetFormatError):
            parse_dataset('{"rows": [[[0.1, 0.2], [0.3, 0.4]]], "ids": 5}', "interval")
        with pytest.raises(DatasetFormatError):
            parse_dataset("[[]]", "interval")
        # An id is a JSON string or an integer; anything else is named by
        # its index.
        for ids, where in (("[null]", "id 0"), ('["a", true]', "id 1"),
                           ('["a", "b", {"a": 1}]', "id 2"), ('[1.0]', "id 0"),
                           ('[["a"]]', "id 0")):
            with pytest.raises(DatasetFormatError, match=where):
                parse_dataset('{"rows": [[0.1], [0.2], [0.3]], "ids": %s}' % ids,
                              "scalar")
        # A JSON cell is a number, or a list of numbers (two for an
        # interval); strings, booleans and objects are refused where they sit.
        for text, kind, where in (
                ('[[{"0.1": 5, "0.2": 6}]]', "interval", "row 0, column 0"),
                ('[[[0.1, 0.2], ["0.3", "0.4"]]]', "interval", "row 0, column 1"),
                ('[[0.1, 0.2], ["0.5", true]]', "scalar", "row 1, column 0"),
                ('[[[0.1, 0.2]], [[true, "0.5"]]]', "vector", "row 1, column 0"),
                ('[[[0.1, 0.2], [0.3, 0.4, 0.5]]]', "interval", "row 0, column 1"),
                ('[[0.5, false]]', "scalar", "row 0, column 1"),
                # Cells the element constructors refuse, or no float can hold.
                ("0.1,-0.5\n", "scalar", "row 0, column 1"),
                ("0.1,nan\n", "scalar", "row 0, column 1"),
                ("[[[0.5, 0.2]]]", "interval", "row 0, column 0"),
                ("[[[0.1, -0.2]]]", "interval", "row 0, column 0"),
                ("0.2,oops\n", "scalar", "row 0, column 1"),
                ("0.1,0.2\n\n0.3,-0.5\n", "scalar", "row 1, column 1"),  # blank rows skipped
                ("[[0.1, 0.2], [0.3, 1%s]]" % ("0" * 400), "scalar", "row 1, column 1"),
                # Of two bad cells in a row, the first in column order is named.
                ('[[-0.5, "x"]]', "scalar", "row 0, column 0"),
                ('[[[0.5, 0.2], ["a", 1]]]', "interval", "row 0, column 0"),
                # A row that is not a list of cells.
                ("[5]", "scalar", r"row 0 \(0-based\): 5 is not a list of cells"),
                ("[[0.1, 0.2], 5]", "scalar", r"row 1 \(0-based\): 5 is not a list"),
                # Rows of another arity, and cells of another carrier dimension.
                ("0.1,0.2\n0.3\n", "scalar", r"row 1 \(0-based\)"),
                # Cells are refused as rows are read, and row lengths compared
                # after: a bad cell in a later row is named before a short row.
                ("0.1,0.2\n0.3\n0.5,x\n", "scalar", "row 2, column 1"),
                ('[[[0.1, 0.2]], [[0.1]]]', "vector", "row 1, column 0"),
                ('[[[0.1, 0.2], [0.3]]]', "vector", "row 0, column 1")):
            with pytest.raises(DatasetFormatError, match=where):
                parse_dataset(text, kind)
        # The whole message of a refused cell in the last column of a row.
        for text, kind, message in (
                ("0.1,0.2,0.3,0.4,-0.5\n", "scalar",
                 "row 0, column 4 (0-based): scalar value must be nonnegative, "
                 "got -0.5"),
                ("0.1,0.2,0.3,0.4,0.5\n0.1,0.2,0.3,0.4,x\n", "scalar",
                 "row 1, column 4 (0-based): could not convert string to float: 'x'"),
                ("[[[0.1, 0.2], [0.1, 0.2], [0.1, 0.2], [0.1, 0.2], [0.5, 0.2]]]",
                 "interval",
                 "row 0, column 4 (0-based): interval endpoints out of order: "
                 "[0.5, 0.2]"),
                ('[[0.1, 0.2, 0.3, 0.4, "0.5"]]', "scalar",
                 "row 0, column 4 (0-based): '0.5' is not a number"),
                ("[[[0.1, 0.2], [0.1]]]", "interval",
                 "row 0, column 1 (0-based): [0.1] is not a list of two numbers"),
                ('[[[0.1, 0.2], [0.1, "x"]]]', "vector",
                 "row 0, column 1 (0-based): [0.1, 'x'] is not a list of numbers")):
            with pytest.raises(DatasetFormatError) as exc:
                parse_dataset(text, kind)
            assert str(exc.value) == message

    @pytest.mark.parametrize("text,kind,where", [
        ("0.1,0.2\n0.1,1.5\n", "scalar", "row 1, column 1"),
        ("0.1,inf\n", "scalar", "row 0, column 1"),
        ("[[[0.2, 0.4], [0.5, 1.2]]]", "interval", "row 0, column 1"),
    ])
    def test_out_of_range_inputs_rejected_on_load(self, text, kind, where):
        with pytest.raises(DatasetFormatError, match=where):
            parse_dataset(text, kind)

    def test_default_row_ids(self):
        ds = parse_dataset("0.5,0.5\n", "scalar")
        assert ds.row_ids() == ["0"]


@pytest.fixture
def scalar_files(tmp_path):
    data = tmp_path / "rows.csv"
    data.write_text("0.2,0.5,0.9\n0.0,0.0,0.0\n0.25,0.5,0.75\n")
    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps({"n": 3, "kind": "cardinality"}))
    out = tmp_path / "out.json"
    return data, cap, out


_TABLE3 = {"n": 3, "kind": "table", "entries": [
    {"subset": [], "value": 0}, {"subset": [1], "value": 0.1},
    {"subset": [2], "value": 0.35}, {"subset": [3], "value": 0.2},
    {"subset": [1, 2], "value": 0.6}, {"subset": [1, 3], "value": 0.45},
    {"subset": [2, 3], "value": 0.7}, {"subset": [1, 2, 3], "value": 1}]}
_TIED_CSV = "0.2,0.5,0.5\n0.3,0.3,0.3\n0.1,0.7,0.4\n"

# Each case: input file text, capacity, and the options after them. The
# exit code and exact stdout of each are in data/aggregate_golden.json.
AGGREGATE_CASES = {
    "scalar-csv-ties": (_TIED_CSV, _TABLE3, []),
    "interval-json-ids-b-scale-d": (
        json.dumps({"kind": "interval", "ids": ["a", "b"],
                    "rows": [[[0.1, 0.3], [0.2, 0.2], [0.1, 0.3]],
                             [[0.0, 0.9], [0.45, 0.45], [0.3, 0.6]]]}),
        _TABLE3, ["--order", "ab:0.5:1",
                  "--kernel", '{"family": "b-scale-d", "d": "abs-diff"}']),
    "vector-json-affine-f": (
        json.dumps([[[0.2, 0.4], [0.3, 0.4], [0.1, 0.9]],
                    [[0.6, 0.5], [0.6, 0.5], [0.0, 0.5]]]),
        _TABLE3, ["--order", "veclex:2,1", "--kernel",
                  '{"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"}']),
    "scalar-sq-diff-tied-exit-two": (
        _TIED_CSV, _TABLE3,
        ["--kernel", '{"family": "delta-scale", "delta": "sq-diff"}']),
    "scalar-csv-format": (_TIED_CSV, _TABLE3, ["--format", "csv"]),
}


# Capacities refused by their parse; each is also run on a dataset with
# one column per input, where the arity comparison lets it through.
MALFORMED_CAPACITIES = [
    {"n": 2, "entries": [1, 2]},
    {"n": 2, "entries": [{"subset": 1, "value": 0.5}]},
    [{"n": 2, "kind": "cardinality"}],
    {"n": None},
    {"n": 2, "kind": "dirac", "i": None},
    {"n": 2, "entries": 3},
    {"n": 2, "entries": [{"subset": [0], "value": 0.5}]},
    {"n": 2, "entries": [{"subset": [1, -1], "value": 0.5}]},
    {"n": 1, "entries": [{"subset": [True], "value": True},
                         {"subset": [], "value": False}]},
    {"n": 1, "entries": [{"subset": [1], "value": 1},
                         {"subset": [], "value": False}]},
    {"n": 2, "entries": [{"subset": [1], "value": int("9" * 400)}]},
    {"n": 2, "entries": [{"subset": [int("9" * 400)], "value": 0.5}]},
    {"n": 3, "entries": [{"subset": [1], "value": 0.4}], "complete": "false"},
    {"n": 3, "entries": [{"subset": [1], "value": 0.4}], "complete": [0]},
]


class TestAggregateCommand:
    @pytest.mark.parametrize("case", sorted(AGGREGATE_CASES))
    def test_output_bytes_are_pinned(self, tmp_path, capsys, case):
        """Indentation, key order, float repr, ids and ``permutations`` of
        ``aggregate`` stdout, byte for byte."""
        rows, capacity, options = AGGREGATE_CASES[case]
        data = tmp_path / "rows"
        data.write_text(rows)
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps(capacity))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)]
                    + options)
        golden = json.loads((Path(__file__).parent / "data"
                             / "aggregate_golden.json").read_text())[case]
        assert code == golden["exit"]
        assert capsys.readouterr().out.encode() == golden["stdout"].encode()

    @pytest.mark.parametrize("done", [
        [("0", Scalar(0.5), True, 1)],
        [("a", Interval(0.1, 0.30000000000000004), True, 1),
         ("b", Interval(0.0, 0.0), False, 4)],
        [("1-d", Vector((0.25,)), True, 1), ("3-d", Vector((0.1, 0.2, 1 / 3)), True, 6)],
        [("-0", Scalar(-0.0), True, 1), ("tiny", Scalar(5e-324), True, 1),
         ("big", Scalar(1e16), True, 1), ("sum", Scalar(1.25), False, 2),
         ("wide", Interval(0.5, 1.5), True, 1), ("far", Vector((2.0, 1e16)), True, 1)],
        [('q"uote', Scalar(0.1), True, 1), ("back\\slash", Scalar(0.2), True, 1),
         ("n\u00e4\u4e2d\U0001f600", Scalar(0.3), False, 3),
         ("\n\t\x00\x7f", Scalar(1.0), True, 1)],
    ])
    def test_json_writer_matches_json_dumps(self, done):
        """The per-row template gives the bytes of ``json.dumps(indent=2)``."""
        assert _results_json(done) == json.dumps({"results": [
            {"id": row_id, "value": value.to_json(), "consistent": consistent,
             "in_K": value.in_unit, "permutations": permutations}
            for row_id, value, consistent, permutations in done]}, indent=2)

    def test_stdout_is_json_dumps_of_its_records(self, tmp_path, capsys):
        # Ids with a quote, a backslash and non-ASCII characters, a tied row
        # the sq-diff kernel aggregates inconsistently, and an integer id.
        data = tmp_path / "rows.json"
        data.write_text(json.dumps({"kind": "scalar",
                                    "ids": ['say "hi"', "C:\\tmp", "\u00e9t\u00e9", 12],
                                    "rows": [[0.2, 0.5, 0.5], [0.3, 0.3, 0.3],
                                             [0.1, 0.7, 0.4], [0.9, 0.0, 1.0]]}))
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps(_TABLE3))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", '{"family": "delta-scale", "delta": "sq-diff"}'])
        assert code == 2
        out = capsys.readouterr().out
        results = json.loads(out)["results"]
        assert out == json.dumps({"results": results}, indent=2) + "\n"
        assert [r["id"] for r in results] == ['say "hi"', "C:\\tmp", "\u00e9t\u00e9", "12"]
        assert [r["permutations"] for r in results] == [2, 6, 1, 1]
        assert [r["consistent"] for r in results] == [False, False, True, True]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_file_is_stdout_without_the_newline(self, scalar_files, capsys,
                                                       fmt):
        """``--output`` gets the text that stdout gets, less the newline that
        ends stdout when the text does not end in one (JSON)."""
        data, cap, out = scalar_files
        argv = ["aggregate", "--input", str(data), "--capacity", str(cap),
                "--format", fmt]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert main(argv + ["--output", str(out)]) == 0
        written = out.read_bytes().decode()
        assert capsys.readouterr().out == ""
        if fmt == "json":
            assert stdout == written + "\n"
        else:
            assert stdout == written and written.endswith("\r\n")

    def test_error_in_the_last_row_writes_nothing(self, tmp_path, capsys):
        # Rows 0 and 1 aggregate; row 2 has 17 tied inputs and is refused.
        data = tmp_path / "rows.csv"
        data.write_text("".join(",".join([str((i + r) / 40) for i in range(17)]) + "\n"
                                for r in range(2)) + ",".join(["0.5"] * 17) + "\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 17, "kind": "cardinality"}))
        out = tmp_path / "out.json"
        for output in (["--output", str(out)], []):
            code = main(["aggregate", "--input", str(data), "--capacity", str(cap)]
                        + output)
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert json.loads(captured.err)["error"]["type"] == "TooManyTies"

    def test_id_that_is_no_string_or_integer_exit_one(self, tmp_path, capsys):
        data = tmp_path / "rows.json"
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 1, "kind": "cardinality"}))
        for ids in ([None, "b"], ["a", True], ["a", {"a": 1}], [1.5, "b"]):
            data.write_text(json.dumps({"kind": "scalar", "ids": ids,
                                        "rows": [[0.1], [0.2]]}))
            code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)["error"]
            assert err["type"] == "DatasetFormatError"
            bad = 0 if ids[0] != "a" else 1
            assert err["message"] == (f"id {bad} (0-based): {ids[bad]!r} is not "
                                      "a string or an integer")

    def test_scalar_rows_match_reference_sums(self, scalar_files):
        data, cap, out = scalar_files
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--order", "scalar", "--output", str(out)])
        assert code == 0
        results = json.loads(out.read_text())["results"]
        mu = capacity_family("cardinality", 3)
        of = mu_lookup(mu)
        rows = [(0.2, 0.5, 0.9), (0.0, 0.0, 0.0), (0.25, 0.5, 0.75)]
        for rec, row in zip(results, rows):
            assert rec["value"] == pytest.approx(
                classical_choquet_increments(row, of), abs=1e-12)
            assert rec["consistent"] and rec["in_K"]
        assert results[1]["value"] == 0.0  # all-zero row stays at the bottom

    def test_interval_rows(self, tmp_path):
        data = tmp_path / "rows.json"
        data.write_text(json.dumps([[[0.2, 0.4], [0.5, 0.7]]]))
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "table", "entries": [
            {"subset": [], "value": 0}, {"subset": [1], "value": 0.5},
            {"subset": [2], "value": 0.5}, {"subset": [1, 2], "value": 1}]}))
        out = tmp_path / "out.json"
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--order", "ab:0.5:1", "--output", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())["results"][0]
        assert rec["value"] == pytest.approx([0.35, 0.55])
        assert rec["in_K"]

    def test_csv_output_format(self, scalar_files):
        data, cap, out = scalar_files
        out = out.with_suffix(".csv")
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--output", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_bytes() == (b"id,value,consistent,in_K\r\n"
                                    b"0,0.5333333333333333,True,True\r\n"
                                    b"1,0.0,True,True\r\n"
                                    b"2,0.5,True,True\r\n")

    def test_inconsistent_rows_exit_two(self, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("0.5,0.5\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "table", "entries": [
            {"subset": [], "value": 0}, {"subset": [1], "value": 0.2},
            {"subset": [2], "value": 0.7}, {"subset": [1, 2], "value": 1}]}))
        out = tmp_path / "out.json"
        kernel = json.dumps({"family": "delta-scale", "delta": "sq-diff"})
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", kernel, "--output", str(out)])
        assert code == 2
        rec = json.loads(out.read_text())["results"][0]
        assert rec["consistent"] is False and rec["permutations"] == 2
        assert rec["value"] == pytest.approx(0.29)  # value still written

    def test_parse_error_exit_one(self, scalar_files, capsys):
        data, cap, out = scalar_files
        code = main(["aggregate", "--input", "/no/such/file.csv",
                     "--capacity", str(cap)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DatasetFormatError"

    def test_bad_capacity_exit_one(self, scalar_files, capsys):
        data, cap, out = scalar_files
        cap.write_text(json.dumps({"n": 3, "kind": "table", "entries": [
            {"subset": [], "value": 0.5}]}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().err)


    @pytest.mark.parametrize("capacity", MALFORMED_CAPACITIES)
    def test_malformed_capacity_exit_one(self, scalar_files, capsys, capacity):
        data, cap, out = scalar_files
        cap.write_text(json.dumps(capacity))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParameter"

    @pytest.mark.parametrize("capacity", MALFORMED_CAPACITIES)
    def test_malformed_capacity_of_the_dataset_arity_exit_one(self, tmp_path, capsys,
                                                              capacity):
        # With one column per input, the capacity's own parse refuses it,
        # not the arity comparison that runs first.
        n = capacity.get("n") if isinstance(capacity, dict) else None
        data = tmp_path / "rows.csv"
        data.write_text(",".join(["0.5"] * (n if isinstance(n, int) else 2)) + "\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps(capacity))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParameter"
        assert "capacity is on" not in err["error"]["message"]

    @pytest.mark.parametrize("spec,error", [
        ({"family": "b-scale-d", "d": 3}, "BadParameter"),
        ({"family": "delta-scale", "delta": [1]}, "BadParameter"),
        ({"family": "delta-scale", "delta": {"a": 1}}, "BadParameter"),
        ({"family": "affine-F", "C": [1], "D": "zero"}, "BadParameter"),
        ({"family": "custom", "name": [1]}, "UnknownKernel"),
        ({"family": "custom", "name": "x"}, "UnknownKernel"),
        ("my-kernel", "UnknownKernel"),
        ({"family": "affine-F", "C": "scale:2", "D": "zero"}, "ScaleOutOfRange"),
    ])
    def test_malformed_kernel_spec_exit_one(self, scalar_files, capsys, spec, error):
        # A bare string names a family; no other kernel has a name here.
        data, cap, out = scalar_files
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", spec if isinstance(spec, str) else json.dumps(spec)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == error
        if error == "UnknownKernel":
            family = spec if isinstance(spec, str) else spec["family"]
            assert err["error"]["message"] == f"unknown kernel family: {family!r}"

    def test_vector_order_of_another_dimension_exit_one(self, tmp_path, capsys):
        # Every row has distinct inputs, so no row needs a tie check.
        data = tmp_path / "rows.json"
        data.write_text(json.dumps([[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
                                    [[0.9, 0.1, 0.1], [0.2, 0.8, 0.8]]]))
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "cardinality"}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--order", "veclex:1,2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "KindMismatch"
        assert err["message"] == "vector dimension does not match the order"

    def test_kernel_range_error_exit_one(self, tmp_path, capsys):
        # The last term is F(1, 1) = 0.7 + 0.4 under a point mass on input 2.
        data = tmp_path / "rows.csv"
        data.write_text("0.2,1.0\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "dirac", "i": 2}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", json.dumps({"family": "affine-F", "C": "scale:0.7",
                                             "D": "scale:0.4"})])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "KernelRangeError"

    def test_tie_group_above_limit_exit_one(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        data.write_text(",".join(["0.5"] * 17) + "\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 17, "kind": "cardinality"}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "TooManyTies"

    def test_aggregate_has_no_seed_option(self, scalar_files, capsys):
        data, cap, out = scalar_files
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--seed", "1"])
        assert code == 1
        assert "--seed" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_capacity_of_the_wrong_arity_is_not_built(self, tmp_path, capsys,
                                                      monkeypatch):
        # Building a capacity costs n * 2^n; the arity is compared first.
        def never(obj):
            raise AssertionError("a capacity was built")
        monkeypatch.setattr(Capacity, "from_json", staticmethod(never))
        data = tmp_path / "rows.csv"
        data.write_text("0.2,0.5\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 24, "kind": "cardinality"}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "BadParameter", "message":
                                "capacity is on [24] but there are 2 inputs"}


class TestVerifyCommand:
    def test_order_suite_passes(self, tmp_path):
        out = tmp_path / "order.json"
        code = main(["verify", "--suite", "order", "--grid", "2",
                     "--output", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert all(r["verdict"] == "pass" for r in reports)
        assert {r["suite"] for r in reports} == {"order"}

    def test_aggregation_suite_passes(self, tmp_path):
        out = tmp_path / "agg.json"
        code = main(["verify", "--suite", "aggregation", "--grid", "2",
                     "--output", str(out)])
        assert code == 0

    def test_takac_suite_reports_deliberate_failure(self, tmp_path):
        out = tmp_path / "takac.json"
        code = main(["verify", "--suite", "appendix-c", "--output", str(out)])
        assert code == 3
        reports = json.loads(out.read_text())
        assert reports[0]["verdict"] == "fail"
        assert reports[0]["witness"]["x1"] is not None

    def test_takac_suite_counts_its_search(self, tmp_path):
        out = tmp_path / "takac.json"
        main(["verify", "--suite", "appendix-c", "--output", str(out)])
        report = json.loads(out.read_text())[0]
        assert report["checked"] > 0 and report["elapsed"] >= 0.0

    def test_grid_above_max_exit_one(self, capsys, monkeypatch):
        # Refused when the grid is specified, before any grid is built.
        def never(*args):
            raise AssertionError("a grid was built")
        monkeypatch.setattr(dissimilarity, "unit_grid", never)
        monkeypatch.setattr(dissimilarity, "grid_elements", never)
        code = main(["verify", "--suite", "appendix-c", "--grid", "100000000"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert str(MAX_GRID) in err["error"]["message"]
        GridSpec("interval", MAX_GRID)
        with pytest.raises(ValueError):
            GridSpec("interval", MAX_GRID + 1)

    @pytest.mark.parametrize("flags,error", [
        (["--grid", "x"], "BadParameter"), (["--grid", "1.5"], "BadParameter"),
        (["--grid", "0"], "ValueError"), (["--n", "x"], "BadParameter"),
        (["--n", "1"], "BadParameter"), (["--n", "25"], "BadParameter"),
        (["--seed", "0.5"], "BadParameter"),
    ])
    def test_wrongly_typed_flag_exit_one(self, capsys, flags, error):
        code = main(["verify", "--suite", "wd", "--grid", "1", *flags])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == error

    def test_config_flag_is_refused(self, tmp_path, capsys):
        # Settings come from --grid and --n alone; there is no config file.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2}))
        code = main(["verify", "--suite", "order", "--config", str(cfg)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "BadParameter",
                                "message": f"unrecognized arguments: --config {cfg}"}

    def test_takac_suite_reports_its_fixed_parameters(self, tmp_path):
        out = tmp_path / "takac.json"
        code = main(["verify", "--suite", "appendix-c", "--grid", "2",
                     "--output", str(out)])
        assert code == 3
        detail = json.loads(out.read_text())[0]["detail"]
        assert {k: detail[k] for k in ("alpha", "beta", "Md", "delta_d")} == {
            "alpha": 0.5, "beta": 1.0, "Md": "max", "delta_d": "abs-diff"}

    def test_dissimilarity_suite(self, tmp_path):
        out = tmp_path / "dis.json"
        code = main(["verify", "--suite", "dissimilarity", "--grid", "4",
                     "--output", str(out)])
        assert code == 0

    @staticmethod
    def assert_all_suites_match(tmp_path, grid, snapshot):
        out = tmp_path / "all.json"
        code = main(["verify", "--suite", "all", *grid, "--output", str(out)])
        assert code == 3
        reports = json.loads(out.read_text())
        for rec in reports:
            assert rec.pop("elapsed") >= 0.0
        snapshot = Path(__file__).parent / "data" / snapshot
        assert json.dumps(reports) == json.dumps(json.loads(snapshot.read_text()))

    def test_all_suites_match_snapshot(self, tmp_path):
        """Every report of ``verify --suite all --grid 2`` but its elapsed
        time, key order included, against the stored snapshot."""
        self.assert_all_suites_match(tmp_path, ["--grid", "2"], "verify_all_grid2.json")

    def test_all_suites_match_default_grid_snapshot(self, tmp_path):
        """The same at the default grid, the only one that runs the m=4
        vector algebra checks."""
        self.assert_all_suites_match(tmp_path, [], "verify_all_default.json")

    def test_n_flag_sets_the_arity(self, tmp_path):
        out = tmp_path / "wd.json"
        argv = ["verify", "--suite", "wd", "--grid", "1", "--output", str(out)]
        for extra, n in ((["--n", "2"], 2), (["--n", "4"], 4)):
            assert main(argv + extra) == 0
            assert {r["n"] for r in json.loads(out.read_text())} == {n}

    @pytest.mark.parametrize("suite", ["wd", "monotone", "aggregation"])
    @pytest.mark.parametrize("n", [25, 10 ** 20])
    def test_arity_beyond_any_capacity_exit_one(self, capsys, monkeypatch, suite, n):
        # No capacity exists on more than 24 inputs; the arity is refused
        # before any case is enumerated.
        def never(*args):
            raise AssertionError("a case was enumerated")
        for name in ("grid_elements", "check_cancellation", "check_compatibility"):
            monkeypatch.setattr(verifier, name, never)
        code = main(["verify", "--suite", suite, "--grid", "2", "--n", str(n)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParameter"
        assert f"got {n}" in err["error"]["message"]

    def test_csv_report_format(self, tmp_path):
        """Each CSV row carries the suite, law, verdict and ``checked`` of
        the matching report in the JSON output of the same command."""
        for suite, exit_code in (("order", 0), ("appendix-c", 3)):
            argv = ["verify", "--suite", suite, "--grid", "2", "--output"]
            assert main(argv + [str(tmp_path / "r.csv"), "--format", "csv"]) == exit_code
            assert main(argv + [str(tmp_path / "r.json")]) == exit_code
            header, *rows = csv.reader(io.StringIO((tmp_path / "r.csv").read_text()))
            assert header == ["suite", "law", "verdict", "checked", "elapsed"]
            reports = json.loads((tmp_path / "r.json").read_text())
            assert [row[:4] for row in rows] == [
                [r["suite"], r["law"], r["verdict"], str(r["checked"])] for r in reports]


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["aggregate", "--input", "x.csv"],
        ["verify", "--suite", "nope"],
        ["verify", "--suite", "all", "--grid", "abc"],
        ["aggregate", "--input", "x.csv", "--capacity", "cap.json", "--add", "plus"],
    ])
    def test_bad_command_line_exit_one(self, capsys, argv):
        # Exit 2 means inconsistent rows; a bad command line is a bad input.
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParameter"

    @pytest.mark.parametrize("argv", [["--help"], ["aggregate", "--help"],
                                      ["verify", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
