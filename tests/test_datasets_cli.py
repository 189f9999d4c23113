"""Dataset round-trips and the command-line front end."""

import csv
import io
import json
from pathlib import Path

import pytest

from choquetlike import (
    Capacity, Dataset, DatasetFormatError, GridSpec, Interval, KernelL, Scalar,
    Vector, capacity_family, dissimilarity, parse_dataset, register_kernel,
    serialize_dataset, verifier,
)
from choquetlike.cli import main
from choquetlike.reporting import MAX_GRID
from oracles import classical_choquet_increments, mu_lookup


class TestDatasets:
    def test_csv_round_trip(self):
        ds = parse_dataset("0.2,0.5,0.9\n0.1,0.1,0.4\n", "scalar")
        assert ds.kind == "scalar" and ds.n == 3 and len(ds.rows) == 2
        again = parse_dataset(serialize_dataset(ds), "scalar")
        assert again == ds

    def test_json_round_trip_intervals(self):
        text = json.dumps([[[0.2, 0.4], [0.5, 0.7]], [[0.0, 0.0], [1.0, 1.0]]])
        ds = parse_dataset(text, "interval")
        assert ds.rows[0][0] == Interval(0.2, 0.4)
        assert parse_dataset(serialize_dataset(ds), "interval") == ds

    def test_json_round_trip_vectors_with_ids(self):
        payload = {"kind": "vector", "ids": ["a", "b"],
                   "rows": [[[0.2, 0.4], [0.5, 0.7]], [[0, 0], [1, 1]]]}
        ds = parse_dataset(json.dumps(payload), "vector")
        assert ds.rows[0][0] == Vector((0.2, 0.4))
        assert ds.row_ids() == ["a", "b"]
        assert parse_dataset(serialize_dataset(ds), "vector") == ds

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
                ('[[[0.1, 0.2]], [[0.1]]]', "vector", "row 1, column 0"),
                ('[[[0.1, 0.2], [0.3]]]', "vector", "row 0, column 1")):
            with pytest.raises(DatasetFormatError, match=where):
                parse_dataset(text, kind)

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
        register_kernel(KernelL(
            lambda x, prev, b1, b2: Scalar(b1 * x.value), "cli-first-weight"))
        data = tmp_path / "rows.csv"
        data.write_text("0.5,0.5\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "table", "entries": [
            {"subset": [], "value": 0}, {"subset": [1], "value": 0.2},
            {"subset": [2], "value": 0.7}, {"subset": [1, 2], "value": 1}]}))
        out = tmp_path / "out.json"
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", "cli-first-weight", "--output", str(out)])
        assert code == 2
        rec = json.loads(out.read_text())["results"][0]
        assert rec["consistent"] is False
        assert rec["value"] == pytest.approx(0.85)  # value still written

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
    ])
    def test_malformed_kernel_spec_exit_one(self, scalar_files, capsys, spec, error):
        data, cap, out = scalar_files
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", json.dumps(spec)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == error

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

    def test_non_object_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        code = main(["verify", "--suite", "order", "--config", str(cfg)])
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("config", [{"grid": None}, {"n": "3"}, {"alpha": [0.5]},
                                        {"Md": [1]}, {"delta_d": [1]},
                                        {"alpha": int("9" * 400)}])
    def test_wrongly_typed_config_exit_one(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["verify", "--suite", "appendix-c", "--config", str(cfg)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParameter"

    def test_dissimilarity_suite(self, tmp_path):
        out = tmp_path / "dis.json"
        code = main(["verify", "--suite", "dissimilarity", "--grid", "4",
                     "--output", str(out)])
        assert code == 0

    def test_missing_config_exit_one(self, capsys):
        code = main(["verify", "--suite", "order", "--config", "/no/such.json"])
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().err)

    def test_config_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2, "alpha": 0.5, "beta": 1.0,
                                   "Md": "min", "delta_d": "abs-diff"}))
        out = tmp_path / "takac.json"
        code = main(["verify", "--suite", "appendix-c", "--config", str(cfg),
                     "--output", str(out)])
        assert code == 3

    def test_all_suites_match_snapshot(self, tmp_path):
        """Every report of ``verify --suite all --grid 2`` but its elapsed
        time, key order included, against the stored snapshot."""
        out = tmp_path / "all.json"
        code = main(["verify", "--suite", "all", "--grid", "2",
                     "--output", str(out)])
        assert code == 3
        reports = json.loads(out.read_text())
        for rec in reports:
            assert rec.pop("elapsed") >= 0.0
        snapshot = Path(__file__).parent / "data" / "verify_all_grid2.json"
        assert json.dumps(reports) == json.dumps(json.loads(snapshot.read_text()))

    def test_n_flag_overrides_the_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        out = tmp_path / "wd.json"
        argv = ["verify", "--suite", "wd", "--grid", "1", "--config", str(cfg),
                "--output", str(out)]
        for extra, n in (([], 2), (["--n", "4"], 4)):
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
