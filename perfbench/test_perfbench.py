"""The benchmark's own test, on tiny inputs. Not part of the repository's
test suite; run it with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, params  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_lists_the_traced_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.metric_names()


def test_absent_public_name_drops_only_its_metrics():
    empty = types.SimpleNamespace(cli=types.SimpleNamespace(),
                                  verifier=types.SimpleNamespace())
    tr = tracing.Tracer()
    tr.install(empty)
    assert {"cli.choquet_aggregate", "verifier.check_wd"} <= tr.missing
    metrics, _ = tracing.layer_metrics(tr)
    assert "operator.aggregate_s" not in metrics
    assert "cli.aggregate_self_s" not in metrics
    assert "verifier.brute_force_wd.n4.checked" not in metrics
    assert metrics["datasets.parse_s"] == 0


def test_corrupted_output_row_is_counted_as_failed(tmp_path):
    import choquetlike.cli

    p = params("agg-scalar", smoke=True)
    gen.generate("agg-scalar", 5, tmp_path, smoke=True)
    out = tmp_path / "out.json"
    code = choquetlike.cli.main([
        "aggregate", "--input", str(tmp_path / p["input"]),
        "--capacity", str(tmp_path / "capacity.json"), "--order", p["order"],
        "--kernel", p["kernel"], "--output", str(out)])
    expected = reference.expected_values(tmp_path, p)
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert reference.check_aggregate_output(obj, code, expected) == 0

    obj["results"][7]["value"] += 1e-6
    assert reference.check_aggregate_output(obj, code, expected) == 1
    obj["results"][7]["value"] -= 1e-6
    obj["results"][3]["consistent"] = False
    assert reference.check_aggregate_output(obj, code, expected) == 1
    assert reference.check_aggregate_output(obj, 2, expected) == len(expected)


def test_unexpected_law_verdict_is_counted_as_failed():
    payload = [{"suite": suite, "law": law,
                "verdict": "fail" if (suite, law) in reference.EXPECTED_FAILS
                else "pass"}
               for suite, laws in reference.EXPECTED_LAWS.items() for law in laws]
    assert reference.check_verify_output(payload, 3) == 0
    assert reference.check_verify_output(payload, 0) == 1
    payload[4]["verdict"] = "fail"
    assert reference.check_verify_output(payload, 3) == 1
    assert reference.check_verify_output(payload[:-1], 3) == 2
    assert reference.check_crosscheck(None, "wd", "pass") == 1


def test_seed_fixes_inputs_but_not_work_per_row(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, seed in ((a, 1), (b, 1), (c, 2)):
        d.mkdir()
        gen.generate("agg-tied", seed, d)
    rows = [reference.load_rows(d / "rows.csv") for d in (a, b, c)]
    assert rows[0] == rows[1] and rows[0] != rows[2]
    profile = [sorted(row.count(v) for v in set(row)) for row in rows[0]]
    assert profile == [sorted(row.count(v) for v in set(row)) for row in rows[2]]
    mix = {tuple(p) for p in profile}
    assert mix == {tuple(sorted(p)) for p in WORKLOADS["agg-tied"]["profiles"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "agg-scalar", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_clock_samples_inside_a_call_and_leaves_out_the_samples():
    def spin():
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
        return "done"

    clock = calibrate.Clock()
    result, seconds, scaled = clock.time(spin)
    assert result == "done"
    assert len(clock.loops) > 2  # before, after and at least one sample
    in_samples = sum(clock.loops[1:-1])
    assert seconds == pytest.approx(0.3 - in_samples, abs=0.01)
    assert scaled > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL

    clock = calibrate.Clock()
    clock.time(spin, period=0)
    assert len(clock.loops) == 2  # before and after only
