"""choquetlike benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload agg-scalar --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The inputs are generated from the seed in a separate process, set-up is
timed in fresh processes, and the workload then runs closed-loop, one
caller and one pass at a time, for ``--seconds``. End-to-end timings are
scaled by the calibration loop in ``calibrate.py``. Every output is
checked against the independent reference in ``reference.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. The lines before it say what each figure is, and the
run facts. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import benches  # noqa: E402
import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, row_count  # noqa: E402

SETUP_PROBES = 15
MIN_ROUNDS = 2


def _stop(elapsed: float, rounds: int, seconds: float, minimum: int) -> bool:
    # Stop before a round that would end past the measuring time.
    return rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds


def setup_times(workdir: Path, src: Path, probes: int) -> tuple[list, list]:
    """Set-up seconds in ``probes`` fresh processes, after one discarded
    probe that fills the bytecode cache: (scaled, raw). Each probe is
    scaled by the calibration loop it runs right after its set-up."""
    scaled, raw = [], []
    for i in range(probes + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(workdir), str(src)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, loop = map(float, proc.stdout.split()[-2:])
        if i:
            raw.append(seconds)
            scaled.append(seconds * calibrate.REFERENCE_S / loop)
    return scaled, raw


def untraced(bench, seconds: float, minimum: int, clock) -> dict:
    """The bench's timed units in turn, each scaled by the calibration
    around it, until the next unit would end past ``seconds`` (after at
    least ``minimum`` rounds). A metric is the sum over its units of the
    unit's median."""
    bench.cli_pass()  # warm-up; its output is checked, its time is not used
    scaled, raw, took = {}, {}, {}
    units = bench.schedule()
    start = perf_counter()
    for done in itertools.count():
        metric, key, run_pass = units[done % len(units)]
        if (done >= minimum * len(units)
                and perf_counter() - start + took[key] > seconds):
            break
        t0 = perf_counter()
        dt, sc = run_pass(timer=clock.time)
        took[key] = perf_counter() - t0
        raw.setdefault(metric, {}).setdefault(key, []).append(dt)
        scaled.setdefault(metric, {}).setdefault(key, []).append(sc)
    return {"rounds": round(done / len(units), 2), "scaled": scaled, "raw": raw,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _sum_of_medians(units: dict) -> float:
    return sum(median(v) for v in units.values())


def traced(cq, bench, seconds: float, minimum: int, laws: bool, clock):
    """Rounds of one untraced and one traced pass, plus the layer pass on
    the agg-* workloads. Returns per-round metrics, the pooled
    choquet_aggregate call times, both scaled wall times and the last
    tracer. Passes are scaled by the loop at their ends only: a loop
    sample inside a pass would be counted in the spans around it."""
    timer = partial(clock.time, period=0)
    bench.cli_pass()
    rounds, rows_us, plain_t, traced_t = [], [], [], []
    start = perf_counter()
    while True:
        tr = tracing.Tracer()
        plain = bench.cli_pass(timer=timer)[1]
        if laws:
            plain += bench.api_pass(timer=timer)[1]
        tr.install(cq)
        try:
            if laws:
                wall = (bench.cli_pass(run=tr.wrap(cq.cli.main, "cli.verify"),
                                       timer=timer)[1]
                        + bench.api_pass(crosscheck=tr.wrap(
                            cq.oracle_crosscheck, "verifier.oracle_crosscheck"),
                            timer=timer)[1])
            else:
                wall = bench.cli_pass(run=tr.wrap(cq.cli.main, "cli.aggregate"),
                                      timer=timer)[1]
        finally:
            tr.uninstall()
        if not laws:
            tracing.layer_pass(tr, cq, bench)
        m, us = tracing.layer_metrics(tr)
        rounds.append(m)
        rows_us += us
        plain_t.append(plain)
        traced_t.append(wall)
        if _stop(perf_counter() - start, len(rounds), seconds, minimum):
            return rounds, rows_us, plain_t, traced_t, tr


def run_facts(args, rounds: int, probes: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "rounds": rounds, "setup_probes": probes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="choquetlike benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "choquetlike" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a checkout holding "
              "src/choquetlike and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, spec, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec: dict, src: Path, workdir: Path) -> int:
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload",
                    args.workload, "--seed", str(args.seed), "--out", str(workdir)]
                   + (["--smoke"] if args.smoke else []),
                   check=True, timeout=300)
    p = json.loads((workdir / "params.json").read_text(encoding="utf-8"))
    laws = args.workload == "laws"
    probes = 2 if args.smoke else SETUP_PROBES
    minimum = 1 if args.smoke else MIN_ROUNDS
    clock = calibrate.Clock()
    setup, setup_raw = ([], []) if args.trace else setup_times(
        workdir, src, probes)

    sys.path.insert(0, str(src))
    import choquetlike as cq
    import choquetlike.cli  # noqa: F401
    if Path(cq.__file__).resolve().parent != (src / "choquetlike").resolve():
        print(f"perfbench: imported {cq.__file__}, not the checkout's program",
              file=sys.stderr)
        return 2
    bench = benches.make_bench(cq, workdir, p)

    lines, values = [], {}
    what = (f"{len(bench.cfg['cases'])} crosscheck cases" if laws
            else f"{row_count(p)} rows, n={p['n']}")
    lines.append(f"perfbench {args.workload} seed={args.seed} ({what})")
    if args.trace:
        rounds, rows_us, plain_t, traced_t, tr = traced(
            cq, bench, args.seconds, minimum, laws, clock)
        for name in rounds[0]:
            values[name] = median(r[name] for r in rounds)
        if rows_us:
            values["operator.aggregate_us.p50"] = median(rows_us)
            pct, tail = tracing.tail_percentile(rows_us) or (100.0, max(rows_us))
            values["operator.aggregate_us.tail"] = tail
            lines.append(f"operator.aggregate_us.tail is p{pct:g} of "
                         f"{len(rows_us)} choquet_aggregate calls")
        values["trace_overhead_frac"] = median(traced_t) / median(plain_t) - 1
        lines.append("operator.consistency_s is derived: "
                     "aggregate - group - eval")
        if tr.missing:
            lines.append("absent (metrics left out): " + ", ".join(sorted(tr.missing)))
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tr.write(trace_path)
        lines.append(f"spans of the last round: {trace_path.relative_to(ROOT)}")
        n_rounds, wanted = len(rounds), spec["per_layer"]
    else:
        timed = untraced(bench, args.seconds, minimum, clock)
        values = {"setup_s": median(setup)}
        values.update((m, _sum_of_medians(u)) for m, u in timed["scaled"].items())
        values["peak_rss_mb"] = timed["peak_rss_mb"]
        raw = {m: _sum_of_medians(u) for m, u in timed["raw"].items()}
        raw["setup_s"] = median(setup_raw)
        lines.append("timings are wall seconds scaled by the calibration loop "
                     f"(median loop {median(clock.loops):.5f} s, reference "
                     f"{calibrate.REFERENCE_S} s); unscaled: " + ", ".join(
                         f"{k} {v:.4f} s" for k, v in raw.items()))
        if laws:
            lines.append(f"verify_s = cli_s = {values['cli_s']:.4f} s; "
                         f"crosscheck_s = api_s = {values['api_s']:.4f} s")
        else:
            lines.append(f"rows_per_s: cli {bench.work / values['cli_s']:.1f}, "
                         f"api {bench.work / values['api_s']:.1f}")
        n_rounds, wanted = timed["rounds"], spec["end_to_end"]

    attempted, failed = bench.check()
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            lines.append(f"{m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
    lines.append(f"fail_frac {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    facts = dict(run_facts(args, n_rounds, len(setup)), params=p, **bench.facts())
    lines.append("facts " + json.dumps(facts, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
