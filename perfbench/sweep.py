"""Run the benchmark over several seeds and summarise it as one record.

    python3 perfbench/sweep.py --seeds 1-10 --out BENCH_x.json
    python3 perfbench/sweep.py --seeds 1-2 --trace 1

Runs ``run.py`` once per workload of BENCHMARK.json and per seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric it reports the median,
the quartiles and the spread (interquartile distance over the median) of
the per-run values, and it fails if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarise(values: list[float]) -> dict:
    out = {"median": median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    record, ok = {"trace": int(args.trace), "workloads": {}}, True
    for w in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            facts = next((json.loads(line[6:]) for line in lines
                          if line.startswith("facts ")), {})
            result = json.loads(lines[-1]) if proc.returncode == 0 else {}
            if not result.get("correct"):
                ok = False
                print(f"{w} seed {seed}: exit {proc.returncode}, not correct\n"
                      f"{proc.stderr}", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            record.setdefault("facts", {k: facts.get(k) for k in
                                        ("nproc", "cpu", "python")})
            print(f"{w} seed {seed}: " + ", ".join(
                ["correct"] + [f"{k}={v['value']:.4g}" for k, v in
                               result["metrics"].items() if k in bounds]),
                flush=True)
        record["workloads"][w] = {k: summarise(v) for k, v in values.items()}
        for name, s in record["workloads"][w].items():
            if name in bounds and "spread" in s:
                print(f"  {w:<13} {name:<12} median {s['median']:.5g}  spread "
                      f"{s['spread']:.4f}  (bound {bounds[name]})")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
