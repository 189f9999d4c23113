"""Interleaved benchmark runs on two checkouts, and the rule for claiming a gain.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--first-seed K]

Pair i (from 0) runs ``python3 perfbench/run.py --workload W --seed K+i
--seconds S --trace 0`` from the root of the checkout PARENT and from the
root of CHANGE, one run at a time: the parent first in even pairs, the
change first in odd ones. For each end-to-end metric of CHANGE's
``BENCHMARK.json`` it prints each side's median and quartiles (by
``perfbench/sweep.py``'s ``summarise``), the median's relative change
against the metric's bound, the pairs the change wins, and whether a gain
may be claimed: the change wins at least nine tenths of the pairs, a tie
counting for neither side, and its median is better than the parent's by
more than the parent's interquartile distance. The last line is a JSON
record of every run's values. It exits 1, at once, when a run exits
nonzero or reports ``failed > 0``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from sweep import summarise  # noqa: E402 (the benchmark's own summary)


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change's value is strictly better."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def gain_holds(parent: list[float], change: list[float], better: str) -> bool:
    """Whether the paired values show a gain: the change wins at least nine
    tenths of the pairs, and the medians differ, the change's way, by more
    than the distance between the parent's quartiles. Fewer than two pairs
    have no quartiles and show none."""
    if len(parent) < 2 or len(parent) != len(change):
        return False
    base, new = summarise(parent), summarise(change)
    gap = new["median"] - base["median"]
    if better == "lower":
        gap = -gap
    return (10 * wins(parent, change, better) >= 9 * len(parent)
            and gap > base["q3"] - base["q1"])


def _shown(summary: dict) -> str:
    """A summary's median, and its quartiles when it has them."""
    quartiles = f" [{summary['q1']:.6g}, {summary['q3']:.6g}]" if "q1" in summary else ""
    return f"{summary['median']:.6g}{quartiles}"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one ``perfbench/run.py --trace 0`` run from the
    root of ``checkout``; a failed run exits this program with status 1."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if proc.returncode != 0 or result.get("failed", 1) > 0:
        print(f"{checkout} {workload} seed {seed}: exit {proc.returncode}, "
              f"failed {result.get('failed')}\n{proc.stderr}", file=sys.stderr)
        sys.exit(1)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(getattr(args, side), args.workload, seed,
                                       args.seconds))
        print(f"pair {i + 1} seed {seed}: " + ", ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.6g} -> "
            f"{runs['change'][-1][m['name']]:.6g}" for m in spec["end_to_end"]), flush=True)

    for m in spec["end_to_end"]:
        name, better = m["name"], m["better"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        base, new = summarise(parent), summarise(change)
        rel = (new["median"] - base["median"]) / base["median"] if base["median"] else 0.0
        worse = rel if better == "lower" else -rel
        print(f"{args.workload} {name} ({m['unit']}, {better} is better): "
              f"parent {_shown(base)}, change {_shown(new)}, {rel:+.2%} "
              f"(bound {m['bound']:.0%}: {'within' if worse <= m['bound'] else 'EXCEEDED'}), "
              f"change wins {wins(parent, change, better)}/{len(parent)}, gain "
              f"{'holds' if gain_holds(parent, change, better) else 'not shown'}")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "first_seed": args.first_seed, **runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
