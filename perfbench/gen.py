"""Seeded input generator: writes one workload's inputs into a directory.

    python3 perfbench/gen.py --workload agg-scalar --seed 1 --out DIR [--smoke]

Writes the dataset (``rows.csv`` or ``rows.json``), the capacity as an
explicit table (``capacity.json``) and ``params.json``, which records every
parameter the inputs were made from. The same seed gives the same files.
This script does not import the program: the program only ever sees the
files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, params, row_count  # noqa: E402


def random_capacity(n: int, rng: random.Random) -> list[float]:
    """Uniform random values per subset, made monotone by taking the
    maximum over subsets, then normalised so the full set has value 1.
    Indexed by bitmask (bit i is element i+1)."""
    size = 1 << n
    raw = [rng.random() for _ in range(size)]
    mono = [0.0] * size
    for mask in range(1, size):
        best = raw[mask]
        for i in range(n):
            if mask >> i & 1:
                best = max(best, mono[mask & ~(1 << i)])
        mono[mask] = best
    top = mono[size - 1]
    return [v / top for v in mono]


def capacity_json(n: int, mu: list[float]) -> dict:
    return {"n": n, "kind": "table", "entries": [
        {"subset": [i + 1 for i in range(n) if mask >> i & 1], "value": v}
        for mask, v in enumerate(mu)]}


def _spread_out(draw, key, n, rng):
    # Redraw until the order keys are at least 1e-6 apart, so no row has a
    # tie and every row has exactly one admissible permutation.
    while True:
        row = [draw(rng) for _ in range(n)]
        keys = sorted(key(x) for x in row)
        if all(b - a > 1e-6 for a, b in zip(keys, keys[1:])):
            return row


def _interval(rng):
    lo, hi = sorted((rng.random(), rng.random()))
    return [lo, hi]


def scalar_rows(p, rng):
    return [_spread_out(lambda r: r.random(), float, p["n"], rng)
            for _ in range(p["rows"])]


def interval_rows(p, rng):
    return [_spread_out(_interval, lambda x: x[0] + x[1], p["n"], rng)
            for _ in range(p["rows"])]


def tied_rows(p, rng):
    """Profiles cycle in a fixed order; the seed only places the levels."""
    low, high = p["levels"]
    rows = []
    for i in range(row_count(p)):
        profile = p["profiles"][i % len(p["profiles"])]
        row = [low] * profile[0] + [high] * sum(profile[1:])
        rng.shuffle(row)
        rows.append(row)
    return rows


def generate(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    p = params(workload, smoke)
    rng = random.Random(seed)
    record = {"workload": workload, "seed": seed, "smoke": smoke}
    if workload == "laws":
        record.update(p, battery_seed=seed)
    else:
        if workload == "agg-scalar":
            rows = scalar_rows(p, rng)
        elif workload == "agg-interval":
            rows = interval_rows(p, rng)
        else:
            rows = tied_rows(p, rng)
        cap_seed = rng.randrange(2 ** 31)
        mu = random_capacity(p["n"], random.Random(cap_seed))
        if p["input"].endswith(".csv"):
            text = "".join(",".join(repr(v) for v in row) + "\n" for row in rows)
        else:
            text = json.dumps({"kind": p["kind"], "rows": rows})
        (out / p["input"]).write_text(text, encoding="utf-8")
        (out / "capacity.json").write_text(
            json.dumps(capacity_json(p["n"], mu)), encoding="utf-8")
        record.update(p, rows=len(rows), capacity_seed=cap_seed,
                      capacity="uniform random table, made monotone")
    (out / "params.json").write_text(json.dumps(record, indent=1),
                                     encoding="utf-8")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    generate(args.workload, args.seed, out, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
