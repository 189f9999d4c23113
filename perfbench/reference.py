"""Independent correctness reference for every workload.

Nothing here imports the program: the expected values are computed from
the generated files with the textbook formulas, and the expected law
verdicts are a fixed table. Each ``check_*`` function returns the number
of failed operations.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

TOL = 1e-9

# verify --suite all: the laws each suite reports, in order. Every law
# passes except the appendix-c telescoping search, whose violation is the
# expected negative result, so the command exits 3.
EXPECTED_LAWS = {
    "order": ["admissibility"] * 5,
    "algebra": ["commutativity", "associativity", "cancellation",
                "compatibility-strict", "distributivity-right",
                "distributivity-left", "c1"] * 3,
    "wd": ["wd"] * 9,
    "monotone": ["monotonicity"] * 9,
    "aggregation": ["aggregation"] * 4,
    "dissimilarity": ["dissimilarity", "telescoping"] * 2,
    "appendix-c": ["takac-telescoping"],
}
EXPECTED_FAILS = {("appendix-c", "takac-telescoping")}
VERIFY_EXIT = 3
AGGREGATE_EXIT = 0


def load_capacity(path: Path) -> list[float]:
    """Capacity values indexed by bitmask, read from a table file."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    mu = [None] * (1 << obj["n"])
    for entry in obj["entries"]:
        mask = sum(1 << (i - 1) for i in entry["subset"])
        mu[mask] = float(entry["value"])
    return mu


def load_rows(path: Path) -> list[list]:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return [[float(c) for c in rec] for rec in csv.reader(text.splitlines())
                if rec]
    return json.loads(text)["rows"]


def textbook_choquet(x: list[float], mu: list[float]) -> float:
    """sum_i (x_(i) - x_(i-1)) * mu({(i), ..., (n)}) on flat floats."""
    total, prev, tail = 0.0, 0.0, len(mu) - 1
    for i in sorted(range(len(x)), key=x.__getitem__):
        total += (x[i] - prev) * mu[tail]
        prev = x[i]
        tail &= ~(1 << i)
    return total


def expected_values(workdir: Path, p: dict) -> list[tuple[float, ...]]:
    """Expected components of every row's value.

    Scalars: the textbook Choquet integral. Intervals under ab:0.5:1 with
    the b-scale-d(abs-diff) kernel: the degenerate interval [s, s], s the
    textbook Choquet integral of the midpoints.
    """
    mu = load_capacity(workdir / "capacity.json")
    rows = load_rows(workdir / p["input"])
    if p["kind"] == "interval":
        out = []
        for row in rows:
            s = textbook_choquet([(lo + hi) / 2 for lo, hi in row], mu)
            out.append((s, s))
        return out
    return [(textbook_choquet(row, mu),) for row in rows]


def _close(got, want) -> bool:
    return len(got) == len(want) and all(
        isinstance(g, (int, float)) and abs(g - w) <= TOL
        for g, w in zip(got, want))


def _components(value) -> tuple:
    return tuple(value) if isinstance(value, list) else (value,)


def check_aggregate_output(obj, exit_code: int,
                           expected: list[tuple[float, ...]]) -> int:
    """Failed rows of one ``aggregate`` JSON output. A wrong exit code or a
    malformed output fails every row."""
    try:
        results = obj["results"]
    except (TypeError, KeyError):
        return len(expected)
    if exit_code != AGGREGATE_EXIT or len(results) != len(expected):
        return len(expected)
    failed = 0
    for i, (rec, want) in enumerate(zip(results, expected)):
        ok = (rec.get("id") == str(i) and rec.get("consistent") is True
              and rec.get("in_K") is True
              and _close(_components(rec.get("value")), want))
        failed += not ok
    return failed


def check_values(values, expected) -> int:
    """Failed rows among (components, consistent) pairs from the library."""
    if len(values) != len(expected):
        return len(expected)
    return sum(not (consistent is True and _close(comps, want))
               for (comps, consistent), want in zip(values, expected))


def verify_operations() -> int:
    return sum(len(v) for v in EXPECTED_LAWS.values()) + 1


def check_verify_output(payload, exit_code: int) -> int:
    """Failed operations of one ``verify --suite all`` output: one per law
    verdict, plus one for the exit code."""
    got = {}
    for rec in payload if isinstance(payload, list) else []:
        got.setdefault(rec.get("suite"), []).append(rec)
    failed = exit_code != VERIFY_EXIT
    for suite, laws in EXPECTED_LAWS.items():
        recs = got.get(suite, [])
        for i, law in enumerate(laws):
            want = "fail" if (suite, law) in EXPECTED_FAILS else "pass"
            ok = (i < len(recs) and recs[i].get("law") == law
                  and recs[i].get("verdict") == want)
            failed += not ok
    return failed


def check_crosscheck(verdicts, law: str, expected: str) -> int:
    """One crosscheck: condition and brute force must both give the
    expected verdict. ``verdicts`` is None when the crosscheck raised."""
    want = {"condition": expected, "brute_force": expected}
    return int(not verdicts or verdicts.get(law) != want)
