"""Workload definitions shared by the generator, the runner and the test.

Every size that decides how much work a run does lives here, so a figure
can be traced back to its inputs. The seed only chooses values and
positions; it never changes how much work a row or a law check costs.
"""

from __future__ import annotations

B_SCALE_D = '{"family": "b-scale-d", "d": "abs-diff"}'
SQ_DIFF = {"family": "delta-scale", "delta": "sq-diff"}

# Tie profiles of the agg-tied rows: sizes of the groups of equal values,
# lowest level first. Rows with fewer than 10,000 admissible permutations
# are enumerated by the operator today, the all-tied row (8! = 40,320) is
# above that limit.
TIE_PROFILES = ((4, 4), (3, 5), (2, 6), (1, 7), (8,))
TIE_LEVELS = (0.3, 0.7)

WORKLOADS = {
    # Random distinct scalars: one admissible permutation per row, so the
    # time goes to parse, sort, kernel and fold.
    "agg-scalar": {
        "kind": "scalar", "n": 5, "rows": 10000, "order": "scalar",
        "kernel": "delta-scale", "input": "rows.csv",
    },
    # Random intervals: the same row pipeline through the JSON parse, the
    # alpha-beta comparator, two-component elements and the 'cii' kernel.
    "agg-interval": {
        "kind": "interval", "n": 5, "rows": 5000, "order": "ab:0.5:1",
        "kernel": B_SCALE_D, "input": "rows.json",
    },
    # Two-level rows: the consistency check over tied inputs dominates.
    "agg-tied": {
        "kind": "scalar", "n": 8, "rows_per_profile": 2,
        "profiles": TIE_PROFILES, "levels": TIE_LEVELS, "order": "scalar",
        "kernel": "delta-scale", "input": "rows.csv",
    },
    # The verifier: every law suite, then brute-force oracle crosschecks.
    "laws": {
        # (carrier, grid m, kernel spec, law, arities, expected verdict)
        "crosscheck": (
            ("scalar", 4, "delta-scale", "wd", (2, 3, 4), "pass"),
            ("scalar", 4, SQ_DIFF, "wd", (2, 3, 4), "fail"),
            ("interval", 2, "delta-scale", "wd", (2, 3, 4), "pass"),
            ("interval", 2, SQ_DIFF, "wd", (2, 3, 4), "fail"),
            ("scalar", 4, "delta-scale", "monotonicity", (3,), "pass"),
            ("interval", 2, "delta-scale", "monotonicity", (3,), "pass"),
        ),
    },
}

# Tiny sizes for the benchmark's own test; never used for figures.
SMOKE = {
    "agg-scalar": {"rows": 40},
    "agg-interval": {"rows": 20},
    "agg-tied": {"rows_per_profile": 1},
    "laws": {"crosscheck": tuple(
        (c, m, k, law, ns[:1], v)
        for c, m, k, law, ns, v in WORKLOADS["laws"]["crosscheck"])},
}


def params(workload: str, smoke: bool = False) -> dict:
    """The workload's parameters, with the smoke sizes when asked."""
    out = dict(WORKLOADS[workload])
    if smoke:
        out.update(SMOKE[workload])
    return out


def row_count(p: dict) -> int:
    if "profiles" in p:
        return p["rows_per_profile"] * len(p["profiles"])
    return p["rows"]
