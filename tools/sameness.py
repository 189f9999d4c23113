"""Aim 2's sameness check: the outputs that a refactor must hold, as one record.

    python3 tools/sameness.py > FILE           # write the record to stdout
    python3 tools/sameness.py --check FILE     # compare with a record; exit 1 on a difference

For each of the agg-scalar, agg-interval and agg-tied workloads at seeds
1-10, it makes the inputs with ``perfbench/gen.py``, runs ``choquetlike
aggregate`` on them, once with JSON output and once with ``--format csv``,
and records the sha256 of each stdout and its exit code.
It runs ``aggregate`` on a fixed small dataset with tied rows under each
capacity family spec and two kernels, one that certifies tied rows and one
that walks them, and records the sha256 of its stdout and its exit code.
It runs ``aggregate`` on a fixed small dataset per carrier, with strict,
tied and nearly tied rows, under ``b-scale-d`` with each shipped delta,
with a ``takac:`` dissimilarity on intervals, and under
``affine-F(scale:0.7,scale:0.1)``, and records the sha256 of its stdout
and its exit code.
It runs ``aggregate`` on a fixed small dataset with each of a fixed set of
malformed capacity tables, and on each of a fixed set of malformed
datasets, long ones whose first bad row lies past row 500 and ones whose
row 0 is refused, on loading or as an aggregation input, and records the
sha256 of its stderr, the error record, and its exit code.
It runs ``verify --suite all`` at the default grid, ``--grid 2``, ``--grid
3``, ``--n 4 --grid 2`` and ``--format csv --grid 2``, and ``verify --suite
appendix-c`` at ``--grid 2`` to ``16``, and records each output's sha256 with
every report's ``elapsed`` removed from the text, and the exit code. The
rest of each output is hashed byte for byte: a change of number format,
indentation, quoting or line ends is a difference. ``--check`` names each
key whose entry differs from the record's, or is missing from either.

Like ``gen.py``, this script does not import the program: it runs the CLI
of the checkout it lives in as a process, one at a time. The whole set
takes about 35 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import params  # noqa: E402 (the generator's own table)

AGG_WORKLOADS = ("agg-scalar", "agg-interval", "agg-tied")
SEEDS = range(1, 11)
VERIFY_VARIANTS = (
    ("all", []), ("all", ["--grid", "2"]), ("all", ["--grid", "3"]),
    ("all", ["--n", "4", "--grid", "2"]), ("all", ["--format", "csv", "--grid", "2"]),
    *(("appendix-c", ["--grid", str(m)]) for m in range(2, 17)),
)
# A scalar dataset on 4 inputs whose rows tie in a pair, two pairs, a
# triple and all four, with one row that does not tie.
FAMILY_ROWS = ("0.2,0.5,0.5,0.9\n0.3,0.3,0.3,0.7\n0.6,0.6,0.6,0.6\n0.4,0.8,0.4,0.8\n"
               "0.1,0.2,0.3,0.4\n")
FAMILIES = ({"kind": "cardinality"}, {"kind": "dirac", "i": 3}, {"kind": "top", "k": 2},
            {"kind": "uniform-random", "seed": 1}, {"kind": "uniform-random", "seed": 2})
# ``delta-scale`` certifies tied rows; ``delta-scale(sq-diff)`` walks them.
FAMILY_KERNELS = {"delta-scale": "delta-scale",
                  "delta-scale(sq-diff)": '{"family": "delta-scale", "delta": "sq-diff"}'}
# Per carrier: an order and a dataset on 4 inputs with a strict row, a
# row of two exact ties, a row whose ties lie within TOL, and an all-tied
# row; each runs under ``b-scale-d`` with each of ``B_SCALE_D``'s d.
_NEAR = 0.3 + 4e-13
CARRIER_ROWS = {
    "scalar": ("scalar", "rows.csv",
               f"0.1,0.7,0.4,0.9\n0.5,0.2,0.5,0.8\n0.3,{_NEAR!r},0.6,0.3\n0.4,0.4,0.4,0.4\n"),
    "interval": ("ab:0.5:1", "rows.json", json.dumps([
        [[0.1, 0.2], [0.5, 0.9], [0.3, 0.4], [0.0, 0.7]],
        [[0.2, 0.6], [0.1, 0.3], [0.2, 0.6], [0.7, 0.8]],
        [[0.3, 0.5], [_NEAR, 0.5], [0.6, 0.9], [0.3, 0.5]],
        [[0.4, 0.6]] * 4])),
    "vector": ("veclex:2,1", "rows.json", json.dumps([
        [[0.1, 0.2], [0.5, 0.9], [0.3, 0.4], [0.0, 0.7]],
        [[0.2, 0.6], [0.1, 0.3], [0.2, 0.6], [0.7, 0.8]],
        [[0.5, 0.3], [0.5, _NEAR], [0.6, 0.9], [0.5, 0.3]],
        [[0.4, 0.6]] * 4])),
}
B_SCALE_D = ("abs-diff", "difference", "sq-diff", "capped-double")
TAKAC = "takac:0.5:max:abs-diff"
AFFINE = {"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"}
# A row of each capacity table's arity for the refusals below.
REFUSAL_ROWS = {3: "0.2,0.5,0.9\n0.25,0.5,0.75\n", 8: "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8\n",
                25: ",".join(["0.5"] * 25) + "\n"}
# A capacity table on {1, 2, 3}, and the ways a table is refused: each
# entry is the table's entries after the change. The last is a cardinality
# table on 8 elements whose first fault, mu({5}) > mu({5, 6}), lies in bit
# plane 5, one of the planes read as contiguous blocks of masks.
_ENTRIES = [([], 0), ([1], 0.1), ([2], 0.35), ([3], 0.2), ([1, 2], 0.6), ([1, 3], 0.45),
            ([2, 3], 0.5), ([1, 2, 3], 1)]
REFUSALS = {
    "not-monotone": [*_ENTRIES[:4], ([1, 2], 0.05), *_ENTRIES[5:]],
    "bad-boundary": [*_ENTRIES[:7], ([1, 2, 3], 0.9)],
    "missing-subset": _ENTRIES[:6] + _ENTRIES[7:],
    "conflicting-entries": [*_ENTRIES, ([2], 0.4)],
    "repeated-element": [*_ENTRIES, ([2, 2], 0.35)],
    "nan-value": [*_ENTRIES[:3], ([3], float("nan")), *_ENTRIES[4:]],
    "bool-element": [*_ENTRIES, ([True], 0.1)],
    # An entry refused as an entry is named before an earlier repeat, and
    # before an n above the cap.
    "repeat-then-bool": [*_ENTRIES, ([2, 2], 0.35), ([False], 0)],
    "malformed-entry-n25": [*_ENTRIES, ([0], 0.3)],
    "late-fault-n8": [(s, 0.1 if s == [5, 6] else len(s) / 8) for s in (
        [i + 1 for i in range(8) if mask >> i & 1] for mask in range(256))],
}
# The table's n where it is not its largest element; the dataset has as
# many inputs, so that the table itself is read.
REFUSAL_N = {"malformed-entry-n25": 25}
# Datasets refused by a row far from the first, each with its order
# flag: a NaN cell in row 900 after a short row 600 (the cell is named
# first), a cell above 1 in row 500 (named after the last row), and a
# reversed interval in row 700, column 2. Then datasets refused by row 0:
# no cells, before a bad cell in row 500 (the cell is named first); vector
# cells of mixed dimensions; a negative cell after blank and
# whitespace-only lines.
_LONG = 1000
DATASET_REFUSALS = {
    "late-nan-cell.csv": ("scalar", "".join(
        "0.5,nan,0.5\n" if r == 900 else "0.5,0.5\n" if r == 600
        else f"{r % 7 / 8},{r % 5 / 8},0.5\n" for r in range(_LONG))),
    "late-misfit.csv": ("scalar", "".join(
        "0.25,1.5,0.5\n" if r == 500 else f"{r % 3 / 4},{r % 5 / 8},0.5\n"
        for r in range(_LONG))),
    "late-reversed.json": ("ab:0.5:1", json.dumps([
        [[0.1, 0.2], [0.3, 0.5], [0.6, 0.4] if r == 700 else [r % 4 / 8, 0.75]]
        for r in range(_LONG)])),
    "empty-row0.json": ("scalar", json.dumps(
        [[], *([[0.25, 0.5, 0.75]] * 499), [0.25, -0.5, 0.75], [0.5, 0.5, 0.5]])),
    "mixed-dim-row0.json": ("veclex:1,2", json.dumps(
        [[[0.1, 0.2], [0.3], [0.4, 0.5]], [[0.1, 0.2]] * 3])),
    "blank-lines-bad-row0.csv": ("scalar", "\n \n , \n\t\n0.5,-0.5,0.5\n0.25,0.5,0.75\n"),
}
# Datasets that load but whose row 0 is refused as an aggregation input,
# each with its order flag and a capacity of its arity: one column, and
# vectors of 3 coordinates under a 2-coordinate order.
INPUT_REFUSALS = {
    "one-column.csv": ("scalar", "0.5\n0.25\n", 1),
    "3d-vectors.json": ("veclex:1,2", json.dumps([[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]] * 2),
                        2),
}
# A report's own ``elapsed`` line in ``verify``'s JSON (two-space indent).
ELAPSED_LINE = re.compile(rb'^    "elapsed": [^\r\n]*(\r?\n|$)', re.MULTILINE)


def _run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          check=False)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def without_elapsed(out: bytes, csv_format: bool) -> bytes:
    """The ``verify`` stdout ``out`` with each ``elapsed`` cut from the text
    and every other byte kept: each report's ``"elapsed": ...`` line of the
    JSON, or the ``elapsed`` field of each CSV line, found by its position
    from the right in the header (the fields from it rightwards are
    numbers, which hold no comma). Output without an ``elapsed`` header is
    returned as it is, so its hash differs from the record's."""
    if not csv_format:
        return ELAPSED_LINE.sub(b"", out)
    lines = out.splitlines(keepends=True)
    header = lines[0].rstrip(b"\r\n").split(b",") if lines else []
    if b"elapsed" not in header:
        return out
    right = len(header) - header.index(b"elapsed")  # 1 for the last field
    kept = []
    for line in lines:
        body = line.rstrip(b"\r\n")
        fields = body.rsplit(b",", right)
        kept.append(b",".join(fields[:1] + fields[2:]) + line[len(body):])
    return b"".join(kept)


def record() -> dict:
    """``{key: {"exit": code, "sha256": digest}}`` for every run, in a fixed
    key order."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cli = ["-m", "choquetlike.cli"]
    out = {}
    with tempfile.TemporaryDirectory(prefix="sameness-") as tmp:
        for workload in AGG_WORKLOADS:
            p = params(workload)
            for seed in SEEDS:
                work = Path(tmp) / f"{workload}-{seed}"
                gen = _run([str(ROOT / "perfbench" / "gen.py"), "--workload", workload,
                            "--seed", str(seed), "--out", str(work)], env)
                if gen.returncode != 0:
                    raise SystemExit(f"gen.py failed on {workload} seed {seed}:\n"
                                     + gen.stderr.decode())
                res = _run(cli + ["aggregate", "--input", str(work / p["input"]),
                                  "--capacity", str(work / "capacity.json"),
                                  "--order", p["order"], "--kernel", p["kernel"]], env)
                out[f"aggregate {workload} seed {seed}"] = {
                    "exit": res.returncode, "sha256": _sha256(res.stdout)}
                res = _run(cli + ["aggregate", "--input", str(work / p["input"]),
                                  "--capacity", str(work / "capacity.json"),
                                  "--order", p["order"], "--kernel", p["kernel"],
                                  "--format", "csv"], env)
                out[f"aggregate {workload} seed {seed} --format csv"] = {
                    "exit": res.returncode, "sha256": _sha256(res.stdout)}
        rows = Path(tmp) / "families.csv"
        rows.write_text(FAMILY_ROWS, encoding="utf-8")
        for spec in FAMILIES:
            cap = Path(tmp) / "family.json"
            cap.write_text(json.dumps({"n": 4, **spec}), encoding="utf-8")
            given = "".join(f" {k}={v}" for k, v in spec.items() if k != "kind")
            for name, kernel in FAMILY_KERNELS.items():
                res = _run(cli + ["aggregate", "--input", str(rows), "--capacity", str(cap),
                                  "--kernel", kernel], env)
                out[f"aggregate family {spec['kind']}{given} {name}"] = {
                    "exit": res.returncode, "sha256": _sha256(res.stdout)}
        cap = Path(tmp) / "uniform-4.json"
        cap.write_text(json.dumps({"n": 4, "kind": "uniform-random", "seed": 1}),
                       encoding="utf-8")
        for kind, (order, name, text) in CARRIER_ROWS.items():
            rows = Path(tmp) / f"{kind}-{name}"
            rows.write_text(text, encoding="utf-8")
            for d in B_SCALE_D + (TAKAC,) * (kind == "interval"):
                res = _run(cli + ["aggregate", "--input", str(rows), "--capacity", str(cap),
                                  "--order", order, "--kernel",
                                  json.dumps({"family": "b-scale-d", "d": d})], env)
                out[f"aggregate {kind} b-scale-d({d})"] = {
                    "exit": res.returncode, "sha256": _sha256(res.stdout)}
            res = _run(cli + ["aggregate", "--input", str(rows), "--capacity", str(cap),
                              "--order", order, "--kernel", json.dumps(AFFINE)], env)
            out[f"aggregate {kind} affine-F({AFFINE['C']},{AFFINE['D']})"] = {
                "exit": res.returncode, "sha256": _sha256(res.stdout)}
        for name, entries in REFUSALS.items():
            n = REFUSAL_N.get(name) or max(max(subset, default=0) for subset, _ in entries)
            rows = Path(tmp) / f"refusals-{n}.csv"
            rows.write_text(REFUSAL_ROWS[n], encoding="utf-8")
            cap = Path(tmp) / f"{name}.json"
            table = {"n": n, "kind": "table", "entries": [
                {"subset": subset, "value": value} for subset, value in entries]}
            cap.write_text(json.dumps(table), encoding="utf-8")
            res = _run(cli + ["aggregate", "--input", str(rows), "--capacity", str(cap)], env)
            out[f"aggregate refusal {name}"] = {
                "exit": res.returncode, "sha256": _sha256(res.stderr)}
        cap = Path(tmp) / "cardinality-3.json"
        cap.write_text(json.dumps({"n": 3, "kind": "cardinality"}), encoding="utf-8")
        for name, (order, text) in DATASET_REFUSALS.items():
            rows = Path(tmp) / name
            rows.write_text(text, encoding="utf-8")
            res = _run(cli + ["aggregate", "--input", str(rows), "--capacity", str(cap),
                              "--order", order], env)
            out[f"aggregate refusal dataset {name}"] = {
                "exit": res.returncode, "sha256": _sha256(res.stderr)}
        for name, (order, text, n) in INPUT_REFUSALS.items():
            rows = Path(tmp) / name
            rows.write_text(text, encoding="utf-8")
            cap = Path(tmp) / f"cardinality-{n}.json"
            cap.write_text(json.dumps({"n": n, "kind": "cardinality"}), encoding="utf-8")
            res = _run(cli + ["aggregate", "--input", str(rows), "--capacity", str(cap),
                              "--order", order], env)
            out[f"aggregate refusal input {name}"] = {
                "exit": res.returncode, "sha256": _sha256(res.stderr)}
    for suite, flags in VERIFY_VARIANTS:
        res = _run(cli + ["verify", "--suite", suite, *flags], env)
        out[" ".join(["verify --suite", suite, *flags])] = {
            "exit": res.returncode,
            "sha256": _sha256(without_elapsed(res.stdout, "csv" in flags))}
    return out


def differences(found: dict, expected: dict) -> list[str]:
    """Each key whose entry differs between the two records, or that only
    one of them has, with both entries."""
    keys = [*expected, *(key for key in found if key not in expected)]
    return [f"{key}: expected {expected.get(key)}, found {found.get(key)}"
            for key in keys if found.get(key) != expected.get(key)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", default=None,
                    help="compare with this record instead of printing one")
    args = ap.parse_args(argv)
    found = record()
    if not args.check:
        print(json.dumps(found, indent=1))
        return 0
    expected = json.loads(Path(args.check).read_text(encoding="utf-8"))
    diff = differences(found, expected)
    for line in diff:
        print(line)
    print(f"{len(diff)} of {len(found)} keys differ", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
