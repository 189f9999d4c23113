"""The measured passes of each workload, driven through public entry points.

A bench runs two kinds of pass over its fixed inputs:

* ``cli_pass``: one in-process ``choquetlike.cli.main`` call, the command a
  user runs (``aggregate`` over the dataset, or ``verify --suite all``);
* ``api_pass``: the library path a user calls directly (``choquet_aggregate``
  on every parsed row, or the ``oracle_crosscheck`` battery).

Only the program call sits inside the timed region. A pass times it with
``timer`` and returns its wall seconds and its scaled seconds (see
``calibrate.Clock``). Every output is kept and checked against
``reference`` afterwards; the program module is passed in, so this file
can be imported before the program is.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

import reference


def plain(call):
    """The default timer, without calibration: (result, seconds, seconds).
    The set-up probe imports this module, so it does not import
    ``calibrate``, whose imports would be timed as already loaded."""
    t0 = perf_counter()
    result = call()
    seconds = perf_counter() - t0
    return result, seconds, seconds


def _kernel_spec(spec):
    return json.loads(spec) if isinstance(spec, str) and spec.startswith("{") else spec


def build_config(cq, workdir: Path, p: dict) -> dict:
    """The workload's configuration, built through public calls; this is
    what ``setup_s`` times after the import."""
    if "crosscheck" in p:
        seed = p["battery_seed"]
        cases = []
        for kind, m, spec, law, ns, expected in p["crosscheck"]:
            order = cq.parse_order("scalar" if kind == "scalar" else "ab:0.5:1")
            kernel = cq.kernel_catalog(spec, kind, order)
            addop = cq.addition_for(kind)
            for n in ns:
                grid = cq.GridSpec(kind, m, n=n)
                cq.grid_elements(grid)
                cq.capacity_battery(n, seed)
                cases.append((kernel, addop, order, n, grid, law, expected))
        return {"cases": cases, "seed": seed}
    order = cq.parse_order(p["order"])
    with open(workdir / "capacity.json", encoding="utf-8") as fh:
        mu = cq.Capacity.from_json(json.load(fh))
    kernel = cq.kernel_catalog(_kernel_spec(p["kernel"]), p["kind"], order)
    return {"order": order, "mu": mu, "kernel": kernel,
            "addop": cq.addition_for(p["kind"])}


class _Bench:
    def cli_pass(self, run=None, timer=plain) -> tuple[float, float]:
        """One in-process CLI call with ``self.argv``; ``run`` stands in for
        ``cli.main`` in the traced run."""
        run = run or self.cq.cli.main
        code, dt, scaled = timer(lambda: run(self.argv))
        self.keep_output(code)
        return dt, scaled


class AggBench(_Bench):
    """agg-* workloads: ``aggregate`` through the CLI and the library."""

    def __init__(self, cq, workdir: Path, p: dict):
        self.cq, self.workdir, self.p = cq, workdir, p
        self.cfg = build_config(cq, workdir, p)
        self.input = workdir / p["input"]
        self.out = workdir / "out.json"
        self.argv = ["aggregate", "--input", str(self.input),
                     "--capacity", str(workdir / "capacity.json"),
                     "--order", p["order"], "--kernel", p["kernel"],
                     "--output", str(self.out)]
        self.rows = cq.parse_dataset(self.input.read_text(encoding="utf-8"),
                                     p["kind"]).rows
        self.expected = reference.expected_values(workdir, p)
        self.outputs: dict[tuple[str, int], list] = {}  # (sha, exit) -> [path, passes]
        self.api_attempted = self.api_failed = 0

    @property
    def work(self) -> int:
        return len(self.expected)

    def keep_output(self, code: int) -> None:
        data = self.out.read_bytes() if self.out.exists() else b""
        key = (hashlib.sha256(data).hexdigest(), code)
        if key not in self.outputs:
            path = self.workdir / f"out-{len(self.outputs)}.json"
            path.write_bytes(data)
            self.outputs[key] = [path, 0]
        self.outputs[key][1] += 1
        self.out.unlink(missing_ok=True)

    def api_pass(self, timer=plain) -> tuple[float, float]:
        cq, cfg = self.cq, self.cfg
        aggregate, make_input = cq.choquet_aggregate, cq.AggregationInput
        mu, order, addop, kernel = cfg["mu"], cfg["order"], cfg["addop"], cfg["kernel"]
        results, dt, scaled = timer(lambda: [
            aggregate(make_input(row, mu, order, addop), kernel) for row in self.rows])
        values = [(r.value.components, r.consistent) for r in results]
        self.api_attempted += len(self.expected)
        self.api_failed += reference.check_values(values, self.expected)
        return dt, scaled

    def schedule(self) -> list:
        """One round of timed units: (metric, unit key, pass)."""
        return [("cli_s", "cli", self.cli_pass), ("api_s", "api", self.api_pass)]

    def check(self) -> tuple[int, int]:
        """(attempted, failed) over every pass run so far."""
        attempted, failed = self.api_attempted, self.api_failed
        for (_, code), (path, passes) in self.outputs.items():
            try:
                obj = json.loads(path.read_text(encoding="utf-8"))
            except ValueError:
                obj = None
            attempted += passes * len(self.expected)
            failed += passes * reference.check_aggregate_output(
                obj, code, self.expected)
        return attempted, failed

    def facts(self) -> dict:
        return {"output_sha256": sorted({sha for sha, _ in self.outputs})}


class LawsBench(_Bench):
    """laws workload: ``verify --suite all`` and the crosscheck battery."""

    def __init__(self, cq, workdir: Path, p: dict):
        self.cq = cq
        self.cfg = build_config(cq, workdir, p)
        self.out = workdir / "verify.json"
        self.argv = ["verify", "--suite", "all", "--seed", str(p["battery_seed"]),
                     "--output", str(self.out)]
        self.attempted = self.failed = 0

    def keep_output(self, code: int) -> None:
        try:
            payload = json.loads(self.out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = None
        self.out.unlink(missing_ok=True)
        self.attempted += reference.verify_operations()
        self.failed += reference.check_verify_output(payload, code)

    def case_pass(self, i: int, crosscheck=None, timer=plain) -> tuple[float, float]:
        """One crosscheck of the battery."""
        crosscheck = crosscheck or self.cq.oracle_crosscheck
        kernel, addop, order, n, grid, law, expected = self.cfg["cases"][i]

        def call():
            try:
                report = crosscheck(kernel, addop, order, n, grid, laws=(law,),
                                    seed=self.cfg["seed"])
                return report.detail.get("verdicts")
            except Exception:  # a raising crosscheck is a failed operation
                traceback.print_exc(file=sys.stderr)
                return None

        verdicts, dt, scaled = timer(call)
        self.attempted += 1
        self.failed += reference.check_crosscheck(verdicts, law, expected)
        return dt, scaled

    def api_pass(self, crosscheck=None, timer=plain) -> tuple[float, float]:
        """The whole battery, one crosscheck at a time."""
        times = [self.case_pass(i, crosscheck, timer)
                 for i in range(len(self.cfg["cases"]))]
        return sum(t[0] for t in times), sum(t[1] for t in times)

    def schedule(self) -> list:
        """One round: the verify pass three times, each followed by a third
        of the battery, one crosscheck per timed unit. verify is the
        longest unit and spreads most, so it gets more samples; api_s sums
        per-crosscheck medians."""
        units = []
        n = len(self.cfg["cases"])
        for part in range(3):
            units.append(("cli_s", "verify", self.cli_pass))
            units += [("api_s", f"case{i}", partial(self.case_pass, i))
                      for i in range(part * n // 3, (part + 1) * n // 3)]
        return units

    def check(self) -> tuple[int, int]:
        return self.attempted, self.failed

    def facts(self) -> dict:
        return {}


def make_bench(cq, workdir: Path, p: dict):
    return (LawsBench if "crosscheck" in p else AggBench)(cq, workdir, p)
