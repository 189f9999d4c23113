"""Traced run: per-layer times and counts, recorded from outside the program.

Spans are kept in memory as ``[name, start, end, parent, row, count,
attrs]`` and written out when the run ends. They come from two sources,
both in this file:

* wrappers put in place of public functions in the program's module
  namespaces (``cli.load_dataset``, ``cli.choquet_aggregate``, the law
  checks the CLI and the verifier call), so an in-process CLI call shows
  its layers;
* a layer pass that drives every parsed row through the public functions
  of each module in turn, with a span around each call. Kernel and
  ``add`` calls are summed into one span per row, with their count.

A layer's self time is its span minus its children. A public name that
has disappeared is reported as absent, and its metrics are left out.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path
from time import perf_counter

import reference

NAME, START, END, PARENT, ROW, COUNT, ATTRS = range(7)


def _checked(args, kwargs, result):
    return {"checked": getattr(result, "checked", 0)}


def _checked_n(args, kwargs, result):
    n = kwargs.get("n", args[3] if len(args) > 3 else None)
    return {"checked": getattr(result, "checked", 0), "n": n}


def _aggregate_attrs(args, kwargs, result):
    return {"checked": result.checked, "perms": result.permutations}


# Wrapped public functions: (module, attribute, span name, attrs from the
# call). Module names are relative to the package.
_ALGEBRA_LAWS = ("check_commutativity", "check_associativity",
                 "check_cancellation", "check_compatibility",
                 "check_distributivity", "check_c1")
PROBES = (
    [("cli", "load_dataset", "datasets.load", None),
     ("cli", "choquet_aggregate", "operator.aggregate", _aggregate_attrs),
     ("cli", "check_admissibility", "order.admissibility", _checked),
     ("cli", "check_dissimilarity", "dissimilarity.laws", _checked),
     ("cli", "check_telescoping", "dissimilarity.laws", _checked),
     ("cli", "takac_counterexample", "dissimilarity.laws", None),
     ("verifier", "check_wd", "verifier.check_wd", _checked_n),
     ("verifier", "check_monotonicity", "verifier.check_monotonicity", _checked_n),
     ("verifier", "check_aggregation", "verifier.check_aggregation", _checked_n),
     ("verifier", "brute_force_wd", "verifier.brute_force_wd", _checked_n),
     ("verifier", "brute_force_monotonicity", "verifier.brute_force_monotonicity",
      _checked_n),
     ("verifier", "capacity_battery", "capacity.build", None),
     ("verifier", "choquet_aggregate", "operator.aggregate", _aggregate_attrs)]
    + [("cli", name, "algebra.laws", _checked) for name in _ALGEBRA_LAWS])

CONDITION_CHECKS = ("verifier.check_wd", "verifier.check_monotonicity",
                    "verifier.check_aggregation")
CROSSCHECK_NS = {"wd": (2, 3, 4), "monotonicity": (3,)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: set[str] = set()  # public names not found
        self.absent: set[str] = set()  # span names that could not be recorded
        self._patched: list[tuple] = []

    def begin(self, name: str, row=None, **attrs) -> list:
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
               row, 1, attrs]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()

    def summed(self, name: str, seconds: float, count: int, row) -> None:
        """One span standing for ``count`` calls of ``seconds`` in total."""
        now = perf_counter()
        self.spans.append([name, now - seconds, now,
                           self.stack[-1] if self.stack else -1, row, count, {}])

    def wrap(self, fn, name: str, attrs=None):
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self, cq) -> None:
        """Put wrappers in place of every probed public function."""
        for module_name, attr, span, attrs in PROBES:
            module = getattr(cq, module_name, None)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                self.absent.add(span)
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span, attrs))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_time(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "row": s[ROW], "count": s[COUNT], **s[ATTRS]})
                         + "\n")


# ---------------------------------------------------------------------------
# Layer pass for the agg-* workloads
# ---------------------------------------------------------------------------

def layer_pass(tr: Tracer, cq, bench) -> None:
    """Drive the dataset through each module's public functions in turn."""
    p, cfg = bench.p, bench.cfg
    kind, order, kernel, addop = p["kind"], cfg["order"], cfg["kernel"], cfg["addop"]
    need = {"parse_dataset", "element_from_json", "Capacity", "AggregationInput",
            "PermutationSet", "tail_values", "add", "choquet_eval", "zero_element"}
    missing = {name for name in need if not hasattr(cq, name)}
    missing |= {f"{type(obj).__name__}.{attr}" for obj, attr in
                ((order, "sort"), (kernel, "evaluate")) if not hasattr(obj, attr)}
    if missing:
        tr.missing.update(missing)
        tr.absent.update(LAYER_SPANS)
        return
    text = bench.input.read_text(encoding="utf-8")
    cells = [cell for row in reference.load_rows(bench.input) for cell in row]
    cap = json.loads((bench.workdir / "capacity.json").read_text(encoding="utf-8"))

    rec = tr.begin("capacity.build")
    mu = cq.Capacity.from_json(cap)
    tr.end(rec)
    rec = tr.begin("datasets.parse")
    rows = cq.parse_dataset(text, kind).rows
    tr.end(rec)
    rec = tr.begin("datasets.element_build")
    for cell in cells:
        cq.element_from_json(kind, cell)
    tr.end(rec)

    AggregationInput, PermutationSet = cq.AggregationInput, cq.PermutationSet
    tail_values, add, choquet_eval = cq.tail_values, cq.add, cq.choquet_eval
    evaluate, sort = kernel.evaluate, order.sort
    begin, end, summed = tr.begin, tr.end, tr.summed
    zero = cq.zero_element(kind, len(rows[0][0].components))
    for row_id, row in enumerate(rows):
        rec = begin("operator.input", row_id)
        inp = AggregationInput(row, mu, order, addop)
        end(rec)
        rec = begin("order.sort", row_id)
        sort(row)
        end(rec)
        rec = begin("order.group", row_id)
        sigma = PermutationSet(row, order).first()
        end(rec)
        rec = begin("capacity.tail", row_id)
        b = tail_values(mu, sigma)
        end(rec)
        kernel_s = fold_s = 0.0
        prev, acc = zero, None
        for i, pos in enumerate(sigma):
            t0 = perf_counter()
            term = evaluate(row[pos], prev, b[i], b[i + 1])
            t1 = perf_counter()
            if acc is None:
                acc = term
            else:
                acc = add(addop, acc, term)
                fold_s += perf_counter() - t1
            kernel_s += t1 - t0
            prev = row[pos]
        summed("operator.kernel", kernel_s, len(sigma), row_id)
        summed("algebra.add", fold_s, len(sigma) - 1, row_id)
        rec = begin("operator.eval", row_id)
        choquet_eval(inp, kernel, sigma)
        end(rec)


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------

LAYER_SPANS = ("capacity.build", "datasets.parse", "datasets.element_build",
               "operator.input", "order.sort", "order.group", "capacity.tail",
               "operator.kernel", "algebra.add", "operator.eval")

# metric -> (span names, value, parent span name, span attrs to match,
# further spans it depends on). value is "s" for summed duration, "self"
# for summed self time, "calls" for the number of calls, otherwise the
# span attribute to sum.
SPAN_METRICS = {
    "datasets.parse_s": (("datasets.parse",), "s"),
    "datasets.element_build_s": (("datasets.element_build",), "s"),
    "order.sort_s": (("order.sort",), "s"),
    "order.group_s": (("order.group",), "s"),
    "capacity.tail_s": (("capacity.tail",), "s"),
    "capacity.build_s": (("capacity.build",), "s"),
    "operator.input_s": (("operator.input",), "s"),
    "operator.kernel_s": (("operator.kernel",), "s"),
    "operator.kernel_calls": (("operator.kernel",), "calls"),
    "algebra.fold_s": (("algebra.add",), "s"),
    "algebra.add_calls": (("algebra.add",), "calls"),
    "operator.eval_s": (("operator.eval",), "s"),
    "operator.aggregate_s": (("operator.aggregate",), "s"),
    "operator.perms_checked": (("operator.aggregate",), "checked"),
    "operator.perms_admissible": (("operator.aggregate",), "perms"),
    "cli.aggregate_self_s": (("cli.aggregate",), "self", None, {},
                             ("datasets.load", "operator.aggregate")),
    "cli.verify_self_s": (("cli.verify",), "self", None, {},
                          ("algebra.laws", "order.admissibility",
                           "dissimilarity.laws") + CONDITION_CHECKS),
    "algebra.laws_s": (("algebra.laws",), "s"),
    "algebra.laws.checked": (("algebra.laws",), "checked"),
    "order.admissibility_s": (("order.admissibility",), "s"),
    "order.admissibility.checked": (("order.admissibility",), "checked"),
    "dissimilarity.laws_s": (("dissimilarity.laws",), "s"),
    "verifier.condition_s": (CONDITION_CHECKS, "s", "cli.verify"),
}
for _law, _ns in CROSSCHECK_NS.items():
    for _n in _ns:
        for _side in ("check", "brute_force"):
            _span = f"verifier.{_side}_{_law}"
            SPAN_METRICS[f"{_span}.n{_n}_s"] = (
                (_span,), "s", "verifier.oracle_crosscheck", {"n": _n})
            SPAN_METRICS[f"{_span}.n{_n}.checked"] = (
                (_span,), "checked", "verifier.oracle_crosscheck", {"n": _n})

# Reported by the runner from the untraced and traced wall times, and from
# the pooled choquet_aggregate call times.
RUNNER_METRICS = ("operator.aggregate_us.p50", "operator.aggregate_us.tail",
                  "trace_overhead_frac")


def metric_names() -> list[str]:
    return list(SPAN_METRICS) + ["operator.consistency_s"] + list(RUNNER_METRICS)


def layer_metrics(tr: Tracer) -> tuple[dict, list[float]]:
    """Per-layer metrics of one traced round, and the per-call times of
    ``choquet_aggregate`` in microseconds. Metrics that depend on an absent
    span are left out."""
    spans, self_t = tr.spans, tr.self_time()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    m = {}
    for metric, spec in SPAN_METRICS.items():
        names, value, parent, attrs, deps = spec + (None, {}, ())[len(spec) - 2:]
        if tr.absent & set(names + deps):
            continue
        total = 0
        for name in names:
            for i in by_name.get(name, ()):
                s = spans[i]
                if parent is not None and (s[PARENT] < 0
                                           or spans[s[PARENT]][NAME] != parent):
                    continue
                if any(s[ATTRS].get(k) != v for k, v in attrs.items()):
                    continue
                if value == "s":
                    total += s[END] - s[START]
                elif value == "self":
                    total += self_t[i]
                elif value == "calls":
                    total += s[COUNT]
                else:
                    total += s[ATTRS].get(value, 0)
        m[metric] = total
    # On the agg-* workloads the consistency check is the part of
    # choquet_aggregate not spent grouping and evaluating the first
    # permutation. Derived from two passes, so noise can take it below 0.
    if not tr.absent & {"operator.aggregate", "order.group", "operator.eval"}:
        m["operator.consistency_s"] = (
            m["operator.aggregate_s"] - m["order.group_s"] - m["operator.eval_s"]
            if m["order.group_s"] else 0.0)
    rows_us = [(spans[i][END] - spans[i][START]) * 1e6
               for i in by_name.get("operator.aggregate", ())]
    return m, rows_us


def tail_percentile(samples: list[float]):
    """Highest of p50/p90/p99/p99.9/p99.99 with at least ten samples above
    it, as (percentile, value); None below twenty samples."""
    s = sorted(samples)
    for pct in (99.99, 99.9, 99.0, 90.0, 50.0):
        if len(s) * (100 - pct) / 100 >= 10:
            return pct, s[max(0, math.ceil(len(s) * pct / 100) - 1)]
    return None
