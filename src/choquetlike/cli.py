"""Command-line front end: aggregate datasets or run verification suites.

Exit codes: 0 success / all laws pass, 1 parse or configuration error
(with a machine-readable error record on stderr), 2 at least one row
aggregated inconsistently (values are still written), 3 at least one law
check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii

from . import verifier
from .algebra import (
    IV_PLUS, IV_SCALE, PLUS, TIMES, VV_PLUS, VV_SCALE, addition_for,
    check_associativity, check_c1, check_cancellation, check_commutativity,
    check_compatibility, check_distributivity,
)
from .capacity import Capacity
from .datasets import load_dataset
from .dissimilarity import (
    check_dissimilarity, check_telescoping, resolve_dissimilarity,
    takac_counterexample,
)
from .errors import BadParameter, ChoquetlikeError, json_number
from .operator import AggregationInput, choquet_aggregate, kernel_catalog
from .order import (
    INTERVAL, SCALAR, VECTOR, AlphaBeta, GridSpec, ScalarUsual, VectorLex,
    check_admissibility, parse_order,
)
from .reporting import LawReport


class _Parser(argparse.ArgumentParser):
    """Raises ``BadParameter`` on a bad command line, so that it exits 1 with
    the error record like any bad input; sub-parsers inherit the class."""

    def error(self, message):
        raise BadParameter(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="choquetlike",
        description="Choquet-like aggregation and law verification")
    sub = parser.add_subparsers(dest="cmd", required=True)

    agg = sub.add_parser("aggregate", help="aggregate a dataset row by row")
    agg.add_argument("--input", required=True)
    agg.add_argument("--capacity", required=True)
    agg.add_argument("--order", default="scalar",
                     help="scalar | ab:<alpha>:<beta> | veclex:<perm>")
    agg.add_argument("--kernel", default="delta-scale",
                     help="kernel family name or JSON spec")
    agg.add_argument("--output", default=None)
    agg.add_argument("--format", choices=("json", "csv"), default="json")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True,
                     choices=("algebra", "order", "wd", "monotone",
                              "aggregation", "dissimilarity", "appendix-c", "all"))
    ver.add_argument("--grid", type=int, default=None, help="step denominator")
    ver.add_argument("--n", type=int, default=None, help="operator arity")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--output", default=None)
    ver.add_argument("--format", choices=("json", "csv"), default="json")

    try:
        args = parser.parse_args(argv)
        if args.cmd == "aggregate":
            return cmd_aggregate(args)
        return cmd_verify(args)
    except (ChoquetlikeError, OSError, ValueError, KeyError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def cmd_aggregate(args) -> int:
    order = parse_order(args.order)
    kind = order.kind
    ds = load_dataset(args.input, kind)
    with open(args.capacity, "r", encoding="utf-8") as fh:
        cap_json = json.load(fh)
    # A capacity costs n * 2^n to build: refuse the wrong arity first.
    if isinstance(cap_json, dict) and (
            n := json_number(cap_json, "n", integral=True)) != ds.n:
        raise BadParameter(f"capacity is on [{n}] but there are {ds.n} inputs")
    mu = Capacity.from_json(cap_json)
    addop = addition_for(kind)
    kernel_spec = args.kernel
    if kernel_spec.lstrip().startswith("{"):
        kernel_spec = json.loads(kernel_spec)
    kernel = kernel_catalog(kernel_spec, kind, order)

    done = []
    for row_id, row in zip(ds.row_ids(), ds.rows):
        res = choquet_aggregate(AggregationInput(row, mu, order, addop), kernel)
        done.append((row_id, res.value, res.consistent, res.permutations))

    _write(args, lambda: _results_json(done), ["id", "value", "consistent", "in_K"],
           ([row_id, json.dumps(value.to_json()), consistent, value.in_unit]
            for row_id, value, consistent, _ in done))
    return 0 if all(consistent for _, _, consistent, _ in done) else 2


# One record of ``json.dumps({"results": [...]}, indent=2)``, and the list
# that holds an interval or vector value inside it.
_RECORD = ('    {\n      "id": %s,\n      "value": %s,\n      "consistent": %s,'
           '\n      "in_K": %s,\n      "permutations": %d\n    }')
_LIST = "[\n        %s\n      ]"
_JSON_BOOL = {True: "true", False: "false"}


def _results_json(done) -> str:
    """The bytes of ``json.dumps({"results": records}, indent=2)`` for the
    rows ``(id, value, consistent, permutations)``, one template per row."""
    records = []
    for row_id, value, consistent, permutations in done:
        v = value.to_json()
        records.append(_RECORD % (
            encode_basestring_ascii(row_id),
            float.__repr__(v) if type(v) is float
            else _LIST % ",\n        ".join(map(float.__repr__, v)),
            _JSON_BOOL[consistent], _JSON_BOOL[value.in_unit], permutations))
    return '{\n  "results": [\n' + ",\n".join(records) + "\n  ]\n}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    # Each suite reads the grid and arity it is given, or its own default.
    settings = {key: value for key, value in (("grid", args.grid), ("n", args.n))
                if value is not None}

    suites = {
        "order": suite_order, "algebra": suite_algebra, "wd": suite_wd,
        "monotone": suite_monotone, "aggregation": suite_aggregation,
        "dissimilarity": suite_dissimilarity, "appendix-c": suite_takac,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    tagged: list[tuple[str, LawReport]] = []
    for name in names:
        tagged.extend((name, report) for report in suites[name](settings))

    payload = [dict(report.to_json(), suite=name) for name, report in tagged]
    columns = ["suite", "law", "verdict", "checked", "elapsed"]
    _write(args, lambda: json.dumps(payload, indent=2), columns,
           ([rec[c] for c in columns] for rec in payload))
    return 0 if all(report.passed for _, report in tagged) else 3


def _write(args, json_text, header, rows):
    """Write ``json_text()``, or ``header`` and ``rows`` as CSV under
    ``--format csv``, to ``--output``, or else to stdout with a newline
    added if the text does not end in one."""
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
        text = out.getvalue()
    else:
        text = json_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _carriers(settings):
    """Default (order, addition, grid) triple per carrier."""
    return [
        (ScalarUsual(), PLUS, GridSpec(SCALAR, settings.get("grid", 4))),
        (AlphaBeta(0.5, 1.0), IV_PLUS, GridSpec(INTERVAL, settings.get("grid", 2))),
        (VectorLex((0, 1)), VV_PLUS, GridSpec(VECTOR, settings.get("grid", 2))),
    ]


def suite_order(settings) -> list[LawReport]:
    m = settings.get("grid", 4)
    checks = [
        (ScalarUsual(), GridSpec(SCALAR, max(m, 8))),
        (AlphaBeta(0.5, 1.0), GridSpec(INTERVAL, m)),
        (AlphaBeta(0.0, 1.0), GridSpec(INTERVAL, m)),
        (AlphaBeta(1.0, 0.0), GridSpec(INTERVAL, m)),
        (VectorLex((0, 1)), GridSpec(VECTOR, m, dim=2)),
    ]
    return [check_admissibility(order, grid) for order, grid in checks]


def suite_algebra(settings) -> list[LawReport]:
    m = settings.get("grid", 4)
    reports = []
    for order, addop, mul, grid in [
        (ScalarUsual(), PLUS, TIMES, GridSpec(SCALAR, max(m, 8))),
        (AlphaBeta(0.5, 1.0), IV_PLUS, IV_SCALE, GridSpec(INTERVAL, m)),
        (VectorLex((0, 1)), VV_PLUS, VV_SCALE, GridSpec(VECTOR, m, dim=2)),
    ]:
        reports.append(check_commutativity(addop, grid))
        reports.append(check_associativity(addop, grid))
        reports.append(check_cancellation(addop, grid))
        reports.append(check_compatibility(addop, order, grid))
        reports.append(check_distributivity(mul, addop, "right", grid))
        reports.append(check_distributivity(mul, addop, "left", grid))
        reports.append(check_c1(mul, addop, order, grid))
    return reports


def _good_kernels(settings):
    out = []
    for order, addop, grid in _carriers(settings):
        kind = grid.kind
        out.append((kernel_catalog("delta-scale", kind, order), addop, order, grid))
        out.append((kernel_catalog({"family": "b-scale-d", "d": "abs-diff"},
                                   kind, order), addop, order, grid))
        out.append((kernel_catalog({"family": "affine-F", "C": "scale:0.7",
                                    "D": "scale:0.1"}, kind, order),
                    addop, order, grid))
    return out


def suite_wd(settings) -> list[LawReport]:
    n = settings.get("n", 3)
    return [verifier.check_wd(kernel, addop, order, n, grid)
            for kernel, addop, order, grid in _good_kernels(settings)]


def suite_monotone(settings) -> list[LawReport]:
    n = settings.get("n", 3)
    return [verifier.check_monotonicity(kernel, addop, order, n, grid)
            for kernel, addop, order, grid in _good_kernels(settings)]


def suite_aggregation(settings) -> list[LawReport]:
    n = settings.get("n", 3)
    reports = []
    for order, addop, grid in _carriers(settings):
        kernel = kernel_catalog("delta-scale", grid.kind, order)
        reports.append(verifier.check_aggregation(kernel, addop, order, n, grid))
    # Lexicographical interval order alongside the Xu-Yager default.
    lex = AlphaBeta(0.0, 1.0)
    grid = GridSpec(INTERVAL, settings.get("grid", 2))
    reports.append(verifier.check_aggregation(
        kernel_catalog("delta-scale", INTERVAL, lex), IV_PLUS, lex,
        n, grid))
    return reports


def suite_dissimilarity(settings) -> list[LawReport]:
    reports = []
    scalar_grid = GridSpec(SCALAR, settings.get("grid", 8))
    iv_grid = GridSpec(INTERVAL, settings.get("grid", 4))
    xu = AlphaBeta(0.5, 1.0)
    d_scalar = resolve_dissimilarity("abs-diff", SCALAR)
    d_iv = resolve_dissimilarity("abs-diff", INTERVAL, xu)
    reports.append(check_dissimilarity(d_scalar, ScalarUsual(), scalar_grid))
    reports.append(check_telescoping(d_scalar, PLUS, ScalarUsual(), scalar_grid))
    reports.append(check_dissimilarity(d_iv, xu, iv_grid))
    reports.append(check_telescoping(d_iv, IV_PLUS, xu, iv_grid))
    return reports


def suite_takac(settings) -> list[LawReport]:
    """Counterexample search for the width-based interval dissimilarity.

    The telescoping identity is expected to fail here; the suite reports
    the witness as a failing law, so this suite deliberately exits 3.
    """
    grid = GridSpec(INTERVAL, settings.get("grid", 8))
    report = takac_counterexample(0.5, 1.0, "max", "abs-diff", grid)
    if not report.passed:
        report.detail["note"] = ("expected negative result: the width-based "
                                 "construction cannot telescope")
    return [report]


if __name__ == "__main__":
    sys.exit(main())
