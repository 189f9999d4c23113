"""Command-line front end: aggregate datasets or run verification suites.

Exit codes: 0 success / all laws pass, 1 parse or configuration error
(with a machine-readable error record on stderr), 2 at least one row
aggregated inconsistently (values are still written), 3 at least one law
check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from array import array
from json.encoder import encode_basestring_ascii

from . import verifier
from .algebra import (
    addition_for, check_associativity, check_c1, check_cancellation,
    check_commutativity, check_compatibility, check_distributivity, scale_for,
)
from .capacity import MAX_N, Capacity
from .datasets import load_dataset
from .dissimilarity import (
    check_dissimilarity, check_telescoping, resolve_dissimilarity,
    takac_counterexample,
)
from .errors import BadParameter, ChoquetlikeError, json_number, load_json
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
    ver.add_argument("--suite", required=True, choices=(*SUITES, "all"))
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
    except (ChoquetlikeError, OSError, ValueError, KeyError, RecursionError) as exc:
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
        cap_json = load_json(fh.read())
    # A capacity costs n * 2^n to build: refuse the wrong arity first.
    if isinstance(cap_json, dict) and (
            n := json_number(cap_json, "n", integral=True)) != ds.n:
        raise BadParameter(f"capacity is on [{n}] but there are {ds.n} inputs")
    mu = Capacity.from_json(cap_json)
    addop = addition_for(kind)
    kernel_spec = args.kernel
    if kernel_spec.lstrip().startswith("{"):
        kernel_spec = load_json(kernel_spec)
    kernel = kernel_catalog(kernel_spec, kind, order)

    # Every row is aggregated before a byte is written, so a refused row
    # writes nothing. Until then each result is kept as floats, a
    # permutation count and two flags. A count is an int of any size: a
    # certified row of 21 tied inputs has 21! > 2^63 permutations.
    values, perms, consistent, in_k = array("d"), [], bytearray(), bytearray()
    for row in ds:
        res = choquet_aggregate(AggregationInput(row, mu, order, addop), kernel)
        value = res.value
        values.extend(value.components)
        in_k.append(value.in_unit)
        consistent.append(res.consistent)
        perms.append(res.permutations)

    kept = (ds, values, consistent, in_k, perms)
    _write(args, lambda: _results_json(_records(*kept)),
           ["id", "value", "consistent", "in_K", "permutations"],
           ([row_id, json.dumps(value), *rest]
            for row_id, value, *rest in _records(*kept)))
    return 0 if all(consistent) else 2


def _records(ds, values, consistent, in_k, perms):
    """Each row's ``(id, value, consistent, in_K, permutations)``, read from
    the results kept for ``ds``: the value as ``to_json`` gives it, a bare
    float for a scalar and a list of floats for any other carrier."""
    ids = ds.named if ds.named is not None else map(str, range(len(perms)))
    results = (iter(values) if ds.kind == SCALAR
               else map(list, zip(*(iter(values),) * ds.dim)))
    return zip(ids, results, map(bool, consistent), map(bool, in_k), perms)


# One record of ``json.dumps({"results": [...]}, indent=2)``, and the list
# that holds an interval or vector value inside it.
_RECORD = ('    {\n      "id": %s,\n      "value": %s,\n      "consistent": %s,'
           '\n      "in_K": %s,\n      "permutations": %d\n    }')
_LIST = "[\n        %s\n      ]"
_JSON_BOOL = {True: "true", False: "false"}


def _results_json(records):
    """The text of ``json.dumps({"results": [...]}, indent=2)`` for
    ``records``, ``(id, value, consistent, in_K, permutations)`` with the
    value as ``to_json`` gives it, in chunks: one template per record."""
    yield '{\n  "results": [\n'
    sep = ""
    for row_id, v, consistent, in_k, permutations in records:
        yield sep + _RECORD % (
            encode_basestring_ascii(row_id),
            float.__repr__(v) if type(v) is float
            else _LIST % ",\n        ".join(map(float.__repr__, v)),
            _JSON_BOOL[consistent], _JSON_BOOL[in_k], permutations)
        sep = ",\n"
    yield "\n  ]\n}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    # An arity no capacity exists on is refused before any suite runs.
    if args.n is not None and not 2 <= args.n <= MAX_N:
        raise BadParameter(f"--n must lie in 2..{MAX_N}, got {args.n}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    record = verifier.RunRecord()  # this run's shared work, replayed across suites
    tagged = [(name, report) for name in names for report in SUITES[name](args, record)]

    payload = [dict(report.to_json(), suite=name) for name, report in tagged]
    columns = ["suite", "law", "verdict", "checked", "elapsed"]
    _write(args, lambda: [json.dumps(payload, indent=2)], columns,
           ([rec[c] for c in columns] for rec in payload))
    return 0 if all(report.passed for _, report in tagged) else 3


def _write(args, json_chunks, header, rows):
    """Write the chunks of ``json_chunks()``, or ``header`` and ``rows`` as
    CSV under ``--format csv``, to ``--output``, or else to stdout with a
    newline added if the text does not end in one."""
    with (open(args.output, "w", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
            return
        chunk = ""
        for chunk in json_chunks():
            fh.write(chunk)
        if not args.output and not chunk.endswith("\n"):
            fh.write("\n")


def _grid(args, kind, default, floor=0) -> GridSpec:
    """The ``kind`` grid at ``--grid``, else at ``default``, raised to ``floor``."""
    return GridSpec(kind, max(default if args.grid is None else args.grid, floor))


# Each carrier's default order, one object each, so that a run record
# keys the work of every suite on the same order.
_DEFAULT_ORDERS = (ScalarUsual(), AlphaBeta(0.5, 1.0), VectorLex((0, 1)))


def _carriers(args, scalar_m, m, scalar_floor=0):
    """Each carrier's default order on its grid, at ``scalar_m`` for scalars."""
    scalar, interval, vector = _DEFAULT_ORDERS
    return [(scalar, _grid(args, SCALAR, scalar_m, scalar_floor)),
            (interval, _grid(args, INTERVAL, m)), (vector, _grid(args, VECTOR, m))]


def _kernel_checks(args, check, specs, carriers, record) -> list[LawReport]:
    """``check`` (a ``verifier`` check) of each catalog kernel spec on each
    ``(order, grid)`` of ``carriers``, at arity ``--n``, else 3. Each
    kernel is built once per ``record``, so that the checks of one run
    share their enumerations."""
    n = 3 if args.n is None else args.n
    return [check(record.once(("kernel", json.dumps(spec), grid.kind, order),
                              lambda: kernel_catalog(spec, grid.kind, order)),
                  addition_for(grid.kind), order, n, grid, record=record)
            for order, grid in carriers for spec in specs]


# The kernels of the ``wd`` and ``monotone`` suites.
_GOOD_KERNELS = ("delta-scale", {"family": "b-scale-d", "d": "abs-diff"},
                 {"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"})


def suite_order(args, record) -> list[LawReport]:
    scalar, xu_yager, vector = _carriers(args, 4, 4, 8)
    lex = [(AlphaBeta(a, b), xu_yager[1]) for a, b in ((0.0, 1.0), (1.0, 0.0))]
    return [check_admissibility(*c) for c in [scalar, xu_yager, *lex, vector]]


def suite_algebra(args, record) -> list[LawReport]:
    reports = []
    for order, grid in _carriers(args, 4, 4, 8):
        addop, mul = addition_for(grid.kind), scale_for(grid.kind)
        reports += [check_commutativity(addop, grid), check_associativity(addop, grid),
                    check_cancellation(addop, grid),
                    check_compatibility(addop, order, grid),
                    check_distributivity(mul, addop, "right", grid),
                    check_distributivity(mul, addop, "left", grid),
                    check_c1(mul, addop, order, grid)]
    return reports


def suite_wd(args, record) -> list[LawReport]:
    return _kernel_checks(args, verifier.check_wd, _GOOD_KERNELS, _carriers(args, 4, 2),
                          record)


def suite_monotone(args, record) -> list[LawReport]:
    return _kernel_checks(args, verifier.check_monotonicity, _GOOD_KERNELS,
                          _carriers(args, 4, 2), record)


def suite_aggregation(args, record) -> list[LawReport]:
    # Lexicographical interval order alongside the Xu-Yager default.
    carriers = _carriers(args, 4, 2) + [(AlphaBeta(0.0, 1.0), _grid(args, INTERVAL, 2))]
    return _kernel_checks(args, verifier.check_aggregation, ["delta-scale"], carriers,
                          record)


def suite_dissimilarity(args, record) -> list[LawReport]:
    reports = []
    for order, grid in [(ScalarUsual(), _grid(args, SCALAR, 8)),
                        (AlphaBeta(0.5, 1.0), _grid(args, INTERVAL, 4))]:
        d = resolve_dissimilarity("abs-diff", grid.kind, order)
        reports.append(check_dissimilarity(d, order, grid))
        reports.append(check_telescoping(d, addition_for(grid.kind), order, grid))
    return reports


def suite_takac(args, record) -> list[LawReport]:
    """Counterexample search for the width-based interval dissimilarity. The
    telescoping identity is expected to fail: its witness is reported as a
    failing law, so this suite deliberately exits 3."""
    report = takac_counterexample(0.5, 1.0, "max", "abs-diff", _grid(args, INTERVAL, 8))
    if not report.passed:
        report.detail["note"] = ("expected negative result: the width-based "
                                 "construction cannot telescope")
    return [report]


# The suites of ``verify``, in the order ``--suite all`` runs them; each
# is called as ``suite(args, record)`` with the run's ``RunRecord``.
SUITES = {"order": suite_order, "algebra": suite_algebra, "wd": suite_wd,
          "monotone": suite_monotone, "aggregation": suite_aggregation,
          "dissimilarity": suite_dissimilarity, "appendix-c": suite_takac}


if __name__ == "__main__":
    sys.exit(main())
