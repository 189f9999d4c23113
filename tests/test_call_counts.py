"""A guard on the Python calls that building an element, an
``AggregationInput`` or an ``AggregateResult``, aggregating one strict row,
folding one interval row along a permutation, loading a capacity table,
loading a CSV or a JSON dataset, iterating a dataset's rows, binding them
to inputs and writing ``aggregate`` records make. Each bound is the count
the code reaches; a change that adds a frame to these paths fails here and
states its cost."""

import gc
import json
import random
import sys
from array import array

import pytest

from choquetlike import (
    AggregationInput, AlphaBeta, Capacity, Interval, PermutationSet, Scalar, ScalarUsual,
    addition_for, capacity_family, choquet_aggregate, kernel_catalog, parse_dataset,
)
from choquetlike.cli import _records, _results_json
from choquetlike.operator import AggregateResult, _eval_sorted


def calls_made(thunk) -> int:
    """The number of Python-level calls (``call`` events under
    ``sys.setprofile``) that ``thunk()`` makes, ``thunk`` itself not counted.
    The collector is off during the count: a ``gc.callbacks`` entry
    (hypothesis adds one) makes Python calls whenever a collection runs,
    which would make a count depend on what ran before."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    previous, enabled = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    return len(calls) - 1


def aggregating(row, order, kernel):
    """A thunk of one library call on ``row``: ``choquet_aggregate`` of its
    ``AggregationInput`` under a random capacity and the carrier's addition."""
    mu = capacity_family("uniform-random", len(row), seed=3)
    addop = addition_for(order.kind)
    return lambda: choquet_aggregate(AggregationInput(row, mu, order, addop), kernel)


def folding(row, order, kernel):
    """A thunk of the reference fold along the first admissible permutation
    of ``row``, under a random capacity and the carrier's addition."""
    mu = capacity_family("uniform-random", len(row), seed=3)
    inp = AggregationInput(row, mu, order, addition_for(order.kind))
    sigma = PermutationSet(row, order).first()
    return lambda: _eval_sorted(inp, kernel, sigma)


def writing(rows):
    """A thunk of the JSON text of ``rows`` scalar ``aggregate`` records,
    read from the arrays ``aggregate`` keeps."""
    ds = parse_dataset("0.5\n" * rows, "scalar")
    kept = (ds, array("d", [0.25] * rows), bytearray([1]) * rows,
            bytearray([1]) * rows, [1] * rows)
    return lambda: "".join(_results_json(_records(*kept)))


def iterating(text):
    """A thunk of a walk over the rows of the scalar dataset in ``text``."""
    ds = parse_dataset(text, "scalar")

    def walk():
        for _ in ds:
            pass
    return walk


def binding(text):
    """A thunk of a walk over the rows of the scalar dataset in ``text``,
    each bound to an ``AggregationInput`` under a random capacity."""
    ds = parse_dataset(text, "scalar")
    mu = capacity_family("uniform-random", ds.n, seed=3)
    order, addop = ScalarUsual(), addition_for("scalar")

    def walk():
        for _ in ds.inputs(mu, order, addop):
            pass
    return walk


_RNG = random.Random(5)
# 2,048 CSV rows of 5 scalars in [0, 1].
ROWS2048 = "".join(",".join(repr(_RNG.random()) for _ in range(5)) + "\n"
                   for _ in range(2048))
# The JSON of 2,048 rows of 5 intervals in [0, 1].
INTERVALS2048 = json.dumps([[sorted((_RNG.random(), _RNG.random())) for _ in range(5)]
                            for _ in range(2048)])
XU = AlphaBeta(0.5, 1.0)
# The arguments of one AggregationInput of 5 scalars.
INPUT5 = (tuple(map(Scalar, (0.1, 0.5, 0.3, 0.9, 0.7))),
          capacity_family("uniform-random", 5, seed=3), ScalarUsual(), addition_for("scalar"))
HALF = Scalar(0.5)
# The JSON of a random table on 8 elements: 256 entries.
TABLE8 = capacity_family("uniform-random", 8, seed=3).to_json()
# A strict row's inputs, order and kernel.
STRICT_SCALAR_ROW = (tuple(map(Scalar, (0.1, 0.5, 0.3, 0.9, 0.7))), ScalarUsual(),
                     kernel_catalog("delta-scale", "scalar"))
STRICT_INTERVAL_ROW = (tuple(Interval(lo, lo + 0.1) for lo in (0.1, 0.5, 0.3, 0.8, 0.65)),
                       XU, kernel_catalog({"family": "b-scale-d", "d": "abs-diff"},
                                          "interval", XU))
# The two strict rows have 5 inputs each, their leads far more than TOL apart;
# the folded interval row has 4, the double-spaced CSV an empty line after
# every row, and the space-lined CSV a line of one space after every row.
# Iterating 2,048 rows of 5 scalars makes one call per element, plus four;
# binding them to inputs adds the call to ``inputs``, row 0's constructor
# and the list that holds it, two calls per chunk of BIND_ROWS later rows
# (2,047 rows make 86 chunks) and one for the empty read that ends them.
CASES = {  # id: (thunk, the most calls it may make)
    "scalar": (lambda: Scalar(0.5), 1),
    "interval": (lambda: Interval(0.2, 0.5), 1),
    "scalar-row": (aggregating(*STRICT_SCALAR_ROW), 44),
    "interval-row": (aggregating(*STRICT_INTERVAL_ROW), 35),
    "strict-scalar-row": (aggregating(*STRICT_SCALAR_ROW), 32),
    "strict-interval-row": (aggregating(*STRICT_INTERVAL_ROW), 32),
    "table-n8": (lambda: Capacity.from_json(TABLE8), 52),
    "csv-load-2048": (lambda: parse_dataset(ROWS2048, "scalar"), 58),
    "csv-load-2048-double-spaced": (
        lambda: parse_dataset(ROWS2048.replace("\n", "\n\n"), "scalar"), 90),
    "csv-load-2048-space-lines": (
        lambda: parse_dataset(ROWS2048.replace("\n", "\n \n"), "scalar"), 105),
    "json-load-2048-interval": (lambda: parse_dataset(INTERVALS2048, "interval"), 48),
    "iterate-2048": (iterating(ROWS2048), 2048 * 5 + 4),
    "bind-2048": (binding(ROWS2048), 2048 * 5 + 4 + 4 + 2 * 86),
    "eval-sorted-interval": (folding(
        tuple(Interval(lo, lo + 0.2) for lo in (0.4, 0.1, 0.7, 0.2)), XU,
        kernel_catalog("delta-scale", "interval", XU)), 56),
    "aggregation-input": (lambda: AggregationInput(*INPUT5), 1),
    "aggregate-result": (lambda: AggregateResult(HALF, True, 1, 1), 1),
    "write-100": (writing(100), 104),
}


@pytest.mark.parametrize("case", CASES)
def test_calls_stay_within_their_bound(case):
    thunk, bound = CASES[case]
    assert calls_made(thunk) <= bound
