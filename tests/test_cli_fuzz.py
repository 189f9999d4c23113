"""The command line under arbitrary JSON: whatever value one field of a
kernel spec, a capacity or an interval dataset holds, ``main`` exits 0, 1,
2 or 3 and never raises, and exit 1 writes the JSON error record to
stderr."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquetlike.cli import main

NAMES = [
    "delta-scale", "f-difference", "b-scale-d", "affine-F", "custom",
    "difference", "abs-diff", "sq-diff", "capped-double", "takac:0.5:max:abs-diff",
    "zero", "identity", "upper", "lower", "scale:0.5",
    "table", "cardinality", "dirac", "top", "uniform-random",
    "scalar", "interval", "vector", "max", "min", "mean",
]
# 10 ** 400 is a JSON integer no float can hold.
LEAVES = (st.none() | st.booleans() | st.integers(-2, 4) | st.just(10 ** 400)
          | st.floats(-2, 4, allow_nan=False) | st.sampled_from(NAMES)
          | st.text(max_size=4))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)

TABLE = {"n": 2, "kind": "table", "entries": [
    {"subset": [], "value": 0}, {"subset": [1], "value": 0.4},
    {"subset": [2], "value": 0.7}, {"subset": [1, 2], "value": 1}]}
DATASET = {"kind": "interval", "ids": ["a", "b"],
           "rows": [[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.5], [0.5, 0.5]]]}
AFFINE = {"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"}
KERNELS = {"family": {}, "delta": {"family": "delta-scale"},
           "d": {"family": "b-scale-d"}, "C": AFFINE, "D": AFFINE,
           "name": {"family": "custom"}}
CAPACITIES = {"n": TABLE, "kind": TABLE, "entries": TABLE,
              "i": {"n": 2, "kind": "dirac", "i": 1},
              "k": {"n": 2, "kind": "top", "k": 1},
              "seed": {"n": 2, "kind": "uniform-random", "seed": 1},
              "complete": {"n": 2, "entries": [{"subset": [1], "value": 0.4}],
                           "complete": True}}
FUZZ = settings(deadline=None, max_examples=15)


def run(argv, files):
    """Write ``files`` (name -> JSON value) into a fresh directory, run the
    CLI on ``argv(directory)`` and check how it ended."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            Path(tmp, name).write_text(json.dumps(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv(tmp))
    assert code in (0, 1, 2, 3)
    if code == 1:
        record = json.loads(err.getvalue())
        assert set(record) == {"error"}
        assert set(record["error"]) == {"type", "message"}


def aggregate(kernel=None, capacity=TABLE, dataset=DATASET):
    run(lambda tmp: [
        "aggregate", "--input", f"{tmp}/data.json", "--capacity", f"{tmp}/cap.json",
        "--order", "ab:0.5:1", "--kernel", json.dumps(kernel or {"family": "delta-scale"}),
        "--output", f"{tmp}/out.json"], {"data.json": dataset, "cap.json": capacity})


def with_field(obj, key, value):
    return dict(obj, **{key: value})


@pytest.mark.parametrize("field", sorted(KERNELS))
@FUZZ
@given(value=JSON_VALUES)
def test_kernel_spec_field(field, value):
    aggregate(kernel=with_field(KERNELS[field], field, value))


@pytest.mark.parametrize("field", sorted(CAPACITIES) + ["subset", "value"])
@FUZZ
@given(value=JSON_VALUES)
def test_capacity_field(field, value):
    if field in ("subset", "value"):
        entries = list(TABLE["entries"])
        entries[1] = with_field(entries[1], field, value)
        aggregate(capacity=with_field(TABLE, "entries", entries))
    else:
        aggregate(capacity=with_field(CAPACITIES[field], field, value))


@pytest.mark.parametrize("field", ["rows", "ids", "kind", "cell"])
@FUZZ
@given(value=JSON_VALUES)
def test_dataset_field(field, value):
    if field == "cell":
        rows = [list(row) for row in DATASET["rows"]]
        rows[0][1] = value
        aggregate(dataset=with_field(DATASET, "rows", rows))
    else:
        aggregate(dataset=with_field(DATASET, field, value))
