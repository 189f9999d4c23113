"""Dataset round-trips and the command-line front end."""

import csv
import io
import json
import math
import random
import tempfile
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choquetlike import (
    AggregationInput, AlphaBeta, BadParameter, Capacity, ChoquetlikeError,
    DatasetFormatError, GridSpec, Interval, KindMismatch, Scalar, ScalarUsual, Vector,
    VectorLex, addition_for, capacity_family, cli, datasets, dissimilarity,
    element_from_json, kernel_catalog, load_dataset, order, parse_dataset, verifier,
)
from choquetlike.cli import _results_json, main
from choquetlike.operator import AggregateResult
from choquetlike.order import MAX_GRID, carrier
from oracles import classical_choquet_increments, mu_lookup

SQ_DIFF = '{"family": "delta-scale", "delta": "sq-diff"}'


def _outcome(load):
    """The rows (component bits), ids and kind of ``load()``, or its refusal."""
    try:
        ds = load()
    except DatasetFormatError as exc:
        return "refused", str(exc)
    return [[(el.kind, *map(float.hex, el.components)) for el in row]
            for row in ds.rows], ds.ids


def _reference(text, kind):
    """``_outcome`` of a whole-text parse that builds every cell with the
    element constructors, then checks the rows in order."""
    if kind == "scalar" and not text.lstrip().startswith(("[", "{")):
        records = [r for r in csv.reader(io.StringIO(text)) if any(c.strip() for c in r)]
        build, ids = (lambda cell: Scalar(float(cell))), None
    else:
        obj = json.loads(text)
        if isinstance(obj, list):
            obj = {"rows": obj}
        ids = [str(i) for i in obj["ids"]] if "ids" in obj else None
        records, build = obj["rows"], (lambda cell: element_from_json(kind, cell))
    rows = []
    for r, record in enumerate(records):
        rows.append([])
        for c, cell in enumerate(record):
            try:
                rows[-1].append(build(cell))
            except (ValueError, OverflowError, BadParameter) as exc:
                return "refused", f"row {r}, column {c} (0-based): {exc}"
    if not rows:
        return "refused", "dataset has no rows"
    if not rows[0]:
        return "refused", "row 0 has no elements"
    for r, row in enumerate(rows):
        if len(row) != len(rows[0]):
            return "refused", (f"row {r} (0-based): {len(row)} cells where row 0 "
                               f"has {len(rows[0])}")
        for c, el in enumerate(row):
            if el.dim != rows[0][0].dim:
                return "refused", (f"row {r}, column {c} (0-based): {el!r} does not "
                                   "match the dataset carrier")
            if not all(0.0 <= v <= 1.0 for v in el.components):
                return "refused", (f"row {r}, column {c} (0-based): {el!r} lies "
                                   "outside [0, 1]")
    if ids is not None and len(ids) != len(rows):
        return "refused", "ids do not match the number of rows"
    return ([[(el.kind, *map(float.hex, el.components)) for el in row] for row in rows],
            tuple(ids or map(str, range(len(rows)))))


# Cells in [0, 1], -0.0 included, and cells past it, within TOL of it
# included, or no float can hold.
_GOOD = [0.25, 0.5, 0.0, 1.0, -0.0, 0, 1]
_BAD = [1.5, -0.5, -1e-13, 1 + 1e-13, float("nan"), float("inf"), 10 ** 400]
_LEADS = st.lists(st.sampled_from(["", " ", "\t", "  \t"]), max_size=2)


def _rows(draw, cell, clean):
    """Rows of ``cell``: of one length if ``clean``, else of any."""
    n = draw(st.integers(1, 3))
    row = st.lists(cell, min_size=n, max_size=n) if clean else st.lists(cell, max_size=4)
    return draw(st.lists(row, min_size=clean, max_size=4))


@st.composite
def _csv_texts(draw):
    """A scalar CSV text: blank and whitespace-only leading lines, LF or
    CRLF endings, cells quoted or not."""
    clean = draw(st.booleans())
    cells = [*map(repr, _GOOD), " 0.75 "]
    if not clean:
        cells += ["1.5", "-0.5", "-1e-13", "1.0000000000001", "nan", "inf", "x", ""]
    rows = _rows(draw, st.sampled_from(cells), clean)
    quote = draw(st.sampled_from(["", '"']))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = draw(_LEADS) + [",".join(quote + c + quote for c in row) for row in rows]
    return eol.join(lines) + draw(st.sampled_from(["", eol])), "scalar"


@st.composite
def _json_texts(draw):
    """A JSON text of any kind after blank lines: a list of rows, or an
    object with ids, some of them integers."""
    kind = draw(st.sampled_from(["scalar", "interval", "vector"]))
    clean = draw(st.booleans())
    number = st.sampled_from(_GOOD + ([] if clean else _BAD))
    dim = 1 if kind == "scalar" else 2 if kind == "interval" else draw(st.integers(1, 3))
    cell = number if kind == "scalar" else (
        st.lists(number, min_size=dim, max_size=dim) if clean
        else st.lists(number, min_size=1, max_size=3))
    if not clean:
        cell = cell | st.sampled_from([True, "0.5", None])
    rows = _rows(draw, cell, clean)
    obj = rows
    if draw(st.booleans()):
        ids = st.lists(st.text(max_size=2) | st.integers(0, 9),
                       min_size=len(rows), max_size=len(rows) + (not clean))
        obj = {"kind": kind, "rows": rows, "ids": draw(ids)}
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(draw(_LEADS) + [json.dumps(obj)]), kind


# Row 0 is checked alone and later rows a chunk at a time: the rows at a
# chunk's first and last rows, and the row after a full chunk.
_EDGES = (1, datasets.CHUNK_ROWS, datasets.CHUNK_ROWS + 1)


def _long(kind, line, at, good):
    """A text of ``2 * CHUNK_ROWS + 3`` rows of ``good`` with row ``at``
    replaced by ``line``: CSV lines, or JSON rows when ``kind`` is not
    scalar or ``line`` is not a string."""
    rows = [line if r == at else good for r in range(2 * datasets.CHUNK_ROWS + 3)]
    if type(good) is str:
        return "".join(row + "\n" for row in rows), kind
    return json.dumps(rows), kind


# Long datasets with each fault or edge value at each of ``_EDGES``.
_LONG_CASES = [
    *(_long("scalar", line, at, "0.25,0.5")
      for line in ("", " , ", "0.5", "0.5,0.5,0.5", "0.5,x", "nan,0.5", "0.5,inf",
                   "-0.0,-0.0", "1e-400,0.5", "0.5,1.0000000000000002")
      for at in _EDGES),
    *(_long(kind, row, at, good)
      for kind, good, bad in (
          ("scalar", [0.25, 0.5], ([0.5, True], [10 ** 400, 0.5], [0.5])),
          ("interval", [[0.25, 0.5], [0.0, 1.0]],
           ([[0.6, 0.4], [0.0, 1.0]], [[0.1, 0.2], [False, 1]],
            [[0.1, 10 ** 400], [0.0, 1.0]], [[0.1, 0.2], [0.3]], [[0.1, 0.2]])))
      for row in bad for at in _EDGES),
]


def _blank_lines(line, blank, spacer=""):
    """A CSV text of ``2 * CHUNK_ROWS + 3`` lines: ``spacer`` at each index
    ``r < 2 * CHUNK_ROWS + 2`` where ``blank(r)`` holds, else "0.25,0.5",
    and ``line`` last."""
    rows = [spacer if blank(r) else "0.25,0.5" for r in range(2 * datasets.CHUNK_ROWS + 2)]
    return "".join(row + "\n" for row in rows + [line]), "scalar"


_LAST_LINES = ("0.25,0.5", "0.5,x", "0.5", " , ", "0.5,1.5")
# Double-spaced CSV, with the empty line after each row or before it, and
# empty lines at the first and last record of the first two chunks; then
# CSV spaced by lines of one space and of `` , ``. Each with a clean last
# row, a bad cell, a short row, a blank row with text and a value outside
# [0, 1].
_BLANK_CASES = [
    *(_blank_lines(line, blank)
      for blank in (lambda r: r % 2, lambda r: not r % 2,
                    lambda r: r in (1, datasets.CHUNK_ROWS, datasets.CHUNK_ROWS + 1,
                                    2 * datasets.CHUNK_ROWS))
      for line in _LAST_LINES),
    *(_blank_lines(line, lambda r: r % 2, spacer)
      for spacer in (" ", " , ") for line in _LAST_LINES),
]


def _with_examples(cases):
    """``hypothesis.example`` of each of ``cases``."""
    def wrap(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test
    return wrap


@st.composite
def _bindings(draw):
    """A dataset of 1 to 3 * BIND_ROWS + 2 rows, a capacity and an order
    for it: mostly of its arity and dimension, sometimes of others."""
    kind = draw(st.sampled_from(["scalar", "interval", "vector"]))
    n, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if kind == "scalar":
        cell, order = rng.random, ScalarUsual()
    elif kind == "interval":
        cell, order = (lambda: sorted((rng.random(), rng.random()))), AlphaBeta(0.5, 1.0)
    else:
        cell = lambda: [rng.random() for _ in range(dim)]
        order = VectorLex(tuple(range(draw(st.sampled_from([dim, dim, 2])))))
    rows = [[cell() for _ in range(n)]
            for _ in range(draw(st.integers(1, 3 * datasets.BIND_ROWS + 2)))]
    mu = capacity_family("cardinality", draw(st.sampled_from([n, n, n % 4 + 1])))
    return parse_dataset(json.dumps(rows), kind), mu, order


def _refusal(call):
    """The type and text of what ``call()`` raises, or None."""
    try:
        call()
    except ChoquetlikeError as exc:
        return type(exc), str(exc)
    return None


class TestDatasets:
    def test_csv_parse(self):
        ds = parse_dataset("0.2,0.5,0.9\n0.1,0.1,0.4\n", "scalar")
        assert ds.n == 3 and ds.ids == ("0", "1")
        assert ds.rows == ((Scalar(0.2), Scalar(0.5), Scalar(0.9)),
                           (Scalar(0.1), Scalar(0.1), Scalar(0.4)))

    def test_json_parse_intervals(self):
        ds = parse_dataset("[[[0.2, 0.4], [0.5, 0.7]], [[0, 0], [1, 1.0]]]",
                           "interval")
        assert ds.n == 2 and ds.ids == ("0", "1")
        assert ds.rows == ((Interval(0.2, 0.4), Interval(0.5, 0.7)),
                           (Interval(0.0, 0.0), Interval(1.0, 1.0)))

    def test_json_parse_vectors_with_ids(self):
        ds = parse_dataset('{"kind": "vector", "ids": ["a", 7], '
                           '"rows": [[[0.2, 0.4], [0.5, 0.7]], [[0, 0], [1, 1]]]}',
                           "vector")
        assert ds.n == 2
        assert ds.rows == ((Vector((0.2, 0.4)), Vector((0.5, 0.7))),
                           (Vector((0.0, 0.0)), Vector((1.0, 1.0))))
        assert ds.ids == ("a", "7")

    def test_malformed_inputs(self):
        with pytest.raises(DatasetFormatError):
            parse_dataset("[[0.2, 0.4], [0.5]]", "interval")
        with pytest.raises(DatasetFormatError):
            parse_dataset("[]", "interval")
        with pytest.raises(DatasetFormatError):
            parse_dataset('[[[0.1,0.2],[0.3,0.4]],[[0.1,0.2]]]', "interval")
        with pytest.raises(DatasetFormatError):
            parse_dataset('{"rows": [[[0.1, 0.2], [0.3, 0.4]]], "ids": 5}', "interval")
        with pytest.raises(DatasetFormatError):
            parse_dataset("[[]]", "interval")
        # An id is a JSON string or an integer; anything else is named by
        # its index.
        for ids, where in (("[null]", "id 0"), ('["a", true]', "id 1"),
                           ('["a", "b", {"a": 1}]', "id 2"), ('[1.0]', "id 0"),
                           ('[["a"]]', "id 0")):
            with pytest.raises(DatasetFormatError, match=where):
                parse_dataset('{"rows": [[0.1], [0.2], [0.3]], "ids": %s}' % ids,
                              "scalar")
        # A JSON cell is a number, or a list of numbers (two for an
        # interval); strings, booleans and objects are refused where they sit.
        for text, kind, where in (
                ('[[{"0.1": 5, "0.2": 6}]]', "interval", "row 0, column 0"),
                ('[[[0.1, 0.2], ["0.3", "0.4"]]]', "interval", "row 0, column 1"),
                ('[[0.1, 0.2], ["0.5", true]]', "scalar", "row 1, column 0"),
                ('[[[0.1, 0.2]], [[true, "0.5"]]]', "vector", "row 1, column 0"),
                ('[[[0.1, 0.2], [0.3, 0.4, 0.5]]]', "interval", "row 0, column 1"),
                ('[[0.5, false]]', "scalar", "row 0, column 1"),
                # Cells the element constructors refuse, or no float can hold.
                ("0.1,-0.5\n", "scalar", "row 0, column 1"),
                ("0.1,nan\n", "scalar", "row 0, column 1"),
                ("[[[0.5, 0.2]]]", "interval", "row 0, column 0"),
                ("[[[0.1, -0.2]]]", "interval", "row 0, column 0"),
                ("0.2,oops\n", "scalar", "row 0, column 1"),
                ("0.1,0.2\n\n0.3,-0.5\n", "scalar", "row 1, column 1"),  # blank rows skipped
                ("[[0.1, 0.2], [0.3, 1%s]]" % ("0" * 400), "scalar", "row 1, column 1"),
                # Of two bad cells in a row, the first in column order is named.
                ('[[-0.5, "x"]]', "scalar", "row 0, column 0"),
                ('[[[0.5, 0.2], ["a", 1]]]', "interval", "row 0, column 0"),
                # Text that is not JSON.
                ("[[0.1, 0.2]", "scalar", "bad JSON"),
                # A row that is not a list of cells.
                ("[5]", "scalar", r"row 0 \(0-based\): 5 is not a list of cells"),
                ("[[0.1, 0.2], 5]", "scalar", r"row 1 \(0-based\): 5 is not a list"),
                # Rows of another arity, and cells of another carrier dimension.
                ("0.1,0.2\n0.3\n", "scalar", r"row 1 \(0-based\)"),
                # Cells are refused as rows are read, and row lengths compared
                # after: a bad cell in a later row is named before a short row.
                ("0.1,0.2\n0.3\n0.5,x\n", "scalar", "row 2, column 1"),
                ('[[[0.1, 0.2]], [[0.1]]]', "vector", "row 1, column 0"),
                ('[[[0.1, 0.2], [0.3]]]', "vector", "row 0, column 1")):
            with pytest.raises(DatasetFormatError, match=where):
                parse_dataset(text, kind)
        # The whole message of a refused cell in the last column of a row.
        for text, kind, message in (
                ("0.1,0.2,0.3,0.4,-0.5\n", "scalar",
                 "row 0, column 4 (0-based): scalar value must be nonnegative, "
                 "got -0.5"),
                ("0.1,0.2,0.3,0.4,0.5\n0.1,0.2,0.3,0.4,x\n", "scalar",
                 "row 1, column 4 (0-based): could not convert string to float: 'x'"),
                ("[[[0.1, 0.2], [0.1, 0.2], [0.1, 0.2], [0.1, 0.2], [0.5, 0.2]]]",
                 "interval",
                 "row 0, column 4 (0-based): interval endpoints out of order: "
                 "[0.5, 0.2]"),
                ('[[0.1, 0.2, 0.3, 0.4, "0.5"]]', "scalar",
                 "row 0, column 4 (0-based): '0.5' is not a number"),
                ("[[[0.1, 0.2], [0.1]]]", "interval",
                 "row 0, column 1 (0-based): [0.1] is not a list of two numbers"),
                ('[[[0.1, 0.2], [0.1, "x"]]]', "vector",
                 "row 0, column 1 (0-based): [0.1, 'x'] is not a list of numbers")):
            with pytest.raises(DatasetFormatError) as exc:
                parse_dataset(text, kind)
            assert str(exc.value) == message

    @pytest.mark.parametrize("text,kind,where", [
        ("0.1,0.2\n0.1,1.5\n", "scalar", "row 1, column 1"),
        ("0.1,inf\n", "scalar", "row 0, column 1"),
        ("[[[0.2, 0.4], [0.5, 1.2]]]", "interval", "row 0, column 1"),
    ])
    def test_out_of_range_inputs_rejected_on_load(self, text, kind, where):
        with pytest.raises(DatasetFormatError, match=where):
            parse_dataset(text, kind)

    @pytest.mark.parametrize("text,kind", [
        ('{"kind": "interval", "rows": [[[0.1, 0.2], [0.3, 0.4]]]}', "scalar"),
        ('{"kind": "bogus", "rows": [[0.1, 0.2]]}', "scalar"),
        ('{"kind": "vector", "rows": [[[0.1, 0.2], [0.3, 0.4]]]}', "interval"),
        ('{"kind": "interval", "rows": [[[0.1, 0.2], [0.3, 0.4]]]}', "vector"),
        ('{"kind": null, "rows": [[0.1, 0.2]]}', "scalar"),
    ], ids=["interval-as-scalar", "bogus-as-scalar", "vector-as-interval",
            "interval-as-vector", "null-as-scalar"])
    def test_a_json_kind_other_than_the_callers_is_refused(self, text, kind):
        # The carrier kind is the caller's: a file's "kind" may only repeat it.
        with pytest.raises(DatasetFormatError) as exc:
            parse_dataset(text, kind)
        assert str(exc.value) == (f"dataset kind {json.loads(text)['kind']!r}, "
                                  f"expected {kind!r}")

    def test_default_row_ids(self):
        ds = parse_dataset("0.5,0.5\n", "scalar")
        assert ds.ids == ("0",)

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(_csv_texts(), _json_texts()))
    @example(("0.1,x\n0.2\n", "scalar"))  # a short row after a bad cell
    @example(("0.1,0.2\n0.2\n0.3,1.5\n", "scalar"))  # the first misfit row wins
    @example(("\r\n \r\n\"-0.0\",\"1.0000000000001\"\r\n-1e-13,0.5\r\n", "scalar"))
    @example(('[[[0.1, 0.2]], [[0.1, NaN]], [[0.1, 0.2, 0.3]]]', "vector"))
    @example(('[[0.5, 0.25], [0.5, true]]', "scalar"))  # a bool in a later row
    @example(('{"rows": [[[0.1, 0.2]], [[0.3, 1e400]]], "ids": ["a"]}', "interval"))
    # Faults of row 0, which sets the shape: no cells (named after a bad
    # cell in a later row), cells of mixed dimensions, and a refused cell
    # after blank and whitespace-only lines.
    @example(("[[], [0.5, 0.5]]", "scalar"))
    @example(("[[], [0.5, -0.5], [0.5]]", "scalar"))
    @example(('{"rows": [[], []], "ids": ["a"]}', "interval"))
    @example(("[[[0.1, 0.2], [0.3]], [[0.1, 0.2], [0.3, 0.4]]]", "vector"))
    @example(("[[[0.1], [0.2, 0.3]], [[0.1], [0.2, 1.5]]]", "vector"))
    @example(("[[[]], [[0.5]]]", "vector"))
    @example(("\n \n , \n\t\n0.5,-0.5\n0.5,0.5\n", "scalar"))
    @example(("\r\n\r\n0.5,x\r\n", "scalar"))
    @example(("\n \n0.5,1.5\n0.5\n", "scalar"))
    @_with_examples(_LONG_CASES + _BLANK_CASES)
    def test_streamed_load_equals_parse_and_the_reference(self, case):
        """``load_dataset`` streams the file and ``parse_dataset`` reads its
        text: both give the rows, ids and refusal messages of a whole-text
        reference that builds every cell with the element constructors, and
        the file is closed whether the dataset is refused or not."""
        text, kind = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "rows")
            path.write_bytes(text.encode("utf-8"))
            opened = []

            def recording_open(*args, **kwargs):
                opened.append(open(*args, **kwargs))
                return opened[-1]

            with mock.patch.object(datasets, "open", recording_open, create=True):
                loaded = _outcome(lambda: load_dataset(str(path), kind))
            assert len(opened) == 1 and opened[0].closed
            read = path.read_text(encoding="utf-8")  # universal newlines, as open()
        assert loaded == _outcome(lambda: parse_dataset(read, kind))
        assert loaded == _reference(read, kind)

    def test_a_valid_dataset_is_taken_in_bulk_alone(self, monkeypatch):
        # Only a refused chunk reaches the element constructors, which name
        # the fault; row 0 is taken like any other row.
        def refused(*args):
            raise AssertionError("a valid dataset reached the per-row code")
        monkeypatch.setattr(datasets, "_elements", refused)
        for kind in ("scalar", "interval", "vector"):
            monkeypatch.setitem(order._CARRIERS, kind,
                                carrier(kind)._replace(from_json=refused))
        for text, kind, shape in (
                ("\n \n0.25,0.5\n\n , \n0.5,1\n", "scalar", (2, 1, 2)),
                ("[[0.25, 0.5, 0]]", "scalar", (3, 1, 1)),
                ('{"ids": ["a"], "rows": [[[0.1, 0.2], [0.3, 0.4]]]}', "interval", (2, 2, 1)),
                ("[[[0.1, 0.2, 0.3]], [[0.5, 0.5, 0.5]]]", "vector", (1, 3, 2))):
            ds = parse_dataset(text, kind)
            assert (ds.n, ds.dim, len(ds)) == shape
        long_rows = [[[0.25, 0.5], [0.0, 1.0]]] * (2 * datasets.CHUNK_ROWS + 3)
        assert len(parse_dataset(json.dumps(long_rows), "interval")) == len(long_rows)

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(_csv_texts(), _json_texts()))
    def test_iteration_builds_each_row_from_its_components(self, case):
        """Iterating a dataset gives, row by row, the elements that its
        carrier's ``make`` builds from each cell's slice of ``data``."""
        text, kind = case
        try:
            ds = parse_dataset(text, kind)
        except DatasetFormatError:
            return
        make, width = carrier(kind).make, ds.n * ds.dim
        expected = [[make(tuple(ds.data[at:at + ds.dim]))
                     for at in range(start, start + width, ds.dim)]
                    for start in range(0, len(ds.data), width)]
        got = list(ds)
        assert all(type(row) is tuple for row in got)
        assert ([[(type(el), *map(float.hex, el.components)) for el in row] for row in got]
                == [[(type(el), *map(float.hex, el.components)) for el in row]
                    for row in expected])

    @settings(deadline=None, max_examples=100)
    @given(_bindings())
    def test_binding_rows_gives_each_rows_input(self, case):
        """``inputs`` gives, field by field, ``AggregationInput(row, mu,
        order, addop)`` of every row, or refuses as its constructor does."""
        ds, mu, order = case
        addop = addition_for(ds.kind)
        refusal = _refusal(lambda: [AggregationInput(row, mu, order, addop) for row in ds])
        assert _refusal(lambda: ds.inputs(mu, order, addop)) == refusal
        if refusal is not None:
            return
        got = list(ds.inputs(mu, order, addop))
        assert len(got) == len(ds)
        for inp, row in zip(got, ds):
            expected = AggregationInput(row, mu, order, addop)
            assert type(inp) is AggregationInput and type(inp.X) is tuple
            assert ([(type(el), *map(float.hex, el.components)) for el in inp.X]
                    == [(type(el), *map(float.hex, el.components)) for el in expected.X])
            assert inp.mu is mu and inp.order is order and inp.addop is addop

    def test_a_dataset_without_rows_binds_no_inputs(self):
        ds = datasets.Dataset("scalar", 2, 1, array("d"))
        assert list(ds.inputs(capacity_family("cardinality", 2), ScalarUsual(),
                              addition_for("scalar"))) == []

    @pytest.mark.parametrize("text,kind,order,n,refusal", [
        ("0.5\n0.25\n", "scalar", ScalarUsual(), 1,
         (BadParameter, "aggregation needs at least two inputs")),
        (json.dumps([[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]] * 30), "vector",
         VectorLex((0, 1)), 2, (KindMismatch, "vector dimension does not match the order")),
        ("0.5,0.25\n" * 30, "scalar", ScalarUsual(), 3,
         (BadParameter, "capacity is on [3] but there are 2 inputs")),
    ], ids=["one-column", "3d-vectors-under-veclex:1,2", "capacity-of-another-arity"])
    def test_binding_refuses_as_row_0s_constructor(self, text, kind, order, n, refusal):
        ds, mu = parse_dataset(text, kind), capacity_family("cardinality", n)
        addop = addition_for(kind)
        assert _refusal(lambda: AggregationInput(ds.rows[0], mu, order, addop)) == refusal
        assert _refusal(lambda: ds.inputs(mu, order, addop)) == refusal

    @pytest.mark.parametrize("text,line", [
        ("0.5,0.2\n0.5," + "1" * 200_000 + "\n", 2),  # past csv's field limit
        ("0.5,0.2\n0.1,0\r3\n", 2),  # a lone CR: a file read would make it a newline
    ])
    def test_text_the_csv_reader_refuses(self, text, line):
        with pytest.raises(DatasetFormatError, match=f"bad CSV, line {line}: "):
            parse_dataset(text, "scalar")

    @pytest.mark.parametrize("fault", [b"0.5," + b"1" * 200_000 + b"\n", b"\xff\n"],
                             ids=["csv-error", "undecodable"])
    def test_a_bad_cell_is_named_before_a_fault_past_its_chunk(self, tmp_path, fault):
        # The bad cell is the last row of a chunk; the fault lies in a later
        # chunk, one read buffer (8 KiB, about 900 rows) past it.
        chunk = datasets.CHUNK_ROWS
        rows = ["0.25,0.5\n"] * (chunk + 1000)
        rows[chunk] = "0.25,x\n"
        path = tmp_path / "rows.csv"
        path.write_bytes("".join(rows).encode() + fault + b"0.25,0.5\n")
        with pytest.raises(DatasetFormatError, match=f"row {chunk}, column 1"):
            load_dataset(str(path), "scalar")
        if not fault.startswith(b"\xff"):
            with pytest.raises(DatasetFormatError, match=f"row {chunk}, column 1"):
                parse_dataset(path.read_text(), "scalar")

    def test_undecodable_bytes_after_a_bad_cell(self, tmp_path):
        # Rows are decoded as they are read: a bad cell a read buffer (8 KiB)
        # ahead of undecodable bytes is named first. A misfit row is named
        # only after the last row, so the bytes come first after it.
        good = "0.25,0.5\n" * 2000
        path = tmp_path / "rows.csv"
        path.write_bytes(("0.25,x\n" + good).encode() + b"\xff\n")
        with pytest.raises(DatasetFormatError, match="row 0, column 1"):
            load_dataset(str(path), "scalar")
        for head in ("0.25,0.5\n", "0.25\n"):
            path.write_bytes((head + good).encode() + b"\xff\n")
            with pytest.raises(UnicodeDecodeError):
                load_dataset(str(path), "scalar")



@pytest.fixture
def scalar_files(tmp_path):
    data = tmp_path / "rows.csv"
    data.write_text("0.2,0.5,0.9\n0.0,0.0,0.0\n0.25,0.5,0.75\n")
    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps({"n": 3, "kind": "cardinality"}))
    out = tmp_path / "out.json"
    return data, cap, out


_TABLE3 = {"n": 3, "kind": "table", "entries": [
    {"subset": [], "value": 0}, {"subset": [1], "value": 0.1},
    {"subset": [2], "value": 0.35}, {"subset": [3], "value": 0.2},
    {"subset": [1, 2], "value": 0.6}, {"subset": [1, 3], "value": 0.45},
    {"subset": [2, 3], "value": 0.7}, {"subset": [1, 2, 3], "value": 1}]}
_TIED_CSV = "0.2,0.5,0.5\n0.3,0.3,0.3\n0.1,0.7,0.4\n"

# Each case: input file text, capacity, and the options after them. The
# exit code and exact stdout of each are in data/aggregate_golden.json.
AGGREGATE_CASES = {
    "scalar-csv-ties": (_TIED_CSV, _TABLE3, []),
    "interval-json-ids-b-scale-d": (
        json.dumps({"kind": "interval", "ids": ["a", "b"],
                    "rows": [[[0.1, 0.3], [0.2, 0.2], [0.1, 0.3]],
                             [[0.0, 0.9], [0.45, 0.45], [0.3, 0.6]]]}),
        _TABLE3, ["--order", "ab:0.5:1",
                  "--kernel", '{"family": "b-scale-d", "d": "abs-diff"}']),
    "vector-json-affine-f": (
        json.dumps([[[0.2, 0.4], [0.3, 0.4], [0.1, 0.9]],
                    [[0.6, 0.5], [0.6, 0.5], [0.0, 0.5]]]),
        _TABLE3, ["--order", "veclex:2,1", "--kernel",
                  '{"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"}']),
    "scalar-sq-diff-tied-exit-two": (
        _TIED_CSV, _TABLE3,
        ["--kernel", '{"family": "delta-scale", "delta": "sq-diff"}']),
    "scalar-csv-format": (_TIED_CSV, _TABLE3, ["--format", "csv"]),
    # A one-coordinate vector is written as a list, not as a bare float.
    "vector-one-coordinate-veclex-1": (
        json.dumps([[[0.2], [0.5], [0.9]], [[0.0], [0.0], [0.0]], [[0.3], [0.3], [0.7]]]),
        _TABLE3, ["--order", "veclex:1"]),
    "scalar-csv-negative-zero": ("-0.0,0.5,0.25\n-0.0,-0.0,-0.0\n0.0,-0.0,1\n",
                                 _TABLE3, []),
}


# Capacities refused by their parse; each is also run on a dataset with
# one column per input, where the arity comparison lets it through.
MALFORMED_CAPACITIES = [
    {"n": 2, "entries": [1, 2]},
    {"n": 2, "entries": [{"subset": 1, "value": 0.5}]},
    [{"n": 2, "kind": "cardinality"}],
    {"n": None},
    {"n": 2, "kind": "dirac", "i": None},
    {"n": 2, "entries": 3},
    {"n": 2, "entries": [{"subset": [0], "value": 0.5}]},
    {"n": 2, "entries": [{"subset": [1, -1], "value": 0.5}]},
    {"n": 2, "entries": [{"subset": [3], "value": 0.5}]},
    {"n": 2, "entries": [{"subset": [1, 1], "value": 0.5}]},
    {"n": 1, "entries": [{"subset": [True], "value": True},
                         {"subset": [], "value": False}]},
    {"n": 1, "entries": [{"subset": [1], "value": 1},
                         {"subset": [], "value": False}]},
    {"n": 2, "entries": [{"subset": [1], "value": int("9" * 400)}]},
    {"n": 2, "entries": [{"subset": [int("9" * 400)], "value": 0.5}]},
    {"n": 3, "entries": [{"subset": [1], "value": 0.4}], "complete": "false"},
    {"n": 3, "entries": [{"subset": [1], "value": 0.4}], "complete": [0]},
]


class TestAggregateCommand:
    @pytest.mark.parametrize("case", sorted(AGGREGATE_CASES))
    def test_output_bytes_are_pinned(self, tmp_path, capsys, case):
        """Indentation, key order, float repr, ids and ``permutations`` of
        ``aggregate`` stdout, byte for byte."""
        rows, capacity, options = AGGREGATE_CASES[case]
        data = tmp_path / "rows"
        data.write_text(rows)
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps(capacity))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)]
                    + options)
        golden = json.loads((Path(__file__).parent / "data"
                             / "aggregate_golden.json").read_text())[case]
        assert code == golden["exit"]
        assert capsys.readouterr().out.encode() == golden["stdout"].encode()

    @pytest.mark.parametrize("done", [
        [("0", Scalar(0.5), True, 1)],
        [("a", Interval(0.1, 0.30000000000000004), True, 1),
         ("b", Interval(0.0, 0.0), False, 4)],
        [("1-d", Vector((0.25,)), True, 1), ("3-d", Vector((0.1, 0.2, 1 / 3)), True, 6)],
        [("-0", Scalar(-0.0), True, 1), ("tiny", Scalar(5e-324), True, 1),
         ("big", Scalar(1e16), True, 1), ("sum", Scalar(1.25), False, 2),
         ("wide", Interval(0.5, 1.5), True, 1), ("far", Vector((2.0, 1e16)), True, 1)],
        [('q"uote', Scalar(0.1), True, 1), ("back\\slash", Scalar(0.2), True, 1),
         ("n\u00e4\u4e2d\U0001f600", Scalar(0.3), False, 3),
         ("\n\t\x00\x7f", Scalar(1.0), True, 1)],
    ])
    def test_json_writer_matches_json_dumps(self, done):
        """The per-row template gives the bytes of ``json.dumps(indent=2)``."""
        records = ((row_id, value.to_json(), consistent, value.in_unit, permutations)
                   for row_id, value, consistent, permutations in done)
        assert "".join(_results_json(records)) == json.dumps({"results": [
            {"id": row_id, "value": value.to_json(), "consistent": consistent,
             "in_K": value.in_unit, "permutations": permutations}
            for row_id, value, consistent, permutations in done]}, indent=2)

    def test_stdout_is_json_dumps_of_its_records(self, tmp_path, capsys):
        # Ids with a quote, a backslash and non-ASCII characters, a tied row
        # the sq-diff kernel aggregates inconsistently, and an integer id.
        data = tmp_path / "rows.json"
        data.write_text(json.dumps({"kind": "scalar",
                                    "ids": ['say "hi"', "C:\\tmp", "\u00e9t\u00e9", 12],
                                    "rows": [[0.2, 0.5, 0.5], [0.3, 0.3, 0.3],
                                             [0.1, 0.7, 0.4], [0.9, 0.0, 1.0]]}))
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps(_TABLE3))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", '{"family": "delta-scale", "delta": "sq-diff"}'])
        assert code == 2
        out = capsys.readouterr().out
        results = json.loads(out)["results"]
        assert out == json.dumps({"results": results}, indent=2) + "\n"
        assert [r["id"] for r in results] == ['say "hi"', "C:\\tmp", "\u00e9t\u00e9", "12"]
        assert [r["permutations"] for r in results] == [2, 6, 1, 1]
        assert [r["consistent"] for r in results] == [False, False, True, True]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_file_is_stdout_without_the_newline(self, scalar_files, capsys,
                                                       fmt):
        """``--output`` gets the text that stdout gets, less the newline that
        ends stdout when the text does not end in one (JSON)."""
        data, cap, out = scalar_files
        argv = ["aggregate", "--input", str(data), "--capacity", str(cap),
                "--format", fmt]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert main(argv + ["--output", str(out)]) == 0
        written = out.read_bytes().decode()
        assert capsys.readouterr().out == ""
        if fmt == "json":
            assert stdout == written + "\n"
        else:
            assert stdout == written and written.endswith("\r\n")

    def test_error_in_the_last_row_writes_nothing(self, tmp_path, capsys):
        # Rows 0 and 1 aggregate; row 2 has 17 tied inputs, which sq-diff
        # must walk, and is refused.
        data = tmp_path / "rows.csv"
        data.write_text("".join(",".join([str((i + r) / 40) for i in range(17)]) + "\n"
                                for r in range(2)) + ",".join(["0.5"] * 17) + "\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 17, "kind": "cardinality"}))
        out = tmp_path / "out.json"
        for output in (["--output", str(out)], []):
            code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                         "--kernel", SQ_DIFF] + output)
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert json.loads(captured.err)["error"]["type"] == "TooManyTies"

    def test_memory_per_row(self, tmp_path):
        """``aggregate`` keeps a few floats per row, not the row's elements or
        result objects: its tracemalloc peak grows by at most 200 bytes per
        row from 1k to 6k CSV rows (about 1,000 when every row was held as
        objects). Under tracemalloc a row takes about five times as long."""
        rng = random.Random(7)
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 5, "kind": "cardinality"}))
        peaks = []
        for rows in (1000, 6000):
            data = tmp_path / f"rows-{rows}.csv"
            data.write_text("".join(",".join(str(rng.random()) for _ in range(5)) + "\n"
                                    for _ in range(rows)))
            tracemalloc.start()
            try:
                assert main(["aggregate", "--input", str(data), "--capacity", str(cap),
                             "--output", str(tmp_path / "out.json")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 5000 <= 200

    def test_csv_field_past_the_reader_limit_exit_one(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        data.write_text("0.5," + "1" * 200_000 + "\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "cardinality"}))
        assert main(["aggregate", "--input", str(data), "--capacity", str(cap)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {
            "type": "DatasetFormatError",
            "message": "bad CSV, line 1: field larger than field limit (131072)"}

    def test_id_that_is_no_string_or_integer_exit_one(self, tmp_path, capsys):
        data = tmp_path / "rows.json"
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 1, "kind": "cardinality"}))
        for ids in ([None, "b"], ["a", True], ["a", {"a": 1}], [1.5, "b"]):
            data.write_text(json.dumps({"kind": "scalar", "ids": ids,
                                        "rows": [[0.1], [0.2]]}))
            code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)["error"]
            assert err["type"] == "DatasetFormatError"
            bad = 0 if ids[0] != "a" else 1
            assert err["message"] == (f"id {bad} (0-based): {ids[bad]!r} is not "
                                      "a string or an integer")

    def test_scalar_rows_match_reference_sums(self, scalar_files):
        data, cap, out = scalar_files
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--order", "scalar", "--output", str(out)])
        assert code == 0
        results = json.loads(out.read_text())["results"]
        mu = capacity_family("cardinality", 3)
        of = mu_lookup(mu)
        rows = [(0.2, 0.5, 0.9), (0.0, 0.0, 0.0), (0.25, 0.5, 0.75)]
        for rec, row in zip(results, rows):
            assert rec["value"] == pytest.approx(
                classical_choquet_increments(row, of), abs=1e-12)
            assert rec["consistent"] and rec["in_K"]
        assert results[1]["value"] == 0.0  # all-zero row stays at the bottom

    def test_interval_rows(self, tmp_path):
        data = tmp_path / "rows.json"
        data.write_text(json.dumps([[[0.2, 0.4], [0.5, 0.7]]]))
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "table", "entries": [
            {"subset": [], "value": 0}, {"subset": [1], "value": 0.5},
            {"subset": [2], "value": 0.5}, {"subset": [1, 2], "value": 1}]}))
        out = tmp_path / "out.json"
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--order", "ab:0.5:1", "--output", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())["results"][0]
        assert rec["value"] == pytest.approx([0.35, 0.55])
        assert rec["in_K"]

    def test_csv_output_format(self, scalar_files):
        data, cap, out = scalar_files
        out = out.with_suffix(".csv")
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--output", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_bytes() == (b"id,value,consistent,in_K,permutations\r\n"
                                    b"0,0.5333333333333333,True,True,1\r\n"
                                    b"1,0.0,True,True,6\r\n"
                                    b"2,0.5,True,True,1\r\n")

    def test_inconsistent_rows_exit_two(self, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("0.5,0.5\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "table", "entries": [
            {"subset": [], "value": 0}, {"subset": [1], "value": 0.2},
            {"subset": [2], "value": 0.7}, {"subset": [1, 2], "value": 1}]}))
        out = tmp_path / "out.json"
        kernel = json.dumps({"family": "delta-scale", "delta": "sq-diff"})
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", kernel, "--output", str(out)])
        assert code == 2
        rec = json.loads(out.read_text())["results"][0]
        assert rec["consistent"] is False and rec["permutations"] == 2
        assert rec["value"] == pytest.approx(0.29)  # value still written

    def test_parse_error_exit_one(self, scalar_files, capsys):
        data, cap, out = scalar_files
        code = main(["aggregate", "--input", "/no/such/file.csv",
                     "--capacity", str(cap)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DatasetFormatError"

    def test_bad_capacity_exit_one(self, scalar_files, capsys):
        data, cap, out = scalar_files
        cap.write_text(json.dumps({"n": 3, "kind": "table", "entries": [
            {"subset": [], "value": 0.5}]}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().err)

    # Data is taken exactly: a capacity value or a cell within 1e-12 outside
    # [0, 1] is refused with its place, not snapped.
    @pytest.mark.parametrize("rows,capacity,error,message", [
        ("0.2,0.5\n", '{"n": 2, "entries": [{"subset": [], "value": 0}, '
         '{"subset": [1], "value": 0.5}, {"subset": [2], "value": 0.5}, '
         '{"subset": [1, 2], "value": 1.0000000000005}]}',
         "BadParameter", "capacity value out of [0, 1]: 1.0000000000005"),
        ("0.2,0.5\n0.3,1.0000000000001\n", '{"n": 2, "kind": "cardinality"}',
         "DatasetFormatError",
         "row 1, column 1 (0-based): Scalar(value=1.0000000000001) lies outside [0, 1]"),
        ("-1e-13,0.5\n", '{"n": 2, "kind": "cardinality"}', "DatasetFormatError",
         "row 0, column 0 (0-based): scalar value must be nonnegative, got -1e-13"),
    ], ids=["capacity-above-one", "cell-above-one", "cell-below-zero"])
    def test_data_within_tolerance_outside_the_domain_exit_one(
            self, tmp_path, capsys, rows, capacity, error, message):
        data, cap = tmp_path / "rows.csv", tmp_path / "cap.json"
        data.write_text(rows)
        cap.write_text(capacity)
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and "Traceback" not in captured.err
        err = json.loads(captured.err)["error"]
        assert (err["type"], err["message"]) == (error, message)


    @pytest.mark.parametrize("capacity", MALFORMED_CAPACITIES)
    def test_malformed_capacity_exit_one(self, scalar_files, capsys, capacity):
        data, cap, out = scalar_files
        cap.write_text(json.dumps(capacity))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParameter"

    @pytest.mark.parametrize("capacity", MALFORMED_CAPACITIES)
    def test_malformed_capacity_of_the_dataset_arity_exit_one(self, tmp_path, capsys,
                                                              capacity):
        # With one column per input, the capacity's own parse refuses it,
        # not the arity comparison that runs first.
        n = capacity.get("n") if isinstance(capacity, dict) else None
        data = tmp_path / "rows.csv"
        data.write_text(",".join(["0.5"] * (n if isinstance(n, int) else 2)) + "\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps(capacity))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParameter"
        assert "capacity is on" not in err["error"]["message"]

    @pytest.mark.parametrize("spec,error", [
        ({"family": "b-scale-d", "d": 3}, "BadParameter"),
        ({"family": "delta-scale", "delta": [1]}, "BadParameter"),
        ({"family": "delta-scale", "delta": {"a": 1}}, "BadParameter"),
        ({"family": "affine-F", "C": [1], "D": "zero"}, "BadParameter"),
        ({"family": "custom", "name": [1]}, "UnknownKernel"),
        ({"family": "custom", "name": "x"}, "UnknownKernel"),
        ("my-kernel", "UnknownKernel"),
        ({"family": "affine-F", "C": "scale:2", "D": "zero"}, "ScaleOutOfRange"),
    ])
    def test_malformed_kernel_spec_exit_one(self, scalar_files, capsys, spec, error):
        # A bare string names a family; no other kernel has a name here.
        data, cap, out = scalar_files
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", spec if isinstance(spec, str) else json.dumps(spec)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == error
        if error == "UnknownKernel":
            family = spec if isinstance(spec, str) else spec["family"]
            assert err["error"]["message"] == f"unknown kernel family: {family!r}"

    def test_vector_order_of_another_dimension_exit_one(self, tmp_path, capsys):
        # Every row has distinct inputs, so no row needs a tie check.
        data = tmp_path / "rows.json"
        data.write_text(json.dumps([[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
                                    [[0.9, 0.1, 0.1], [0.2, 0.8, 0.8]]]))
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "cardinality"}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--order", "veclex:1,2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "KindMismatch"
        assert err["message"] == "vector dimension does not match the order"

    def test_kernel_range_error_exit_one(self, tmp_path, capsys):
        # The last term is F(1, 1) = 0.7 + 0.4 under a point mass on input 2.
        data = tmp_path / "rows.csv"
        data.write_text("0.2,1.0\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "dirac", "i": 2}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", json.dumps({"family": "affine-F", "C": "scale:0.7",
                                             "D": "scale:0.4"})])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "KernelRangeError"

    @pytest.mark.parametrize("kernel", ["delta-scale", '{"family": "b-scale-d"}', SQ_DIFF])
    def test_tie_group_above_limit(self, tmp_path, capsys, kernel):
        # Only a row that walks is held to the tie limit: the default kernel
        # and b-scale-d certify 17 identical inputs, sq-diff must walk them.
        data = tmp_path / "rows.csv"
        data.write_text(",".join(["0.4"] * 17) + "\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 17, "kind": "cardinality"}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--kernel", kernel])
        captured = capsys.readouterr()
        if kernel == SQ_DIFF:
            assert code == 1
            assert json.loads(captured.err)["error"]["type"] == "TooManyTies"
        else:
            assert code == 0
            assert json.loads(captured.out)["results"] == [
                {"id": "0", "value": 0.4, "consistent": True, "in_K": True,
                 "permutations": math.factorial(17)}]

    def test_permutation_count_past_64_bits_is_written(self, tmp_path, capsys, monkeypatch):
        # An all-tied certified row of 21 to 24 inputs has 21! or more
        # permutations, past 2^63 - 1; a capacity on 2^21 subsets is too
        # large to build here, so the library call is stood in for.
        data = tmp_path / "rows.csv"
        data.write_text("0.4,0.4\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "cardinality"}))
        monkeypatch.setattr(cli, "choquet_aggregate", lambda inp, kernel: AggregateResult(
            Scalar(0.4), True, math.factorial(21), 1))
        assert main(["aggregate", "--input", str(data), "--capacity", str(cap)]) == 0
        out = capsys.readouterr().out
        assert '"permutations": 51090942171709440000\n' in out
        assert json.loads(out)["results"][0]["permutations"] == math.factorial(21)

    def test_aggregate_has_no_seed_option(self, scalar_files, capsys):
        data, cap, out = scalar_files
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--seed", "1"])
        assert code == 1
        assert "--seed" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_json_kind_other_than_the_orders_exit_one(self, tmp_path, capsys,
                                                      monkeypatch):
        # The dataset is refused when it is loaded, before a capacity is built.
        def never(obj):
            raise AssertionError("a capacity was built")
        monkeypatch.setattr(Capacity, "from_json", staticmethod(never))
        data = tmp_path / "rows.json"
        data.write_text(json.dumps({"kind": "interval",
                                    "rows": [[[0.1, 0.2], [0.3, 0.4]]]}))
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 2, "kind": "cardinality"}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap),
                     "--order", "scalar"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {
            "type": "DatasetFormatError",
            "message": "dataset kind 'interval', expected 'scalar'"}

    def test_capacity_of_the_wrong_arity_is_not_built(self, tmp_path, capsys,
                                                      monkeypatch):
        # Building a capacity costs n * 2^n; the arity is compared first.
        def never(obj):
            raise AssertionError("a capacity was built")
        monkeypatch.setattr(Capacity, "from_json", staticmethod(never))
        data = tmp_path / "rows.csv"
        data.write_text("0.2,0.5\n")
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"n": 24, "kind": "cardinality"}))
        code = main(["aggregate", "--input", str(data), "--capacity", str(cap)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "BadParameter", "message":
                                "capacity is on [24] but there are 2 inputs"}


# Each JSON object ``aggregate`` reads, with one key that nothing reads:
# (option, object, the key). Before it was refused, the misspelt kernel
# key left the classical kernel, the capacity key seed 42 and the dataset
# key the rows numbered from "0".
_ROWS = [[0.2, 0.5, 0.9], [0.1, 0.4, 0.3]]
UNKNOWN_KEYS = {
    "delta-scale": ("kernel", {"family": "delta-scale", "dleta": "sq-diff"}, "dleta"),
    "b-scale-d": ("kernel", {"family": "b-scale-d", "d": "abs-diff", "delta": "x"}, "delta"),
    "affine-F": ("kernel", {"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1",
                            "E": "zero"}, "E"),
    "cardinality": ("capacity", {"n": 3, "kind": "cardinality", "seed": 1}, "seed"),
    "dirac": ("capacity", {"n": 3, "kind": "dirac", "i": 1, "k": 2}, "k"),
    "top": ("capacity", {"n": 3, "kind": "top", "k": 2, "i": 1}, "i"),
    "uniform-random": ("capacity", {"n": 3, "kind": "uniform-random", "sed": 5}, "sed"),
    "table": ("capacity", dict(_TABLE3, completed=True), "completed"),
    "table-entry": ("capacity", dict(_TABLE3, entries=[
        dict(e, weight=1) for e in _TABLE3["entries"]]), "weight"),
    "dataset": ("dataset", {"rows": _ROWS, "idz": ["a", "b"]}, "idz"),
}


class TestUnknownKeys:
    """A JSON object key that nothing reads is refused, so a misspelt key
    never leaves its default in place."""

    @pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
    def test_library_refuses(self, case):
        option, obj, key = UNKNOWN_KEYS[case]
        error = DatasetFormatError if option == "dataset" else BadParameter
        with pytest.raises(error, match=repr(key)):
            if option == "kernel":
                kernel_catalog(obj, "scalar")
            elif option == "capacity":
                Capacity.from_json(obj)
            else:
                parse_dataset(json.dumps(obj), "scalar")

    def test_capacity_family_refuses_an_unknown_parameter(self):
        with pytest.raises(BadParameter, match="'sed'"):
            capacity_family("uniform-random", 3, sed=5)
        assert capacity_family("uniform-random", 3, seed=5) != capacity_family(
            "uniform-random", 3)

    @pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
    def test_cli_exit_one(self, tmp_path, capsys, case):
        option, obj, key = UNKNOWN_KEYS[case]
        files = {"dataset": {"rows": _ROWS}, "capacity": {"n": 3, "kind": "cardinality"}}
        kernel = obj if option == "kernel" else {"family": "delta-scale"}
        files[option] = obj
        for name, value in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(value))
        code = main(["aggregate", "--input", str(tmp_path / "dataset.json"),
                     "--capacity", str(tmp_path / "capacity.json"),
                     "--kernel", json.dumps(kernel)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == ("DatasetFormatError" if option == "dataset"
                               else "BadParameter")
        assert repr(key) in err["message"]


class TestVerifyCommand:
    def test_order_suite_passes(self, tmp_path):
        out = tmp_path / "order.json"
        code = main(["verify", "--suite", "order", "--grid", "2",
                     "--output", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert all(r["verdict"] == "pass" for r in reports)
        assert {r["suite"] for r in reports} == {"order"}

    def test_aggregation_suite_passes(self, tmp_path):
        out = tmp_path / "agg.json"
        code = main(["verify", "--suite", "aggregation", "--grid", "2",
                     "--output", str(out)])
        assert code == 0

    def test_takac_suite_reports_deliberate_failure(self, tmp_path):
        out = tmp_path / "takac.json"
        code = main(["verify", "--suite", "appendix-c", "--output", str(out)])
        assert code == 3
        reports = json.loads(out.read_text())
        assert reports[0]["verdict"] == "fail"
        assert reports[0]["witness"]["x1"] is not None

    def test_takac_suite_counts_its_search(self, tmp_path):
        out = tmp_path / "takac.json"
        main(["verify", "--suite", "appendix-c", "--output", str(out)])
        report = json.loads(out.read_text())[0]
        assert report["checked"] > 0 and report["elapsed"] >= 0.0

    def test_grid_above_max_exit_one(self, capsys, monkeypatch):
        # Refused when the grid is specified, before any grid is built.
        def never(*args):
            raise AssertionError("a grid was built")
        monkeypatch.setattr(dissimilarity, "unit_grid", never)
        monkeypatch.setattr(dissimilarity, "grid_elements", never)
        code = main(["verify", "--suite", "appendix-c", "--grid", "100000000"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert str(MAX_GRID) in err["error"]["message"]
        GridSpec("interval", MAX_GRID)
        with pytest.raises(ValueError):
            GridSpec("interval", MAX_GRID + 1)

    # The (kind, m) grids each suite builds with no --grid, with --grid 2
    # and with --grid 16. --grid replaces every default, but the scalar
    # grids of ``order`` and ``algebra`` are raised to 8.
    SUITE_GRIDS = {
        "order": ({("scalar", 8), ("interval", 4), ("vector", 4)},
                  {("scalar", 8), ("interval", 2), ("vector", 2)},
                  {("scalar", 16), ("interval", 16), ("vector", 16)}),
        "algebra": ({("scalar", 8), ("interval", 4), ("vector", 4)},
                    {("scalar", 8), ("interval", 2), ("vector", 2)},
                    {("scalar", 16), ("interval", 16), ("vector", 16)}),
        "wd": ({("scalar", 4), ("interval", 2), ("vector", 2)},
               {("scalar", 2), ("interval", 2), ("vector", 2)},
               {("scalar", 16), ("interval", 16), ("vector", 16)}),
        "monotone": ({("scalar", 4), ("interval", 2), ("vector", 2)},
                     {("scalar", 2), ("interval", 2), ("vector", 2)},
                     {("scalar", 16), ("interval", 16), ("vector", 16)}),
        "aggregation": ({("scalar", 4), ("interval", 2), ("vector", 2)},
                        {("scalar", 2), ("interval", 2), ("vector", 2)},
                        {("scalar", 16), ("interval", 16), ("vector", 16)}),
        "dissimilarity": ({("scalar", 8), ("interval", 4)},
                          {("scalar", 2), ("interval", 2)},
                          {("scalar", 16), ("interval", 16)}),
        "appendix-c": ({("interval", 8)}, {("interval", 2)}, {("interval", 16)}),
    }

    def test_suite_grids_cover_every_suite(self):
        assert list(self.SUITE_GRIDS) == list(cli.SUITES)

    @pytest.mark.parametrize("suite", sorted(SUITE_GRIDS))
    def test_suite_grids(self, suite_grids, suite):
        default, grid2, grid16 = self.SUITE_GRIDS[suite]
        assert suite_grids(suite) == default
        assert suite_grids(suite, "--grid", "2") == grid2
        assert suite_grids(suite, "--grid", "16") == grid16

    @pytest.mark.parametrize("suite", [*cli.SUITES, "all"])
    @pytest.mark.parametrize("grid", [0, MAX_GRID + 1])
    def test_grid_out_of_range_exit_one(self, capsys, suite, grid):
        # Also where a scalar grid is raised to 8: the other grids refuse it.
        code = main(["verify", "--suite", suite, "--grid", str(grid)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("flags,error", [
        (["--grid", "x"], "BadParameter"), (["--grid", "1.5"], "BadParameter"),
        (["--grid", "0"], "ValueError"), (["--n", "x"], "BadParameter"),
        (["--n", "1"], "BadParameter"), (["--n", "25"], "BadParameter"),
        (["--seed", "0.5"], "BadParameter"),
    ])
    def test_wrongly_typed_flag_exit_one(self, capsys, flags, error):
        code = main(["verify", "--suite", "wd", "--grid", "1", *flags])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == error

    def test_config_flag_is_refused(self, tmp_path, capsys):
        # Settings come from --grid and --n alone; there is no config file.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2}))
        code = main(["verify", "--suite", "order", "--config", str(cfg)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "BadParameter",
                                "message": f"unrecognized arguments: --config {cfg}"}

    def test_takac_suite_reports_its_fixed_parameters(self, tmp_path):
        out = tmp_path / "takac.json"
        code = main(["verify", "--suite", "appendix-c", "--grid", "2",
                     "--output", str(out)])
        assert code == 3
        detail = json.loads(out.read_text())[0]["detail"]
        assert {k: detail[k] for k in ("alpha", "beta", "Md", "delta_d")} == {
            "alpha": 0.5, "beta": 1.0, "Md": "max", "delta_d": "abs-diff"}

    def test_dissimilarity_suite(self, tmp_path):
        out = tmp_path / "dis.json"
        code = main(["verify", "--suite", "dissimilarity", "--grid", "4",
                     "--output", str(out)])
        assert code == 0

    @staticmethod
    def assert_all_suites_match(tmp_path, grid, snapshot):
        out = tmp_path / "all.json"
        code = main(["verify", "--suite", "all", *grid, "--output", str(out)])
        assert code == 3
        reports = json.loads(out.read_text())
        for rec in reports:
            assert rec.pop("elapsed") >= 0.0
        snapshot = Path(__file__).parent / "data" / snapshot
        assert json.dumps(reports) == json.dumps(json.loads(snapshot.read_text()))

    def test_all_suites_match_snapshot(self, tmp_path):
        """Every report of ``verify --suite all --grid 2`` but its elapsed
        time, key order included, against the stored snapshot."""
        self.assert_all_suites_match(tmp_path, ["--grid", "2"], "verify_all_grid2.json")

    def test_all_suites_match_default_grid_snapshot(self, tmp_path):
        """The same at the default grid, the only one that runs the m=4
        vector algebra checks."""
        self.assert_all_suites_match(tmp_path, [], "verify_all_default.json")

    def test_n_flag_sets_the_arity(self, tmp_path):
        out = tmp_path / "wd.json"
        argv = ["verify", "--suite", "wd", "--grid", "1", "--output", str(out)]
        for extra, n in ((["--n", "2"], 2), (["--n", "4"], 4)):
            assert main(argv + extra) == 0
            assert {r["n"] for r in json.loads(out.read_text())} == {n}

    @pytest.mark.parametrize("suite", ["wd", "monotone", "aggregation", "order", "all"])
    @pytest.mark.parametrize("n", [1, 25, 10 ** 20])
    def test_arity_beyond_any_capacity_exit_one(self, capsys, monkeypatch, suite, n):
        # No capacity exists on more than 24 inputs, and no operator on
        # fewer than 2; the arity is refused before any suite runs, also
        # by the suites that do not read it.
        def never(*args):
            raise AssertionError("a case was enumerated")
        for name in ("grid_elements", "check_cancellation", "check_compatibility"):
            monkeypatch.setattr(verifier, name, never)
        for name in ("check_admissibility", "check_commutativity", "check_associativity",
                     "check_cancellation", "check_compatibility", "check_distributivity",
                     "check_c1"):
            monkeypatch.setattr(cli, name, never)
        code = main(["verify", "--suite", suite, "--grid", "2", "--n", str(n)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParameter"
        assert f"got {n}" in err["error"]["message"]

    def test_csv_report_format(self, tmp_path):
        """Each CSV row carries the suite, law, verdict and ``checked`` of
        the matching report in the JSON output of the same command."""
        for suite, exit_code in (("order", 0), ("appendix-c", 3)):
            argv = ["verify", "--suite", suite, "--grid", "2", "--output"]
            assert main(argv + [str(tmp_path / "r.csv"), "--format", "csv"]) == exit_code
            assert main(argv + [str(tmp_path / "r.json")]) == exit_code
            header, *rows = csv.reader(io.StringIO((tmp_path / "r.csv").read_text()))
            assert header == ["suite", "law", "verdict", "checked", "elapsed"]
            reports = json.loads((tmp_path / "r.json").read_text())
            assert [row[:4] for row in rows] == [
                [r["suite"], r["law"], r["verdict"], str(r["checked"])] for r in reports]


class TestVerifyRunRecord:
    """One ``verify`` run does each enumeration once: its checks share one
    record, which the next run does not see."""

    @staticmethod
    def reports(capsys, argv):
        """The reports of ``main(argv)``, without ``elapsed``."""
        assert main(argv) in (0, 3)
        reports = json.loads(capsys.readouterr().out)
        for report in reports:
            del report["elapsed"]
        return reports

    def test_wd_terms_are_evaluated_once_per_run(self, monkeypatch, capsys):
        # Each catalog kernel counts the terms its wd enumerations evaluate,
        # per (spec, carrier, order); every enumeration is flagged while it
        # advances.
        terms, in_wd = {}, []
        catalog, wd_cases = cli.kernel_catalog, verifier._wd_cases

        def counted_catalog(spec, kind, order=None):
            kernel = catalog(spec, kind, order)
            calls = terms.setdefault((json.dumps(spec), kind, order.spec_string()), {})

            def fn(*args, _fn=kernel.fn):
                if in_wd:
                    calls[args] = calls.get(args, 0) + 1
                return _fn(*args)
            object.__setattr__(kernel, "fn", fn)
            return kernel

        def flagged_wd_cases(*args, **kwargs):
            cases = wd_cases(*args, **kwargs)
            while True:
                in_wd.append(True)
                try:
                    case = next(cases, StopIteration)
                finally:
                    in_wd.pop()
                if case is StopIteration:
                    return
                yield case

        monkeypatch.setattr(cli, "kernel_catalog", counted_catalog)
        monkeypatch.setattr(verifier, "_wd_cases", flagged_wd_cases)
        runs = []
        for argv in (["--suite", "all"], ["--suite", "all"], ["--suite", "wd"]):
            self.reports(capsys, ["verify", *argv, "--grid", "2"])
            runs.append({key: dict(calls) for key, calls in terms.items()})
            terms.clear()
        first, second, wd_alone = runs
        # 3 kernels on 3 carriers, and delta-scale on ab:0:1 as well.
        assert len(first) == 10 and ('"delta-scale"', "interval", "ab:0:1") in first
        assert all(calls and max(calls.values()) == 1 for calls in first.values())
        assert second == first  # the second run pays its own calls
        assert wd_alone == {key: first[key] for key in wd_alone}

    @pytest.mark.parametrize("flags", [["--grid", "2"], ["--n", "4", "--grid", "2"]],
                             ids=["grid-2", "n-4"])
    def test_each_suite_alone_equals_its_section_of_all(self, capsys, flags):
        every = self.reports(capsys, ["verify", "--suite", "all", *flags])
        for suite in cli.SUITES:
            alone = self.reports(capsys, ["verify", "--suite", suite, *flags])
            assert alone == [r for r in every if r["suite"] == suite]


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["aggregate", "--input", "x.csv"],
        ["verify", "--suite", "nope"],
        ["verify", "--suite", "all", "--grid", "abc"],
        ["aggregate", "--input", "x.csv", "--capacity", "cap.json", "--add", "plus"],
    ])
    def test_bad_command_line_exit_one(self, capsys, argv):
        # Exit 2 means inconsistent rows; a bad command line is a bad input.
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParameter"

    @pytest.mark.parametrize("where", ["capacity", "dataset", "kernel"])
    def test_json_nested_past_the_recursion_limit_exit_one(self, scalar_files,
                                                           capsys, where):
        data, cap, out = scalar_files
        argv = ["aggregate", "--input", str(data), "--capacity", str(cap)]
        if where == "kernel":
            argv += ["--kernel", '{"a": ' * 5000 + "1" + "}" * 5000]
        else:
            data = data.with_suffix(".json")
            data.write_text("[" * 200_000 + "]" * 200_000)
            argv[2 if where == "dataset" else 4] = str(data)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert set(err) == {"error"} and set(err["error"]) == {"type", "message"}
        # The type other bad JSON of that input gets.
        assert err["error"]["type"] == {"capacity": "JSONDecodeError",
                                        "dataset": "DatasetFormatError",
                                        "kernel": "JSONDecodeError"}[where]

    @pytest.mark.parametrize("argv", [["--help"], ["aggregate", "--help"],
                                      ["verify", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestTracedNames:
    """The traced benchmark times each layer by putting a wrapper in place
    of one of these module globals. A command that stops calling one
    through its module loses that layer's metrics without failing, so the
    calls each command makes are pinned here."""

    NAMES = ["cli.load_dataset", "cli.choquet_aggregate", "cli.check_admissibility",
             "cli.check_dissimilarity", "cli.check_telescoping",
             "cli.takac_counterexample", "cli.check_commutativity",
             "cli.check_associativity", "cli.check_cancellation",
             "cli.check_compatibility", "cli.check_distributivity", "cli.check_c1",
             "verifier.check_wd", "verifier.check_monotonicity",
             "verifier.check_aggregation"]

    def _counted(self, monkeypatch, argv):
        calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            module_name, attr = name.split(".")
            module = {"cli": cli, "verifier": verifier}[module_name]

            def counted(*args, _name=name, _fn=getattr(module, attr), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
        main(argv)
        return {name: count for name, count in calls.items() if count}

    @pytest.mark.parametrize("case,options", [
        ("scalar-csv-ties", []), ("scalar-csv-ties", ["--format", "csv"]),
        ("interval-json-ids-b-scale-d", [])], ids=["csv", "csv-format", "json-interval"])
    def test_aggregate_calls(self, tmp_path, monkeypatch, capsys, case, options):
        rows, capacity, case_options = AGGREGATE_CASES[case]
        data = tmp_path / "rows"
        data.write_text(rows)
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps(capacity))
        assert self._counted(monkeypatch, [
            "aggregate", "--input", str(data), "--capacity", str(cap),
            *case_options, *options]) == {
            "cli.load_dataset": 1,
            "cli.choquet_aggregate": len(parse_dataset(rows, "scalar" if "scalar" in case
                                                       else "interval"))}

    def test_verify_calls(self, monkeypatch, capsys):
        assert self._counted(monkeypatch, ["verify", "--suite", "all", "--grid", "2"]) == {
            "cli.check_admissibility": 5, "cli.check_commutativity": 3,
            "cli.check_associativity": 3, "cli.check_cancellation": 3,
            "cli.check_compatibility": 3, "cli.check_distributivity": 6,
            "cli.check_c1": 3, "verifier.check_wd": 9,
            "verifier.check_monotonicity": 9, "verifier.check_aggregation": 4,
            "cli.check_dissimilarity": 2, "cli.check_telescoping": 2,
            "cli.takac_counterexample": 1}
