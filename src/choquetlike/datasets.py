"""Dataset ingestion.

Scalar datasets travel as CSV, one record per row; interval and vector
datasets as JSON, each record a list of elements like
``[[0.2, 0.4], [0.5, 0.7]]``. CSV cannot carry nested structure cleanly,
hence the split. The carrier kind is the caller's (the order
specification's), which also disambiguates two-coordinate vectors from
intervals: a JSON object's ``"kind"``, if present, must equal it.

CSV rows are read from the file a chunk of ``CHUNK_ROWS`` at a time;
JSON is parsed whole. Either way rows are checked a chunk at a time and
kept as one array of floats (``Dataset``). A chunk is taken only by a
check of its floats in a few C-level passes; the element constructors run
only on a chunk it refuses, to name the fault.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from typing import Iterator, Optional

from .errors import BadParameter, DatasetFormatError, load_json, refuse_unknown_keys
from .operator import AggregationInput
from .order import SCALAR, Element, Scalar, carrier


@dataclass(frozen=True)
class Dataset:
    """Rows of ``n`` elements each, of carrier ``kind`` and of dimension
    ``dim``, that lie in [0, 1], with one string id per row.

    The rows are kept as ``data``, one ``array('d')`` of their components,
    row after row: ``n * dim`` floats per row and no object per row.
    Iterating builds the element tuple of one row at a time, through the
    carrier's ``elements``: one constructor call per cell and no other
    Python frame. ``rows`` builds all of them. ``named`` holds the file's
    ids, or None when the rows are numbered from "0"; ``ids`` is the tuple
    of ids either way.
    ``parse_dataset`` and ``load_dataset`` build a dataset, and check every
    row as they do."""

    kind: str
    n: int
    dim: int
    data: array
    named: Optional[tuple[str, ...]] = None

    def __len__(self) -> int:
        return len(self.data) // (self.n * self.dim)

    def __iter__(self):
        elements = carrier(self.kind).elements(iter(self.data), self.dim)
        return zip(*(elements,) * self.n)

    def inputs(self, mu, order, addop) -> Iterator[AggregationInput]:
        """Each row as ``AggregationInput(row, mu, order, addop)``. Row 0
        goes through the constructor, with every check and refusal it
        makes. The checks read only what all rows share, ``n`` elements of
        ``kind`` and ``dim``, so later rows are bound ``BIND_ROWS`` at a
        time, past them: the inputs are made and their fields set through
        the slot descriptors in C-level passes, one Python call per chunk."""
        rows = iter(self)
        first = [AggregationInput(row, mu, order, addop) for row in islice(rows, 1)]
        shared = ((AggregationInput.mu.__set__, mu), (AggregationInput.order.__set__, order),
                  (AggregationInput.addop.__set__, addop))

        def bound(chunk: list) -> list:
            k = len(chunk)
            inps = list(map(object.__new__, repeat(AggregationInput, k)))
            deque(map(AggregationInput.X.__set__, inps, chunk), 0)
            for setter, value in shared:
                deque(map(setter, inps, repeat(value, k)), 0)
            return inps

        chunks = iter(lambda: list(islice(rows, BIND_ROWS)), [])
        return chain(first, chain.from_iterable(map(bound, chunks)))

    @property
    def rows(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(self)

    @property
    def ids(self) -> tuple[str, ...]:
        return self.named if self.named is not None else tuple(map(str, range(len(self))))


# Rows are bound to inputs this many at a time. A chunk keeps about n + 2
# objects per row alive that the garbage collector tracks (the row, its
# elements and its input): at most 26 * 24 = 624 at n = MAX_N, under the
# collector's first threshold (700), so binding adds no collections.
BIND_ROWS = 24


def parse_dataset(text: str, kind: str) -> Dataset:
    """The dataset in ``text``; rows without ids are numbered from "0"."""
    return _read(io.StringIO(text), kind)


def load_dataset(path: str, kind: str) -> Dataset:
    """The dataset in the file at ``path``, read as ``parse_dataset`` reads
    its text, but CSV rows a chunk at a time."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read(fh, kind)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc


def _read(stream, kind: str) -> Dataset:
    """The dataset in the text of ``stream``: CSV when ``kind`` is scalar
    and the text, past leading whitespace, starts with neither ``[`` nor
    ``{``; else JSON, read whole."""
    build = carrier(kind).from_json  # refuses an unknown kind before any row
    head = []
    if kind == SCALAR:
        for line in stream:
            head.append(line)
            if line.strip():
                break
        if not (head and head[-1].lstrip().startswith(("[", "{"))):
            reader = csv.reader(chain(head, stream))
            try:
                return _dataset(kind, reader, _csv_floats, lambda c: Scalar(float(c)),
                                csv_lines=True)
            except csv.Error as exc:
                raise DatasetFormatError(
                    f"bad CSV, line {reader.line_num}: {exc}") from exc
    try:
        obj = load_json("".join(head) + stream.read())
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"bad JSON: {exc}") from exc
    ids = None
    if isinstance(obj, dict):
        refuse_unknown_keys(obj, ("kind", "ids", "rows"), "dataset", DatasetFormatError)
        if obj.get("kind", kind) != kind:
            raise DatasetFormatError(f"dataset kind {obj['kind']!r}, expected {kind!r}")
        if "ids" in obj:
            if not isinstance(obj["ids"], list):
                raise DatasetFormatError(f"ids must be a list, got {obj['ids']!r}")
            ids = tuple(_row_id(i, ident) for i, ident in enumerate(obj["ids"]))
        obj = obj.get("rows", [])
    if not isinstance(obj, list):
        raise DatasetFormatError("expected a list of rows")
    return _dataset(kind, iter(obj), _number_floats if kind == SCALAR else _list_floats,
                    build, ids)


# Rows are checked this many at a time, past row 0: a chunk of rows is
# read, and is taken or refused whole.
CHUNK_ROWS = 256


def _dataset(kind: str, records, floats, build, named=None, csv_lines=False) -> Dataset:
    """The dataset of the iterator ``records``, each record the list of
    one row's cells. With ``csv_lines``, the records are CSV lines, and a
    blank one (each cell empty or whitespace) is skipped and not counted.

    Row 0 is read alone and sets the shape: ``n`` is its number of cells,
    and ``dim`` the carrier's arity, or for vectors the length of its
    first cell. Later records are read ``CHUNK_ROWS`` at a time.
    ``floats(rows, n, dim)`` gives the components of ``rows`` when each
    row holds ``n`` cells of ``dim`` numbers, else None. A chunk, row 0
    included, is taken only when it gives components and the carrier's
    ``all_bounded`` holds; they go straight into the array, as the
    constructors would keep them. When a chunk of CSV records gives no
    components, its empty records are dropped and it is asked once more,
    and if it still gives none, so are its other blank records; each drop
    is one C-level pass. A chunk that is not taken is refused, and its
    rows are built cell by cell by ``build``, with the element
    constructors' checks, only to name the fault. A refused cell raises at
    once. The first misfit row (empty as row 0, of another length, or with
    a cell of another dimension or outside [0, 1]) raises after the last
    row, so that a bad cell in any row is named first; a wrong number of
    ids comes last."""
    record = carrier(kind)
    arity, bounded, all_bounded = record.arity, record.bounded, record.all_bounded
    data = array("d")
    n = dim = count = 0
    error = None
    while chunk := list(islice(records, CHUNK_ROWS if count else 1)):
        if not count:
            first = chunk[0]
            n = len(first) if type(first) is list else 0
            dim = arity or (len(first[0]) if n and type(first[0]) is list else 0)
        vals = floats(chunk, n, dim)
        if not vals and csv_lines:
            chunk = list(filter(None, chunk))  # empty lines, in one cheap pass
            vals = floats(chunk, n, dim)
            if not vals:  # lines whose cells, joined, strip to nothing
                chunk = list(compress(chunk, map(str.strip, map("".join, chunk))))
                vals = floats(chunk, n, dim)
        if vals and all_bounded(vals):
            count += len(chunk)
            if error is None:
                data.extend(vals)
            continue
        for cells in chunk:
            if type(cells) is not list:
                raise DatasetFormatError(
                    f"row {count} (0-based): {cells!r} is not a list of cells")
            els = _elements(count, cells, build)
            if error is None:
                error = _misfit(count, els, n, dim, bounded)
            count += 1
    if not count:
        raise DatasetFormatError("dataset has no rows")
    if error is not None:
        raise DatasetFormatError(error)
    if named is not None and len(named) != count:
        raise DatasetFormatError("ids do not match the number of rows")
    return Dataset(kind, n, dim, data, named)


def _elements(r: int, cells, build) -> list[Element]:
    """``build`` applied to each of row ``r``'s ``cells``; the first cell
    it refuses raises with its position."""
    els = []
    for c, cell in enumerate(cells):
        try:
            els.append(build(cell))
        except (ValueError, OverflowError, BadParameter) as exc:
            raise DatasetFormatError(f"row {r}, column {c} (0-based): {exc}") from exc
    return els


def _misfit(r: int, els, n: int, dim: int, bounded) -> Optional[str]:
    """Why row ``r``'s elements do not fit a dataset of ``n`` elements of
    dimension ``dim`` that satisfy ``bounded``, or None if they do. No
    dataset has ``n`` 0: that row 0 has no elements is its first misfit."""
    if not n:
        return "row 0 has no elements"
    if len(els) != n:
        return f"row {r} (0-based): {len(els)} cells where row 0 has {n}"
    for c, el in enumerate(els):
        if el.dim != dim:
            return (f"row {r}, column {c} (0-based): {el!r} does not match "
                    f"the dataset carrier")
        if not bounded(el.components):
            return f"row {r}, column {c} (0-based): {el!r} lies outside [0, 1]"
    return None


_NUMBERS = {int, float}  # the types of a JSON number: a bool has its own


def _csv_floats(rows, n, dim) -> Optional[array]:
    """CSV rows of ``n`` cells that are all float literals, as floats."""
    if {*map(len, rows)} == {n}:
        try:
            return array("d", map(float, chain.from_iterable(rows)))
        except ValueError:
            pass
    return None


def _number_floats(rows, n, dim=1) -> Optional[array]:
    """JSON rows that are lists of ``n`` numbers each, as floats."""
    if {*map(type, rows)} == {list} and {*map(len, rows)} == {n}:
        flat = list(chain.from_iterable(rows))
        if {*map(type, flat)} <= _NUMBERS:
            try:
                return array("d", flat)
            except OverflowError:  # an int beyond the float range
                pass
    return None


def _list_floats(rows, n, dim) -> Optional[array]:
    """JSON rows that are lists of ``n`` cells, each a list of ``dim``
    numbers, as floats."""
    if {*map(type, rows)} == {list} and {*map(len, rows)} == {n}:
        return _number_floats(list(chain.from_iterable(rows)), dim)
    return None


def _row_id(i: int, ident) -> str:
    """Id ``i`` of a JSON dataset: a string, or an integer's decimal string."""
    if type(ident) is str:
        return ident
    if type(ident) is int:
        return str(ident)
    raise DatasetFormatError(
        f"id {i} (0-based): {ident!r} is not a string or an integer")
