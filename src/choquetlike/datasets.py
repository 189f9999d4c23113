"""Dataset ingestion.

Scalar datasets travel as CSV, one record per row; interval and vector
datasets as JSON, each record a list of elements like
``[[0.2, 0.4], [0.5, 0.7]]``. CSV cannot carry nested structure cleanly,
hence the split. The carrier kind is the caller's (the order
specification's), which also disambiguates two-coordinate vectors from
intervals: a JSON object's ``"kind"``, if present, must equal it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import BadParameter, DatasetFormatError, load_json, refuse_unknown_keys
from .order import SCALAR, Element, Scalar, carrier


@dataclass(frozen=True)
class Dataset:
    """Rows of one length, of elements of the caller's carrier kind and of
    one dimension that lie in [0, 1], with one string id per row."""
    rows: tuple[tuple[Element, ...], ...]
    ids: tuple[str, ...]

    def __post_init__(self):
        if not self.rows:
            raise DatasetFormatError("dataset has no rows")
        if not self.rows[0]:
            raise DatasetFormatError("row 0 has no elements")
        n = len(self.rows[0])
        dim = self.rows[0][0].dim
        for r, row in enumerate(self.rows):
            if len(row) != n:
                raise DatasetFormatError(
                    f"row {r} (0-based): {len(row)} cells where row 0 has {n}")
            for c, el in enumerate(row):
                if el.dim != dim:
                    raise DatasetFormatError(
                        f"row {r}, column {c} (0-based): {el!r} does not match "
                        f"the dataset carrier")
                if not el.in_unit:
                    raise DatasetFormatError(
                        f"row {r}, column {c} (0-based): {el!r} lies outside [0, 1]")
        if len(self.ids) != len(self.rows):
            raise DatasetFormatError("ids do not match the number of rows")

    @property
    def n(self) -> int:
        return len(self.rows[0])


def parse_dataset(text: str, kind: str) -> Dataset:
    """The dataset in ``text``; rows without ids are numbered from "0"."""
    if kind == SCALAR and not text.lstrip().startswith(("[", "{")):
        rows, ids = _parse_csv(text), None
    else:
        rows, ids = _parse_json(text, kind)
    return Dataset(rows, tuple(map(str, range(len(rows)))) if ids is None else ids)


def _build_row(r: int, cells, build) -> tuple[Element, ...]:
    """Row ``r`` (counted as ``Dataset`` counts rows), ``build`` applied to
    each of its ``cells``; if it refuses one, the cells are walked again to
    name the first refused cell with its position."""
    try:
        return tuple(map(build, cells))
    except (ValueError, OverflowError, BadParameter):
        for c, cell in enumerate(cells):
            try:
                build(cell)
            except (ValueError, OverflowError, BadParameter) as exc:
                raise DatasetFormatError(
                    f"row {r}, column {c} (0-based): {exc}") from exc
        raise


def _parse_csv(text: str) -> tuple:
    rows = []
    for record in csv.reader(io.StringIO(text)):
        if not record or all(not c.strip() for c in record):
            continue
        rows.append(_build_row(len(rows), record, lambda c: Scalar(float(c))))
    return tuple(rows)


def _parse_json(text: str, kind: str) -> tuple:
    """The rows of ``text`` and its ids, or None if it has none."""
    build = carrier(kind).from_json  # refuses an unknown kind before any row
    try:
        obj = load_json(text)
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
    rows = []
    for r, row in enumerate(obj):
        if type(row) is not list:
            raise DatasetFormatError(f"row {r} (0-based): {row!r} is not a list of cells")
        rows.append(_build_row(r, row, build))
    return tuple(rows), ids


def _row_id(i: int, ident) -> str:
    """Id ``i`` of a JSON dataset: a string, or an integer's decimal string."""
    if type(ident) is str:
        return ident
    if type(ident) is int:
        return str(ident)
    raise DatasetFormatError(
        f"id {i} (0-based): {ident!r} is not a string or an integer")


def load_dataset(path: str, kind: str) -> Dataset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    return parse_dataset(text, kind)

