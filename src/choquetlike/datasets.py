"""Dataset ingestion.

Scalar datasets travel as CSV, one record per row; interval and vector
datasets as JSON, each record a list of elements like
``[[0.2, 0.4], [0.5, 0.7]]``. CSV cannot carry nested structure cleanly,
hence the split. The expected carrier kind comes from context (the order
specification), which also disambiguates two-coordinate vectors from
intervals.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional

from .errors import BadParameter, DatasetFormatError
from .order import SCALAR, Element, Scalar, carrier


@dataclass(frozen=True)
class Dataset:
    kind: str
    rows: tuple[tuple[Element, ...], ...]
    ids: Optional[tuple[str, ...]] = None

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
                if el.kind != self.kind or el.dim != dim:
                    raise DatasetFormatError(
                        f"row {r}, column {c} (0-based): {el!r} does not match "
                        f"the dataset carrier")
                if not el.in_unit:
                    raise DatasetFormatError(
                        f"row {r}, column {c} (0-based): {el!r} lies outside [0, 1]")
        if self.ids is not None and len(self.ids) != len(self.rows):
            raise DatasetFormatError("ids do not match the number of rows")

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def row_ids(self) -> list[str]:
        if self.ids is not None:
            return list(self.ids)
        return [str(i) for i in range(len(self.rows))]


def parse_dataset(text: str, kind: str) -> Dataset:
    if kind == SCALAR and not text.lstrip().startswith(("[", "{")):
        return _parse_csv(text)
    return _parse_json(text, kind)


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


def _parse_csv(text: str) -> Dataset:
    rows = []
    for record in csv.reader(io.StringIO(text)):
        if not record or all(not c.strip() for c in record):
            continue
        rows.append(_build_row(len(rows), record, lambda c: Scalar(float(c))))
    return Dataset(SCALAR, tuple(rows))


def _parse_json(text: str, kind: str) -> Dataset:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"bad JSON: {exc}") from exc
    ids = None
    if isinstance(obj, dict):
        if "ids" in obj:
            if not isinstance(obj["ids"], list):
                raise DatasetFormatError(f"ids must be a list, got {obj['ids']!r}")
            ids = tuple(_row_id(i, ident) for i, ident in enumerate(obj["ids"]))
        kind = obj.get("kind", kind)
        obj = obj.get("rows", [])
    if not isinstance(obj, list):
        raise DatasetFormatError("expected a list of rows")
    build = carrier(kind).from_json  # refuses an unknown kind before any row
    rows = []
    for r, row in enumerate(obj):
        if type(row) is not list:
            raise DatasetFormatError(f"row {r} (0-based): {row!r} is not a list of cells")
        rows.append(_build_row(r, row, build))
    return Dataset(kind, tuple(rows), ids)


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

