"""Law-check reports and finite grid specifications.

Every executable law check in the package returns a :class:`LawReport`.
A pass means "no counterexample found at the given resolution", never a
proof over the full carrier; reports carry that caveat in ``detail``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Optional

MAX_GRID = 1000  # the largest step denominator a grid accepts


@dataclass(frozen=True)
class GridSpec:
    """Finite enumeration grid: components range over {0, 1/m, ..., 1}.

    ``kind`` selects the carrier ('scalar' | 'interval' | 'vector'),
    ``n`` is the arity used by operator-level checks and ``dim`` the
    vector dimension. Every grid spans the whole of [0, 1].
    """

    kind: str
    m: int
    n: int = 3
    dim: int = 2

    def __post_init__(self):
        if not 1 <= self.m <= MAX_GRID:
            raise ValueError(f"grid step denominator must lie in [1, {MAX_GRID}], "
                             f"got {self.m}")
        if self.kind not in ("scalar", "interval", "vector"):
            raise ValueError(f"unknown carrier kind: {self.kind!r}")


@dataclass
class LawReport:
    """Outcome of one law check.

    ``witness`` is present exactly when ``verdict == 'fail'`` and holds
    enough structure to replay the violation through public operations.
    """

    law: str
    verdict: str
    witness: Optional[Any] = None
    checked: int = 0
    elapsed: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        payload = {
            "law": self.law,
            "verdict": self.verdict,
            "witness": _jsonable(self.witness),
            "checked": self.checked,
            "elapsed": round(self.elapsed, 6),
        }
        detail = dict(self.detail)
        if "n" in detail:
            payload["n"] = detail.pop("n")
        payload["detail"] = _jsonable(detail)
        return payload


def _jsonable(obj: Any) -> Any:
    """Recursively convert report payloads (elements, tuples) to JSON-ready values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    to_json = getattr(obj, "to_json", None)
    if callable(to_json):
        return to_json()
    return "custom" if callable(obj) else repr(obj)  # as custom kernels are named


def run_law(law: str, cases: Iterable[Optional[Any]], **detail) -> LawReport:
    """Run one law check over its case enumeration.

    ``cases`` yields ``None`` for each case that holds and a witness for
    a violation. The report counts the cases examined up to and including
    the first witness, and times the whole run; the enumeration is not
    advanced past that witness. A ``note`` in ``detail`` qualifies a pass
    (no counterexample at this resolution), so a failing report leaves
    it out.
    """
    start = perf_counter()
    checked = 0
    witness = None
    for witness in cases:
        checked += 1
        if witness is not None:
            detail.pop("note", None)
            break
    return LawReport(law=law, verdict="pass" if witness is None else "fail",
                     witness=witness, checked=checked,
                     elapsed=perf_counter() - start, detail=detail)
