"""Carriers, their natural partial orders, and admissible (total) refinements.

Three carriers are supported: scalars in [0, 1], closed intervals
[l, u] with 0 <= l <= u <= 1, and vectors in [0, 1]^k. Values produced
by addition may leave the unit-bounded set; element types therefore
admit any finite nonnegative components, and ``in_unit`` reports
membership in the bounded set.

Beyond its element type, what a carrier kind is lives in its ``Carrier``
record, found by ``carrier(kind)``. Adding a carrier means one element
type and one record here, plus one entry in ``algebra.py``'s table of
each kind's addition and scaling.

Real comparisons use absolute tolerance 1e-12: two elements are equal
iff all components are within tolerance. Grid values are small
rationals, so the tolerance separates genuine ties from rounding but is
only meaningful when value spacing is much larger than 1e-12.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable, NamedTuple, Optional, Union

from .errors import BadParameter, KindMismatch, lookup
from .reporting import LawReport, run_law

TOL = 1e-12
_INF = float("inf")

SCALAR = "scalar"
INTERVAL = "interval"
VECTOR = "vector"


def _check_component(v: float, what: str) -> float:
    if v != v:  # NaN
        raise BadParameter(f"{what} is NaN")
    if v < -TOL:
        raise BadParameter(f"{what} must be nonnegative, got {v}")
    if v == _INF:
        raise BadParameter(f"{what} must be finite, got {v}")
    return 0.0 if v < 0.0 else float(v)


@dataclass(frozen=True, slots=True)
class Scalar:
    """A finite nonnegative real; ``kind`` is ``SCALAR`` and ``dim`` is 1."""

    value: float
    kind = SCALAR
    dim = 1

    def __post_init__(self):
        v = self.value
        if type(v) is float and 0.0 <= v < _INF:
            return
        object.__setattr__(self, "value", _check_component(v, "scalar value"))

    @property
    def components(self) -> tuple[float, ...]:
        return (self.value,)

    @property
    def in_unit(self) -> bool:
        return self.value <= 1.0 + TOL

    def to_json(self):
        return self.value


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval of finite nonnegative reals; ``kind`` is
    ``INTERVAL`` and ``dim`` is 2."""

    lower: float
    upper: float
    kind = INTERVAL
    dim = 2

    def __post_init__(self):
        lo, hi = self.lower, self.upper
        if type(lo) is float and type(hi) is float and 0.0 <= lo <= hi < _INF:
            return
        lo = _check_component(lo, "interval lower endpoint")
        hi = _check_component(hi, "interval upper endpoint")
        if hi < lo:
            if lo - hi > TOL:
                raise BadParameter(f"interval endpoints out of order: [{lo}, {hi}]")
            hi = lo
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def components(self) -> tuple[float, ...]:
        return (self.lower, self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def in_unit(self) -> bool:
        return self.upper <= 1.0 + TOL

    def to_json(self):
        return [self.lower, self.upper]


@dataclass(frozen=True, slots=True)
class Vector:
    """A finite point of [0, inf)^k, k >= 1; ``kind`` is ``VECTOR`` and
    ``dim`` is k."""

    coords: tuple[float, ...]
    kind = VECTOR

    def __post_init__(self):
        coords = self.coords
        if type(coords) is tuple and coords and all(
                type(c) is float and 0.0 <= c < _INF for c in coords):
            return
        coords = tuple(_check_component(c, "vector coordinate") for c in coords)
        if not coords:
            raise BadParameter("vector needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def components(self) -> tuple[float, ...]:
        return self.coords

    @property
    def in_unit(self) -> bool:
        return all(c <= 1.0 + TOL for c in self.coords)

    def to_json(self):
        return list(self.coords)


Element = Union[Scalar, Interval, Vector]


def require_same_carrier(x: Element, z: Element) -> None:
    if x.kind != z.kind or x.dim != z.dim:
        raise KindMismatch(f"carrier mismatch: {x!r} vs {z!r}")


_NUMBER = (int, float)  # JSON numbers: a bool has its own type and is refused
_TOP = 1.0 + TOL


def _scalar_from_json(cell) -> Scalar:
    if type(cell) in _NUMBER:
        return Scalar(float(cell))
    raise BadParameter(f"{cell!r} is not a number")


def _interval_from_json(cell) -> Interval:
    if (type(cell) is list and len(cell) == 2
            and type(cell[0]) in _NUMBER and type(cell[1]) in _NUMBER):
        return Interval(float(cell[0]), float(cell[1]))
    raise BadParameter(f"{cell!r} is not a list of two numbers")


def _vector_from_json(cell) -> Vector:
    if type(cell) is list and all(type(c) in _NUMBER for c in cell):
        return Vector(tuple(map(float, cell)))
    raise BadParameter(f"{cell!r} is not a list of numbers")


class Carrier(NamedTuple):
    """One carrier kind: ``make`` builds an element, with its checks, from a
    tuple of ``arity`` components (any positive number if 0). ``bounded(c)``
    holds when ``make`` and the kernels' range check leave ``c`` unchanged:
    components in [0, 1 + TOL], interval endpoints in order, no NaN.
    ``from_json`` reads a JSON dataset cell; ``constant`` is (c, ..., c)."""

    make: Callable[[tuple], Element]
    arity: int
    bounded: Callable[[tuple], bool]
    from_json: Callable[[object], Element]

    def constant(self, c: float, dim: int) -> Element:
        return self.make((c,) * (self.arity or dim))


_CARRIERS = {
    SCALAR: Carrier(lambda c: Scalar(*c), 1, lambda c: 0.0 <= c[0] <= _TOP, _scalar_from_json),
    INTERVAL: Carrier(lambda c: Interval(*c), 2, lambda c: 0.0 <= c[0] <= c[1] <= _TOP,
                      _interval_from_json),
    VECTOR: Carrier(Vector, 0, lambda c: all(0.0 <= a <= _TOP for a in c), _vector_from_json),
}


def carrier(kind: str) -> Carrier:
    """The record of carrier ``kind``; any other kind raises ``BadParameter``."""
    return lookup(_CARRIERS, kind, "carrier kind")


def zero_element(kind: str, dim: int = 1) -> Element:
    """Least element of the bounded set for the given carrier."""
    return carrier(kind).constant(0.0, dim)


def one_element(kind: str, dim: int = 1) -> Element:
    """Greatest element of the bounded set for the given carrier."""
    return carrier(kind).constant(1.0, dim)


def elements_equal(x: Element, z: Element, tol: float = TOL) -> bool:
    require_same_carrier(x, z)
    return all(abs(a - b) <= tol for a, b in zip(x.components, z.components))


def element_from_json(kind: str, cell) -> Element:
    """The element of carrier ``kind`` that a JSON cell holds: a number for
    a scalar, a list of two numbers for an interval, a list of numbers for
    a vector. Any other cell raises ``BadParameter``, as the constructors
    do for a value no element takes."""
    return carrier(kind).from_json(cell)


# ---------------------------------------------------------------------------
# Natural partial orders
# ---------------------------------------------------------------------------

def partial_leq(x: Element, z: Element) -> bool:
    """Natural partial order of the carrier: <= on scalars, componentwise
    on interval endpoints and vector coordinates."""
    require_same_carrier(x, z)
    return all(a <= b + TOL for a, b in zip(x.components, z.components))


def k_alpha(x: Interval, alpha: float) -> float:
    """Convex endpoint mix (1-alpha)*lower + alpha*upper."""
    if not isinstance(x, Interval):
        raise KindMismatch("k_alpha is defined on intervals")
    if not (-TOL <= alpha <= 1.0 + TOL):
        raise BadParameter(f"alpha must lie in [0, 1], got {alpha}")
    return (1.0 - alpha) * x.lower + alpha * x.upper


# ---------------------------------------------------------------------------
# Admissible orders
# ---------------------------------------------------------------------------

_WORD = {-1: "less", 0: "equal", 1: "greater"}


class AdmissibleOrder:
    """Total order refining the carrier's natural partial order.

    Subclasses implement ``compare`` returning -1, 0, or +1, and ``lead``,
    one float per element that settles every comparison it separates by
    more than ``TOL``: whenever ``abs(lead(x) - lead(z)) > TOL``,
    ``compare(x, z)`` is the sign of ``lead(x) - lead(z)``.
    ``choquet_aggregate`` relies on this to order a row of inputs whose
    leads are that far apart without calling ``compare``. Comparators are
    defined on the ambient set, not just the unit-bounded part, so sums
    produced by addition remain comparable. ``dim`` is the carrier
    dimension the order is defined on, or None for any.
    """

    kind: str = ""
    dim: Optional[int] = None

    def compare(self, x: Element, z: Element) -> int:
        raise NotImplementedError

    def lead(self, x: Element) -> float:
        raise NotImplementedError

    def sort(self, elems) -> list:
        return sorted(elems, key=cmp_to_key(self.compare))

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"


class ScalarUsual(AdmissibleOrder):
    """The usual order on [0, 1] (its own admissible refinement)."""

    kind = SCALAR

    def compare(self, x: Element, z: Element) -> int:
        d = x.value - z.value
        if abs(d) <= TOL:
            return 0
        return -1 if d < 0 else 1

    def lead(self, x: Element) -> float:
        return x.value

    def spec_string(self) -> str:
        return "scalar"


class AlphaBeta(AdmissibleOrder):
    """Interval order comparing the alpha endpoint mix first, tie-breaking
    by the beta mix. alpha != beta makes it total: both mixes equal force
    interval equality. Includes the lexicographical (0,1),
    antilexicographical (1,0), and Xu-Yager (0.5,1) orders."""

    kind = INTERVAL

    def __init__(self, alpha: float, beta: float):
        if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
            raise BadParameter("alpha and beta must lie in [0, 1]")
        if abs(alpha - beta) <= 1e-9:
            raise BadParameter("alpha and beta must differ")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def compare(self, x: Element, z: Element) -> int:
        if not isinstance(x, Interval) or not isinstance(z, Interval):
            raise KindMismatch("alpha-beta order compares intervals")
        # k_alpha inline: both operands and both mixes are already checked.
        a = self.alpha
        da = ((1.0 - a) * x.lower + a * x.upper) - ((1.0 - a) * z.lower + a * z.upper)
        if abs(da) > TOL:
            return -1 if da < 0 else 1
        b = self.beta
        db = ((1.0 - b) * x.lower + b * x.upper) - ((1.0 - b) * z.lower + b * z.upper)
        if abs(db) > TOL:
            return -1 if db < 0 else 1
        return 0

    def lead(self, x: Element) -> float:
        # The alpha mix exactly as ``compare`` computes it, so lead
        # differences are bit-identical to its first difference.
        a = self.alpha
        return (1.0 - a) * x.lower + a * x.upper

    def spec_string(self) -> str:
        return f"ab:{self.alpha:g}:{self.beta:g}"


class VectorLex(AdmissibleOrder):
    """Lexicographic vector order under a coordinate priority permutation.

    The simplest linear extension of the product order on [0, 1]^k; the
    canonical admissible order this library ships for vectors.
    """

    kind = VECTOR

    def __init__(self, priority: tuple[int, ...]):
        priority = tuple(int(i) for i in priority)
        if sorted(priority) != list(range(len(priority))) or not priority:
            raise BadParameter("priority must be a permutation of 0..k-1")
        self.priority = priority

    @property
    def dim(self) -> int:
        return len(self.priority)

    def compare(self, x: Element, z: Element) -> int:
        if not isinstance(x, Vector) or not isinstance(z, Vector):
            raise KindMismatch("lexicographic order compares vectors")
        if x.dim != self.dim or z.dim != self.dim:
            raise KindMismatch("vector dimension does not match the order")
        for i in self.priority:
            d = x.coords[i] - z.coords[i]
            if abs(d) > TOL:
                return -1 if d < 0 else 1
        return 0

    def lead(self, x: Element) -> float:
        return x.coords[self.priority[0]]

    def spec_string(self) -> str:
        return "veclex:" + ",".join(str(i + 1) for i in self.priority)


def parse_order(spec: str) -> AdmissibleOrder:
    """Build an order from its specification string.

    Grammar: ``scalar`` | ``ab:<alpha>:<beta>`` | ``veclex:<perm>`` where
    perm is a comma-separated 1-based priority, e.g. ``veclex:1,2,3``.
    """
    spec = spec.strip()
    if spec == "scalar":
        return ScalarUsual()
    if spec.startswith("ab:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise BadParameter(f"bad order spec: {spec!r}")
        return AlphaBeta(float(parts[1]), float(parts[2]))
    if spec.startswith("veclex:"):
        perm = tuple(int(p) - 1 for p in spec[len("veclex:"):].split(","))
        return VectorLex(perm)
    raise BadParameter(f"bad order spec: {spec!r}")


# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------

MAX_GRID = 1000  # the largest step denominator a grid accepts


@dataclass(frozen=True)
class GridSpec:
    """Finite enumeration grid: components range over {0, 1/m, ..., 1}.

    ``kind`` selects the carrier ('scalar' | 'interval' | 'vector') and
    ``dim`` the vector dimension; ``n`` is read by nothing and kept only
    because the benchmark harness builds it. Every grid spans [0, 1].
    """

    kind: str
    m: int
    n: int = 3
    dim: int = 2

    def __post_init__(self):
        if not 1 <= self.m <= MAX_GRID:
            raise ValueError(f"grid step denominator must lie in [1, {MAX_GRID}], "
                             f"got {self.m}")
        carrier(self.kind)


def unit_grid(m: int) -> list[float]:
    """The coefficients {0, 1/m, ..., 1}, in increasing order."""
    return [i / m for i in range(m + 1)]


def grid_elements(grid: GridSpec) -> list[Element]:
    """All bounded-set elements at the grid resolution, in component-lex
    order: the ``bounded`` tuples of ``unit_grid`` values (``grid.dim`` of
    them for a vector), so an interval's lower endpoint never passes its upper."""
    make, arity, bounded, _ = carrier(grid.kind)
    tuples = itertools.product(unit_grid(grid.m), repeat=arity or grid.dim)
    return list(map(make, filter(bounded, tuples)))


# ---------------------------------------------------------------------------
# Order law check
# ---------------------------------------------------------------------------

def check_admissibility(order: AdmissibleOrder, grid: GridSpec) -> LawReport:
    """Exhaustively check that the order is a total order refining the
    carrier's partial order on the grid.

    Verifies: refinement (x partially below z implies x totally below-or-
    equal z), totality/consistency of the comparator, antisymmetry
    (equal implies componentwise equality), and transitivity over all
    grid triples. Fails with the violating pair or triple.
    """
    elems = grid_elements(grid)

    def cases():
        for x, z in itertools.product(elems, repeat=2):
            cxz = order.compare(x, z)
            czx = order.compare(z, x)
            if cxz != -czx:
                yield {"violation": "totality", "x": x, "z": z,
                       "compare_xz": _WORD[cxz], "compare_zx": _WORD[czx]}
            elif cxz == 0 and not elements_equal(x, z):
                yield {"violation": "antisymmetry", "x": x, "z": z}
            elif partial_leq(x, z) and cxz > 0:
                yield {"violation": "refinement", "x": x, "z": z,
                       "partial": "leq", "total": _WORD[cxz]}
            else:
                yield None
        for x, y, z in itertools.product(elems, repeat=3):
            if order.compare(x, y) <= 0 and order.compare(y, z) <= 0 and order.compare(x, z) > 0:
                yield {"violation": "transitivity", "x": x, "y": y, "z": z}
            else:
                yield None

    return run_law("admissibility", cases(), order=order.spec_string(),
                   note=f"no counterexample at resolution m={grid.m}")
