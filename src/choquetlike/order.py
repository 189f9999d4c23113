"""Carriers, their natural partial orders, and admissible (total) refinements.

Three carriers are supported: scalars in [0, 1], closed intervals
[l, u] with 0 <= l <= u <= 1, and vectors in [0, 1]^k. Values produced
by addition may leave the unit-bounded set; element types therefore
admit any nonnegative components, and ``in_unit`` reports membership in
the bounded set.

Real comparisons use absolute tolerance 1e-12: two elements are equal
iff all components are within tolerance. Grid values are small
rationals, so the tolerance separates genuine ties from rounding but is
only meaningful when value spacing is much larger than 1e-12.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Union

from .errors import BadParameter, KindMismatch
from .reporting import GridSpec, LawReport, run_law

TOL = 1e-12

SCALAR = "scalar"
INTERVAL = "interval"
VECTOR = "vector"


def _check_component(v: float, what: str) -> float:
    if v != v:  # NaN
        raise BadParameter(f"{what} is NaN")
    if v < -TOL:
        raise BadParameter(f"{what} must be nonnegative, got {v}")
    return 0.0 if v < 0.0 else float(v)


@dataclass(frozen=True, slots=True)
class Scalar:
    """A nonnegative real; ``kind`` is ``SCALAR`` and ``dim`` is 1."""

    value: float
    kind = SCALAR
    dim = 1

    def __post_init__(self):
        v = self.value
        if type(v) is float and v >= 0.0:
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
    """A closed interval of nonnegative reals; ``kind`` is ``INTERVAL`` and
    ``dim`` is 2."""

    lower: float
    upper: float
    kind = INTERVAL
    dim = 2

    def __post_init__(self):
        lo, hi = self.lower, self.upper
        if type(lo) is float and type(hi) is float and 0.0 <= lo <= hi:
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
    """A point of [0, inf)^k, k >= 1; ``kind`` is ``VECTOR`` and ``dim`` is k."""

    coords: tuple[float, ...]
    kind = VECTOR

    def __post_init__(self):
        coords = self.coords
        if type(coords) is tuple and coords and all(
                type(c) is float and c >= 0.0 for c in coords):
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


def from_components(kind: str, comps) -> Element:
    comps = tuple(float(c) for c in comps)
    if kind == SCALAR:
        if len(comps) != 1:
            raise BadParameter("scalar takes exactly one component")
        return Scalar(comps[0])
    if kind == INTERVAL:
        if len(comps) != 2:
            raise BadParameter("interval takes exactly two components")
        return Interval(comps[0], comps[1])
    if kind == VECTOR:
        return Vector(comps)
    raise BadParameter(f"unknown carrier kind: {kind!r}")


def _constant_element(kind: str, dim: int, c: float) -> Element:
    if kind == SCALAR:
        return Scalar(c)
    if kind == INTERVAL:
        return Interval(c, c)
    if kind == VECTOR:
        return Vector((c,) * dim)
    raise BadParameter(f"unknown carrier kind: {kind!r}")


def zero_element(kind: str, dim: int = 1) -> Element:
    """Least element of the bounded set for the given carrier."""
    return _constant_element(kind, dim, 0.0)


def one_element(kind: str, dim: int = 1) -> Element:
    """Greatest element of the bounded set for the given carrier."""
    return _constant_element(kind, dim, 1.0)


def elements_equal(x: Element, z: Element, tol: float = TOL) -> bool:
    require_same_carrier(x, z)
    return all(abs(a - b) <= tol for a, b in zip(x.components, z.components))


def element_from_json(kind: str, obj) -> Element:
    if kind == SCALAR:
        return Scalar(float(obj))
    if kind == INTERVAL:
        lo, hi = obj
        return Interval(float(lo), float(hi))
    if kind == VECTOR:
        return Vector(tuple(float(c) for c in obj))
    raise BadParameter(f"unknown carrier kind: {kind!r}")


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

    Subclasses implement ``compare`` returning -1, 0, or +1. Comparators
    are defined on the ambient set, not just the unit-bounded part, so
    sums produced by addition remain comparable.
    """

    kind: str = ""

    def compare(self, x: Element, z: Element) -> int:
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

def unit_grid(m: int) -> list[float]:
    """The coefficients {0, 1/m, ..., 1}, in increasing order."""
    return [i / m for i in range(m + 1)]


def grid_elements(grid: GridSpec) -> list[Element]:
    """All bounded-set elements at the grid resolution, in component-lex order.

    Interval grids enumerate only pairs with lower <= upper; vector grids
    are full coordinate products of dimension ``grid.dim``.
    """
    vals = unit_grid(grid.m)
    if grid.kind == SCALAR:
        return [Scalar(v) for v in vals]
    if grid.kind == INTERVAL:
        return [Interval(lo, hi) for lo in vals for hi in vals if hi >= lo - TOL]
    if grid.kind == VECTOR:
        return [Vector(c) for c in itertools.product(vals, repeat=grid.dim)]
    raise BadParameter(f"unknown carrier kind: {grid.kind!r}")


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
