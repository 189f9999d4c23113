"""Carriers, their natural partial orders, and admissible (total) refinements.

Three carriers are supported: scalars in [0, 1], closed intervals
[l, u] with 0 <= l <= u <= 1, and vectors in [0, 1]^k. Values produced
by addition may leave the unit-bounded set; element types therefore
admit any finite nonnegative components, and ``in_unit`` reports
membership in the bounded set, up to ``TOL`` above 1.

Beyond its element type, what a carrier kind is lives in its ``Carrier``
record, found by ``carrier(kind)``. Adding a carrier means one element
type and one record here, plus one entry in ``algebra.py``'s table of
each kind's addition and scaling.

``TOL`` = 1e-12 is the one tolerance, and this module decides where it
applies: ``close`` (two component tuples are equal iff all components are
within it; ``elements_equal`` is ``close`` on elements), the comparators
and ``partial_leq``, ``in_unit``, and ``strict_chain``, which tells a row
of inputs whose leads lie more than ``TOL`` apart. Every other module asks
these, and the law checks pick their grid cases by index, never by
``TOL``; outside this module only the width (Takac) construction of
``dissimilarity.py`` reads it. ``TOL`` compares computed values and never
admits data: data, spec parameters and caller weights are taken exactly
or refused. A kernel output is a computed value: through ``in_unit`` it is
kept as it is up to ``TOL`` above 1, as rounding, and refused beyond;
nothing is snapped. It separates genuine ties from rounding only
where values lie much farther apart. The one other threshold,
``AlphaBeta``'s alpha/beta gap, refuses a near-degenerate order and admits
nothing.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cmp_to_key
from math import isnan
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .errors import BadParameter, KindMismatch, lookup, spec_numbers
from .reporting import LawReport, run_law

TOL = 1e-12
_INF = float("inf")

SCALAR = "scalar"
INTERVAL = "interval"
VECTOR = "vector"


def _check_component(v: float, what: str) -> float:
    if v != v:  # NaN
        raise BadParameter(f"{what} is NaN")
    if v < 0.0:
        raise BadParameter(f"{what} must be nonnegative, got {v}")
    if v == _INF:
        raise BadParameter(f"{what} must be finite, got {v}")
    return float(v)


# The element types check their components in their own ``__init__``
# (``init=False``), so building an element costs one Python frame. Frozen,
# they store their fields through the slot descriptors' ``__set__``, bound
# once below each class (``_SET_VALUE`` and the like), past ``__setattr__``.
@dataclass(frozen=True, slots=True, init=False)
class Scalar:
    """A finite nonnegative real; ``kind`` is ``SCALAR`` and ``dim`` is 1."""

    value: float
    kind = SCALAR
    dim = 1

    def __init__(self, value: float):
        if not (type(value) is float and 0.0 <= value < _INF):
            value = _check_component(value, "scalar value")
        _SET_VALUE(self, value)

    @property
    def components(self) -> tuple[float, ...]:
        return (self.value,)

    @property
    def in_unit(self) -> bool:
        return self.value <= 1.0 + TOL

    def to_json(self):
        return self.value


_SET_VALUE = Scalar.value.__set__


@dataclass(frozen=True, slots=True, init=False)
class Interval:
    """A closed interval of finite nonnegative reals; ``kind`` is
    ``INTERVAL`` and ``dim`` is 2."""

    lower: float
    upper: float
    kind = INTERVAL
    dim = 2

    def __init__(self, lower: float, upper: float):
        if not (type(lower) is float and type(upper) is float
                and 0.0 <= lower <= upper < _INF):
            lower = _check_component(lower, "interval lower endpoint")
            upper = _check_component(upper, "interval upper endpoint")
            if upper < lower:
                raise BadParameter(f"interval endpoints out of order: [{lower}, {upper}]")
        _SET_LOWER(self, lower)
        _SET_UPPER(self, upper)

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


_SET_LOWER = Interval.lower.__set__
_SET_UPPER = Interval.upper.__set__


@dataclass(frozen=True, slots=True, init=False)
class Vector:
    """A finite point of [0, inf)^k, k >= 1; ``kind`` is ``VECTOR`` and
    ``dim`` is k."""

    coords: tuple[float, ...]
    kind = VECTOR

    def __init__(self, coords: tuple[float, ...]):
        if not (type(coords) is tuple and coords and all(
                type(c) is float and 0.0 <= c < _INF for c in coords)):
            coords = tuple(_check_component(c, "vector coordinate") for c in coords)
            if not coords:
                raise BadParameter("vector needs at least one coordinate")
        _SET_COORDS(self, coords)

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


_SET_COORDS = Vector.coords.__set__


Element = Union[Scalar, Interval, Vector]


def require_same_carrier(x: Element, z: Element) -> None:
    if x.kind != z.kind or x.dim != z.dim:
        raise KindMismatch(f"carrier mismatch: {x!r} vs {z!r}")


_NUMBER = (int, float)  # JSON numbers: a bool has its own type and is refused


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
    holds when ``c`` lies in the bounded set: components in [0, 1] exactly,
    interval endpoints in order, no NaN. ``make`` keeps such a ``c``.
    ``all_bounded(a)`` holds when ``bounded`` holds for every tuple of the
    nonempty ``array('d')`` ``a``, the tuples' components one after another,
    and decides it in C-level passes. ``elements(floats, dim)`` yields the
    elements of dimension ``dim`` whose components are the float iterator
    ``floats`` one after another, each built by its constructor, with its
    checks, and no Python frame besides. ``from_json`` reads a JSON dataset
    cell; ``constant`` is (c, ..., c)."""

    make: Callable[[tuple], Element]
    arity: int
    bounded: Callable[[tuple], bool]
    all_bounded: Callable[[array], bool]
    elements: Callable[[Iterator[float], int], Iterator[Element]]
    from_json: Callable[[object], Element]

    def constant(self, c: float, dim: int) -> Element:
        return self.make((c,) * (self.arity or dim))


def _all_in_unit(a: array) -> bool:
    """Every component of ``a`` lies in [0, 1]. ``min`` and ``max`` pass
    over a NaN that is not first, but then the sum is NaN."""
    return 0.0 <= min(a) and max(a) <= 1.0 and not isnan(sum(a))


_CARRIERS = {
    SCALAR: Carrier(lambda c: Scalar(*c), 1, lambda c: 0.0 <= c[0] <= 1.0, _all_in_unit,
                    lambda it, dim: map(Scalar, it), _scalar_from_json),
    INTERVAL: Carrier(lambda c: Interval(*c), 2, lambda c: 0.0 <= c[0] <= c[1] <= 1.0,
                      lambda a: (_all_in_unit(a)
                                 and all(map(float.__le__, a[::2], a[1::2]))),
                      lambda it, dim: itertools.starmap(Interval, zip(it, it)),
                      _interval_from_json),
    VECTOR: Carrier(Vector, 0, lambda c: all(0.0 <= a <= 1.0 for a in c), _all_in_unit,
                    lambda it, dim: map(Vector, zip(*(it,) * dim)), _vector_from_json),
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


def close(a: tuple, c: tuple) -> bool:
    """Whether the component tuples ``a`` and ``c`` of one carrier are
    equal: every pair of components within ``TOL``."""
    for p, q in zip(a, c):  # a loop, not all(): no generator per call
        if not abs(p - q) <= TOL:
            return False
    return True


def elements_equal(x: Element, z: Element) -> bool:
    require_same_carrier(x, z)
    return close(x.components, z.components)


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
    if not 0.0 <= alpha <= 1.0:
        raise BadParameter(f"alpha must lie in [0, 1], got {alpha}")
    return (1.0 - alpha) * x.lower + alpha * x.upper


# ---------------------------------------------------------------------------
# Admissible orders
# ---------------------------------------------------------------------------

_WORD = {-1: "less", 0: "equal", 1: "greater"}


class AdmissibleOrder:
    """Total order refining the carrier's natural partial order.

    Subclasses implement ``compare`` returning -1, 0, or +1, and ``lead``
    (a method or a callable attribute, as the shipped orders bind one),
    the order's leading invariant: one float per component tuple that
    settles every comparison it separates by more than ``TOL``. With
    ``d = lead(x.components) - lead(z.components)``, whenever
    ``abs(d) > TOL``, ``compare(x, z)`` is the sign of ``d``.
    ``strict_chain`` relies on this to order a row of inputs whose
    leads are that far apart without calling ``compare``. The projected
    dissimilarities apply their scalar delta to the lead, and the
    ``b-scale-d`` kernels over them read each input through it alone, so
    ``choquet_aggregate`` computes each input's lead once per row and
    gives the same keys to the chain and to such a kernel. Comparators
    are defined on the ambient set, not just the unit-bounded part, so
    sums produced by addition remain comparable. ``dim`` is the carrier
    dimension the order is defined on, or None for any.
    """

    kind: str = ""
    dim: Optional[int] = None

    def compare(self, x: Element, z: Element) -> int:
        raise NotImplementedError

    def lead(self, c: tuple[float, ...]) -> float:
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
    lead = itemgetter(0)

    def compare(self, x: Element, z: Element) -> int:
        try:
            d = x.value - z.value
        except AttributeError:
            raise KindMismatch("usual order compares scalars") from None
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
        # 1 - alpha and 1 - beta, once, for ``compare``. ``lead`` is the
        # alpha mix exactly as ``compare`` computes it, so lead differences
        # are bit-identical to its first difference.
        a, ca = self.alpha, 1.0 - self.alpha
        self._ca, self._cb = ca, 1.0 - self.beta
        self.lead = lambda c: ca * c[0] + a * c[1]

    def compare(self, x: Element, z: Element) -> int:
        if not isinstance(x, Interval) or not isinstance(z, Interval):
            raise KindMismatch("alpha-beta order compares intervals")
        # k_alpha inline: both operands and both mixes are already checked.
        a, ca = self.alpha, self._ca
        da = (ca * x.lower + a * x.upper) - (ca * z.lower + a * z.upper)
        if abs(da) > TOL:
            return -1 if da < 0 else 1
        b, cb = self.beta, self._cb
        db = (cb * x.lower + b * x.upper) - (cb * z.lower + b * z.upper)
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
        self.dim = len(priority)
        self.lead = itemgetter(priority[0])

    def compare(self, x: Element, z: Element) -> int:
        if not isinstance(x, Vector) or not isinstance(z, Vector):
            raise KindMismatch("lexicographic order compares vectors")
        xc, zc = x.coords, z.coords
        if len(xc) != self.dim or len(zc) != self.dim:
            raise KindMismatch("vector dimension does not match the order")
        for i in self.priority:
            d = xc[i] - zc[i]
            if abs(d) > TOL:
                return -1 if d < 0 else 1
        return 0

    def spec_string(self) -> str:
        return "veclex:" + ",".join(str(i + 1) for i in self.priority)


def strict_chain(keys: list[float]) -> Optional[list[int]]:
    """The indices of ``keys``, the order's leads of a row's component
    tuples, in increasing order when every two keys lie more than ``TOL``
    apart, else None. Float subtraction is monotone, so adjacent gaps above
    ``TOL`` put every pair that far apart, and then ``compare`` follows the
    leads (the ``lead`` contract of ``AdmissibleOrder``): the chain is the
    one admissible permutation. A NaN gap (inf - inf) is not above ``TOL``."""
    chain = sorted(range(len(keys)), key=keys.__getitem__)
    for low, high in zip(chain, chain[1:]):
        if not keys[high] - keys[low] > TOL:
            return None
    return chain


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
        return AlphaBeta(*spec_numbers("order", spec, parts[1:], float))
    if spec.startswith("veclex:"):
        perm = spec_numbers("order", spec, spec[len("veclex:"):].split(","), int)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise BadParameter(f"bad order spec: {spec!r}: the priority must be a "
                               f"permutation of 1..{len(perm)}")
        return VectorLex(tuple(p - 1 for p in perm))
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
    make, arity, bounded, *_ = carrier(grid.kind)
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
    grid triples. Fails with the violating pair or triple. ``compare`` is
    called once per ordered grid pair, |E|^2 calls in all, before the
    first case; every case reads that table.
    """
    elems = grid_elements(grid)

    def cases():
        cmp = [[order.compare(x, z) for z in elems] for x in elems]
        for (i, x), (j, z) in itertools.product(enumerate(elems), repeat=2):
            cxz, czx = cmp[i][j], cmp[j][i]
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
        for (i, x), (j, y), (k, z) in itertools.product(enumerate(elems), repeat=3):
            if cmp[i][j] <= 0 and cmp[j][k] <= 0 and cmp[i][k] > 0:
                yield {"violation": "transitivity", "x": x, "y": y, "z": z}
            else:
                yield None

    return run_law("admissibility", cases(), order=order.spec_string(),
                   note=f"no counterexample at resolution m={grid.m}")
