"""Addition and multiplication operations on the carriers, plus grid checks
of the algebraic laws the characterization theorems assume.

Addition results live in the ambient set (nonnegative reals, intervals,
vectors) and are never clamped to the unit-bounded set; callers decide
where boundedness matters. Law checking is enumeration on a finite grid:
the only oracle that works uniformly for user-supplied operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .errors import BadParameter, KindMismatch, ScaleOutOfRange, lookup
from .order import (
    INTERVAL, SCALAR, TOL, VECTOR, AdmissibleOrder, Element, GridSpec, Interval,
    Scalar, Vector, elements_equal, grid_elements, require_same_carrier, unit_grid,
)
from .reporting import LawReport, run_law


@dataclass(frozen=True)
class AdditionOp:
    """Binary addition on one carrier's ambient set: ``fn`` adds elements,
    ``term`` is the same addition on their component tuples. The
    operator's fold adds on components and lifts ``fn`` for an addition
    without ``term``."""

    name: str
    kind: str
    fn: Callable[[Element, Element], Element]
    term: Optional[Callable[[tuple, tuple], tuple]] = None


@dataclass(frozen=True)
class MultiplicationOp:
    """Scaling of one carrier by a coefficient in [0, 1]: ``fn`` scales an
    element, ``term`` a component tuple (the catalog kernels use the
    shipped scalings' terms). Neither checks the coefficient; ``scale``
    and the kernel terms do."""

    name: str
    kind: str
    fn: Callable[[float, Element], Element]
    term: Optional[Callable[[float, tuple], tuple]] = None


def add(op: AdditionOp, x: Element, z: Element) -> Element:
    require_same_carrier(x, z)
    if x.kind != op.kind:
        raise KindMismatch(f"operation {op.name!r} expects {op.kind} operands")
    return op.fn(x, z)


def _memoized(fn):
    """``fn(x, z, *weights)``, for two elements and float weights, with a
    memo that lives for one case enumeration: create it when the
    enumeration starts, never at module level, so that each distinct call
    reaches ``fn`` once per enumeration. The key is each operand's ``kind``
    and component tuple, plus the weights, so operands of two carriers
    never share an entry and ``add`` still raises ``KindMismatch`` between
    them. ``-0.0`` and ``0.0`` share a key: every comparison treats them
    as equal, and grid values are never ``-0.0``."""
    memo = {}

    def once(x, z, *weights):
        key = (x.kind, x.components, z.kind, z.components, weights)
        value = memo.get(key)
        if value is None:
            value = memo[key] = fn(x, z, *weights)
        return value

    return once


def unit_coefficient(c: float) -> float:
    """A scaling coefficient: c clamped to [0, 1] when it lies within
    ``TOL`` of it; farther out, ``ScaleOutOfRange``."""
    if not (-TOL <= c <= 1.0 + TOL):
        raise ScaleOutOfRange(f"coefficient must lie in [0, 1], got {c}")
    return min(max(c, 0.0), 1.0)


def scale(op: MultiplicationOp, c: float, x: Element) -> Element:
    if not 0.0 <= c <= 1.0:
        c = unit_coefficient(c)
    if x.kind != op.kind:
        raise KindMismatch(f"operation {op.name!r} expects {op.kind} operands")
    return op.fn(c, x)


# ---------------------------------------------------------------------------
# Shipped operations
# ---------------------------------------------------------------------------

PLUS = AdditionOp("plus", SCALAR, lambda x, z: Scalar(x.value + z.value),
                  lambda a, b: (a[0] + b[0],))
IV_PLUS = AdditionOp("iv-plus", INTERVAL,
                     lambda x, z: Interval(x.lower + z.lower, x.upper + z.upper),
                     lambda a, b: (a[0] + b[0], a[1] + b[1]))
VV_PLUS = AdditionOp("vv-plus", VECTOR,
                     lambda x, z: Vector(tuple(a + b for a, b in zip(x.coords, z.coords))),
                     lambda a, b: tuple([p + q for p, q in zip(a, b)]))

TIMES = MultiplicationOp("times", SCALAR, lambda c, x: Scalar(c * x.value),
                         lambda c, a: (c * a[0],))
IV_SCALE = MultiplicationOp("iv-scale", INTERVAL,
                            lambda c, x: Interval(c * x.lower, c * x.upper),
                            lambda c, a: (c * a[0], c * a[1]))
VV_SCALE = MultiplicationOp("vv-scale", VECTOR,
                            lambda c, x: Vector(tuple(c * a for a in x.coords)),
                            lambda c, a: tuple([c * v for v in a]))

# Negative-control fixtures: both commutative and associative, both break
# the cancellation law.
MIN_OP = AdditionOp("min", SCALAR, lambda x, z: Scalar(min(x.value, z.value)),
                    lambda a, b: (min(a[0], b[0]),))
BOUNDED_SUM = AdditionOp("bounded-sum", SCALAR,
                         lambda x, z: Scalar(min(1.0, x.value + z.value)),
                         lambda a, b: (min(1.0, a[0] + b[0]),))

_OPERATIONS = {  # each carrier kind's shipped addition and scaling
    SCALAR: (PLUS, TIMES), INTERVAL: (IV_PLUS, IV_SCALE), VECTOR: (VV_PLUS, VV_SCALE)}


def addition_for(kind: str) -> AdditionOp:
    return lookup(_OPERATIONS, kind, "carrier kind")[0]


def scale_for(kind: str) -> MultiplicationOp:
    return lookup(_OPERATIONS, kind, "carrier kind")[1]


# ---------------------------------------------------------------------------
# Law checks
# ---------------------------------------------------------------------------

def check_commutativity(op: AdditionOp, grid: GridSpec) -> LawReport:
    elems = grid_elements(grid)
    return run_law("commutativity", (
        None if elements_equal(add(op, x, z), add(op, z, x)) else {"x": x, "z": z}
        for x, z in itertools.combinations_with_replacement(elems, 2)), op=op.name)


def check_associativity(op: AdditionOp, grid: GridSpec) -> LawReport:
    elems = grid_elements(grid)

    def cases():
        plus = _memoized(partial(add, op))
        sums = [[plus(x, y) for y in elems] for x in elems]  # sums[i][j] = x_i + x_j
        for (i, x), (j, y), (k, z) in itertools.product(enumerate(elems), repeat=3):
            yield None if elements_equal(plus(sums[i][j], z), plus(x, sums[j][k])) \
                else {"x": x, "y": y, "z": z}

    return run_law("associativity", cases(), op=op.name)


def check_cancellation(op: AdditionOp, grid: GridSpec) -> LawReport:
    """x1 + v = x2 + v must force x1 = x2 for all grid triples."""
    elems = grid_elements(grid)

    def cases():
        plus = _memoized(partial(add, op))
        for x1, x2 in itertools.combinations(elems, 2):
            for v in elems:
                s = plus(x1, v)
                if elements_equal(s, plus(x2, v)):
                    yield {"x1": x1, "x2": x2, "v": v, "sum": s}
                else:
                    yield None

    return run_law("cancellation", cases(), op=op.name)


def check_compatibility(op: AdditionOp, order: AdmissibleOrder,
                        grid: GridSpec) -> LawReport:
    """Adding a common element on both sides must preserve the strict order:
    x1 < x2 forces x1 + v < x2 + v. Order-equal inputs whose sums the order
    separates break the lemma that strict compatibility implies the weak
    form; they point to a broken comparator or operation, and once every
    strictly ordered pair has passed they raise ``RuntimeError``.
    """
    elems = grid_elements(grid)

    def cases():
        plus = _memoized(partial(add, op))
        weak_fails = False
        for x1, x2 in itertools.product(elems, repeat=2):
            c = order.compare(x1, x2)
            if c > 0:
                continue
            for v in elems:
                lhs, rhs = plus(x1, v), plus(x2, v)
                cs = order.compare(lhs, rhs)
                if c < 0 and cs >= 0:
                    yield {"x1": x1, "x2": x2, "v": v, "lhs": lhs, "rhs": rhs}
                else:
                    weak_fails |= cs > 0
                    yield None
        if weak_fails:
            raise RuntimeError("strict compatibility passed but weak failed; "
                               "comparator or operation is inconsistent")

    return run_law("compatibility-strict", cases(), op=op.name,
                   order=order.spec_string())


def check_distributivity(mul: MultiplicationOp, addop: AdditionOp, side: str,
                         grid: GridSpec) -> LawReport:
    """Right: (c1+c2) * x = c1*x + c2*x for c1+c2 <= 1.
    Left: c * (x+z) = c*x + c*z whenever x+z stays in the bounded set."""
    if side not in ("left", "right"):
        raise BadParameter(f"side must be 'left' or 'right', got {side!r}")
    elems = grid_elements(grid)
    coeffs = unit_grid(grid.m)

    def right():
        for c1, c2 in itertools.combinations_with_replacement(coeffs, 2):
            if c1 + c2 > 1.0 + TOL:
                continue
            for x in elems:
                lhs = scale(mul, c1 + c2, x)
                rhs = add(addop, scale(mul, c1, x), scale(mul, c2, x))
                yield None if elements_equal(lhs, rhs) else {
                    "c1": c1, "c2": c2, "x": x, "lhs": lhs, "rhs": rhs}

    def left():
        for x, z in itertools.combinations_with_replacement(elems, 2):
            s = add(addop, x, z)
            if not s.in_unit:
                continue
            for c in coeffs:
                lhs = scale(mul, c, s)
                rhs = add(addop, scale(mul, c, x), scale(mul, c, z))
                yield None if elements_equal(lhs, rhs) else {
                    "c": c, "x": x, "z": z, "lhs": lhs, "rhs": rhs}

    return run_law(f"distributivity-{side}", right() if side == "right" else left(),
                   mul=mul.name, add=addop.name)


def check_c1(mul: MultiplicationOp, addop: AdditionOp, order: AdmissibleOrder,
             grid: GridSpec) -> LawReport:
    """Exchange inequality for weighted sums:
    (b1*u1) + (b2*v2) <= (b1*u2) + (b2*v1) whenever b2 <= b1, u1 <= u2,
    v1 <= v2, and u1+v2 = u2+v1 stays in the bounded set."""
    elems = grid_elements(grid)
    coeffs = unit_grid(grid.m)

    # Pairs of grid indices (i, j) with elems[i] <= elems[j].
    upairs = [(i, j) for (i, u1), (j, u2) in itertools.product(enumerate(elems), repeat=2)
              if order.compare(u1, u2) <= 0]
    # Bucket pairs by the componentwise difference so the cross-sum
    # constraint u1+v2 = u2+v1 becomes a dictionary match.
    by_diff: dict[tuple, list] = {}
    for i, j in upairs:
        key = tuple(round(a - b, 9) for a, b in zip(elems[j].components,
                                                    elems[i].components))
        by_diff.setdefault(key, []).append((i, j))

    def cases():
        plus = _memoized(partial(add, addop))
        bpairs = [(b1, b2) for b1 in coeffs for b2 in coeffs if b2 <= b1 + TOL]
        scaled = {b: [scale(mul, b, x) for x in elems] for b in coeffs}
        for i1, i2 in upairs:
            u1, u2 = elems[i1], elems[i2]
            key = tuple(round(a - b, 9) for a, b in zip(u2.components, u1.components))
            for j1, j2 in by_diff.get(key, ()):
                v1, v2 = elems[j1], elems[j2]
                cross = plus(u1, v2)
                if not cross.in_unit:
                    continue
                for b1, b2 in bpairs:
                    s1, s2 = scaled[b1], scaled[b2]
                    lhs = plus(s1[i1], s2[j2])
                    rhs = plus(s1[i2], s2[j1])
                    yield None if order.compare(lhs, rhs) <= 0 else {
                        "b1": b1, "b2": b2, "u1": u1, "u2": u2,
                        "v1": v1, "v2": v2, "lhs": lhs, "rhs": rhs}

    return run_law("c1", cases(), mul=mul.name, add=addop.name,
                   order=order.spec_string())
