"""Addition and multiplication operations on the carriers, plus grid checks
of the algebraic laws the characterization theorems assume.

Addition results live in the ambient set (nonnegative reals, intervals,
vectors) and are never clamped to the unit-bounded set; callers decide
where boundedness matters. Law checking is enumeration on a finite grid:
the only oracle that works uniformly for user-supplied operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cmp_to_key
from typing import Callable, Optional

from .errors import BadParameter, KindMismatch, ScaleOutOfRange, lookup
from .order import (
    INTERVAL, SCALAR, VECTOR, AdmissibleOrder, Element, GridSpec, Interval, Scalar,
    Vector, carrier, close, elements_equal, grid_elements, require_same_carrier,
    unit_grid,
)
from .reporting import LawReport, run_law


@dataclass(frozen=True)
class AdditionOp:
    """Binary addition on one carrier's ambient set: ``fn`` adds elements.
    A custom addition, ``AdditionOp(name, kind, fn)``, is ``fn`` alone.
    Only the shipped additions set ``term``, the same addition on
    component tuples, through ``_shipped``; so ``term`` never differs
    from ``fn``. The operator's fold adds on components and lifts ``fn``
    for an addition without ``term``."""

    name: str
    kind: str
    fn: Callable[[Element, Element], Element]
    term: Optional[Callable[[tuple, tuple], tuple]] = field(default=None, init=False)


@dataclass(frozen=True)
class MultiplicationOp:
    """Scaling of one carrier by a coefficient in [0, 1], defined once by
    ``term`` on component tuples: ``scale`` applies it to elements, the
    catalog kernels to the tuples they fold. ``term`` does not check the
    coefficient; ``scale`` and the kernel terms do."""

    name: str
    kind: str
    term: Callable[[float, tuple], tuple]


def add(op: AdditionOp, x: Element, z: Element) -> Element:
    require_same_carrier(x, z)
    if x.kind != op.kind:
        raise KindMismatch(f"operation {op.name!r} expects {op.kind} operands")
    return op.fn(x, z)


class _Memo:
    """Sums, kernel terms and comparisons for one case enumeration, on
    operands interned to ints. Create one when an enumeration starts,
    never at module level: each distinct call then reaches the addition,
    ``term`` or ``order.compare`` once per enumeration, and a second run
    of a check pays its own calls.

    ``plus``, ``term`` and ``compare`` are ``functools.cache`` wrappers of
    closures over the element list, the operation they memoize and
    ``id``, the interning closure; so a hit is answered without a Python
    frame, and ``cache_info().currsize`` is the number of entries. No
    closure holds the memo itself, which reference counting frees when
    its check returns.

    ``elems[i]`` is the element behind id ``i``. The grid's elements come
    first, in ``grid_elements`` order, so grid element ``i`` has id ``i``;
    every other element is interned by its ``kind`` and component tuple
    when a sum or term first yields it. So operands of two carriers never
    share an id, and ``add`` still raises ``KindMismatch`` between them.
    ``-0.0`` and ``0.0`` share one: every comparison treats them as equal,
    and grid values are never ``-0.0``. Equal ids are equal elements;
    distinct ids may still be equal, which ``equal`` decides by ``close``
    on the two interned keys, as ``elements_equal`` decides on the
    elements. Keying the memo on the elements themselves was
    measured slower: equal elements are built apart and miss, and each
    call builds its key from the operands' components."""

    def __init__(self, grid: GridSpec, addop: Optional[AdditionOp] = None,
                 order: Optional[AdmissibleOrder] = None, term: Optional[Callable] = None):
        elems = self.elems = grid_elements(grid)
        self.grid = range(len(elems))
        keys = self._keys = [(x.kind, x.components) for x in elems]  # by id
        ids = {key: i for i, key in enumerate(keys)}

        def intern(x: Element) -> int:
            key = (x.kind, x.components)
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(elems)
                elems.append(x)
                keys.append(key)
            return i

        self.id = intern
        self.plus = cache(lambda a, b: intern(add(addop, elems[a], elems[b])))
        # ``term(x, prev, b1, b2)`` of the elements behind ``a`` and ``b``.
        self.term = cache(lambda a, b, b1, b2: intern(term(elems[a], elems[b], b1, b2)))
        self.compare = cache(lambda a, b: order.compare(elems[a], elems[b]))

    def equal(self, a: int, b: int) -> bool:
        if a == b:
            return True
        (kind_a, xs), (kind_b, zs) = self._keys[a], self._keys[b]
        if kind_a != kind_b or len(xs) != len(zs):
            require_same_carrier(self.elems[a], self.elems[b])  # raises KindMismatch
        return close(xs, zs)

    def sorted(self) -> list[int]:
        """The grid's ids, sorted as ``AdmissibleOrder.sort`` sorts their
        elements, through the memoized ``compare``."""
        return sorted(self.grid, key=cmp_to_key(self.compare))


def unit_coefficient(c: float) -> float:
    """A scaling coefficient: c itself when it lies in [0, 1], taken
    exactly; anything else, NaN included, raises ``ScaleOutOfRange``."""
    if not 0.0 <= c <= 1.0:
        raise ScaleOutOfRange(f"coefficient must lie in [0, 1], got {c}")
    return c


def scale(op: MultiplicationOp, c: float, x: Element) -> Element:
    if not 0.0 <= c <= 1.0:
        unit_coefficient(c)  # raises ScaleOutOfRange
    if x.kind != op.kind:
        raise KindMismatch(f"operation {op.name!r} expects {op.kind} operands")
    return carrier(op.kind).make(op.term(c, x.components))


# ---------------------------------------------------------------------------
# Shipped operations
# ---------------------------------------------------------------------------

def _shipped(name: str, kind: str, fn, term) -> AdditionOp:
    """The shipped addition ``fn``, with ``term``, its form on component tuples."""
    op = AdditionOp(name, kind, fn)
    object.__setattr__(op, "term", term)
    return op


PLUS = _shipped("plus", SCALAR, lambda x, z: Scalar(x.value + z.value),
                lambda a, b: (a[0] + b[0],))
IV_PLUS = _shipped("iv-plus", INTERVAL,
                   lambda x, z: Interval(x.lower + z.lower, x.upper + z.upper),
                   lambda a, b: (a[0] + b[0], a[1] + b[1]))
VV_PLUS = _shipped("vv-plus", VECTOR,
                   lambda x, z: Vector(tuple(a + b for a, b in zip(x.coords, z.coords))),
                   lambda a, b: tuple([p + q for p, q in zip(a, b)]))

TIMES = MultiplicationOp("times", SCALAR, lambda c, a: (c * a[0],))
IV_SCALE = MultiplicationOp("iv-scale", INTERVAL, lambda c, a: (c * a[0], c * a[1]))
VV_SCALE = MultiplicationOp("vv-scale", VECTOR, lambda c, a: tuple([c * v for v in a]))

# Negative-control fixtures: both commutative and associative, both break
# the cancellation law.
MIN_OP = _shipped("min", SCALAR, lambda x, z: Scalar(min(x.value, z.value)),
                  lambda a, b: (min(a[0], b[0]),))
BOUNDED_SUM = _shipped("bounded-sum", SCALAR,
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
    def cases():
        memo = _Memo(grid, op)
        plus, equal, E = memo.plus, memo.equal, memo.elems
        sums = [[plus(i, j) for j in memo.grid] for i in memo.grid]  # ids of x_i + x_j
        for i, j, k in itertools.product(memo.grid, repeat=3):
            yield None if equal(plus(sums[i][j], k), plus(i, sums[j][k])) \
                else {"x": E[i], "y": E[j], "z": E[k]}

    return run_law("associativity", cases(), op=op.name)


def check_cancellation(op: AdditionOp, grid: GridSpec) -> LawReport:
    """x1 + v = x2 + v must force x1 = x2 for all grid triples."""
    def cases():
        memo = _Memo(grid, op)
        plus, equal, E = memo.plus, memo.equal, memo.elems
        for x1, x2 in itertools.combinations(memo.grid, 2):
            for v in memo.grid:
                s = plus(x1, v)
                if equal(s, plus(x2, v)):
                    yield {"x1": E[x1], "x2": E[x2], "v": E[v], "sum": E[s]}
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
    def cases():
        memo = _Memo(grid, op, order)
        plus, compare, E = memo.plus, memo.compare, memo.elems
        weak_fails = False
        for x1, x2 in itertools.product(memo.grid, repeat=2):
            c = compare(x1, x2)
            if c > 0:
                continue
            for v in memo.grid:
                lhs, rhs = plus(x1, v), plus(x2, v)
                cs = compare(lhs, rhs)
                if c < 0 and cs >= 0:
                    yield {"x1": E[x1], "x2": E[x2], "v": E[v],
                           "lhs": E[lhs], "rhs": E[rhs]}
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
            if c1 + c2 > 1.0:
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
    coeffs = unit_grid(grid.m)

    def cases():
        memo = _Memo(grid, addop, order)
        plus, compare, E = memo.plus, memo.compare, memo.elems

        # Grid components are k/m, so round(c * m) recovers each step k.
        steps = [tuple(round(c * grid.m) for c in E[i].components) for i in memo.grid]

        def diff(i, j):  # the componentwise difference E[j] - E[i], in steps
            return tuple(b - a for a, b in zip(steps[i], steps[j]))

        # Pairs of grid ids (i, j) with E[i] <= E[j], with their difference.
        # Bucketing the pairs by it makes the cross-sum constraint
        # u1+v2 = u2+v1 a dictionary match.
        upairs = [(i, j, diff(i, j)) for i, j in itertools.product(memo.grid, repeat=2)
                  if compare(i, j) <= 0]
        by_diff: dict[tuple, list] = {}
        for i, j, diff in upairs:
            by_diff.setdefault(diff, []).append((i, j))
        bpairs = [(b1, b2) for k, b1 in enumerate(coeffs) for b2 in coeffs[:k + 1]]
        scaled = {b: [memo.id(scale(mul, b, E[i])) for i in memo.grid] for b in coeffs}
        for i1, i2, diff in upairs:
            for j1, j2 in by_diff[diff]:
                if not E[plus(i1, j2)].in_unit:
                    continue
                for b1, b2 in bpairs:
                    s1, s2 = scaled[b1], scaled[b2]
                    lhs = plus(s1[i1], s2[j2])
                    rhs = plus(s1[i2], s2[j1])
                    yield None if compare(lhs, rhs) <= 0 else {
                        "b1": b1, "b2": b2, "u1": E[i1], "u2": E[i2],
                        "v1": E[j1], "v2": E[j2], "lhs": E[lhs], "rhs": E[rhs]}

    return run_law("c1", cases(), mul=mul.name, add=addop.name,
                   order=order.spec_string())
