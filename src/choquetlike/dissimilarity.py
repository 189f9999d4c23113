"""Dissimilarity functions on the carriers and the width-based interval
construction of Takac-style interval-valued dissimilarities.

A dissimilarity is symmetric, vanishes on the diagonal, is maximal at
(least, greatest), and grows along chains of the admissible order. On
every carrier the shipped ``abs-diff`` and ``sq-diff`` project through
the order's leading invariant, its ``lead``, and return constant
elements; that is the construction under which the telescoping identity
survives beyond scalars.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import IV_PLUS, AdditionOp, add
from .errors import (
    AlphaOutOfRange, BadParameter, KindMismatch, ReconstructionOutOfK, lookup,
)
from .order import (
    INTERVAL, SCALAR, TOL, AdmissibleOrder, AlphaBeta, Element, GridSpec,
    Interval, ScalarUsual, carrier, elements_equal, grid_elements, k_alpha,
    one_element, unit_grid, zero_element,
)
from .reporting import LawReport, run_law


@dataclass(frozen=True)
class DissimilarityFn:
    """A dissimilarity ``fn`` of elements. ``term``, when given, is the
    same function on component tuples; the shipped dissimilarities are
    defined by it, and ``fn`` lifts it."""

    name: str
    fn: Callable[[Element, Element], Element]
    term: Optional[Callable[[tuple, tuple], tuple]] = None

    def __call__(self, x: Element, z: Element) -> Element:
        return self.fn(x, z)


# ---------------------------------------------------------------------------
# Scalar dissimilarities on [0, 1] (also used as capacity-difference deltas)
# ---------------------------------------------------------------------------

def delta_abs(a: float, b: float) -> float:
    return abs(a - b)


def delta_sq(a: float, b: float) -> float:
    return (a - b) ** 2


def delta_capped_double(a: float, b: float) -> float:
    return min(1.0, 2.0 * abs(a - b))


_DELTAS: dict[str, Callable[[float, float], float]] = {
    "abs-diff": delta_abs,
    "difference": delta_abs,
    "sq-diff": delta_sq,
    "capped-double": delta_capped_double,
}


def resolve_delta(spec) -> Callable[[float, float], float]:
    if callable(spec):
        return spec
    return lookup(_DELTAS, spec, "scalar dissimilarity")


def delta_covers_unit_range(delta: Callable[[float, float], float]) -> bool:
    """Whether t -> delta(t, 0) sweeps [0, 1] over t in [0, 1].

    Checked as: endpoints hit 0 and 1, values stay in [0, 1], and the map
    is non-decreasing on the grid {0, 1/64, ..., 1}. Of the shipped deltas
    only ``abs-diff`` both satisfies this and is strictly monotone.
    """
    prev = None
    for t in unit_grid(64):
        v = delta(t, 0.0)
        if not (-TOL <= v <= 1.0 + TOL):
            return False
        if prev is not None and v < prev - TOL:
            return False
        prev = v
    return abs(delta(0.0, 0.0)) <= TOL and abs(delta(1.0, 0.0) - 1.0) <= TOL


# ---------------------------------------------------------------------------
# Carrier-valued dissimilarities
# ---------------------------------------------------------------------------

def projected_dissimilarity(spec, kind: str,
                            order: Optional[AdmissibleOrder] = None) -> DissimilarityFn:
    """d(x, z) = delta of the leading invariants ``order.lead`` of x's and
    z's component tuples (a scalar's value, an interval's alpha mix under
    an ``ab`` order, a vector's first-priority coordinate under a
    ``veclex`` order, or what a custom order's ``lead`` returns) as a
    constant element (of the order's ``dim`` on vectors, or the input's if
    the order takes any), under which the chain conditions and the
    telescoping identity reduce to their scalar counterparts. ``order`` is
    an admissible order of carrier ``kind``,
    ``ScalarUsual()`` by default on scalars; any other raises
    ``BadParameter``. A callable delta is named ``custom``; its outputs may
    need the element constructor's normalisation, so it has no ``term``."""
    delta, record = resolve_delta(spec), carrier(kind)
    if order is None and kind == SCALAR:
        order = ScalarUsual()
    if order is None or order.kind != kind:
        raise BadParameter(f"a projected {kind} dissimilarity needs an "
                           f"admissible order of the {kind} carrier, got {order!r}")
    lead, width = order.lead, record.arity or order.dim

    def term(xc: tuple, zc: tuple) -> tuple:
        return (delta(lead(xc), lead(zc)),) * (width or len(xc))
    named = isinstance(spec, str)
    return DissimilarityFn(spec if named else "custom", _on_elements(term, kind),
                           term if named else None)


def _on_elements(term, kind: str) -> Callable[[Element, Element], Element]:
    """``term`` on elements of carrier ``kind``; another kind raises ``KindMismatch``."""
    make = carrier(kind).make

    def fn(x: Element, z: Element) -> Element:
        if x.kind != kind or z.kind != kind:
            raise KindMismatch(f"a dissimilarity of {kind} inputs got {x!r} and {z!r}")
        return make(term(x.components, z.components))
    return fn


def resolve_dissimilarity(spec: str, kind: str,
                          order: Optional[AdmissibleOrder] = None) -> DissimilarityFn:
    """Resolve a dissimilarity spec string for a carrier.

    Grammar: ``abs-diff`` | ``sq-diff`` | ``takac:<alpha>:<Md>:<deltad>``
    with Md in {max, min, mean} and deltad in {abs-diff}. abs/sq-diff
    project through an admissible order of the carrier, which scalars
    need not give (see ``projected_dissimilarity``).
    """
    if not isinstance(spec, str):
        raise BadParameter(f"a dissimilarity spec is a string, got {spec!r}")
    spec = spec.strip()
    if spec.startswith("takac:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise BadParameter(f"bad dissimilarity spec: {spec!r}")
        if kind != INTERVAL:
            raise BadParameter("the takac construction is interval-valued")
        return takac_dissimilarity_fn(float(parts[1]), parts[2], parts[3])
    if spec in _DELTAS:
        return projected_dissimilarity(spec, kind, order)
    raise BadParameter(f"unknown dissimilarity spec: {spec!r}")


# ---------------------------------------------------------------------------
# Width normalization and the Takac construction
# ---------------------------------------------------------------------------

_MEANS: dict[str, Callable[[float, float], float]] = {
    "max": max,
    "min": min,
    "mean": lambda a, b: 0.5 * (a + b),
}


def resolve_symmetric_mean(spec) -> Callable[[float, float], float]:
    if callable(spec):
        return spec
    return lookup(_MEANS, spec, "symmetric aggregation")


def _require_inner_alpha(alpha: float) -> None:
    if not (TOL < alpha < 1.0 - TOL):
        raise AlphaOutOfRange(f"alpha must lie strictly inside (0, 1), got {alpha}")


def _width_ratio(ka: float, width: float, alpha: float) -> float:
    denom = min(ka / alpha, (1.0 - ka) / (1.0 - alpha))
    if denom <= TOL:
        return 0.0
    return width / denom


def lambda_alpha(x: Interval, alpha: float) -> float:
    """Normalized relative width w(x) / min(K_alpha/alpha, (1-K_alpha)/(1-alpha))
    with the convention 0/0 = 0."""
    _require_inner_alpha(alpha)
    return _width_ratio(k_alpha(x, alpha), x.width, alpha)


def _takac_term(alpha: float, m_d, delta_d):
    """The Takac construction on endpoint pairs: the alpha mix of the
    output is delta_d of the inputs' alpha mixes, and its normalized width
    is m_d of the inputs' normalized widths. The interval is reassembled as
    [K - alpha*w, K + (1-alpha)*w] where w inverts the width
    normalization."""
    _require_inner_alpha(alpha)
    m_d = resolve_symmetric_mean(m_d)
    delta_d = resolve_delta(delta_d)

    def term(xc: tuple, yc: tuple) -> tuple:
        kx = (1.0 - alpha) * xc[0] + alpha * xc[1]
        ky = (1.0 - alpha) * yc[0] + alpha * yc[1]
        kz = delta_d(kx, ky)
        lz = m_d(_width_ratio(kx, xc[1] - xc[0], alpha),
                 _width_ratio(ky, yc[1] - yc[0], alpha))
        denom = min(kz / alpha, (1.0 - kz) / (1.0 - alpha))
        wz = 0.0 if denom <= TOL else lz * denom

        lo = kz - alpha * wz
        hi = kz + (1.0 - alpha) * wz
        slack = 1e-9
        if lo < -slack or hi > 1.0 + slack or hi < lo - slack:
            raise ReconstructionOutOfK(
                f"reconstructed interval [{lo}, {hi}] leaves [0, 1]")
        lo = min(max(lo, 0.0), 1.0)
        return lo, min(max(hi, lo), 1.0)

    return term


def takac_dissimilarity_fn(alpha: float, m_d, delta_d) -> DissimilarityFn:
    m_name = m_d if isinstance(m_d, str) else "custom"
    d_name = delta_d if isinstance(delta_d, str) else "custom"
    term = _takac_term(alpha, m_d, delta_d)
    return DissimilarityFn(f"takac:{alpha:g}:{m_name}:{d_name}",
                           _on_elements(term, INTERVAL), term)


# ---------------------------------------------------------------------------
# Law checks
# ---------------------------------------------------------------------------

def check_dissimilarity(d: DissimilarityFn, order: AdmissibleOrder,
                        grid: GridSpec) -> LawReport:
    """Grid check of the dissimilarity axioms: symmetry, maximality at the
    bounds, a vanishing diagonal, and growth along order chains."""
    elems = order.sort(grid_elements(grid))
    zero = zero_element(grid.kind, grid.dim)
    one = one_element(grid.kind, grid.dim)

    def cases():
        boundary = d(zero, one)
        yield None if elements_equal(boundary, one) else {
            "violation": "boundary", "value": boundary, "expected": one}
        for x in elems:
            diag = d(x, x)
            yield None if elements_equal(diag, zero) else {
                "violation": "diagonal", "x": x, "value": diag}
        for x, z in itertools.combinations(elems, 2):
            xz, zx = d(x, z), d(z, x)
            yield None if elements_equal(xz, zx) else {
                "violation": "symmetry", "x": x, "z": z, "xz": xz, "zx": zx}
        # Elements are order-sorted, so chains x <= y <= z are index triples.
        for i, j, k in itertools.combinations_with_replacement(range(len(elems)), 3):
            x, y, z = elems[i], elems[j], elems[k]
            d_xy, d_yz, d_xz = d(x, y), d(y, z), d(x, z)
            if order.compare(d_xy, d_xz) > 0 or order.compare(d_yz, d_xz) > 0:
                yield {"violation": "chain-monotonicity", "x": x, "y": y, "z": z,
                       "d_xy": d_xy, "d_yz": d_yz, "d_xz": d_xz}
            else:
                yield None

    return run_law("dissimilarity", cases(), d=d.name,
                   note=f"no counterexample at resolution m={grid.m}")


def check_telescoping(d: DissimilarityFn, addop: AdditionOp,
                      order: AdmissibleOrder, grid: GridSpec) -> LawReport:
    """d(x1, 0) + d(x2, x1) = d(x2, 0) for all grid pairs x1 <= x2.

    This identity is exactly what makes the capacity-weighted
    dissimilarity operator an aggregation function.
    """
    elems = order.sort(grid_elements(grid))
    zero = zero_element(grid.kind, grid.dim)

    def cases():
        for i, x1 in enumerate(elems):
            d10 = d(x1, zero)
            for x2 in elems[i:]:
                lhs = add(addop, d10, d(x2, x1))
                rhs = d(x2, zero)
                yield None if elements_equal(lhs, rhs) else {
                    "x1": x1, "x2": x2, "lhs": lhs, "rhs": rhs}

    return run_law("telescoping", cases(), d=d.name,
                   note=f"no counterexample at resolution m={grid.m}")


# ---------------------------------------------------------------------------
# Counterexample search for the width-based construction
# ---------------------------------------------------------------------------

def takac_counterexample(alpha: float, beta: float, m_d, delta_d,
                         grid: GridSpec) -> LawReport:
    """Search for a telescoping violation of the width-based interval
    dissimilarity under the (alpha, beta)-order.

    The search walks the family x1 = [0, t1], x2 = [0, t2] with
    0 < t1 < t2 on the grid, then every grid interval pair x1 <= x2 (the
    family telescopes exactly for some parameters, e.g. max/abs-diff).
    The report's witness is the first violating pair in that order: a dict
    of ``x1``, ``x2``, the sides ``lhs`` and ``rhs``, the alpha-mix images
    a1 = delta(K(x1), 0), a2 = delta(K(x2), 0), a12 = delta(K(x1), K(x2)),
    and the sides ``width_lhs``, ``width_rhs`` of w(z1) + w(z12) = w(z2).
    A pass means no violation at this resolution: the grid may be too
    coarse or the parameters outside the construction's hypotheses. The
    detail names the parameters, passing or failing.
    """
    delta_fn = resolve_delta(delta_d)
    if not delta_covers_unit_range(delta_fn):
        raise BadParameter(
            "delta_d must sweep [0, 1] against 0 for the search to apply")
    order = AlphaBeta(alpha, beta)
    d = takac_dissimilarity_fn(alpha, m_d, delta_d)
    zero = Interval(0.0, 0.0)

    def pairs():
        ts = unit_grid(grid.m)[1:]
        for t1, t2 in itertools.combinations(ts, 2):
            yield Interval(0.0, t1), Interval(0.0, t2)
        elems = grid_elements(GridSpec(INTERVAL, grid.m))
        for x1 in elems:
            for x2 in elems:
                if order.compare(x1, x2) <= 0:
                    yield x1, x2

    def cases():
        for x1, x2 in pairs():
            z1 = d(x1, zero)
            z12 = d(x2, x1)
            z2 = d(x2, zero)
            lhs = add(IV_PLUS, z1, z12)
            if elements_equal(lhs, z2, tol=1e-9):
                yield None
            else:
                ka1, ka2 = k_alpha(x1, alpha), k_alpha(x2, alpha)
                yield {
                    "x1": x1, "x2": x2, "lhs": lhs, "rhs": z2,
                    "a1": delta_fn(ka1, 0.0), "a2": delta_fn(ka2, 0.0),
                    "a12": delta_fn(ka1, ka2),
                    "width_lhs": z1.width + z12.width, "width_rhs": z2.width,
                }

    return run_law("takac-telescoping", cases(), alpha=alpha, beta=beta, Md=m_d,
                   delta_d=delta_d, note=f"no counterexample at resolution m={grid.m}")
