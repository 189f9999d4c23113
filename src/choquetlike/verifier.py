"""Executable characterizations of the operator's structural properties.

Each check decides, by exhaustive enumeration on a finite grid, whether a
kernel/algebra/order configuration satisfies the condition-level
characterization of well-definedness, monotonicity, or
aggregation-function status, and extracts a replayable counterexample on
failure. ``oracle_crosscheck`` confronts the condition-level verdicts
with operator-level brute force over all grid input tuples and a fixed
capacity battery; disagreement raises, it is a bug detector rather than
an expected outcome.

Two caveats apply to every report here: a pass means "no counterexample
at this resolution", and operator-level sweeps quantify over the finite
capacity battery, not over all capacities.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from time import perf_counter
from typing import Optional

from .algebra import (
    AdditionOp, _memoized, add, check_cancellation, check_compatibility,
)
from .capacity import MAX_N, Capacity, capacity_family
from .dissimilarity import check_dissimilarity, projected_dissimilarity, resolve_delta
from .errors import BadParameter, HypothesisViolated, OracleDisagreement
from .operator import (
    AggregationInput, KernelL, PermutationSet, choquet_aggregate, _eval_sorted,
)
from .order import (
    SCALAR, TOL, AdmissibleOrder, GridSpec, ScalarUsual, elements_equal,
    grid_elements, one_element, unit_grid, zero_element,
)
from .reporting import LawReport, run_law

_RESOLUTION_NOTE = "pass = no counterexample found at resolution m={m}"
_CAPACITY_NOTE = ("operator-level sweep quantifies over a finite capacity "
                  "battery, not all capacities")


def _require(pre: LawReport, what: str):
    if not pre.passed:
        raise HypothesisViolated(
            f"{what} fails on the grid; the characterization does not apply "
            f"(witness: {pre.witness})")


def _tagged(cases, **tag):
    """A sub-check's cases, with ``tag`` added to its witness."""
    for witness in cases:
        yield witness if witness is None else dict(witness, **tag)


def _terms(kernel, addop):
    """The kernel's ``evaluate`` and the addition, each memoized for one
    case enumeration; a nested sub-enumeration shares its caller's."""
    return _memoized(kernel.evaluate), _memoized(partial(add, addop))


def _nondecreasing(order, chain, H, context):
    """One case per chain element: H must not decrease along the chain."""
    prev_x = prev_v = None
    for x in chain:
        v = H(x)
        if prev_v is not None and order.compare(prev_v, v) > 0:
            yield dict(context, x=prev_x, x_next=x, value=prev_v, value_next=v)
        else:
            yield None
        prev_x, prev_v = x, v


# ---------------------------------------------------------------------------
# Well-definedness
# ---------------------------------------------------------------------------

def check_wd(kernel: KernelL, addop: AdditionOp, order: AdmissibleOrder,
             n: int, grid: GridSpec) -> LawReport:
    """Permutation-invariance characterization at arity n.

    Requires the addition to satisfy cancellation on the grid. The
    condition asserts constancy, in the middle weight c, of the sum
    L(x1, x2, b1, c) + L(x1, x1, c, b2) over the appropriate (x, b)
    ranges; the ranges depend on whether n is 2, 3, or at least 4.
    """
    return run_law("wd", _wd_cases(kernel, addop, order, n, grid), n=n,
                   kernel=kernel.name, note=_RESOLUTION_NOTE.format(m=grid.m))


def _wd_cases(kernel, addop, order, n, grid, terms=None):
    if not 2 <= n <= MAX_N:
        raise BadParameter(f"well-definedness is defined for n in 2..{MAX_N}, got {n}")
    _require(check_cancellation(addop, grid), "addition cancellation")
    L, plus = terms or _terms(kernel, addop)
    elems = order.sort(grid_elements(grid))
    coeffs = unit_grid(grid.m)
    zero = zero_element(grid.kind, grid.dim)

    def constant_in_c(x1, x2, b1, b2, cs):
        base = None
        base_c = None
        for c in cs:
            val = plus(L(x1, x2, b1, c), L(x1, x1, c, b2))
            if base is None:
                base, base_c = val, c
            yield None if elements_equal(val, base) else {
                "x1": x1, "x2": x2, "b1": b1, "b2": b2,
                "c": base_c, "value_at_c": base,
                "c_other": c, "value_at_c_other": val}

    if n <= 3:
        # x against the least element over c >= b; the n = 2 regime pins b = 0.
        for x in elems:
            for b in [0.0] if n == 2 else coeffs:
                yield from constant_in_c(x, zero, 1.0, b,
                                         [c for c in coeffs if c >= b - TOL])
    if n >= 3:
        # x2 <= x1 over b2 <= c <= b1; the n = 3 regime pins b2 = 0.
        for i, x2 in enumerate(elems):
            for x1 in elems[i:]:
                for b2 in [0.0] if n == 3 else coeffs:
                    for b1 in coeffs:
                        if b1 < b2 - TOL:
                            continue
                        cs = [c for c in coeffs if b2 - TOL <= c <= b1 + TOL]
                        yield from constant_in_c(x1, x2, b1, b2, cs)


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------

def check_monotonicity(kernel: KernelL, addop: AdditionOp, order: AdmissibleOrder,
                       n: int, grid: GridSpec) -> LawReport:
    """Monotonicity characterization at arity n.

    Requires strict compatibility of the order with the addition on the
    grid. Combines well-definedness with non-decreasingness, over order
    intervals, of the one- and two-term kernel maps prescribed for the
    n = 2, n = 3, and n >= 4 regimes. Non-decreasingness over a finite
    chain is checked on consecutive pairs, which is equivalent by
    transitivity.
    """
    return run_law("monotonicity", _monotonicity_cases(kernel, addop, order, n, grid),
                   n=n, kernel=kernel.name, note=_RESOLUTION_NOTE.format(m=grid.m))


def _monotonicity_cases(kernel, addop, order, n, grid, terms=None):
    if not 2 <= n <= MAX_N:
        raise BadParameter(f"monotonicity is defined for n in 2..{MAX_N}, got {n}")
    _require(check_compatibility(addop, order, grid), "strict compatibility")
    L, plus = terms = terms or _terms(kernel, addop)
    yield from _tagged(_wd_cases(kernel, addop, order, n, grid, terms), condition="a:wd")
    elems = order.sort(grid_elements(grid))
    coeffs = unit_grid(grid.m)
    zero = zero_element(grid.kind, grid.dim)

    if n <= 3:
        # x in [0, v] |-> L(x, 0, 1, b1) + L(v, x, b1, b2); the n = 2 regime
        # pins b2 = 0.
        weights = ([(b, 0.0) for b in coeffs] if n == 2
                   else [(b1, b2) for b2, b1 in _weight_pairs(coeffs)])
        for j, v in enumerate(elems):
            for b1, b2 in weights:
                named = {"b": b1} if n == 2 else {"b1": b1, "b2": b2}
                yield from _nondecreasing(
                    order, elems[:j + 1],
                    lambda x: plus(L(x, zero, 1.0, b1), L(v, x, b1, b2)),
                    {"condition": "b:lower-pair", "v": v, **named})
    if n >= 3:
        # x in [u, v] |-> L(x, u, b1, b2) + L(v, x, b2, b3), over u <= v and
        # non-increasing weight chains; the n = 3 regime pins b3 = 0.
        for i, u in enumerate(elems):
            for j in range(i, len(elems)):
                v = elems[j]
                for b2, b1 in _weight_pairs(coeffs):
                    b3s = [0.0] if n == 3 else [b for b in coeffs if b <= b2 + TOL]
                    for b3 in b3s:
                        yield from _nondecreasing(
                            order, elems[i:j + 1],
                            lambda x: plus(L(x, u, b1, b2), L(v, x, b2, b3)),
                            {"condition": "inner-pair", "u": u, "v": v,
                             "b1": b1, "b2": b2, "b3": b3})
    # x in [u, 1] |-> L(x, u, b, 0): the common final condition.
    for i, u in enumerate(elems):
        for b in coeffs:
            yield from _nondecreasing(
                order, elems[i:], lambda x: L(x, u, b, 0.0),
                {"condition": "upper-tail", "u": u, "b": b})


def _weight_pairs(coeffs):
    return [(b2, b1) for b2 in coeffs for b1 in coeffs if b1 >= b2 - TOL]


# ---------------------------------------------------------------------------
# Aggregation-function characterization
# ---------------------------------------------------------------------------

def check_aggregation(kernel: KernelL, addop: AdditionOp, order: AdmissibleOrder,
                      n: int, grid: GridSpec) -> LawReport:
    """Aggregation-function characterization: monotonicity plus the two
    boundary sums over all non-increasing weight chains pinned at
    b1 = 1 and b_{n+1} = 0."""
    zero = zero_element(grid.kind, grid.dim)
    one = one_element(grid.kind, grid.dim)

    def cases():
        L, plus = terms = _terms(kernel, addop)
        yield from _tagged(_monotonicity_cases(kernel, addop, order, n, grid, terms),
                           failed_condition="monotonicity")
        coeffs = unit_grid(grid.m)
        for mids in itertools.combinations_with_replacement(
                sorted(coeffs, reverse=True), n - 1):
            b = (1.0,) + mids + (0.0,)
            zsum = reduce(plus, [L(zero, zero, b[i], b[i + 1]) for i in range(n)])
            yield None if elements_equal(zsum, zero) else {
                "failed_condition": "zero-boundary", "b_chain": list(b),
                "value": zsum, "expected": zero}
            osum = reduce(plus, [L(one, zero, b[0], b[1])]
                          + [L(one, one, b[i], b[i + 1]) for i in range(1, n)])
            yield None if elements_equal(osum, one) else {
                "failed_condition": "one-boundary", "b_chain": list(b),
                "value": osum, "expected": one}

    return run_law("aggregation", cases(), n=n, kernel=kernel.name,
                   note=_RESOLUTION_NOTE.format(m=grid.m))


# ---------------------------------------------------------------------------
# Specialized criteria
# ---------------------------------------------------------------------------

def check_delta_decomposition(delta, grid: GridSpec) -> LawReport:
    """delta(b1, b2) = delta(b1, 0) - delta(b2, 0) on all grid pairs
    b2 <= b1: the criterion deciding whether the weight-difference kernel
    built from this scalar dissimilarity aggregates.

    Requires delta to be a scalar dissimilarity (checked on the grid).
    """
    delta_fn = resolve_delta(delta)
    d = projected_dissimilarity(delta, SCALAR)
    _require(check_dissimilarity(d, ScalarUsual(), GridSpec(SCALAR, grid.m)),
             f"delta {d.name!r} as a scalar dissimilarity")
    coeffs = unit_grid(grid.m)

    def cases():
        for b2, b1 in _weight_pairs(coeffs):
            lhs = delta_fn(b1, b2)
            rhs = delta_fn(b1, 0.0) - delta_fn(b2, 0.0)
            yield None if abs(lhs - rhs) <= TOL else {
                "b1": b1, "b2": b2, "lhs": lhs, "rhs": rhs}

    return run_law("delta-decomposition", cases(), delta=d.name,
                   note=_RESOLUTION_NOTE.format(m=grid.m))


def check_jensen_f(F, addop: AdditionOp, grid: GridSpec,
                   order: Optional[AdmissibleOrder] = None, n: int = 3) -> LawReport:
    """Criteria for the F(x, b1 - b2) kernel family to aggregate.

    The core identity is the Jensen-type midpoint equation
    F(x, a) + F(x, b) = 2-fold F(x, (a+b)/2), checked for all grid
    (x, a, b) whose midpoint lies on the grid. The companion conditions
    are checked when their parameters are supplied: non-decreasingness of
    x -> F(x, b) (needs ``order``), a vanishing least element, and the
    n-term greatest-element sum over weight tuples summing to one.
    """
    elems = grid_elements(grid)
    coeffs = unit_grid(grid.m)
    zero = zero_element(grid.kind, grid.dim)
    one = one_element(grid.kind, grid.dim)

    def cases():
        for x in elems:
            for a, b in itertools.combinations_with_replacement(coeffs, 2):
                mid = 0.5 * (a + b)
                if min(abs(mid - c) for c in coeffs) > TOL:
                    continue
                lhs = add(addop, F(x, a), F(x, b))
                rhs = add(addop, F(x, mid), F(x, mid))
                yield None if elements_equal(lhs, rhs) else {
                    "failed_condition": "midpoint", "x": x, "a": a, "b": b,
                    "lhs": lhs, "rhs": rhs}
        if order is not None:
            ordered = order.sort(elems)
            for b in coeffs:
                yield from _nondecreasing(order, ordered, lambda x: F(x, b),
                                          {"failed_condition": "monotone-in-x", "b": b})
        for b in coeffs:
            v = F(zero, b)
            yield None if elements_equal(v, zero) else {
                "failed_condition": "zero-boundary", "b": b, "value": v}
        scaled = [round(c * grid.m) for c in coeffs]
        for combo in itertools.combinations_with_replacement(scaled, n):
            if sum(combo) != grid.m:
                continue
            bs = [c / grid.m for c in combo]
            total = reduce(partial(add, addop), [F(one, b) for b in bs])
            yield None if elements_equal(total, one) else {
                "failed_condition": "one-boundary", "b_tuple": bs, "value": total}

    return run_law("jensen-f", cases(), n=n, note=_RESOLUTION_NOTE.format(m=grid.m))


# ---------------------------------------------------------------------------
# Operator-level brute force and the crosscheck
# ---------------------------------------------------------------------------

def capacity_battery(n: int, seed: int = 42) -> list[Capacity]:
    """Fixed capacity family for operator-level sweeps: cardinality, every
    point mass, every cardinality threshold, and five seeded random
    monotone capacities. The extreme members exercise the endpoints of the
    weight chains where conditions typically break."""
    caps = [capacity_family("cardinality", n)]
    caps += [capacity_family("dirac", n, i=i) for i in range(1, n + 1)]
    caps += [capacity_family("top", n, k=k) for k in range(1, n + 1)]
    caps += [capacity_family("uniform-random", n, seed=seed + j)
             for j in range(5)]
    return caps


def _value_table(kernel, addop, order, n, elems, caps):
    """For every input tuple and capacity: operator values across all
    admissible permutations, reduced to their (min, max) under the order,
    each as a (value, sigma) pair."""
    table = {}
    for X in itertools.product(elems, repeat=n):
        perms = list(PermutationSet(X, order))
        per_cap = []
        for mu in caps:
            inp_mu = AggregationInput(X, mu, order, addop)
            values = [(_eval_sorted(inp_mu, kernel, sigma), sigma) for sigma in perms]
            vmin = vmax = values[0]
            for v in values[1:]:
                if order.compare(v[0], vmin[0]) < 0:
                    vmin = v
                if order.compare(v[0], vmax[0]) > 0:
                    vmax = v
            per_cap.append((vmin, vmax))
        table[X] = per_cap
    return table


def brute_force_wd(kernel: KernelL, addop: AdditionOp, order: AdmissibleOrder,
                   n: int, grid: GridSpec, seed: int = 42) -> LawReport:
    """Direct multi-permutation consistency sweep: for every grid tuple and
    battery capacity, all admissible permutations must agree."""

    def cases():
        elems = grid_elements(grid)
        caps = capacity_battery(n, seed)
        for X in itertools.product(elems, repeat=n):
            perms = list(PermutationSet(X, order))
            if len(perms) == 1:
                continue
            for mu in caps:
                inp = AggregationInput(X, mu, order, addop)
                base_sigma = perms[0]
                base = _eval_sorted(inp, kernel, base_sigma)
                for sigma in perms[1:]:
                    val = _eval_sorted(inp, kernel, sigma)
                    yield None if elements_equal(val, base) else {
                        "X": list(X), "capacity": mu.to_json()["entries"],
                        "sigma_a": base_sigma, "value_a": base,
                        "sigma_b": sigma, "value_b": val,
                    }

    return run_law("wd-brute-force", cases(), n=n, note=_CAPACITY_NOTE)


def brute_force_monotonicity(kernel: KernelL, addop: AdditionOp,
                             order: AdmissibleOrder, n: int, grid: GridSpec,
                             seed: int = 42) -> LawReport:
    """Direct enumeration of the monotonicity condition: every
    componentwise-dominating pair of grid tuples, every pair of
    admissible permutations, every battery capacity."""

    def cases():
        elems = order.sort(grid_elements(grid))
        caps = capacity_battery(n, seed)
        table = _value_table(kernel, addop, order, n, elems, caps)
        upsets = {e: elems[i:] for i, e in enumerate(elems)}
        for X, per_cap_x in table.items():
            for Z in itertools.product(*(upsets[x] for x in X)):
                per_cap_z = table[Z]
                for mu, (_, xmax), (zmin, _) in zip(caps, per_cap_x, per_cap_z):
                    yield None if order.compare(xmax[0], zmin[0]) <= 0 else {
                        "X": list(X), "Z": list(Z),
                        "capacity": mu.to_json()["entries"],
                        "sigma": xmax[1], "value_X": xmax[0],
                        "tau": zmin[1], "value_Z": zmin[0],
                    }

    return run_law("monotonicity-brute-force", cases(), n=n, note=_CAPACITY_NOTE)


def oracle_crosscheck(kernel: KernelL, addop: AdditionOp, order: AdmissibleOrder,
                      n: int, grid: GridSpec, laws=("wd", "monotonicity"),
                      seed: int = 42) -> LawReport:
    """Confront condition-level verdicts with operator-level brute force.

    For each requested law the condition check and the brute-force sweep
    must agree (both pass or both fail); any disagreement raises
    ``OracleDisagreement``. Also spot-checks that the aggregate
    consistency flag matches the brute-force permutation sweep.
    """
    start = perf_counter()
    verdicts = {}
    checked = 0
    for law, condition, brute_force, spot_check in [
            ("wd", check_wd, brute_force_wd, _spot_check_consistency),
            ("monotonicity", check_monotonicity, brute_force_monotonicity, None)]:
        if law not in laws:
            continue
        cond = condition(kernel, addop, order, n, grid)
        brute = brute_force(kernel, addop, order, n, grid, seed)
        checked += cond.checked + brute.checked
        verdicts[law] = (cond.verdict, brute.verdict)
        if cond.verdict != brute.verdict:
            raise OracleDisagreement(
                f"{law}: condition-level says {cond.verdict} "
                f"(witness {cond.witness}), brute force says {brute.verdict} "
                f"(witness {brute.witness})")
        if spot_check is not None:
            checked += spot_check(kernel, addop, order, n, grid, brute.verdict, seed)
    return LawReport(law="oracle-crosscheck", verdict="pass", checked=checked,
                     elapsed=perf_counter() - start,
                     detail={"n": n, "kernel": kernel.name,
                             "verdicts": {k: {"condition": v[0], "brute_force": v[1]}
                                          for k, v in verdicts.items()},
                             "note": _CAPACITY_NOTE})


def _spot_check_consistency(kernel, addop, order, n, grid, brute_verdict, seed):
    """The aggregate consistency flag must match the brute-force sweep on a
    sample of tuples: all-consistent iff the sweep passed."""
    elems = grid_elements(grid)
    caps = capacity_battery(n, seed)
    sample = list(itertools.product(elems[:3], repeat=n))[:20]
    sample += [(e,) * n for e in elems]  # constant tuples maximize ties
    checked = 0
    for X, mu in itertools.product(sample, caps):
        checked += 1
        res = choquet_aggregate(AggregationInput(X, mu, order, addop), kernel)
        if not res.consistent:
            if brute_verdict == "pass":
                raise OracleDisagreement(
                    "aggregate reports an inconsistency on a tuple the "
                    "brute-force sweep accepted")
            break
    return checked
