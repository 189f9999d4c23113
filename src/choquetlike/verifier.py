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
    AdditionOp, _Memo, add, check_cancellation, check_compatibility,
)
from .capacity import MAX_N, Capacity, capacity_family
from .dissimilarity import check_dissimilarity, projected_dissimilarity, resolve_delta
from .errors import BadParameter, HypothesisViolated, OracleDisagreement
from .operator import (
    AggregationInput, KernelL, PermutationSet, choquet_aggregate, _eval_sorted,
)
from .order import (
    SCALAR, AdmissibleOrder, GridSpec, ScalarUsual, close, elements_equal,
    grid_elements, one_element, unit_grid, zero_element,
)
from .reporting import LawReport, run_law

_RESOLUTION_NOTE = "pass = no counterexample found at resolution m={m}"
_CAPACITY_NOTE = ("operator-level sweep quantifies over a finite capacity "
                  "battery, not all capacities")


class RunRecord:
    """What one ``verify`` run has found, kept for the rest of the run:
    each case enumeration's number of passing cases and first witness,
    each precheck's report and each catalog kernel, by key. ``cmd_verify``
    creates one per run and hands it to the checks, never at module level,
    so a second run pays its own calls. A key holds the objects the
    outcome depends on, kernel and order included, so two kernels under
    one name never share an entry. An enumeration or a precheck that
    raises records nothing."""

    def __init__(self):
        self._kept: dict = {}

    def cases(self, key, cases):
        """The case enumeration ``cases()``, run once per ``key``. A
        repeat yields the recorded number of passing cases and then the
        first witness, which is all ``run_law`` reads of it."""
        outcome = self._kept.get(key)
        if outcome is None:
            passed, witness = 0, None
            for witness in cases():
                if witness is not None:
                    break
                passed += 1
                yield None
            outcome = self._kept[key] = passed, witness
        else:
            yield from itertools.repeat(None, outcome[0])
        if outcome[1] is not None:
            yield outcome[1]

    def once(self, key, build):
        """``build()``, called once per ``key``."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]


def _recorded(law):
    """Decorate the case enumeration of ``law``: given a run ``record``,
    it runs once per (law, kernel, addition, order, n, grid) and is
    replayed after; without one, it runs afresh."""
    def decorate(cases):
        def recorded(kernel, addop, order, n, grid, memo=None, record=None):
            if record is None:
                return cases(kernel, addop, order, n, grid, memo, record)
            return record.cases((law, kernel, addop, order, n, grid),
                                lambda: cases(kernel, addop, order, n, grid, memo, record))
        return recorded
    return decorate


def _require(what: str, check, *args, record: Optional[RunRecord] = None):
    """Refuse to run unless the precheck ``check(*args)`` passes; a run
    ``record`` runs it once per run."""
    pre = (check(*args) if record is None
           else record.once((check, *args), lambda: check(*args)))
    if not pre.passed:
        raise HypothesisViolated(
            f"{what} fails on the grid; the characterization does not apply "
            f"(witness: {pre.witness})")


def _require_arity(n: int, what: str):
    if not 2 <= n <= MAX_N:
        raise BadParameter(f"{what} is defined for n in 2..{MAX_N}, got {n}")


def _tagged(cases, **tag):
    """A sub-check's cases, with ``tag`` added to its witness."""
    for witness in cases:
        yield witness if witness is None else dict(witness, **tag)


def _nondecreasing(memo, chain, H, context):
    """One case per chain element: H must not decrease along the chain.
    The chain and H's values are ids of ``memo``, which compares them; a
    witness holds their elements."""
    E = memo.elems
    prev_x = prev_v = None
    for x in chain:
        v = H(x)
        if prev_v is not None and memo.compare(prev_v, v) > 0:
            yield dict(context, x=E[prev_x], x_next=E[x], value=E[prev_v], value_next=E[v])
        else:
            yield None
        prev_x, prev_v = x, v


# ---------------------------------------------------------------------------
# Well-definedness
# ---------------------------------------------------------------------------

def check_wd(kernel: KernelL, addop: AdditionOp, order: AdmissibleOrder,
             n: int, grid: GridSpec, *, record: Optional[RunRecord] = None) -> LawReport:
    """Permutation-invariance characterization at arity n.

    Requires the addition to satisfy cancellation on the grid. The
    condition asserts constancy, in the middle weight c, of the sum
    L(x1, x2, b1, c) + L(x1, x1, c, b2) over the appropriate (x, b)
    ranges; the ranges depend on whether n is 2, 3, or at least 4.
    """
    return run_law("wd", _wd_cases(kernel, addop, order, n, grid, record=record),
                   n=n, kernel=kernel.name, note=_RESOLUTION_NOTE.format(m=grid.m))


@_recorded("wd")
def _wd_cases(kernel, addop, order, n, grid, memo, record):
    _require_arity(n, "well-definedness")
    _require("addition cancellation", check_cancellation, addop, grid, record=record)
    memo = memo or _Memo(grid, addop, order, kernel.evaluate)
    L, plus, E = memo.term, memo.plus, memo.elems
    elems = memo.sorted()
    coeffs = unit_grid(grid.m)
    zero = memo.id(zero_element(grid.kind, grid.dim))

    def constant_in_c(x1, x2, b1, b2, cs):
        base = None
        base_c = None
        for c in cs:
            val = plus(L(x1, x2, b1, c), L(x1, x1, c, b2))
            if base is None:
                base, base_c = val, c
            yield None if memo.equal(val, base) else {
                "x1": E[x1], "x2": E[x2], "b1": b1, "b2": b2,
                "c": base_c, "value_at_c": E[base],
                "c_other": c, "value_at_c_other": E[val]}

    # Grid weights are data, i/m: they are ordered by their index k.
    if n <= 3:
        # x against the least element over c >= b; the n = 2 regime pins b = 0.
        for x in elems:
            for k in [0] if n == 2 else range(len(coeffs)):
                yield from constant_in_c(x, zero, 1.0, coeffs[k], coeffs[k:])
    if n >= 3:
        # x2 <= x1 over b2 <= c <= b1; the n = 3 regime pins b2 = 0.
        for i, x2 in enumerate(elems):
            for x1 in elems[i:]:
                for k2 in [0] if n == 3 else range(len(coeffs)):
                    for k1 in range(k2, len(coeffs)):
                        yield from constant_in_c(x1, x2, coeffs[k1], coeffs[k2],
                                                 coeffs[k2:k1 + 1])


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------

def check_monotonicity(kernel: KernelL, addop: AdditionOp, order: AdmissibleOrder,
                       n: int, grid: GridSpec, *,
                       record: Optional[RunRecord] = None) -> LawReport:
    """Monotonicity characterization at arity n.

    Requires strict compatibility of the order with the addition on the
    grid. Combines well-definedness with non-decreasingness, over order
    intervals, of the one- and two-term kernel maps prescribed for the
    n = 2, n = 3, and n >= 4 regimes. Non-decreasingness over a finite
    chain is checked on consecutive pairs, which is equivalent by
    transitivity.
    """
    return run_law("monotonicity",
                   _monotonicity_cases(kernel, addop, order, n, grid, record=record),
                   n=n, kernel=kernel.name, note=_RESOLUTION_NOTE.format(m=grid.m))


@_recorded("monotonicity")
def _monotonicity_cases(kernel, addop, order, n, grid, memo, record):
    _require_arity(n, "monotonicity")
    _require("strict compatibility", check_compatibility, addop, order, grid,
             record=record)
    memo = memo or _Memo(grid, addop, order, kernel.evaluate)
    yield from _tagged(_wd_cases(kernel, addop, order, n, grid, memo, record),
                       condition="a:wd")
    L, plus, E = memo.term, memo.plus, memo.elems
    elems = memo.sorted()
    coeffs = unit_grid(grid.m)
    zero = memo.id(zero_element(grid.kind, grid.dim))

    if n <= 3:
        # x in [0, v] |-> L(x, 0, 1, b1) + L(v, x, b1, b2); the n = 2 regime
        # pins b2 = 0.
        weights = ([(b, 0.0) for b in coeffs] if n == 2
                   else [(b1, coeffs[k2]) for k2, b1 in _weight_pairs(coeffs)])
        for j, v in enumerate(elems):
            for b1, b2 in weights:
                named = {"b": b1} if n == 2 else {"b1": b1, "b2": b2}
                yield from _nondecreasing(
                    memo, elems[:j + 1],
                    lambda x: plus(L(x, zero, 1.0, b1), L(v, x, b1, b2)),
                    {"condition": "b:lower-pair", "v": E[v], **named})
    if n >= 3:
        # x in [u, v] |-> L(x, u, b1, b2) + L(v, x, b2, b3), over u <= v and
        # non-increasing weight chains; the n = 3 regime pins b3 = 0.
        for i, u in enumerate(elems):
            for j in range(i, len(elems)):
                v = elems[j]
                for k2, b1 in _weight_pairs(coeffs):
                    b2 = coeffs[k2]
                    for b3 in [0.0] if n == 3 else coeffs[:k2 + 1]:
                        yield from _nondecreasing(
                            memo, elems[i:j + 1],
                            lambda x: plus(L(x, u, b1, b2), L(v, x, b2, b3)),
                            {"condition": "inner-pair", "u": E[u], "v": E[v],
                             "b1": b1, "b2": b2, "b3": b3})
    # x in [u, 1] |-> L(x, u, b, 0): the common final condition.
    for i, u in enumerate(elems):
        for b in coeffs:
            yield from _nondecreasing(
                memo, elems[i:], lambda x: L(x, u, b, 0.0),
                {"condition": "upper-tail", "u": E[u], "b": b})


def _weight_pairs(coeffs):
    """``(k2, b1)`` for the grid weights b2 = ``coeffs[k2]`` <= b1, by index."""
    return [(k2, b1) for k2 in range(len(coeffs)) for b1 in coeffs[k2:]]


# ---------------------------------------------------------------------------
# Aggregation-function characterization
# ---------------------------------------------------------------------------

def check_aggregation(kernel: KernelL, addop: AdditionOp, order: AdmissibleOrder,
                      n: int, grid: GridSpec, *,
                      record: Optional[RunRecord] = None) -> LawReport:
    """Aggregation-function characterization: monotonicity plus the two
    boundary sums over all non-increasing weight chains pinned at
    b1 = 1 and b_{n+1} = 0."""
    def cases():
        _require_arity(n, "monotonicity")  # before the memo builds the grid
        memo = _Memo(grid, addop, order, kernel.evaluate)
        L, plus, E = memo.term, memo.plus, memo.elems
        yield from _tagged(
            _monotonicity_cases(kernel, addop, order, n, grid, memo, record),
            failed_condition="monotonicity")
        zero = memo.id(zero_element(grid.kind, grid.dim))
        one = memo.id(one_element(grid.kind, grid.dim))
        coeffs = unit_grid(grid.m)
        for mids in itertools.combinations_with_replacement(
                sorted(coeffs, reverse=True), n - 1):
            b = (1.0,) + mids + (0.0,)
            zsum = reduce(plus, [L(zero, zero, b[i], b[i + 1]) for i in range(n)])
            yield None if memo.equal(zsum, zero) else {
                "failed_condition": "zero-boundary", "b_chain": list(b),
                "value": E[zsum], "expected": E[zero]}
            osum = reduce(plus, [L(one, zero, b[0], b[1])]
                          + [L(one, one, b[i], b[i + 1]) for i in range(1, n)])
            yield None if memo.equal(osum, one) else {
                "failed_condition": "one-boundary", "b_chain": list(b),
                "value": E[osum], "expected": E[one]}

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
    _require(f"delta {d.name!r} as a scalar dissimilarity", check_dissimilarity,
             d, ScalarUsual(), GridSpec(SCALAR, grid.m))
    coeffs = unit_grid(grid.m)

    def cases():
        for k2, b1 in _weight_pairs(coeffs):
            b2 = coeffs[k2]
            lhs = delta_fn(b1, b2)
            rhs = delta_fn(b1, 0.0) - delta_fn(b2, 0.0)
            yield None if close((lhs,), (rhs,)) else {
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
            for (i, a), (j, b) in itertools.combinations_with_replacement(
                    enumerate(coeffs), 2):
                if (i + j) % 2:  # the midpoint (i + j) / 2m is off the grid
                    continue
                mid = 0.5 * (a + b)
                lhs = add(addop, F(x, a), F(x, b))
                rhs = add(addop, F(x, mid), F(x, mid))
                yield None if elements_equal(lhs, rhs) else {
                    "failed_condition": "midpoint", "x": x, "a": a, "b": b,
                    "lhs": lhs, "rhs": rhs}
        if order is not None:
            memo = _Memo(grid, order=order)
            ordered = memo.sorted()
            for b in coeffs:
                yield from _nondecreasing(
                    memo, ordered, lambda x: memo.id(F(memo.elems[x], b)),
                    {"failed_condition": "monotone-in-x", "b": b})
        for b in coeffs:
            v = F(zero, b)
            yield None if elements_equal(v, zero) else {
                "failed_condition": "zero-boundary", "b": b, "value": v}
        for combo in itertools.combinations_with_replacement(range(grid.m + 1), n):
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
    consistency flag matches the brute-force permutation sweep. ``laws``
    selects one or more of ``wd`` and ``monotonicity``; any other name,
    or none, raises ``BadParameter``.
    """
    start = perf_counter()
    known = {"wd": (check_wd, brute_force_wd, _spot_check_consistency),
             "monotonicity": (check_monotonicity, brute_force_monotonicity, None)}
    if not laws or not known.keys() >= set(laws):
        raise BadParameter(f"laws must select one or more of {list(known)}, got {laws!r}")
    verdicts = {}
    checked = 0
    for law, (condition, brute_force, spot_check) in known.items():
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
