"""The law checks against plain enumerations written here.

Each ``plain_*`` function walks the same cases in the same order as the
library check it mirrors, and calls the addition, the kernel and the
comparator on elements every time, with no memo. A library check must
give the same verdict, ``checked``, witness and detail, or raise the same
error, on every carrier, for passing and failing additions and orders.
"""

import itertools
import json
from functools import reduce

import pytest

from choquetlike import (
    BOUNDED_SUM, IV_PLUS, MIN_OP, PLUS, TIMES, TOL, VV_PLUS,
    AdditionOp, AlphaBeta, GridSpec, HypothesisViolated, KernelL, Scalar,
    ScalarUsual, VectorLex, add, check_admissibility, check_aggregation,
    check_associativity, check_c1, check_cancellation, check_compatibility,
    check_monotonicity, check_wd, elements_equal, grid_elements, kernel_catalog,
    partial_leq, scale, scale_for, unit_grid, zero_element,
)
from choquetlike.order import AdmissibleOrder, one_element
from choquetlike.reporting import run_law
from test_order import _ReversedTieBreak as ReversedTieBreak

AVERAGE = AdditionOp("average", "scalar", lambda x, z: Scalar((x.value + z.value) / 2))
SG = GridSpec("scalar", 4)
IG = GridSpec("interval", 2)
VG = GridSpec("vector", 2, dim=2)
XU = AlphaBeta(0.5, 1.0)
LEX = AlphaBeta(0.0, 1.0)
VLEX = VectorLex((0, 1))
_WORD = {-1: "less", 0: "equal", 1: "greater"}


# Broken orders, as the admissibility tests build them.
class AlwaysBelow(ScalarUsual):
    def compare(self, x, z):
        return -1


class AllEqual(ScalarUsual):
    def compare(self, x, z):
        return 0


class Coarse(ScalarUsual):
    """Every value up to 0.5 is equal: strict compatibility holds, weak fails."""

    def compare(self, x, z):
        if x.value <= 0.5 and z.value <= 0.5:
            return 0
        return super().compare(x, z)


class Swapped(VectorLex):
    """(1, 0) before (0, 1): only transitivity sees it."""

    def compare(self, x, z):
        swapped = {((1.0, 0.0), (0.0, 1.0)): -1, ((0.0, 1.0), (1.0, 0.0)): 1}
        return swapped.get((x.coords, z.coords)) or super().compare(x, z)


def outcome(check, *args):
    """The report as JSON without ``elapsed``, or the error raised."""
    try:
        payload = check(*args).to_json()
    except (HypothesisViolated, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    del payload["elapsed"]
    return json.dumps(payload)


def sorted_grid(order, grid):
    return order.sort(grid_elements(grid))


# ---------------------------------------------------------------------------
# Plain enumerations
# ---------------------------------------------------------------------------

def plain_associativity(op, grid):
    def cases():
        for x, y, z in itertools.product(grid_elements(grid), repeat=3):
            lhs = add(op, add(op, x, y), z)
            rhs = add(op, x, add(op, y, z))
            yield None if elements_equal(lhs, rhs) else {"x": x, "y": y, "z": z}
    return run_law("associativity", cases(), op=op.name)


def plain_cancellation(op, grid):
    def cases():
        elems = grid_elements(grid)
        for x1, x2 in itertools.combinations(elems, 2):
            for v in elems:
                s = add(op, x1, v)
                yield {"x1": x1, "x2": x2, "v": v, "sum": s} \
                    if elements_equal(s, add(op, x2, v)) else None
    return run_law("cancellation", cases(), op=op.name)


def plain_compatibility(op, order, grid):
    def cases():
        elems = grid_elements(grid)
        weak_fails = False
        for x1, x2 in itertools.product(elems, repeat=2):
            c = order.compare(x1, x2)
            if c > 0:
                continue
            for v in elems:
                lhs, rhs = add(op, x1, v), add(op, x2, v)
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


def plain_c1(mul, addop, order, grid):
    elems = grid_elements(grid)
    coeffs = unit_grid(grid.m)
    pairs = [(u1, u2) for u1, u2 in itertools.product(elems, repeat=2)
             if order.compare(u1, u2) <= 0]

    def diff(u1, u2):
        return tuple(round(a - b, 9) for a, b in zip(u2.components, u1.components))

    def cases():
        for u1, u2 in pairs:
            for v1, v2 in pairs:
                if diff(v1, v2) != diff(u1, u2) or not add(addop, u1, v2).in_unit:
                    continue
                for b1 in coeffs:
                    for b2 in coeffs:
                        if b2 > b1 + TOL:
                            continue
                        lhs = add(addop, scale(mul, b1, u1), scale(mul, b2, v2))
                        rhs = add(addop, scale(mul, b1, u2), scale(mul, b2, v1))
                        yield None if order.compare(lhs, rhs) <= 0 else {
                            "b1": b1, "b2": b2, "u1": u1, "u2": u2,
                            "v1": v1, "v2": v2, "lhs": lhs, "rhs": rhs}
    return run_law("c1", cases(), mul=mul.name, add=addop.name,
                   order=order.spec_string())


def plain_admissibility(order, grid):
    def cases():
        elems = grid_elements(grid)
        for x, z in itertools.product(elems, repeat=2):
            cxz, czx = order.compare(x, z), order.compare(z, x)
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
            yield {"violation": "transitivity", "x": x, "y": y, "z": z} if (
                order.compare(x, y) <= 0 and order.compare(y, z) <= 0
                and order.compare(x, z) > 0) else None
    return run_law("admissibility", cases(), order=order.spec_string(),
                   note=f"no counterexample at resolution m={grid.m}")


def require(report, what):
    if not report.passed:
        raise HypothesisViolated(
            f"{what} fails on the grid; the characterization does not apply "
            f"(witness: {report.witness})")


def weight_pairs(coeffs):
    return [(b2, b1) for b2 in coeffs for b1 in coeffs if b1 >= b2 - TOL]


def nondecreasing(order, chain, H, context):
    """One case per chain element; the first has no predecessor and holds."""
    if chain:
        yield None
    for prev, x in zip(chain, chain[1:]):
        value, value_next = H(prev), H(x)
        yield dict(context, x=prev, x_next=x, value=value, value_next=value_next) \
            if order.compare(value, value_next) > 0 else None


def plain_wd_cases(kernel, addop, order, n, grid):
    require(plain_cancellation(addop, grid), "addition cancellation")
    L = kernel.evaluate
    elems = sorted_grid(order, grid)
    coeffs = unit_grid(grid.m)
    zero = zero_element(grid.kind, grid.dim)

    def constant_in_c(x1, x2, b1, b2, cs):
        def value(c):
            return add(addop, L(x1, x2, b1, c), L(x1, x1, c, b2))
        for c in cs:
            yield None if elements_equal(value(c), value(cs[0])) else {
                "x1": x1, "x2": x2, "b1": b1, "b2": b2, "c": cs[0],
                "value_at_c": value(cs[0]), "c_other": c, "value_at_c_other": value(c)}

    if n <= 3:
        for x in elems:
            for b in [0.0] if n == 2 else coeffs:
                yield from constant_in_c(x, zero, 1.0, b,
                                         [c for c in coeffs if c >= b - TOL])
    if n >= 3:
        for i, x2 in enumerate(elems):
            for x1 in elems[i:]:
                for b2 in [0.0] if n == 3 else coeffs:
                    for b1 in coeffs:
                        if b1 >= b2 - TOL:
                            yield from constant_in_c(
                                x1, x2, b1, b2,
                                [c for c in coeffs if b2 - TOL <= c <= b1 + TOL])


def tagged(cases, **tag):
    return (w if w is None else dict(w, **tag) for w in cases)


def plain_monotonicity_cases(kernel, addop, order, n, grid):
    require(plain_compatibility(addop, order, grid), "strict compatibility")
    yield from tagged(plain_wd_cases(kernel, addop, order, n, grid), condition="a:wd")
    L = kernel.evaluate
    elems = sorted_grid(order, grid)
    coeffs = unit_grid(grid.m)
    zero = zero_element(grid.kind, grid.dim)
    if n <= 3:
        weights = ([(b, 0.0) for b in coeffs] if n == 2
                   else [(b1, b2) for b2, b1 in weight_pairs(coeffs)])
        for j, v in enumerate(elems):
            for b1, b2 in weights:
                named = {"b": b1} if n == 2 else {"b1": b1, "b2": b2}
                yield from nondecreasing(
                    order, elems[:j + 1],
                    lambda x: add(addop, L(x, zero, 1.0, b1), L(v, x, b1, b2)),
                    {"condition": "b:lower-pair", "v": v, **named})
    if n >= 3:
        for i, u in enumerate(elems):
            for j in range(i, len(elems)):
                v = elems[j]
                for b2, b1 in weight_pairs(coeffs):
                    for b3 in [0.0] if n == 3 else [b for b in coeffs if b <= b2 + TOL]:
                        yield from nondecreasing(
                            order, elems[i:j + 1],
                            lambda x: add(addop, L(x, u, b1, b2), L(v, x, b2, b3)),
                            {"condition": "inner-pair", "u": u, "v": v,
                             "b1": b1, "b2": b2, "b3": b3})
    for i, u in enumerate(elems):
        for b in coeffs:
            yield from nondecreasing(order, elems[i:], lambda x: L(x, u, b, 0.0),
                                     {"condition": "upper-tail", "u": u, "b": b})


def plain_wd(kernel, addop, order, n, grid):
    return run_law("wd", plain_wd_cases(kernel, addop, order, n, grid), n=n,
                   kernel=kernel.name, note=f"pass = no counterexample found at "
                                            f"resolution m={grid.m}")


def plain_monotonicity(kernel, addop, order, n, grid):
    return run_law("monotonicity", plain_monotonicity_cases(kernel, addop, order, n, grid),
                   n=n, kernel=kernel.name,
                   note=f"pass = no counterexample found at resolution m={grid.m}")


def plain_aggregation(kernel, addop, order, n, grid):
    L = kernel.evaluate
    zero = zero_element(grid.kind, grid.dim)
    one = one_element(grid.kind, grid.dim)

    def plus(x, z):
        return add(addop, x, z)

    def cases():
        yield from tagged(plain_monotonicity_cases(kernel, addop, order, n, grid),
                          failed_condition="monotonicity")
        for mids in itertools.combinations_with_replacement(
                sorted(unit_grid(grid.m), reverse=True), n - 1):
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
                   note=f"pass = no counterexample found at resolution m={grid.m}")


# ---------------------------------------------------------------------------
# Library checks against the plain enumerations
# ---------------------------------------------------------------------------

ADDITIONS = [(PLUS, SG), (IV_PLUS, IG), (VV_PLUS, VG), (MIN_OP, SG),
             (BOUNDED_SUM, SG), (AVERAGE, SG)]
ORDERED_ADDITIONS = [
    (PLUS, ScalarUsual(), SG), (IV_PLUS, XU, IG), (IV_PLUS, LEX, IG),
    (VV_PLUS, VLEX, VG), (MIN_OP, ScalarUsual(), SG), (BOUNDED_SUM, ScalarUsual(), SG),
    (AVERAGE, ScalarUsual(), SG), (IV_PLUS, ReversedTieBreak(0.0, 1.0), IG),
    (PLUS, AlwaysBelow(), SG), (PLUS, AllEqual(), SG), (PLUS, Coarse(), SG),
    (VV_PLUS, Swapped((0, 1)), VG)]
ORDERS = [(ScalarUsual(), SG), (XU, IG), (LEX, GridSpec("interval", 4)), (VLEX, VG),
          (ReversedTieBreak(0.0, 1.0), GridSpec("interval", 4)),
          (ReversedTieBreak(0.5, 1.0), IG), (AlwaysBelow(), GridSpec("scalar", 2)),
          (AllEqual(), GridSpec("scalar", 2)), (Coarse(), SG), (Swapped((0, 1)), VG)]


def _id(value):
    if isinstance(value, GridSpec):
        return f"{value.kind}{value.m}"
    if isinstance(value, AdmissibleOrder):
        return f"{type(value).__name__}:{value.spec_string()}"
    return value.name


@pytest.mark.parametrize("op,grid", ADDITIONS, ids=_id)
def test_associativity(op, grid):
    assert outcome(check_associativity, op, grid) == outcome(plain_associativity, op, grid)


@pytest.mark.parametrize("op,grid", ADDITIONS, ids=_id)
def test_cancellation(op, grid):
    assert outcome(check_cancellation, op, grid) == outcome(plain_cancellation, op, grid)


@pytest.mark.parametrize("op,order,grid", ORDERED_ADDITIONS, ids=_id)
def test_compatibility(op, order, grid):
    assert (outcome(check_compatibility, op, order, grid)
            == outcome(plain_compatibility, op, order, grid))


@pytest.mark.parametrize("op,order,grid", ORDERED_ADDITIONS, ids=_id)
def test_c1(op, order, grid):
    mul = scale_for(grid.kind)
    assert (outcome(check_c1, mul, op, order, grid)
            == outcome(plain_c1, mul, op, order, grid))


@pytest.mark.parametrize("order,grid", ORDERS, ids=_id)
def test_admissibility(order, grid):
    assert outcome(check_admissibility, order, grid) == outcome(plain_admissibility,
                                                                order, grid)


def first_weight(kind):
    mul = scale_for(kind)
    return KernelL(lambda x, prev, b1, b2: scale(mul, b1, x), "first-weight")


# (kernel, addition, order, grid): catalog kernels that pass, kernels that
# fail a condition, and additions and orders that fail a precheck.
KERNEL_CASES = [
    (kernel_catalog("delta-scale", "scalar"), PLUS, ScalarUsual(), SG),
    (kernel_catalog({"family": "delta-scale", "delta": "sq-diff"}, "scalar"),
     PLUS, ScalarUsual(), SG),
    (first_weight("scalar"), PLUS, ScalarUsual(), SG),
    (kernel_catalog({"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"}, "scalar"),
     PLUS, ScalarUsual(), SG),
    (kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, "interval", XU),
     IV_PLUS, XU, IG),
    (kernel_catalog("delta-scale", "interval", LEX), IV_PLUS, LEX, IG),
    (first_weight("interval"), IV_PLUS, XU, IG),
    (kernel_catalog("delta-scale", "vector", VLEX), VV_PLUS, VLEX, VG),
    (kernel_catalog({"family": "delta-scale", "delta": "sq-diff"}, "vector", VLEX),
     VV_PLUS, VLEX, VG),
    (kernel_catalog("delta-scale", "scalar"), MIN_OP, ScalarUsual(), SG),
    (kernel_catalog("delta-scale", "scalar"), AVERAGE, ScalarUsual(), SG),
    (kernel_catalog("delta-scale", "scalar"), PLUS, AllEqual(), SG),
    (kernel_catalog("delta-scale", "scalar"), PLUS, Coarse(), SG),
]


@pytest.mark.parametrize("check,plain", [
    (check_wd, plain_wd), (check_monotonicity, plain_monotonicity),
    (check_aggregation, plain_aggregation)], ids=["wd", "monotonicity", "aggregation"])
@pytest.mark.parametrize("kernel,addop,order,grid", KERNEL_CASES, ids=_id)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_checks(check, plain, kernel, addop, order, grid, n):
    assert (outcome(check, kernel, addop, order, n, grid)
            == outcome(plain, kernel, addop, order, n, grid))


class TestPinnedFailures:
    """Failing cases whose counts and witnesses were recorded before the
    checks moved onto interned operands."""

    def test_averaging_addition_is_not_associative(self):
        report = check_associativity(AVERAGE, SG)
        assert report.verdict == "fail" and report.checked == 2
        assert report.to_json()["witness"] == {"x": 0.0, "y": 0.0, "z": 0.25}

    def test_c1_fails_under_min(self):
        report = check_c1(TIMES, MIN_OP, ScalarUsual(), SG)
        assert report.verdict == "fail" and report.checked == 303
