"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances and runtime budgets are pinned here, not configurable.
"""

import itertools
import random
import time

from choquetlike import (
    AggregationInput, AlphaBeta, GridSpec, IV_PLUS, Interval, KernelL, MIN_OP,
    PLUS, Scalar, ScalarUsual, VV_PLUS, Vector, VectorLex, add,
    capacity_family, check_admissibility, check_aggregation,
    check_associativity, check_cancellation, check_commutativity,
    check_delta_decomposition, check_jensen_f, check_telescoping,
    choquet_aggregate, classical_kernel, elements_equal,
    kernel_catalog, oracle_crosscheck, resolve_dissimilarity, scale,
    scale_for, takac_counterexample, takac_dissimilarity_fn,
)
from oracles import classical_choquet_increments, mu_lookup

XU = AlphaBeta(0.5, 1.0)
LEX = AlphaBeta(0.0, 1.0)


def _finish(num, name, failures, started, budget_s):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < budget_s
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {tag} {name} ({elapsed:.2f}s / budget {budget_s}s)")
    assert not failures, f"criterion {num}: {failures[:3]}"
    assert elapsed < budget_s, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def _battery(kind, order):
    """Six kernels: three known-good, three known-bad (incl. the
    first-weight kernel)."""
    mul = scale_for(kind)
    good = [
        kernel_catalog("delta-scale", kind, order),
        kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, kind, order),
        kernel_catalog({"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"},
                       kind, order),
    ]
    bad = [
        KernelL(lambda x, prev, b1, b2: scale(mul, b1, x), "first-weight"),
        kernel_catalog({"family": "delta-scale", "delta": "sq-diff"}, kind, order),
        KernelL(lambda x, prev, b1, b2: scale(mul, b1, x), "b-times-current"),
    ]
    return good, bad


def test_criterion_1_classical_recovery():
    started = time.perf_counter()
    failures = []
    mu = capacity_family("cardinality", 3)
    of = mu_lookup(mu)
    kernel = classical_kernel("scalar")
    grid = [i / 4 for i in range(5)]
    count = 0
    for values in itertools.product(grid, repeat=3):
        count += 1
        inp = AggregationInput(tuple(Scalar(v) for v in values), mu,
                               ScalarUsual(), PLUS)
        got = choquet_aggregate(inp, kernel).value.value
        want = classical_choquet_increments(values, of)
        if abs(got - want) > 1e-12:
            failures.append((values, got, want))
    if count != 125:
        failures.append(("expected 125 inputs", count))
    worked = choquet_aggregate(
        AggregationInput((Scalar(0.2), Scalar(0.5), Scalar(0.9)), mu,
                         ScalarUsual(), PLUS), kernel).value.value
    if abs(worked - 8 / 15) > 1e-12:
        failures.append(("worked instance", worked))
    _finish(1, "classical recovery on the full grid and worked instance",
            failures, started, 1.0)


def test_criterion_2_wd_equivalence():
    started = time.perf_counter()
    failures = []
    configs = [("scalar", ScalarUsual(), PLUS, 4),
               ("interval", XU, IV_PLUS, 2)]
    for kind, order, addop, m in configs:
        good, bad = _battery(kind, order)
        for kernel in good + bad:
            for n in (2, 3, 4):
                grid = GridSpec(kind, m, n=n)
                try:
                    report = oracle_crosscheck(kernel, addop, order, n, grid,
                                               laws=("wd",))
                except Exception as exc:  # disagreement or crash
                    failures.append((kind, kernel.name, n, repr(exc)))
                    continue
                verdicts = report.detail["verdicts"]["wd"]
                expected = "pass" if kernel in good else "fail"
                if verdicts["condition"] != expected:
                    failures.append((kind, kernel.name, n, verdicts))
    _finish(2, "well-definedness: condition-level vs brute force, zero "
               "disagreements", failures, started, 120.0)


def test_criterion_3_monotonicity_equivalence():
    started = time.perf_counter()
    failures = []
    good, bad = _battery("scalar", ScalarUsual())
    for kernel in good + bad:
        for n, m in ((2, 4), (3, 4), (4, 2)):
            grid = GridSpec("scalar", m, n=n)
            try:
                oracle_crosscheck(kernel, PLUS, ScalarUsual(), n, grid,
                                  laws=("monotonicity",))
            except Exception as exc:
                failures.append((kernel.name, n, repr(exc)))
    _finish(3, "monotonicity: condition-level vs direct enumeration, zero "
               "disagreements", failures, started, 600.0)


def test_criterion_4_aggregation_characterization():
    started = time.perf_counter()
    failures = []
    carriers = [
        ("scalar", ScalarUsual(), PLUS, GridSpec("scalar", 4, n=3)),
        ("interval", XU, IV_PLUS, GridSpec("interval", 4, n=3)),
        ("interval", LEX, IV_PLUS, GridSpec("interval", 4, n=3)),
        ("vector", VectorLex((0, 1)), VV_PLUS, GridSpec("vector", 4, n=3, dim=2)),
    ]
    for kind, order, addop, grid in carriers:
        kernel = kernel_catalog("delta-scale", kind, order)
        report = check_aggregation(kernel, addop, order, 3, grid)
        if not report.passed:
            failures.append((kind, order.spec_string(), report.witness))

    decomp = check_delta_decomposition("sq-diff", GridSpec("scalar", 4))
    if decomp.passed:
        failures.append("squared-difference decomposition unexpectedly passed")
    else:
        w = decomp.witness
        lhs = (w["b1"] - w["b2"]) ** 2
        rhs = w["b1"] ** 2 - w["b2"] ** 2
        if abs(lhs - w["lhs"]) > 1e-12 or abs(rhs - w["rhs"]) > 1e-12:
            failures.append(("decomposition witness does not replay", w))
    sq_kernel = kernel_catalog({"family": "delta-scale", "delta": "sq-diff"},
                               "scalar")
    agg = check_aggregation(sq_kernel, PLUS, ScalarUsual(), 3,
                            GridSpec("scalar", 4))
    if agg.passed:
        failures.append("squared-difference kernel aggregation unexpectedly passed")
    _finish(4, "weight-difference kernel aggregates on all carriers; squared "
               "delta fails both levels", failures, started, 60.0)


def test_criterion_5_affine_family():
    started = time.perf_counter()
    failures = []
    for j in range(10):
        d = j / 30.0
        c = 1.0 - 3.0 * d
        kind, order, addop, grid = (
            ("scalar", ScalarUsual(), PLUS, GridSpec("scalar", 4, n=3))
            if j % 2 == 0 else
            ("interval", XU, IV_PLUS, GridSpec("interval", 2, n=3)))
        kernel = kernel_catalog({"family": "affine-F", "C": f"scale:{c}",
                                 "D": f"scale:{d}"}, kind, order)
        report = check_aggregation(kernel, addop, order, 3, grid)
        if not report.passed:
            failures.append((j, c, d, kind, report.witness))

    def F_sq(x, a):
        return Scalar(a * a * x.value)

    jensen = check_jensen_f(F_sq, PLUS, GridSpec("scalar", 4))
    if jensen.passed:
        failures.append("a^2-scaling unexpectedly passed the midpoint identity")
    lhs = add(PLUS, F_sq(Scalar(1), 0.0), F_sq(Scalar(1), 1.0))
    rhs = add(PLUS, F_sq(Scalar(1), 0.5), F_sq(Scalar(1), 0.5))
    if abs(lhs.value - 1.0) > 1e-12 or abs(rhs.value - 0.5) > 1e-12:
        failures.append("canonical midpoint witness (x=1, a=0, b=1) broke")
    _finish(5, "affine kernels aggregate; quadratic scaling fails the "
               "midpoint identity", failures, started, 60.0)


def test_criterion_6_telescoping():
    started = time.perf_counter()
    failures = []
    d_scalar = resolve_dissimilarity("abs-diff", "scalar")
    if not check_telescoping(d_scalar, PLUS, ScalarUsual(),
                             GridSpec("scalar", 8)).passed:
        failures.append("scalar abs-diff telescoping failed")
    d_iv = resolve_dissimilarity("abs-diff", "interval", XU)
    if not check_telescoping(d_iv, IV_PLUS, XU, GridSpec("interval", 4)).passed:
        failures.append("interval abs-diff telescoping failed")

    d_sq = resolve_dissimilarity("sq-diff", "scalar")
    report = check_telescoping(d_sq, PLUS, ScalarUsual(), GridSpec("scalar", 4))
    if report.passed:
        failures.append("squared difference unexpectedly telescopes")
    zero = Scalar(0.0)
    lhs = add(PLUS, d_sq(Scalar(0.5), zero), d_sq(Scalar(1.0), Scalar(0.5)))
    rhs = d_sq(Scalar(1.0), zero)
    if abs(lhs.value - 0.5) > 1e-12 or abs(rhs.value - 1.0) > 1e-12:
        failures.append("0.25 + 0.25 != 1 witness did not reproduce at (0.5, 1)")
    _finish(6, "telescoping: abs-diff passes, squared difference fails at "
               "(0.5, 1)", failures, started, 30.0)


def test_criterion_7_takac_counterexample():
    started = time.perf_counter()
    failures = []
    witness = takac_counterexample(0.5, 1.0, "max", "abs-diff",
                                   GridSpec("interval", 8)).witness
    d = takac_dissimilarity_fn(0.5, "max", "abs-diff")
    zero = Interval(0, 0)
    lhs = add(IV_PLUS, d(witness["x1"], zero), d(witness["x2"], witness["x1"]))
    rhs = d(witness["x2"], zero)
    gap = max(abs(lhs.lower - rhs.lower), abs(lhs.upper - rhs.upper))
    if gap <= 1e-9:
        failures.append("witness does not violate the identity on replay")
    if not (elements_equal(lhs, witness["lhs"])
            and elements_equal(rhs, witness["rhs"])):
        failures.append("reported sides disagree with the replay")
    _finish(7, "width-based construction telescoping witness found and "
               "replayed", failures, started, 30.0)


def test_criterion_8_order_and_algebra_laws():
    started = time.perf_counter()
    failures = []
    orders = [
        (ScalarUsual(), GridSpec("scalar", 8)),
        (XU, GridSpec("interval", 4)),
        (LEX, GridSpec("interval", 4)),
        (AlphaBeta(1.0, 0.0), GridSpec("interval", 4)),
        (VectorLex((0, 1)), GridSpec("vector", 4, dim=2)),
    ]
    for order, grid in orders:
        if not check_admissibility(order, grid).passed:
            failures.append(("admissibility", order.spec_string()))
    ops = [(PLUS, GridSpec("scalar", 8)), (IV_PLUS, GridSpec("interval", 4)),
           (VV_PLUS, GridSpec("vector", 4, dim=2))]
    for op, grid in ops:
        for check in (check_commutativity, check_associativity,
                      check_cancellation):
            if not check(op, grid).passed:
                failures.append((check.__name__, op.name))
    report = check_cancellation(MIN_OP, GridSpec("scalar", 4))
    if report.passed or report.witness is None:
        failures.append("min operation cancellation negative control failed")
    _finish(8, "shipped orders and additions pass their laws; min fails "
               "cancellation", failures, started, 30.0)


def test_criterion_9_permutation_equivariance():
    started = time.perf_counter()
    failures = []
    rng = random.Random(2024)
    kernels = {k: classical_kernel(k) for k in ("scalar", "interval", "vector")}
    orders = {"scalar": ScalarUsual(), "interval": XU, "vector": VectorLex((0, 1))}
    addops = {"scalar": PLUS, "interval": IV_PLUS, "vector": VV_PLUS}
    for trial in range(200):
        kind = ("scalar", "interval", "vector")[trial % 3]
        n = rng.randint(2, 5)
        X = []
        for _ in range(n):
            if kind == "scalar":
                X.append(Scalar(rng.random()))
            elif kind == "interval":
                a, b = sorted((rng.random(), rng.random()))
                X.append(Interval(a, b))
            else:
                X.append(Vector((rng.random(), rng.random())))
        if rng.random() < 0.4 and n >= 3:
            X[-1] = X[0]  # inject a tie
        X = tuple(X)
        mu = capacity_family("uniform-random", n, seed=rng.randint(0, 10 ** 6))
        pi = tuple(rng.sample(range(n), n))
        base = choquet_aggregate(
            AggregationInput(X, mu, orders[kind], addops[kind]), kernels[kind])
        xhat = tuple(X[pi[i]] for i in range(n))
        res = choquet_aggregate(
            AggregationInput(xhat, mu.relabel(pi), orders[kind], addops[kind]),
            kernels[kind])
        if not elements_equal(res.value, base.value):
            failures.append((trial, kind, X, pi))
        if res.consistent != base.consistent:
            failures.append((trial, kind, "consistency flag changed"))
    _finish(9, "relabeling invariance under transported capacities, 200 "
               "seeded instances", failures, started, 60.0)
