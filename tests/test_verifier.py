"""Condition-level law checks, brute-force sweeps, and their agreement."""

import gc
import itertools
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest

from choquetlike import (
    AdditionOp, AggregationInput, AlphaBeta, BOUNDED_SUM, GridSpec,
    BadParameter, HypothesisViolated, IV_PLUS, KernelL, KindMismatch, MIN_OP, PLUS, RunRecord,
    Scalar, ScalarUsual, VV_PLUS, VV_SCALE, Vector, VectorLex, add, addition_for,
    brute_force_monotonicity, brute_force_wd,
    capacity_battery, check_admissibility, check_aggregation, check_associativity,
    check_c1, check_cancellation, check_compatibility, check_delta_decomposition,
    check_jensen_f, check_monotonicity, check_wd, classical_kernel,
    elements_equal, grid_elements, kernel_catalog, oracle_crosscheck, parse_order,
    scale, scale_for, zero_element,
)
from choquetlike.algebra import _Memo
from choquetlike.reporting import run_law

XU = AlphaBeta(0.5, 1.0)
SG = GridSpec("scalar", 4)


def first_weight_kernel(kind="scalar"):
    mul = scale_for(kind)
    return KernelL(lambda x, prev, b1, b2: scale(mul, b1, x), "first-weight")


def squared_gap_kernel():
    return KernelL(lambda x, prev, b1, b2: Scalar(b1 * (x.value - prev.value) ** 2),
                   "b-times-squared-gap")


def constant_zero_kernel(kind="scalar"):
    return KernelL(lambda x, prev, b1, b2: zero_element(kind), "constant-zero")


class TestWellDefinedness:
    def test_weight_difference_passes_all_regimes(self):
        kernel = classical_kernel("scalar")
        for n in (2, 3, 4):
            assert check_wd(kernel, PLUS, ScalarUsual(), n, SG).passed

    def test_dissimilarity_kernel_passes(self):
        kernel = kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, "scalar")
        assert check_wd(kernel, PLUS, ScalarUsual(), 4, SG).passed

    def test_first_weight_fails_with_replayable_witness(self):
        kernel = first_weight_kernel()
        report = check_wd(kernel, PLUS, ScalarUsual(), 2, SG)
        assert not report.passed
        w = report.witness
        lhs = add(PLUS, kernel.evaluate(w["x1"], w["x2"], w["b1"], w["c"]),
                  kernel.evaluate(w["x1"], w["x1"], w["c"], w["b2"]))
        rhs = add(PLUS, kernel.evaluate(w["x1"], w["x2"], w["b1"], w["c_other"]),
                  kernel.evaluate(w["x1"], w["x1"], w["c_other"], w["b2"]))
        assert not elements_equal(lhs, rhs)

    def test_three_input_regime_checks_both_maps(self):
        kernel = classical_kernel("interval")
        assert check_wd(kernel, IV_PLUS, XU, 3, GridSpec("interval", 2)).passed

    def test_cancellation_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolated):
            check_wd(classical_kernel("scalar"), BOUNDED_SUM, ScalarUsual(), 2, SG)


class TestMonotonicity:
    def test_interval_weight_difference_passes(self):
        kernel = classical_kernel("interval")
        report = check_monotonicity(kernel, IV_PLUS, XU, 3, GridSpec("interval", 2))
        assert report.passed

    def test_squared_gap_fails_two_sided_condition(self):
        report = check_monotonicity(squared_gap_kernel(), PLUS, ScalarUsual(), 3, SG)
        assert not report.passed
        w = report.witness
        assert w["condition"] in ("b:lower-pair", "inner-pair")
        assert ScalarUsual().compare(w["value"], w["value_next"]) > 0

    def test_constant_kernel_is_monotone(self):
        assert check_monotonicity(constant_zero_kernel(), PLUS, ScalarUsual(),
                                  3, SG).passed

    def test_compatibility_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolated):
            check_monotonicity(classical_kernel("scalar"), MIN_OP, ScalarUsual(),
                               2, SG)


class TestAggregation:
    def test_weight_difference_aggregates(self):
        assert check_aggregation(classical_kernel("scalar"), PLUS, ScalarUsual(),
                                 3, SG).passed

    def test_squared_delta_fails(self):
        kernel = kernel_catalog({"family": "delta-scale", "delta": "sq-diff"},
                                "scalar")
        report = check_aggregation(kernel, PLUS, ScalarUsual(), 3, SG)
        assert not report.passed

    def test_constant_kernel_fails_boundary(self):
        report = check_aggregation(constant_zero_kernel(), PLUS, ScalarUsual(),
                                   3, SG)
        assert not report.passed
        assert report.witness["failed_condition"] == "one-boundary"

    def test_affine_instance_aggregates(self):
        kernel = kernel_catalog({"family": "affine-F", "C": "scale:0.7",
                                 "D": "scale:0.1"}, "scalar")
        assert check_aggregation(kernel, PLUS, ScalarUsual(), 3, SG).passed


class TestDeltaDecomposition:
    def test_difference_passes(self):
        assert check_delta_decomposition("difference", SG).passed

    def test_square_fails_at_one_half(self):
        report = check_delta_decomposition("sq-diff", SG)
        assert not report.passed
        # Canonical witness: delta(1, 0.5) = 0.25 vs 1 - 0.25 = 0.75.
        assert abs((1 - 0.5) ** 2 - (1.0 - 0.25)) == pytest.approx(0.5)
        w = report.witness
        assert abs(w["lhs"] - w["rhs"]) > 1e-12

    def test_capped_double_fails_despite_unit_boundary(self):
        report = check_delta_decomposition("capped-double", SG)
        assert not report.passed

    def test_non_dissimilarity_rejected(self):
        with pytest.raises(HypothesisViolated):
            check_delta_decomposition(lambda a, b: a + b - a * b, SG)


class TestJensenF:
    def test_affine_passes_with_boundary_conditions(self):
        def F(x, a):
            return Scalar((0.7 * a + 0.1) * x.value)

        report = check_jensen_f(F, PLUS, SG, order=ScalarUsual(), n=3)
        assert report.passed

    def test_square_fails_midpoint_with_canonical_witness(self):
        def F(x, a):
            return Scalar(a * a * x.value)

        report = check_jensen_f(F, PLUS, SG)
        assert not report.passed
        assert report.witness["failed_condition"] == "midpoint"
        # The canonical witness replays: x=1, a=0, b=1.
        lhs = add(PLUS, F(Scalar(1), 0.0), F(Scalar(1), 1.0))
        rhs = add(PLUS, F(Scalar(1), 0.5), F(Scalar(1), 0.5))
        assert lhs.value == pytest.approx(1.0)
        assert rhs.value == pytest.approx(0.5)

    def test_constant_zero_passes_midpoint_fails_one_boundary(self):
        def F(x, a):
            return Scalar(0.0)

        report = check_jensen_f(F, PLUS, SG, n=3)
        assert not report.passed
        assert report.witness["failed_condition"] == "one-boundary"


def counted(fn):
    """``fn``, and a count of its calls per operand key: each element's
    kind and components, each float as it is."""
    calls = Counter()

    def call(*args):
        calls[tuple((a.kind, a.components) if hasattr(a, "kind") else a
                    for a in args)] += 1
        return fn(*args)

    return call, calls


VG4 = GridSpec("vector", 4, dim=2)
VLEX = VectorLex((0, 1))


class TestOncePerCheck:
    """Within one law check, the addition, the kernel and the comparator
    see each distinct operand tuple once; a second run of the check pays
    its own calls."""

    @pytest.mark.parametrize("check", [
        lambda op: check_associativity(op, VG4),
        lambda op: check_cancellation(op, VG4),
        lambda op: check_compatibility(op, VLEX, VG4),
        lambda op: check_c1(VV_SCALE, op, VLEX, VG4),
    ], ids=["associativity", "cancellation", "compatibility", "c1"])
    def test_addition(self, check):
        fn, calls = counted(VV_PLUS.fn)
        op = AdditionOp("counted-vv-plus", "vector", fn)
        first = check(op)
        assert first.passed and calls and max(calls.values()) == 1
        total = sum(calls.values())
        calls.clear()
        assert check(op).checked == first.checked
        assert sum(calls.values()) == total

    @pytest.mark.parametrize("check", [check_wd, check_monotonicity, check_aggregation])
    def test_kernel(self, check):
        fn, calls = counted(lambda x, prev, b1, b2: Scalar((b1 - b2) * x.value))
        kernel = KernelL(fn, "counted-weight-difference")
        first = check(kernel, PLUS, ScalarUsual(), 3, SG)
        assert first.passed and calls and max(calls.values()) == 1
        total = sum(calls.values())
        calls.clear()
        assert check(kernel, PLUS, ScalarUsual(), 3, SG).checked == first.checked
        assert sum(calls.values()) == total

    @staticmethod
    def counted_order(order):
        """``order`` with its ``compare`` counted per operand key."""
        order.compare, calls = counted(order.compare)
        return order, calls

    @pytest.mark.parametrize("check", [
        lambda order: check_compatibility(VV_PLUS, order, VG4),
        lambda order: check_c1(VV_SCALE, VV_PLUS, order, VG4),
    ], ids=["compatibility", "c1"])
    def test_compare(self, check):
        order, calls = self.counted_order(VectorLex((0, 1)))
        first = check(order)
        assert first.passed and calls and max(calls.values()) == 1
        total = sum(calls.values())
        calls.clear()
        assert check(order).checked == first.checked
        assert sum(calls.values()) == total

    def test_compare_in_monotonicity(self):
        # The strict-compatibility precheck is a law check of its own; the
        # enumeration after it, sort included, compares each pair once more
        # at most.
        order, calls = self.counted_order(ScalarUsual())
        assert check_compatibility(PLUS, order, SG).passed
        precheck = Counter(calls)
        calls.clear()
        kernel = classical_kernel("scalar")
        assert check_monotonicity(kernel, PLUS, order, 3, SG).passed
        beyond = calls - precheck
        assert not precheck - calls and beyond and max(beyond.values()) == 1

    @pytest.mark.parametrize("order,grid", [
        (VectorLex((0, 1)), VG4), (AlphaBeta(0.0, 1.0), GridSpec("interval", 4))],
        ids=["veclex:1,2", "ab:0:1"])
    def test_admissibility_compares_each_pair_once(self, order, grid):
        order, calls = self.counted_order(order)
        assert check_admissibility(order, grid).passed
        size = len(grid_elements(grid))
        assert sum(calls.values()) == len(calls) == size ** 2

    def test_carriers_stay_apart(self):
        # x + y lands on another carrier, so (x + y) + z mixes two. Every
        # x + y has the components of a grid element, so a memo keyed on
        # components alone would answer each (x + y) + z from a grid pair
        # and hide the mismatch.
        op = AdditionOp("min-to-vector", "scalar",
                        lambda x, z: Vector((min(x.value, z.value),)))
        with pytest.raises(KindMismatch):
            check_associativity(op, SG)


def reversed_weight_kernel():
    """Well defined, but decreasing in its input: monotonicity fails."""
    return KernelL(lambda x, prev, b1, b2: Scalar((b1 - b2) * (1.0 - x.value)),
                   "reversed-weight-difference")


def report_json(report):
    """A report as ``verify`` writes it, apart from ``elapsed``."""
    payload = report.to_json()
    del payload["elapsed"]
    return json.dumps(payload)


class TestRunRecord:
    """Within one record, a repeated enumeration or precheck is replayed;
    every report equals the same check run without a record, witness and
    ``checked`` included."""

    CHECKS = (check_wd, check_monotonicity, check_aggregation)  # as the suites call them

    def assert_replays_exactly(self, runs):
        """Each ``(check, kernel, addop, order, n, grid)`` of ``runs``, in
        turn with one shared record, against the same call without one.
        The shared calls evaluate the kernels less often in all."""
        calls = Counter()

        def counting(fn):
            def call(*args):
                calls["all"] += 1
                return fn(*args)
            return call

        for kernel in {run[1] for run in runs}:
            object.__setattr__(kernel, "fn", counting(kernel.fn))
        record = RunRecord()
        for check, *config in runs:
            before = calls["all"]
            shared = check(*config, record=record)
            calls["shared"] += calls["all"] - before
            fresh = check(*config)
            assert shared.witness == fresh.witness
            assert report_json(shared) == report_json(fresh)
        assert 0 < calls["shared"] < calls["all"] - calls["shared"]

    @pytest.mark.parametrize("kind,order,addop,m", [
        ("scalar", ScalarUsual(), PLUS, 4), ("interval", XU, IV_PLUS, 2)],
        ids=["scalar", "ab:0.5:1"])
    def test_nested_checks_replay_exactly(self, kind, order, addop, m):
        grid = GridSpec(kind, m)
        kernels = [kernel_catalog(spec, kind, order) for spec in (
            {"family": "delta-scale", "delta": "sq-diff"}, "delta-scale")]
        runs = [(check, kernel, addop, order, n, grid)
                for kernel in kernels for n in (2, 3) for check in self.CHECKS]
        self.assert_replays_exactly(runs)
        # wd fails for delta-scale(sq-diff) and holds for the classical kernel.
        assert [check_wd(*run[1:]).verdict for run in runs[::3]] == ["fail"] * 2 + ["pass"] * 2

    def test_monotonicity_witness_replays_inside_aggregation(self):
        kernel, order = reversed_weight_kernel(), ScalarUsual()
        assert check_wd(kernel, PLUS, order, 3, SG).passed
        report = check_monotonicity(kernel, PLUS, order, 3, SG)
        assert report.witness["condition"] != "a:wd"
        self.assert_replays_exactly(
            [(check, kernel, PLUS, order, 3, SG) for check in self.CHECKS])

    def test_kernels_under_one_name_never_share(self):
        a = KernelL(classical_kernel("scalar").fn, "same-name")
        b = KernelL(first_weight_kernel().fn, "same-name")
        order = ScalarUsual()
        assert check_wd(a, PLUS, order, 3, SG).passed
        assert not check_wd(b, PLUS, order, 3, SG).passed
        self.assert_replays_exactly([(check, kernel, PLUS, order, 3, SG)
                                     for kernel in (a, b, a) for check in self.CHECKS])

    def test_a_precheck_that_fails_raises_each_time(self):
        kernel, order, record = classical_kernel("scalar"), ScalarUsual(), RunRecord()
        for check in self.CHECKS * 2:
            with pytest.raises(HypothesisViolated):
                check(kernel, MIN_OP, order, 3, SG, record=record)

    def test_an_enumeration_that_raises_records_nothing(self):
        # The kernel raises on its 50th call, part way through the wd cases;
        # the same record then runs the enumeration afresh.
        weight = classical_kernel("scalar").fn
        calls = []

        def flaky(x, prev, b1, b2):
            calls.append(None)
            if len(calls) == 50:
                raise RuntimeError("kernel gave up")
            return weight(x, prev, b1, b2)

        kernel, order, record = KernelL(flaky, "flaky-weight-difference"), ScalarUsual(), \
            RunRecord()
        with pytest.raises(RuntimeError):
            check_monotonicity(kernel, PLUS, order, 3, SG, record=record)
        for check in self.CHECKS:
            shared = check(kernel, PLUS, order, 3, SG, record=record)
            assert shared.passed
            assert report_json(shared) == report_json(check(kernel, PLUS, order, 3, SG))

    def test_a_repeat_makes_no_calls(self):
        fn, calls = counted(classical_kernel("scalar").fn)
        kernel, order, record = KernelL(fn, "counted-weight-difference"), ScalarUsual(), \
            RunRecord()
        check_wd(kernel, PLUS, order, 3, SG, record=record)
        total = sum(calls.values())
        assert check_wd(kernel, PLUS, order, 3, SG, record=record).passed
        assert sum(calls.values()) == total


class TestMemoEqual:
    """``_Memo.equal`` gives ``elements_equal``'s verdict on the elements
    behind two ids, ``KindMismatch`` on two carriers included."""

    @pytest.mark.parametrize("x,z", [
        (Scalar(0.25), Scalar(0.25 + 1e-13)), (Scalar(0.25), Scalar(0.25 + 1e-11)),
        (Vector((0.5, 0.25)), Vector((0.5, 0.25 + 1e-13))),
        (Vector((0.5, 0.25)), Vector((0.5 + 1e-11, 0.25)))])
    def test_within_tol(self, x, z):
        memo = _Memo(GridSpec(x.kind, 2, dim=x.dim))
        assert memo.equal(memo.id(x), memo.id(z)) == elements_equal(x, z)

    @pytest.mark.parametrize("grid,z", [
        (GridSpec("scalar", 2), Vector((0.0,))),
        (GridSpec("interval", 2), Vector((0.0, 0.0))),
        (GridSpec("vector", 2, dim=2), Vector((0.0, 0.0, 0.0)))],
        ids=["scalar-vs-vector", "interval-vs-vector", "dim-2-vs-dim-3"])
    def test_carrier_mismatch_raises(self, grid, z):
        memo = _Memo(grid)
        with pytest.raises(KindMismatch):
            memo.equal(0, memo.id(z))


class TestMemoLifetime:
    """A memo's caches close over its element list and operations, never
    over the memo itself; so reference counting frees it, collector off."""

    def test_freed_without_the_collector(self):
        memo = _Memo(SG, PLUS, ScalarUsual(), classical_kernel("scalar").evaluate)
        s = memo.plus(1, 2)
        assert memo.plus(1, 2) == s and memo.elems[s] == Scalar(0.75)
        memo.term(2, 1, 1.0, 0.5)
        assert memo.compare(1, 2) == -1
        assert memo.plus.cache_info().currsize == 1
        ref = weakref.ref(memo)
        gc.disable()
        try:
            del memo
            assert ref() is None
        finally:
            gc.enable()


class TestBruteForceAndOracle:
    def test_brute_wd_catches_first_weight(self):
        report = brute_force_wd(first_weight_kernel(), PLUS, ScalarUsual(), 2, SG)
        assert not report.passed
        assert report.witness["sigma_a"] != report.witness["sigma_b"]
        assert report.detail == {"n": 2}  # a failing report drops the battery note

    def test_monotone_pair_generation_is_sound(self):
        # Sample pairs out of the sweep's enumeration scheme directly.
        elems = ScalarUsual().sort(grid_elements(GridSpec("scalar", 2)))
        upsets = {e: elems[i:] for i, e in enumerate(elems)}
        for X in itertools.product(elems, repeat=2):
            for Z in itertools.product(*(upsets[x] for x in X)):
                assert all(ScalarUsual().compare(x, z) <= 0 for x, z in zip(X, Z))

    def test_oracle_agreement_good_and_bad(self):
        assert oracle_crosscheck(classical_kernel("scalar"), PLUS, ScalarUsual(),
                                 3, GridSpec("scalar", 2)).passed
        assert oracle_crosscheck(first_weight_kernel(), PLUS, ScalarUsual(),
                                 2, SG).passed

    @pytest.mark.parametrize("kernel,n,grid,checked,verdict", [
        (classical_kernel("scalar"), 3, GridSpec("scalar", 2), 3486, "pass"),
        (first_weight_kernel(), 2, SG, 1020, "fail"),
    ])
    def test_crosscheck_report_is_pinned(self, kernel, n, grid, checked, verdict):
        """Both laws, in either order: verdicts keyed wd then monotonicity,
        and the summed case count, as first recorded."""
        both = {"condition": verdict, "brute_force": verdict}
        for laws in (("wd", "monotonicity"), ("monotonicity", "wd")):
            report = oracle_crosscheck(kernel, PLUS, ScalarUsual(), n, grid, laws=laws)
            assert json.dumps(report.detail["verdicts"]) == json.dumps(
                {"wd": both, "monotonicity": both})
            assert report.checked == checked

    @pytest.mark.parametrize("kind,order,addop,checked", [
        ("vector", VectorLex((0, 1)), VV_PLUS, {"pass": (297, 3804), "fail": (67, 240)}),
        ("interval", AlphaBeta(0.0, 1.0), IV_PLUS, {"pass": (228, 1914), "fail": (67, 204)}),
    ], ids=["veclex:1,2", "ab:0:1"])
    @pytest.mark.parametrize("spec,verdict", [
        ("delta-scale", "pass"), ({"family": "delta-scale", "delta": "sq-diff"}, "fail")],
        ids=["delta-scale", "sq-diff"])
    def test_wd_crosscheck_on_every_carrier(self, kind, order, addop, checked, spec,
                                            verdict):
        """The spot check's constant tuples are tied rows that the catalog
        kernel certifies or walks; brute force checks both at n=2 and 3."""
        kernel = kernel_catalog(spec, kind, order)
        for n, count in zip((2, 3), checked[verdict]):
            report = oracle_crosscheck(kernel, addop, order, n, GridSpec(kind, 2),
                                       laws=("wd",))
            assert report.detail["verdicts"] == {
                "wd": {"condition": verdict, "brute_force": verdict}}
            assert report.checked == count

    @pytest.mark.parametrize("laws", [("aggregation",), ("monotonicty",), ("wd", "mono"), ()],
                             ids=["not-yet-known", "misspelt", "one-unknown", "empty"])
    def test_crosscheck_refuses_laws_it_does_not_know(self, laws):
        with pytest.raises(BadParameter, match=r"\['wd', 'monotonicity'\]"):
            oracle_crosscheck(classical_kernel("scalar"), PLUS, ScalarUsual(), 2,
                              GridSpec("scalar", 2), laws=laws)

    def test_battery_composition(self):
        caps = capacity_battery(3)
        assert len(caps) == 1 + 3 + 3 + 5
        assert all(mu.n == 3 for mu in caps)

    def test_constant_inputs_edge_case(self):
        # Two tied inputs: the smallest nontrivial permutation set.
        from choquetlike import choquet_aggregate, capacity_family
        kernel = first_weight_kernel()
        wd = check_wd(kernel, PLUS, ScalarUsual(), 2, SG)
        mu = capacity_family("uniform-random", 2, seed=44)
        res = choquet_aggregate(
            AggregationInput((Scalar(0.5), Scalar(0.5)), mu, ScalarUsual(), PLUS),
            kernel)
        assert wd.passed == res.consistent  # both fail here


SQ_DIFF = {"family": "delta-scale", "delta": "sq-diff"}
# The brute-force sweeps of the laws crosscheck battery: (carrier, grid m,
# kernel spec, law, n), each under the carrier's order of that battery.
ORACLE_CASES = {
    f"{law}-{kind}-m{m}-{'sq-diff' if spec is SQ_DIFF else spec}-n{n}": (
        kind, m, spec, law, n)
    for kind, m, spec, law, ns in (
        ("scalar", 4, "delta-scale", "wd", (2, 3, 4)),
        ("scalar", 4, SQ_DIFF, "wd", (2, 3, 4)),
        ("interval", 2, "delta-scale", "wd", (2, 3, 4)),
        ("interval", 2, SQ_DIFF, "wd", (2, 3, 4)),
        ("scalar", 4, "delta-scale", "monotonicity", (3,)),
        ("interval", 2, "delta-scale", "monotonicity", (3,)),
    )
    for n in ns
}


def oracle_report(kind, m, spec, law, n):
    """The brute-force report of one battery case at seed 42, as JSON
    without its ``elapsed``."""
    order = parse_order("scalar" if kind == "scalar" else "ab:0.5:1")
    brute_force = {"wd": brute_force_wd, "monotonicity": brute_force_monotonicity}[law]
    report = brute_force(kernel_catalog(spec, kind, order), addition_for(kind), order,
                         n, GridSpec(kind, m), 42)
    payload = report.to_json()
    del payload["elapsed"]
    return payload


class TestOracleGolden:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_brute_force_report_is_pinned(self, case):
        """Verdict, ``checked`` and witness of each oracle sweep, as the
        reference fold first gave them (data/oracle_golden.json)."""
        golden = json.loads((Path(__file__).parent / "data"
                             / "oracle_golden.json").read_text())
        assert len(golden) == len(ORACLE_CASES) == 14
        assert oracle_report(*ORACLE_CASES[case]) == golden[case]


class TestReports:
    def test_json_shape(self):
        report = check_wd(first_weight_kernel(), PLUS, ScalarUsual(), 2, SG)
        payload = report.to_json()
        assert payload["law"] == "wd"
        assert payload["verdict"] == "fail"
        assert payload["witness"] is not None
        assert payload["checked"] > 0

    def test_failing_brute_force_report_serializes(self):
        kernel = kernel_catalog({"family": "delta-scale", "delta": "sq-diff"}, "scalar")
        report = brute_force_wd(kernel, PLUS, ScalarUsual(), 2, GridSpec("scalar", 2))
        assert not report.passed
        witness = report.witness
        assert type(witness["sigma_a"]) is tuple and type(witness["sigma_b"]) is tuple
        payload = report.to_json()
        assert payload["witness"]["sigma_a"] == list(witness["sigma_a"])
        assert payload["witness"]["sigma_b"] == list(witness["sigma_b"])
        assert json.loads(json.dumps(payload)) == payload

    def test_pass_reports_carry_resolution_note(self):
        report = check_wd(classical_kernel("scalar"), PLUS, ScalarUsual(), 2, SG)
        assert "resolution" in report.detail["note"]


class TestRunLaw:
    def test_stops_at_the_first_witness_and_counts_it(self):
        drawn = []

        def cases():
            for i in range(5):
                drawn.append(i)
                yield {"i": i} if i == 2 else None

        report = run_law("demo", cases(), op="x", note="pass only")
        assert not report.passed and report.witness == {"i": 2}
        assert report.checked == 3
        assert drawn == [0, 1, 2]  # never advanced past the witness
        assert report.detail == {"op": "x"}

    def test_passing_run_counts_every_case_and_keeps_detail_order(self):
        report = run_law("demo", iter([None] * 4), b=1, a=2, note="n")
        assert report.passed and report.witness is None
        assert report.checked == 4 and report.elapsed >= 0.0
        assert list(report.detail.items()) == [("b", 1), ("a", 2), ("note", "n")]
        empty = run_law("demo", iter([]))
        assert empty.passed and empty.checked == 0
