"""Cross-module consistency: identities tying the dissimilarity kernels,
the operator, and the verifier together."""

import itertools

import pytest

from choquetlike import (
    AggregationInput, AlphaBeta, GridSpec, IV_PLUS, PLUS, Scalar, ScalarUsual,
    capacity_battery, check_aggregation, check_delta_decomposition,
    check_telescoping, choquet_aggregate, classical_kernel, kernel_catalog,
    resolve_dissimilarity, takac_counterexample,
)
from oracles import classical_choquet_increments, mu_lookup

XU = AlphaBeta(0.5, 1.0)


class TestDissimilarityStepsMatchClassical:
    def test_scalar_abs_diff_cii_equals_classical_choquet(self):
        """The previous-input kernel b * |x1 - x2| walks the sorted chain in
        increments, which is exactly the classical integral."""
        kernel = kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, "scalar")
        grid = [i / 4 for i in range(5)]
        for mu in capacity_battery(3, seed=21):
            of = mu_lookup(mu)
            for values in itertools.product(grid, repeat=3):
                inp = AggregationInput(tuple(Scalar(v) for v in values), mu,
                                       ScalarUsual(), PLUS)
                got = choquet_aggregate(inp, kernel)
                assert got.consistent
                assert got.value.value == pytest.approx(
                    classical_choquet_increments(values, of), abs=1e-12)


class TestTelescopingDecidesAggregation:
    """The telescoping identity is the exact aggregation criterion for the
    previous-input dissimilarity kernel; both sides must agree."""

    def test_interval_positive_instance(self):
        d = resolve_dissimilarity("abs-diff", "interval", XU)
        grid = GridSpec("interval", 2, n=3)
        assert check_telescoping(d, IV_PLUS, XU, grid).passed
        kernel = kernel_catalog({"family": "b-scale-d", "d": d}, "interval", XU)
        assert check_aggregation(kernel, IV_PLUS, XU, 3, grid).passed

    def test_scalar_negative_instance(self):
        d = resolve_dissimilarity("sq-diff", "scalar")
        grid = GridSpec("scalar", 4, n=3)
        assert not check_telescoping(d, PLUS, ScalarUsual(), grid).passed
        kernel = kernel_catalog({"family": "b-scale-d", "d": d}, "scalar")
        assert not check_aggregation(kernel, PLUS, ScalarUsual(), 3, grid).passed


class TestDecompositionDecidesAggregation:
    """The weight-difference decomposition identity mirrors the operator-level
    aggregation verdict for delta-scale kernels."""

    @pytest.mark.parametrize("delta,expected", [
        ("difference", True), ("sq-diff", False), ("capped-double", False)])
    def test_agreement(self, delta, expected):
        grid = GridSpec("scalar", 4, n=3)
        decomp = check_delta_decomposition(delta, grid)
        kernel = kernel_catalog({"family": "delta-scale", "delta": delta}, "scalar")
        agg = check_aggregation(kernel, PLUS, ScalarUsual(), 3, grid)
        assert decomp.passed == expected
        assert agg.passed == expected


class TestDeterminism:
    def test_reports_are_reproducible(self):
        grid = GridSpec("scalar", 4, n=3)
        kernel = kernel_catalog({"family": "delta-scale", "delta": "sq-diff"},
                                "scalar")
        a = check_aggregation(kernel, PLUS, ScalarUsual(), 3, grid)
        b = check_aggregation(kernel, PLUS, ScalarUsual(), 3, grid)
        assert a.verdict == b.verdict and a.witness == b.witness
        assert a.checked == b.checked

    def test_counterexample_search_is_reproducible(self):
        r1 = takac_counterexample(0.5, 1.0, "max", "abs-diff", GridSpec("interval", 8))
        r2 = takac_counterexample(0.5, 1.0, "max", "abs-diff", GridSpec("interval", 8))
        assert r1.witness == r2.witness and r1.checked == r2.checked

    def test_classical_kernel_full_battery_boundary(self):
        # Boundary rows stay pinned for every battery member.
        kernel = classical_kernel("scalar")
        for mu in capacity_battery(4, seed=5):
            zeros = choquet_aggregate(
                AggregationInput((Scalar(0),) * 4, mu, ScalarUsual(), PLUS), kernel)
            ones = choquet_aggregate(
                AggregationInput((Scalar(1),) * 4, mu, ScalarUsual(), PLUS), kernel)
            assert zeros.value.value == pytest.approx(0.0, abs=1e-12)
            assert ones.value.value == pytest.approx(1.0, abs=1e-12)
