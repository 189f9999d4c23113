"""Addition/multiplication operations and their law checks."""

import pytest

from choquetlike import (
    BOUNDED_SUM, GridSpec, IV_PLUS, IV_SCALE, Interval, MIN_OP, PLUS, Scalar,
    ScaleOutOfRange, TIMES, VV_PLUS, VV_SCALE, Vector, AdditionOp, AlphaBeta,
    ScalarUsual, VectorLex, add, check_associativity, check_c1,
    check_cancellation, check_closure, check_commutativity,
    check_compatibility, check_distributivity, check_zero_sum,
    elements_equal, scale,
)

SG = GridSpec("scalar", 4)
IG = GridSpec("interval", 4)
VG = GridSpec("vector", 2, dim=2)


class TestAddScale:
    def test_interval_add(self):
        out = add(IV_PLUS, Interval(0.1, 0.2), Interval(0.3, 0.4))
        assert elements_equal(out, Interval(0.4, 0.6))

    def test_additive_identity(self):
        x = Interval(0.3, 0.7)
        assert elements_equal(add(IV_PLUS, x, Interval(0.0, 0.0)), x)
        assert elements_equal(add(PLUS, Scalar(0.4), Scalar(0.0)), Scalar(0.4))

    def test_vector_sum_escapes_unit(self):
        out = add(VV_PLUS, Vector((0.5, 0.5)), Vector((0.5, 0.6)))
        assert elements_equal(out, Vector((1.0, 1.1)))
        assert not out.in_unit

    def test_interval_scale(self):
        assert elements_equal(scale(IV_SCALE, 0.5, Interval(0.4, 0.8)),
                              Interval(0.2, 0.4))

    def test_scale_identity_and_zero(self):
        x = Vector((0.2, 0.9))
        assert elements_equal(scale(VV_SCALE, 1.0, x), x)
        assert elements_equal(scale(VV_SCALE, 0.7, Vector((0.0, 0.0))),
                              Vector((0.0, 0.0)))

    def test_scale_out_of_range(self):
        with pytest.raises(ScaleOutOfRange):
            scale(TIMES, 1.5, Scalar(0.5))


class TestCancellation:
    def test_componentwise_ops_cancel(self):
        assert check_cancellation(PLUS, SG).passed
        assert check_cancellation(IV_PLUS, IG).passed
        assert check_cancellation(VV_PLUS, VG).passed

    def test_min_fails_with_witness(self):
        report = check_cancellation(MIN_OP, SG)
        assert not report.passed
        w = report.witness
        lhs = add(MIN_OP, w["x1"], w["v"])
        rhs = add(MIN_OP, w["x2"], w["v"])
        assert elements_equal(lhs, rhs)
        assert not elements_equal(w["x1"], w["x2"])

    def test_bounded_sum_fails(self):
        assert not check_cancellation(BOUNDED_SUM, SG).passed

    def test_user_built_op_fails(self):
        # Law checks run identically against user-supplied operations.
        op = AdditionOp("test-max", "scalar",
                        lambda x, z: Scalar(max(x.value, z.value)))
        assert not check_cancellation(op, SG).passed


class TestCompatibility:
    def test_interval_strict(self):
        assert check_compatibility(IV_PLUS, AlphaBeta(0.5, 1.0), IG).passed

    def test_vector_strict(self):
        assert check_compatibility(VV_PLUS, VectorLex((0, 1)), VG).passed

    def test_min_strict_fails(self):
        report = check_compatibility(MIN_OP, ScalarUsual(), SG)
        assert not report.passed
        w = report.witness
        # The witness replays: strictly ordered inputs, equal (or reversed) sums.
        assert ScalarUsual().compare(w["x1"], w["x2"]) < 0
        assert not ScalarUsual().compare(w["lhs"], w["rhs"]) < 0


    def test_lemma_break_raises_and_weak_fails(self):
        class Coarse(ScalarUsual):
            """Calls every value up to 0.5 equal: not antisymmetric."""

            def compare(self, x, z):
                if x.value <= 0.5 and z.value <= 0.5:
                    return 0
                return super().compare(x, z)

        # Strict compatibility holds, weak does not: the lemma breaks.
        with pytest.raises(RuntimeError):
            check_compatibility(PLUS, Coarse(), SG)


class TestDistributivity:
    @pytest.mark.parametrize("mul,addop,grid", [
        (TIMES, PLUS, SG), (IV_SCALE, IV_PLUS, IG), (VV_SCALE, VV_PLUS, VG)])
    def test_right(self, mul, addop, grid):
        assert check_distributivity(mul, addop, "right", grid).passed

    @pytest.mark.parametrize("mul,addop,grid", [
        (TIMES, PLUS, SG), (IV_SCALE, IV_PLUS, IG), (VV_SCALE, VV_PLUS, VG)])
    def test_left(self, mul, addop, grid):
        assert check_distributivity(mul, addop, "left", grid).passed


class TestC1:
    def test_scalar(self):
        assert check_c1(TIMES, PLUS, ScalarUsual(), SG).passed

    def test_interval_xu_yager(self):
        assert check_c1(IV_SCALE, IV_PLUS, AlphaBeta(0.5, 1.0),
                        GridSpec("interval", 2)).passed


class TestStructuralLemmas:
    """Grid embodiments of the auxiliary order/addition lemmas."""

    @pytest.mark.parametrize("op,order,grid", [
        (PLUS, ScalarUsual(), SG),
        (IV_PLUS, AlphaBeta(0.5, 1.0), IG),
        (VV_PLUS, VectorLex((0, 1)), VG)])
    def test_strict_compatibility_implies_cancellation(self, op, order, grid):
        if check_compatibility(op, order, grid).passed:
            assert check_cancellation(op, grid).passed

    @pytest.mark.parametrize("op,grid", [
        (PLUS, SG), (IV_PLUS, IG), (VV_PLUS, VG)])
    def test_zero_sum_forces_zeros(self, op, grid):
        assert check_zero_sum(op, grid).passed

    def test_commutativity_associativity(self):
        for op, grid in ((PLUS, SG), (IV_PLUS, IG), (VV_PLUS, VG),
                         (MIN_OP, SG), (BOUNDED_SUM, SG)):
            assert check_commutativity(op, grid).passed
            assert check_associativity(op, grid).passed


class TestClosure:
    def test_componentwise_plus_not_closed(self):
        report = check_closure(PLUS, SG)
        assert not report.passed
        assert not report.witness["sum"].in_unit

    def test_bounded_sum_closed(self):
        assert check_closure(BOUNDED_SUM, SG).passed

