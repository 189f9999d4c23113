"""Carrier elements, partial orders, and admissible orders."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquetlike import (
    INTERVAL, SCALAR, VECTOR, AlphaBeta, BadParameter, GridSpec, Interval,
    KindMismatch, PermutationSet, Scalar, ScalarUsual, Vector, VectorLex,
    check_admissibility, elements_equal, grid_elements, k_alpha, parse_order,
    partial_leq,
)

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def iv(lo, hi):
    return Interval(lo, hi)


class TestElements:
    def test_scalar_bounds(self):
        assert Scalar(0.3).value == 0.3
        with pytest.raises(BadParameter):
            Scalar(-0.5)
        with pytest.raises(BadParameter):
            Scalar(float("nan"))

    def test_interval_endpoint_order(self):
        with pytest.raises(BadParameter):
            Interval(0.5, 0.2)
        assert iv(0.2, 0.2).width == 0.0

    def test_vector_nonempty(self):
        with pytest.raises(BadParameter):
            Vector(())

    def test_constructors_normalize_or_refuse(self):
        # Components that are not already nonnegative floats take the
        # checked route: ints become floats, tiny negatives snap to 0.
        assert Scalar(1).value == 1.0 and type(Scalar(1).value) is float
        assert Scalar(-1e-13).value == 0.0
        for bad in (float("nan"), -0.1):
            with pytest.raises(BadParameter):
                Scalar(bad)
        assert Interval(0.5, 0.5 - 1e-13).components == (0.5, 0.5)
        assert Interval(0, 1).components == (0.0, 1.0)
        with pytest.raises(BadParameter):
            Interval(0.6, 0.4)
        with pytest.raises(BadParameter):
            Interval(float("nan"), 0.4)
        v = Vector([1, 0])
        assert v.coords == (1.0, 0.0) and type(v.coords) is tuple
        assert all(type(c) is float for c in v.coords)
        assert Vector((0.2, -1e-13)).coords == (0.2, 0.0)
        with pytest.raises(BadParameter):
            Vector(())
        with pytest.raises(BadParameter):
            Vector((0.2, -0.1))

    def test_kind_and_dim(self):
        for x, kind, dim in ((Scalar(0.3), SCALAR, 1), (Interval(0.1, 0.2), INTERVAL, 2),
                             (Vector((0.1,)), VECTOR, 1), (Vector((0.1, 0.2, 0.3)), VECTOR, 3)):
            assert x.kind == kind and x.dim == dim == len(x.components)
        assert Scalar.kind == SCALAR and Interval.kind == INTERVAL and Vector.kind == VECTOR

    def test_ambient_values_allowed(self):
        # Sums escape the unit-bounded set but remain valid elements.
        big = Scalar(1.4)
        assert not big.in_unit
        assert not Interval(0.5, 1.2).in_unit
        assert Vector((1.0, 0.3)).in_unit


class TestPartialOrder:
    def test_interval_examples(self):
        assert partial_leq(iv(0.2, 0.4), iv(0.5, 0.7))
        assert not partial_leq(iv(0.2, 0.9), iv(0.5, 0.7))

    def test_vector_bounds(self):
        assert partial_leq(Vector((0.0, 0.0)), Vector((1.0, 1.0)))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            partial_leq(Scalar(0.1), iv(0.1, 0.2))
        with pytest.raises(KindMismatch):
            partial_leq(Vector((0.1,)), Vector((0.1, 0.2)))


class TestKAlpha:
    def test_displayed_value(self):
        assert abs(k_alpha(iv(0.2, 0.4), 0.5) - 0.3) < 1e-12

    def test_degenerate(self):
        for a in (0.0, 0.3, 1.0):
            assert k_alpha(iv(0.7, 0.7), a) == pytest.approx(0.7)

    def test_alpha_one_picks_upper(self):
        assert k_alpha(iv(0.0, 1.0), 1.0) == 1.0

    @settings(deadline=None, max_examples=50)
    @given(units, units, units)
    def test_affine_in_alpha_monotone_in_endpoints(self, lo, hi, a):
        lo, hi = min(lo, hi), max(lo, hi)
        x = iv(lo, hi)
        mid = 0.5 * (k_alpha(x, 0.0) + k_alpha(x, 1.0))
        assert k_alpha(x, 0.5) == pytest.approx(mid, abs=1e-12)
        assert k_alpha(x, a) <= k_alpha(iv(lo, min(1.0, hi + 0.1)), a) + 1e-12


class TestAdmissibleCompare:
    def test_xu_yager_tie_break(self):
        xu = AlphaBeta(0.5, 1.0)
        # Same midpoint 0.3, tie broken by the upper endpoint.
        assert xu.compare(iv(0.2, 0.4), iv(0.1, 0.5)) == -1

    def test_lexicographic(self):
        lex = AlphaBeta(0.0, 1.0)
        assert lex.compare(iv(0.2, 0.4), iv(0.2, 0.9)) == -1

    def test_reflexive_equal(self):
        xu = AlphaBeta(0.5, 1.0)
        assert xu.compare(iv(0.2, 0.4), iv(0.2, 0.4)) == 0
        assert ScalarUsual().compare(Scalar(0.5), Scalar(0.5)) == 0

    def test_alpha_beta_equal_iff_componentwise(self):
        xu = AlphaBeta(0.5, 1.0)
        grid = grid_elements(GridSpec("interval", 4))
        for x, z in itertools.product(grid, repeat=2):
            assert (xu.compare(x, z) == 0) == elements_equal(x, z)

    def test_vector_lex_priority(self):
        back = VectorLex((1, 0))
        assert back.compare(Vector((0.9, 0.1)), Vector((0.1, 0.2))) == -1

    @settings(deadline=None, max_examples=100)
    @given(units, units, units, units)
    def test_refines_partial_order(self, a, b, c, d):
        x, z = iv(min(a, b), max(a, b)), iv(min(c, d), max(c, d))
        xu = AlphaBeta(0.5, 1.0)
        if partial_leq(x, z):
            assert xu.compare(x, z) <= 0


    def test_sort_agrees_with_compare_on_non_dyadic_grid(self):
        # The alpha mixes of [0.1, 0.2] and [0.0, 0.3] are 0.15000000000000002
        # and 0.15: equal within TOL, so beta decides. A sort on exact float
        # mixes would put them the other way round.
        order = parse_order("ab:0.5:1")
        elems = order.sort(grid_elements(GridSpec("interval", 10)))
        assert len(elems) == 66
        for i, j in itertools.combinations(range(len(elems)), 2):
            assert order.compare(elems[i], elems[j]) <= 0, (elems[i], elems[j])
        assert order.compare(iv(0.1, 0.2), iv(0.0, 0.3)) == -1
        assert PermutationSet((iv(0.0, 0.3), iv(0.1, 0.2)), order).first() == (1, 0)


class TestOrderSpecs:
    @pytest.mark.parametrize("spec", ["scalar", "ab:0.5:1", "ab:0:1", "ab:1:0",
                                      "veclex:1,2,3"])
    def test_round_trip(self, spec):
        order = parse_order(spec)
        assert parse_order(order.spec_string()).spec_string() == order.spec_string()

    def test_alpha_equals_beta_rejected(self):
        with pytest.raises(BadParameter):
            parse_order("ab:0.5:0.5")

    def test_bad_specs(self):
        for spec in ("nope", "ab:0.5", "veclex:1,3"):
            with pytest.raises(BadParameter):
                parse_order(spec)


class _ReversedTieBreak(AlphaBeta):
    """Negative control: tie-break comparison with the wrong sign.

    With alpha = 0 the primary comparison ignores upper endpoints, so the
    reversed tie-break contradicts the componentwise order outright.
    """

    def compare(self, x, z):
        da = k_alpha(x, self.alpha) - k_alpha(z, self.alpha)
        if abs(da) > 1e-12:
            return -1 if da < 0 else 1
        db = k_alpha(x, self.beta) - k_alpha(z, self.beta)
        if abs(db) > 1e-12:
            return 1 if db < 0 else -1
        return 0


class TestAdmissibilityCheck:
    def test_xu_yager_passes(self):
        report = check_admissibility(AlphaBeta(0.5, 1.0), GridSpec("interval", 4))
        assert report.passed
        assert report.checked > 0

    def test_vector_lex_passes(self):
        report = check_admissibility(VectorLex((0, 1)), GridSpec("vector", 4, dim=2))
        assert report.passed

    def test_broken_tie_break_fails_with_witness(self):
        broken = _ReversedTieBreak(0.0, 1.0)
        report = check_admissibility(broken, GridSpec("interval", 4))
        assert not report.passed
        w = report.witness
        assert w["violation"] == "refinement"
        # Replaying the witness exhibits the violation.
        assert partial_leq(w["x"], w["z"])
        assert broken.compare(w["x"], w["z"]) > 0

    def test_reversed_tie_break_at_half_is_still_admissible(self):
        # Reversing the beta tie-break of the Xu-Yager order lands on
        # another valid admissible order, so it is not a negative control.
        report = check_admissibility(_ReversedTieBreak(0.5, 1.0),
                                     GridSpec("interval", 4))
        assert report.passed

    def test_scalar_usual_passes(self):
        assert check_admissibility(ScalarUsual(), GridSpec("scalar", 8)).passed
