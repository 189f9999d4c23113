"""Carrier elements, partial orders, and admissible orders."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquetlike import (
    INTERVAL, SCALAR, TOL, VECTOR, AlphaBeta, BadParameter, GridSpec, Interval,
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
        # checked route: ints become floats, -0.0 is kept, and any negative
        # component or reversed interval is refused, however close.
        assert Scalar(1).value == 1.0 and type(Scalar(1).value) is float
        assert Scalar(-0.0).value.hex() == "-0x0.0p+0"
        for bad in (float("nan"), -0.1, -1e-13):
            with pytest.raises(BadParameter):
                Scalar(bad)
        with pytest.raises(BadParameter, match="out of order"):
            Interval(0.5, 0.5 - 1e-13)
        assert Interval(-0.0, 0.0).components == (0.0, 0.0)
        assert Interval(0, 1).components == (0.0, 1.0)
        with pytest.raises(BadParameter):
            Interval(0.6, 0.4)
        with pytest.raises(BadParameter):
            Interval(float("nan"), 0.4)
        v = Vector([1, 0])
        assert v.coords == (1.0, 0.0) and type(v.coords) is tuple
        assert all(type(c) is float for c in v.coords)
        with pytest.raises(BadParameter, match="nonnegative"):
            Vector((0.2, -1e-13))
        with pytest.raises(BadParameter):
            Vector(())
        with pytest.raises(BadParameter):
            Vector((0.2, -0.1))

    @pytest.mark.parametrize("build", [
        Scalar, lambda v: Interval(0.2, v), lambda v: Interval(v, v),
        lambda v: Vector((0.5, v)), lambda v: Vector((v,))],
        ids=["scalar", "interval-upper", "interval-both", "vector", "vector-1d"])
    def test_infinite_components_refused(self, build):
        # inf - inf is NaN, so a comparator would find two equal infinities
        # greater than each other.
        with pytest.raises(BadParameter, match="finite"):
            build(float("inf"))
        with pytest.raises(BadParameter):
            build(-float("inf"))

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

    def test_refusals(self):
        # alpha is taken exactly: any alpha outside [0, 1] is refused.
        for alpha in (1.5, -1e-13, 1 + 1e-13):
            with pytest.raises(BadParameter, match="alpha must lie in"):
                k_alpha(iv(0.1, 0.2), alpha)
        with pytest.raises(KindMismatch):
            k_alpha(Scalar(0.5), 0.5)

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

    @pytest.mark.parametrize("order,x", [
        (AlphaBeta(0.5, 1.0), Scalar(0.1)), (VectorLex((0, 1)), Scalar(0.1)),
        (VectorLex((0, 1)), Vector((0.1, 0.2, 0.3))), (ScalarUsual(), iv(0.1, 0.2)),
        (ScalarUsual(), Vector((0.1, 0.2)))],
        ids=["alpha-beta-on-scalars", "veclex-on-scalars", "veclex-on-3d",
             "scalar-on-intervals", "scalar-on-vectors"])
    def test_compare_refuses_another_carrier(self, order, x):
        with pytest.raises(KindMismatch):
            order.compare(x, x)

    @settings(deadline=None, max_examples=100)
    @given(units, units, units, units)
    def test_refines_partial_order(self, a, b, c, d):
        x, z = iv(min(a, b), max(a, b)), iv(min(c, d), max(c, d))
        xu = AlphaBeta(0.5, 1.0)
        if partial_leq(x, z):
            assert xu.compare(x, z) <= 0

    # Every grid of ``verify --suite order`` at its default resolution, the
    # reversed vector priority, and the non-dyadic interval grid where
    # alpha mixes tie within TOL.
    @pytest.mark.parametrize("spec,grid", [
        ("scalar", GridSpec(SCALAR, 8)), ("ab:0.5:1", GridSpec(INTERVAL, 4)),
        ("ab:0:1", GridSpec(INTERVAL, 4)), ("ab:1:0", GridSpec(INTERVAL, 4)),
        ("veclex:1,2", GridSpec(VECTOR, 4, dim=2)),
        ("veclex:2,1", GridSpec(VECTOR, 4, dim=2)),
        ("ab:0.5:1", GridSpec(INTERVAL, 10))])
    def test_lead_settles_compare_beyond_tolerance(self, spec, grid):
        order = parse_order(spec)
        settled = 0
        for x, z in itertools.product(grid_elements(grid), repeat=2):
            d = order.lead(x.components) - order.lead(z.components)
            if abs(d) > TOL:
                settled += 1
                assert order.compare(x, z) == (1 if d > 0 else -1), (x, z)
        assert settled > 0
        if grid.m == 10:  # leads that differ by no more than TOL exist here
            assert 0 < abs(order.lead((0.1, 0.2)) - order.lead((0.0, 0.3))) <= TOL

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

    def test_alpha_beta_out_of_the_unit_range_rejected(self):
        with pytest.raises(BadParameter, match="must lie in"):
            AlphaBeta(1.5, 0.0)

    def test_bad_specs(self):
        # A field that int() or float() refuses refuses the spec alike.
        for spec in ("nope", "ab:0.5", "veclex:a,b", "veclex:1,,2", "veclex:1.5",
                     "ab:x:1"):
            with pytest.raises(BadParameter, match=re.escape(f"bad order spec: {spec!r}") + "$"):
                parse_order(spec)
        # The priority is named in the 1-based terms of the spec.
        for spec in ("veclex:1,3", "veclex:-1,0"):
            with pytest.raises(BadParameter, match=re.escape(
                    f"bad order spec: {spec!r}: the priority must be a permutation of 1..2")):
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

    def test_asymmetric_comparator_fails_totality(self):
        class AlwaysBelow(ScalarUsual):
            def compare(self, x, z):
                return -1

        broken = AlwaysBelow()
        report = check_admissibility(broken, GridSpec("scalar", 2))
        assert not report.passed
        w = report.witness
        assert w["violation"] == "totality"
        assert broken.compare(w["x"], w["z"]) != -broken.compare(w["z"], w["x"])

    def test_comparator_tying_everything_fails_antisymmetry(self):
        class AllEqual(ScalarUsual):
            def compare(self, x, z):
                return 0

        broken = AllEqual()
        report = check_admissibility(broken, GridSpec("scalar", 2))
        assert not report.passed
        w = report.witness
        assert w["violation"] == "antisymmetry"
        assert broken.compare(w["x"], w["z"]) == 0
        assert not elements_equal(w["x"], w["z"])

    def test_swapped_pair_fails_transitivity(self):
        # (1, 0) before (0, 1), against the lexicographic order on first
        # coordinates; the two are incomparable, so only transitivity sees it.
        swapped = {((1.0, 0.0), (0.0, 1.0)): -1, ((0.0, 1.0), (1.0, 0.0)): 1}

        class Swapped(VectorLex):
            def compare(self, x, z):
                return swapped.get((x.coords, z.coords)) or super().compare(x, z)

        broken = Swapped((0, 1))
        report = check_admissibility(broken, GridSpec("vector", 2, dim=2))
        assert not report.passed
        w = report.witness
        assert w["violation"] == "transitivity"
        assert (w["x"], w["y"], w["z"]) == (Vector((0.0, 1.0)), Vector((0.5, 0.0)),
                                            Vector((1.0, 0.0)))
        assert broken.compare(w["x"], w["y"]) <= 0
        assert broken.compare(w["y"], w["z"]) <= 0
        assert broken.compare(w["x"], w["z"]) > 0

    def test_reversed_tie_break_at_half_is_still_admissible(self):
        # Reversing the beta tie-break of the Xu-Yager order lands on
        # another valid admissible order, so it is not a negative control.
        report = check_admissibility(_ReversedTieBreak(0.5, 1.0),
                                     GridSpec("interval", 4))
        assert report.passed

    def test_scalar_usual_passes(self):
        assert check_admissibility(ScalarUsual(), GridSpec("scalar", 8)).passed
