"""Dissimilarity functions, the width-based interval construction, and the
telescoping counterexample search."""

import itertools

import pytest

from choquetlike import (
    AdmissibleOrder, AlphaBeta, AlphaOutOfRange, BadParameter, DissimilarityFn,
    GridSpec, IV_PLUS, Interval, KindMismatch, PLUS, ReconstructionOutOfK, Scalar,
    ScalarUsual, VV_PLUS, Vector, VectorLex, add, check_admissibility, check_dissimilarity,
    check_telescoping, elements_equal, grid_elements, k_alpha, lambda_alpha,
    resolve_dissimilarity, takac_counterexample, takac_dissimilarity_fn,
)
from choquetlike.dissimilarity import delta_covers_unit_range, resolve_delta

XU = AlphaBeta(0.5, 1.0)


class TestLambdaAlpha:
    def test_full_interval(self):
        assert lambda_alpha(Interval(0, 1), 0.5) == pytest.approx(1.0)

    def test_degenerate_width_zero(self):
        for a in (0.25, 0.5, 0.75):
            assert lambda_alpha(Interval(0.4, 0.4), a) == 0.0

    def test_zero_interval_uses_zero_over_zero_convention(self):
        assert lambda_alpha(Interval(0, 0), 0.3) == 0.0
        assert lambda_alpha(Interval(1, 1), 0.7) == 0.0

    def test_alpha_range(self):
        for a in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(AlphaOutOfRange):
                lambda_alpha(Interval(0.1, 0.4), a)

    def test_in_unit_on_grid(self):
        from choquetlike import grid_elements
        for x in grid_elements(GridSpec("interval", 8)):
            v = lambda_alpha(x, 0.5)
            assert -1e-12 <= v <= 1.0 + 1e-12


class TestTakacConstruction:
    def test_equal_inputs_give_zero(self):
        d = takac_dissimilarity_fn(0.5, "max", "abs-diff")
        z = d(Interval(0.2, 0.6), Interval(0.2, 0.6))
        assert elements_equal(z, Interval(0, 0))

    def test_full_against_zero(self):
        z = takac_dissimilarity_fn(0.5, "max", "abs-diff")(Interval(0, 1), Interval(0, 0))
        assert elements_equal(z, Interval(0, 1))

    def test_zero_width_family_under_min(self):
        # min absorbs the zero-width side, so the output degenerates.
        z = takac_dissimilarity_fn(0.5, "min", "abs-diff")(Interval(0, 0.5), Interval(0, 0))
        assert z.width == pytest.approx(0.0)
        assert k_alpha(z, 0.5) == pytest.approx(0.25)

    def test_prescribed_coordinates_round_trip(self):
        from choquetlike import grid_elements
        from choquetlike.dissimilarity import resolve_delta, resolve_symmetric_mean
        alpha = 0.5
        delta, m_d = resolve_delta("abs-diff"), resolve_symmetric_mean("max")
        d = takac_dissimilarity_fn(alpha, "max", "abs-diff")
        for x in grid_elements(GridSpec("interval", 4)):
            for y in grid_elements(GridSpec("interval", 4)):
                z = d(x, y)
                want_k = delta(k_alpha(x, alpha), k_alpha(y, alpha))
                assert k_alpha(z, alpha) == pytest.approx(want_k, abs=1e-9)
                if z.width > 1e-9:  # width recomputes only off the 0/0 branch
                    want_l = m_d(lambda_alpha(x, alpha), lambda_alpha(y, alpha))
                    assert lambda_alpha(z, alpha) == pytest.approx(want_l, abs=1e-9)

    def test_reconstruction_guard(self):
        with pytest.raises(ReconstructionOutOfK):
            takac_dissimilarity_fn(0.5, lambda a, b: 2.0, "abs-diff")(
                Interval(0, 1), Interval(0, 0))


class TestDissimilarityAxioms:
    def test_scalar_abs_and_square_pass(self):
        grid = GridSpec("scalar", 8)
        for name in ("abs-diff", "sq-diff"):
            d = resolve_dissimilarity(name, "scalar")
            assert check_dissimilarity(d, ScalarUsual(), grid).passed

    def test_sum_is_not_a_dissimilarity(self):
        d = DissimilarityFn("sum", lambda x, z: Scalar(min(1.0, x.value + z.value)))
        report = check_dissimilarity(d, ScalarUsual(), GridSpec("scalar", 4))
        assert not report.passed
        assert report.witness["violation"] == "diagonal"
        assert report.witness["x"].value > 0

    def test_interval_projected_passes(self):
        d = resolve_dissimilarity("abs-diff", "interval", XU)
        assert check_dissimilarity(d, XU, GridSpec("interval", 4)).passed
        d2 = resolve_dissimilarity("sq-diff", "interval", XU)
        assert check_dissimilarity(d2, XU, GridSpec("interval", 4)).passed

    def test_vector_projected_passes(self):
        order = VectorLex((0, 1))
        d = resolve_dissimilarity("abs-diff", "vector", order)
        assert check_dissimilarity(d, order, GridSpec("vector", 2, dim=2)).passed

    def test_takac_chain_axiom_holds_off_ties_only(self):
        # The construction satisfies the chain axiom along strictly
        # K_alpha-ordered chains, but fails it at tie chains: two inputs
        # sharing the alpha mix produce the same delta image while their
        # width terms differ, flipping the beta tie-break. The full-check
        # witness therefore always involves a tie.
        import itertools
        from choquetlike import grid_elements
        d = takac_dissimilarity_fn(0.5, "max", "abs-diff")
        report = check_dissimilarity(d, XU, GridSpec("interval", 4))
        assert not report.passed
        w = report.witness
        assert w["violation"] == "chain-monotonicity"
        kas = [k_alpha(w[key], 0.5) for key in ("x", "y", "z")]
        assert min(abs(a - b) for a, b in itertools.combinations(kas, 2)) < 1e-12

        elems = XU.sort(grid_elements(GridSpec("interval", 4)))
        for i, j, k in itertools.combinations(range(len(elems)), 3):
            x, y, z = elems[i], elems[j], elems[k]
            ks = [k_alpha(e, 0.5) for e in (x, y, z)]
            if min(abs(a - b) for a, b in itertools.combinations(ks, 2)) < 1e-12:
                continue
            assert XU.compare(d(x, y), d(x, z)) <= 0
            assert XU.compare(d(y, z), d(x, z)) <= 0

    def test_spec_strings(self):
        assert resolve_dissimilarity("takac:0.5:max:abs-diff", "interval").name \
            == "takac:0.5:max:abs-diff"
        with pytest.raises(BadParameter):
            resolve_dissimilarity("abs-diff", "interval")  # needs the order
        with pytest.raises(BadParameter):
            resolve_dissimilarity("no-such", "scalar")

    # An order of another carrier is refused on scalars too, which used to
    # ignore the order they were given.
    @pytest.mark.parametrize("spec,kind,order,message", [
        ("takac:0.5:max", "interval", None, "bad dissimilarity spec"),
        ("takac:0.5:max:abs-diff", "scalar", None, "interval-valued"),
        ("abs-diff", "vector", XU, "projected vector dissimilarity needs an "
                                   "admissible order of the vector carrier, got AlphaBeta"),
        ("sq-diff", "scalar", XU, "order of the scalar carrier, got AlphaBeta"),
        ("abs-diff", "scalar", VectorLex((0, 1)), "order of the scalar carrier, got VectorLex"),
        ("abs-diff", "interval", ScalarUsual(), "order of the interval carrier, got ScalarUsual"),
        ("sq-diff", "interval", None, "order of the interval carrier, got None"),
    ], ids=["takac-too-short", "takac-on-scalars", "vector-under-alpha-beta",
            "scalar-under-alpha-beta", "scalar-under-veclex", "interval-under-scalar",
            "interval-without-order"])
    def test_spec_refusals(self, spec, kind, order, message):
        with pytest.raises(BadParameter, match=message):
            resolve_dissimilarity(spec, kind, order)

    # A dissimilarity is defined on the carrier it was resolved for; the
    # elements of another carrier are refused, not read as its tuples.
    @pytest.mark.parametrize("spec,kind,order,x,z", [
        ("abs-diff", "interval", XU, Scalar(0.1), Scalar(0.2)),
        ("abs-diff", "vector", VectorLex((0, 1)), Interval(0.1, 0.2), Interval(0.3, 0.4)),
        ("takac:0.5:max:abs-diff", "interval", None, Vector((0.1, 0.2)),
         Vector((0.3, 0.4))),
    ], ids=["scalars-under-ab", "intervals-under-veclex", "vectors-under-takac"])
    def test_elements_of_another_carrier_raise(self, spec, kind, order, x, z):
        d = resolve_dissimilarity(spec, kind, order)
        with pytest.raises(KindMismatch, match=f"of {kind} inputs got"):
            d(x, z)


def _alpha_mix_term(alpha):
    def reference(delta):
        def term(xc, zc):
            t = delta((1.0 - alpha) * xc[0] + alpha * xc[1],
                      (1.0 - alpha) * zc[0] + alpha * zc[1])
            return (t, t)
        return term
    return reference


def _coordinate_term(lead, dim):
    return lambda delta: lambda xc, zc: (delta(xc[lead], zc[lead]),) * dim


class UpperFirst(AdmissibleOrder):
    """Intervals by upper endpoint, then lower endpoint: ``ab:1:0`` written
    as a class of its own, with its own ``lead``."""

    kind = "interval"

    def compare(self, x, z):
        for a, b in ((x.upper, z.upper), (x.lower, z.lower)):
            if abs(a - b) > 1e-12:
                return -1 if a < b else 1
        return 0

    def lead(self, c):
        return c[1]

    def spec_string(self):
        return "upper-first"


class TestProjection:
    """abs-diff and sq-diff apply delta to the order's ``lead``; on the
    shipped orders that is, bit for bit, what the per-carrier formulas
    below computed: the value, the alpha mix, the first-priority
    coordinate."""

    @pytest.mark.parametrize("delta", ["abs-diff", "sq-diff"])
    @pytest.mark.parametrize("order,grid,reference", [
        (ScalarUsual(), GridSpec("scalar", 4), _coordinate_term(0, 1)),
        (XU, GridSpec("interval", 4), _alpha_mix_term(0.5)),
        (AlphaBeta(0.0, 1.0), GridSpec("interval", 4), _alpha_mix_term(0.0)),
        (AlphaBeta(1.0, 0.0), GridSpec("interval", 4), _alpha_mix_term(1.0)),
        (VectorLex((0, 1)), GridSpec("vector", 4, dim=2), _coordinate_term(0, 2)),
        (VectorLex((1, 0)), GridSpec("vector", 4, dim=2), _coordinate_term(1, 2)),
        (UpperFirst(), GridSpec("interval", 4), _alpha_mix_term(1.0)),
    ], ids=["scalar", "ab:0.5:1", "ab:0:1", "ab:1:0", "veclex:1,2", "veclex:2,1",
            "custom-upper-first"])
    def test_bit_identical_to_the_per_carrier_formulas(self, delta, order, grid, reference):
        d = resolve_dissimilarity(delta, grid.kind, order)
        term = reference(resolve_delta(delta))
        pairs = 0
        for x, z in itertools.product(grid_elements(grid), repeat=2):
            want = list(map(float.hex, term(x.components, z.components)))
            assert list(map(float.hex, d.term(x.components, z.components))) == want
            assert list(map(float.hex, d(x, z).components)) == want
            pairs += 1
        assert pairs >= 25

    def test_an_order_of_any_dimension_projects_at_the_inputs_dimension(self):
        class FirstCoordinate(AdmissibleOrder):  # ``dim`` stays None: any
            kind = "vector"

            def compare(self, x, z):
                return VectorLex(tuple(range(x.dim))).compare(x, z)

            def lead(self, c):
                return c[0]

        d = resolve_dissimilarity("abs-diff", "vector", FirstCoordinate())
        for dim in (1, 3):
            x, z = Vector((0.25,) * dim), Vector((0.75,) * dim)
            assert d(x, z).components == (0.5,) * dim

    def test_a_custom_order_telescopes_through_its_lead(self):
        order, grid = UpperFirst(), GridSpec("interval", 4)
        assert check_admissibility(order, grid).passed
        d = resolve_dissimilarity("abs-diff", "interval", order)
        assert elements_equal(d(Interval(0.1, 0.3), Interval(0.0, 0.8)), Interval(0.5, 0.5))
        assert check_dissimilarity(d, order, grid).passed
        assert check_telescoping(d, IV_PLUS, order, grid).passed


class TestTelescoping:
    def test_scalar_abs_diff_passes(self):
        d = resolve_dissimilarity("abs-diff", "scalar")
        assert check_telescoping(d, PLUS, ScalarUsual(), GridSpec("scalar", 8)).passed

    def test_scalar_square_fails_and_half_one_replays(self):
        d = resolve_dissimilarity("sq-diff", "scalar")
        report = check_telescoping(d, PLUS, ScalarUsual(), GridSpec("scalar", 4))
        assert not report.passed
        w = report.witness
        assert not elements_equal(w["lhs"], w["rhs"])
        # The canonical violating pair: 0.25 + 0.25 != 1 at (0.5, 1).
        zero = Scalar(0.0)
        lhs = add(PLUS, d(Scalar(0.5), zero), d(Scalar(1.0), Scalar(0.5)))
        assert lhs.value == pytest.approx(0.5)
        assert d(Scalar(1.0), zero).value == pytest.approx(1.0)

    def test_interval_projected_passes(self):
        d = resolve_dissimilarity("abs-diff", "interval", XU)
        assert check_telescoping(d, IV_PLUS, XU, GridSpec("interval", 4)).passed

    def test_vector_projected_passes(self):
        order = VectorLex((0, 1))
        d = resolve_dissimilarity("abs-diff", "vector", order)
        assert check_telescoping(d, VV_PLUS, order, GridSpec("vector", 2, dim=2)).passed

    def test_zero_row_is_neutral(self):
        d = resolve_dissimilarity("abs-diff", "interval", XU)
        zero = Interval(0, 0)
        x2 = Interval(0.3, 0.8)
        lhs = add(IV_PLUS, d(zero, zero), d(x2, zero))
        assert elements_equal(lhs, d(x2, zero))


class TestCounterexampleSearch:
    def test_max_abs_diff_witness_found_and_replays(self):
        report = takac_counterexample(0.5, 1.0, "max", "abs-diff", GridSpec("interval", 8))
        assert report.verdict == "fail"
        w = report.witness
        d = takac_dissimilarity_fn(0.5, "max", "abs-diff")
        zero = Interval(0, 0)
        lhs = add(IV_PLUS, d(w["x1"], zero), d(w["x2"], w["x1"]))
        rhs = d(w["x2"], zero)
        assert abs(lhs.lower - rhs.lower) > 1e-9 or abs(lhs.upper - rhs.upper) > 1e-9
        assert elements_equal(lhs, w["lhs"], tol=1e-9)
        assert elements_equal(rhs, w["rhs"], tol=1e-9)
        # Diagnostics: the width equation breaks with the witness.
        assert abs(w["width_lhs"] - w["width_rhs"]) > 1e-9

    def test_restricted_family_telescopes_for_max_abs(self):
        # For the max/abs-diff pairing, the [0, t] family telescopes
        # exactly; the witness only exists on the full grid, past the
        # 28 family pairs of m = 8.
        report = takac_counterexample(0.5, 1.0, "max", "abs-diff", GridSpec("interval", 8))
        assert not report.passed and report.checked > 28 and report.elapsed > 0.0

    def test_search_counts_the_pairs_it_examined(self):
        # m = 1: no family pair (t1 < t2 needs two nonzero grid points),
        # then the 6 grid pairs x1 <= x2 of [0, 0], [0, 1], [1, 1].
        report = takac_counterexample(0.5, 1.0, "min", "abs-diff", GridSpec("interval", 1))
        assert report.checked == 6 and report.elapsed >= 0.0

    def test_min_pairing_fails_already_on_the_family(self):
        report = takac_counterexample(0.5, 1.0, "min", "abs-diff", GridSpec("interval", 8))
        assert not report.passed and report.checked <= 28
        assert report.witness["x1"].lower == 0.0 and report.witness["x2"].lower == 0.0

    def test_degenerate_grid_has_no_family_witness(self):
        # The min pairing finds no violation among the 6 pairs of m = 1.
        report = takac_counterexample(0.5, 1.0, "min", "abs-diff", GridSpec("interval", 1))
        assert report.passed and report.witness is None
        # A pass names its parameters as a failing report does.
        assert report.to_json()["detail"] == {
            "alpha": 0.5, "beta": 1.0, "Md": "min", "delta_d": "abs-diff",
            "note": "no counterexample at resolution m=1"}
        # A function is named "custom", so the JSON is the same on every run.
        report = takac_counterexample(0.5, 1.0, min, "abs-diff", GridSpec("interval", 1))
        assert report.to_json()["detail"]["Md"] == "custom"

    def test_range_condition_enforced(self):
        with pytest.raises(BadParameter):
            takac_counterexample(0.5, 1.0, "max", lambda a, b: 0.5 * abs(a - b),
                                 GridSpec("interval", 8))

    def test_delta_range_predicate(self):
        assert delta_covers_unit_range(lambda a, b: abs(a - b))
        assert not delta_covers_unit_range(lambda a, b: 0.5 * abs(a - b))

    @pytest.mark.parametrize("delta", [lambda a, b: 2 * abs(a - b),
                                       lambda a, b: 1 - abs(a - b)],
                             ids=["leaves-the-unit-range", "decreasing"])
    def test_delta_range_predicate_refuses(self, delta):
        assert not delta_covers_unit_range(delta)
