"""Admissible permutations, operator evaluation, and the kernel catalog."""

import inspect
import itertools
import math
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choquetlike import (
    AdditionOp, AggregationInput, AlphaBeta, BOUNDED_SUM, BadParameter, Capacity,
    GridSpec, IV_PLUS, Interval, MIN_OP, TIMES,
    KernelL, KernelRangeError, KindMismatch, NotAdmissiblePermutation, PLUS,
    PermutationSet, Scalar, ScalarUsual, ScaleOutOfRange, TOL, TooManyTies,
    UnknownKernel, VV_PLUS, Vector, VectorLex, add, addition_for, algebra,
    capacity_family, grid_elements, unit_grid,
    affine_f_kernel, b_scale_d_kernel, capacity_from_table, choquet_aggregate,
    choquet_eval, classical_kernel, delta_scale_kernel, elements_equal,
    f_difference_kernel, k_alpha, kernel_catalog, resolve_dissimilarity, scale,
    scale_for, tail_values, zero_element,
)
from choquetlike import operator as operator_module
from choquetlike.algebra import MultiplicationOp
from choquetlike.dissimilarity import _DELTAS, _MEANS
from choquetlike.operator import (
    _CARRIER_FNS, MAX_TIE_GROUP, _eval_sorted, _fold, _tie_candidates,
)
from choquetlike.order import carrier
from oracles import classical_choquet_increments, classical_choquet_mobius, mu_lookup

XU = AlphaBeta(0.5, 1.0)


def scalar_input(values, mu):
    X = tuple(Scalar(v) for v in values)
    return AggregationInput(X, mu, ScalarUsual(), PLUS)


def _b1_kernel(kind):
    mul = scale_for(kind)
    return KernelL(lambda x, prev, b1, b2: scale(mul, 0.4 * b1, x), "b1-x")


# Catalog kernels by a short name; "takac" is for intervals only. Each
# affine-F output stays in [0, 1] on every input.
_KERNEL_SPECS = {
    "classical": "delta-scale",
    "sq-diff": {"family": "delta-scale", "delta": "sq-diff"},
    "b-scale-d": {"family": "b-scale-d", "d": "abs-diff"},
    "b-scale-d-sq": {"family": "b-scale-d", "d": "sq-diff"},
    "takac": {"family": "b-scale-d", "d": "takac:0.5:max:abs-diff"},
    "affine-scale": {"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"},
    "affine-upper": {"family": "affine-F", "C": "upper", "D": "zero"},
    "affine-identity": {"family": "affine-F", "C": "identity", "D": "zero"},
    "affine-lower": {"family": "affine-F", "C": "zero", "D": "lower"},
}


def _kernel(name, kind, order):
    """A catalog kernel of ``_KERNEL_SPECS``, or the custom element kernel
    ``b1-x``."""
    if name == "b1-x":
        return _b1_kernel(kind)
    return kernel_catalog(_KERNEL_SPECS[name], kind, order)


def _row_views(kernel, X):
    """What a catalog kernel's term reads of the inputs ``X`` and of the
    least element: its view of each component tuple, or the tuples."""
    view = kernel.view or (lambda c: c)
    return [view(x.components) for x in X], view((0.0,) * X[0].dim)


def _on_tuples(kernel):
    """A catalog kernel's term on component tuples: each read through its
    view, if it has one."""
    view = kernel.view or (lambda c: c)
    return lambda xc, pc, b1, b2: kernel.term(view(xc), view(pc), b1, b2)


class TestAdmissiblePermutations:
    def test_distinct_values_unique_sort(self):
        X = (Scalar(0.9), Scalar(0.2), Scalar(0.5))
        assert list(PermutationSet(X, ScalarUsual())) == [(1, 2, 0)]

    def test_tie_pair(self):
        X = (Scalar(0.5), Scalar(0.5))
        assert list(PermutationSet(X, ScalarUsual())) == [(0, 1), (1, 0)]

    def test_xu_yager_tie_broken_by_beta(self):
        # Midpoints tie at 0.3 but upper endpoints differ, so the sort is
        # unique (identity), not the full tie-pair set.
        X = (Interval(0.2, 0.4), Interval(0.1, 0.5))
        assert list(PermutationSet(X, XU)) == [(0, 1)]

    def test_deterministic_order_and_lex_first(self):
        X = (Scalar(0.5), Scalar(0.2), Scalar(0.5))
        perms = list(PermutationSet(X, ScalarUsual()))
        assert perms == [(1, 0, 2), (1, 2, 0)]
        assert PermutationSet(X, ScalarUsual()).first() == (1, 0, 2)

    def test_too_many_ties(self):
        X = tuple(Scalar(0.5) for _ in range(8))  # 8! = 40320 permutations
        assert PermutationSet(X, ScalarUsual()).count == 40320

    def test_no_inputs_refused(self):
        with pytest.raises(BadParameter, match="at least one input"):
            PermutationSet((), ScalarUsual())


class TestChoquetEval:
    def test_classical_worked_instance(self):
        inp = scalar_input((0.2, 0.5, 0.9), capacity_family("cardinality", 3))
        out = choquet_eval(inp, classical_kernel("scalar"), (0, 1, 2))
        assert out.value == pytest.approx(8 / 15, abs=1e-12)
        assert out.in_unit

    def test_agrees_with_both_textbook_forms_exhaustively(self):
        mu = capacity_family("cardinality", 3)
        kernel = classical_kernel("scalar")
        of = mu_lookup(mu)
        grid = [i / 4 for i in range(5)]
        for values in itertools.product(grid, repeat=3):
            inp = scalar_input(values, mu)
            got = choquet_aggregate(inp, kernel).value.value
            assert got == pytest.approx(classical_choquet_increments(values, of),
                                        abs=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_classical_agrees_with_the_moebius_form_under_ties(self, data):
        # Fewer levels than inputs, so every row has a tie; the Moebius form
        # sorts nothing and so shares no step with the tie walk.
        n = data.draw(st.integers(2, 6))
        levels = data.draw(st.lists(st.floats(0, 1), min_size=1, max_size=n - 1))
        values = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        mu = capacity_family("uniform-random", n, seed=data.draw(st.integers(0, 9999)))
        got = choquet_aggregate(scalar_input(values, mu), classical_kernel("scalar"))
        assert abs(got.value.value - classical_choquet_mobius(values, mu_lookup(mu))) <= 1e-12

    def test_interval_two_term_instance(self):
        X = (Interval(0.2, 0.4), Interval(0.5, 0.7))
        mu = capacity_from_table(2, [((), 0), ((1,), 0.5), ((2,), 0.5), ((1, 2), 1)])
        inp = AggregationInput(X, mu, XU, IV_PLUS)
        out = choquet_eval(inp, classical_kernel("interval"), (0, 1))
        assert elements_equal(out, Interval(0.35, 0.55))

    def test_rejects_inadmissible_permutation(self):
        inp = scalar_input((0.2, 0.9), capacity_family("cardinality", 2))
        with pytest.raises(NotAdmissiblePermutation):
            choquet_eval(inp, classical_kernel("scalar"), (1, 0))
        with pytest.raises(NotAdmissiblePermutation):
            choquet_eval(inp, classical_kernel("scalar"), (0, 0))

    def test_all_zero_input(self):
        mu = capacity_family("uniform-random", 3, seed=5)
        X = tuple(zero_element("interval") for _ in range(3))
        inp = AggregationInput(X, mu, XU, IV_PLUS)
        out = choquet_eval(inp, classical_kernel("interval"), (0, 1, 2))
        assert elements_equal(out, Interval(0.0, 0.0))


class TestChoquetAggregate:
    def test_distinct_inputs_trivially_consistent(self):
        inp = scalar_input((0.1, 0.6, 0.3), capacity_family("uniform-random", 3, seed=2))
        res = choquet_aggregate(inp, classical_kernel("scalar"))
        assert res.consistent and res.permutations == 1

    def test_weight_difference_kernel_consistent_under_ties(self):
        mu = capacity_from_table(2, [((), 0), ((1,), 0.2), ((2,), 0.7), ((1, 2), 1)])
        res = choquet_aggregate(scalar_input((0.5, 0.5), mu), classical_kernel("scalar"))
        assert res.consistent and res.permutations == 2

    def test_first_weight_kernel_inconsistent_with_witness(self):
        kernel = KernelL(lambda x, prev, b1, b2: Scalar(b1 * x.value), "b1-times-x")
        mu = capacity_from_table(2, [((), 0), ((1,), 0.2), ((2,), 0.7), ((1, 2), 1)])
        res = choquet_aggregate(scalar_input((0.5, 0.5), mu), kernel)
        assert not res.consistent
        values = sorted((res.witness["value_a"].value, res.witness["value_b"].value))
        assert values == pytest.approx([0.6, 0.85])  # 1*.5 + .2*.5 vs 1*.5 + .7*.5

    def test_constant_inputs_aggregate_to_the_constant(self):
        mu = capacity_family("uniform-random", 4, seed=9)
        for c in (0.0, 0.25, 1.0):
            res = choquet_aggregate(scalar_input((c,) * 4, mu), classical_kernel("scalar"))
            assert res.consistent
            assert res.value.value == pytest.approx(c, abs=1e-12)

    def test_all_tied_n8_decided_exactly(self):
        mu = capacity_family("uniform-random", 8, seed=1)
        res = choquet_aggregate(scalar_input([0.5] * 8, mu), classical_kernel("scalar"))
        assert res.consistent and res.permutations == 40320
        assert not hasattr(res, "sampled")

    def test_inconsistent_all_tied_n12_witness_replays(self):
        # Additive capacity with distinct weights: the b1 * x kernel sums
        # tail weights that depend on the order within the tie group.
        n = 12
        weights = [(i + 1) / 78 for i in range(n)]
        mu = Capacity(n, tuple(sum(w for i, w in enumerate(weights) if m >> i & 1)
                               for m in range(1 << n)))
        kernel = _b1_kernel("scalar")
        inp = scalar_input([0.5] * n, mu)
        res = choquet_aggregate(inp, kernel)
        assert not res.consistent
        w = res.witness
        assert choquet_eval(inp, kernel, w["sigma_b"]) == w["value_b"]
        assert not elements_equal(w["value_a"], w["value_b"])

    MU17 = capacity_family("cardinality", MAX_TIE_GROUP + 1)

    def test_tie_group_above_limit_raises(self):
        # sq-diff is not tie-invariant, so the group of 17 goes to the walk.
        with pytest.raises(TooManyTies):
            choquet_aggregate(scalar_input([0.5] * (MAX_TIE_GROUP + 1), self.MU17),
                              kernel_catalog({"family": "delta-scale", "delta": "sq-diff"},
                                             "scalar"))

    @pytest.mark.parametrize("spec", ["delta-scale", {"family": "b-scale-d", "d": "abs-diff"}],
                             ids=["delta-scale", "b-scale-d"])
    def test_certified_tie_group_above_limit(self, spec):
        # The tie limit guards the walk; a certified row never walks.
        res = choquet_aggregate(scalar_input([0.4] * (MAX_TIE_GROUP + 1), self.MU17),
                                kernel_catalog(spec, "scalar"))
        assert (res.value, res.consistent, res.permutations, res.checked) == (
            Scalar(0.4), True, math.factorial(MAX_TIE_GROUP + 1), 1)

    def test_vector_order_of_another_dimension_refused(self):
        # The leads 0.1 and 0.4 are far apart, so the row would be a strict
        # chain, which never calls compare: the input refuses it itself.
        X = (Vector((0.1, 0.2, 0.3)), Vector((0.4, 0.5, 0.6)))
        with pytest.raises(KindMismatch, match="dimension does not match the order"):
            AggregationInput(X, capacity_family("cardinality", 2), VectorLex((0, 1)),
                             VV_PLUS)

    def test_kernel_carrier_is_checked_before_the_tie_limit(self):
        kernel = classical_kernel("interval")
        with pytest.raises(KindMismatch):
            choquet_aggregate(scalar_input([0.5] * (MAX_TIE_GROUP + 1), self.MU17), kernel)
        with pytest.raises(KindMismatch):  # a strict chain reaches the kernel
            choquet_aggregate(scalar_input([0.1, 0.5], capacity_family("cardinality", 2)),
                              kernel)

    def test_boundary_rows(self):
        for mu in (capacity_family("cardinality", 3),
                   capacity_family("dirac", 3, i=2),
                   capacity_family("top", 3, k=2)):
            zeros = choquet_aggregate(scalar_input((0, 0, 0), mu), classical_kernel("scalar"))
            ones = choquet_aggregate(scalar_input((1, 1, 1), mu), classical_kernel("scalar"))
            assert zeros.value.value == pytest.approx(0.0, abs=1e-12)
            assert ones.value.value == pytest.approx(1.0, abs=1e-12)

    def test_comonotone_additive_on_sorted_grid_pairs(self):
        # Classical kernel: additivity over pairs sharing a sorting
        # permutation, restricted to sums that stay in the bounded set.
        mu = capacity_family("uniform-random", 3, seed=13)
        kernel = classical_kernel("scalar")
        grid = [i / 4 for i in range(5)]
        sorted_tuples = [t for t in itertools.product(grid, repeat=3)
                         if t[0] <= t[1] <= t[2]]
        checked = 0
        for xa, xb in itertools.product(sorted_tuples, repeat=2):
            summed = tuple(a + b for a, b in zip(xa, xb))
            if max(summed) > 1.0:
                continue
            checked += 1
            va = choquet_aggregate(scalar_input(xa, mu), kernel).value.value
            vb = choquet_aggregate(scalar_input(xb, mu), kernel).value.value
            vs = choquet_aggregate(scalar_input(summed, mu), kernel).value.value
            assert vs == pytest.approx(va + vb, abs=1e-12)
        assert checked > 100


class TestTieWalk:
    """The exact consistency decision against plain enumeration: every
    admissible permutation of ``PermutationSet`` evaluated with
    ``choquet_eval``."""

    @pytest.mark.parametrize("kind,addop,kernel", [
        ("scalar", PLUS, "classical"), ("scalar", PLUS, "b-scale-d"),
        ("scalar", PLUS, "sq-diff"), ("scalar", PLUS, "b1-x"),
        ("scalar", MIN_OP, "classical"), ("scalar", MIN_OP, "b1-x"),
        ("scalar", BOUNDED_SUM, "classical"), ("scalar", BOUNDED_SUM, "b-scale-d"),
        ("scalar", BOUNDED_SUM, "sq-diff"), ("scalar", BOUNDED_SUM, "b1-x"),
        ("interval", IV_PLUS, "classical"), ("interval", IV_PLUS, "b-scale-d"),
        ("interval", IV_PLUS, "sq-diff"), ("interval", IV_PLUS, "b1-x"),
        ("scalar", PLUS, "b-scale-d-sq"), ("scalar", PLUS, "affine-upper"),
        ("interval", IV_PLUS, "b-scale-d-sq"), ("interval", IV_PLUS, "takac"),
        ("interval", IV_PLUS, "affine-upper"), ("interval", IV_PLUS, "affine-lower"),
        ("interval", IV_PLUS, "affine-identity"),
        ("vector", VV_PLUS, "classical"), ("vector", VV_PLUS, "b-scale-d"),
        ("vector", VV_PLUS, "sq-diff"), ("vector", VV_PLUS, "affine-lower"),
        ("vector", VV_PLUS, "b1-x"),
    ])
    def test_matches_enumeration(self, kind, addop, kernel):
        order = {"scalar": ScalarUsual(), "interval": XU, "vector": VectorLex((0, 1))}[kind]
        kernel = _kernel(kernel, kind, order)
        rng = random.Random(f"{kind}-{addop.name}-{kernel.name}")
        inconsistent = 0
        for _ in range(40):
            n = rng.randint(2, 6)
            levels = [_random_element(rng, kind) for _ in range(rng.randint(1, 3))]
            X = tuple(rng.choice(levels) for _ in range(n))
            mu = capacity_family("uniform-random", n, seed=rng.randint(0, 9999))
            inp = AggregationInput(X, mu, order, addop)
            perms = PermutationSet(X, order)
            base = choquet_eval(inp, kernel, perms.first())
            expected = all(elements_equal(choquet_eval(inp, kernel, s), base)
                           for s in perms)
            res = choquet_aggregate(inp, kernel)
            assert res.consistent == expected
            assert _bits(res.value) == _bits(base)
            assert res.permutations == perms.count
            assert res.checked <= perms.count  # no permutation is drawn twice
            if not res.consistent:
                inconsistent += 1
                w = res.witness
                assert w["sigma_a"] == perms.first()
                assert _bits(w["value_a"]) == _bits(res.value)
                assert _bits(choquet_eval(inp, kernel, w["sigma_b"])) == _bits(w["value_b"])
                assert not elements_equal(w["value_a"], w["value_b"])
        if kernel.name in ("delta-scale(sq-diff)", "b1-x") and addop is not MIN_OP:
            assert inconsistent > 0

    @pytest.mark.parametrize("kind,addop", [
        ("scalar", PLUS), ("scalar", BOUNDED_SUM), ("interval", IV_PLUS),
        ("vector", VV_PLUS)])
    def test_each_candidate_carries_its_fold(self, kind, addop):
        # The walk's own sum for each candidate it yields is the fold along
        # that candidate, bit for bit, so no candidate is folded twice.
        order = {"scalar": ScalarUsual(), "interval": XU, "vector": VectorLex((0, 1))}[kind]
        rng = random.Random(f"candidates-{kind}-{addop.name}")
        drawn = 0
        for name in ("classical", "b-scale-d", "sq-diff", "affine-lower"):
            kernel = _kernel(name, kind, order)
            for _ in range(30):
                n = rng.randint(2, 6)
                levels = [_random_element(rng, kind) for _ in range(rng.randint(1, 3))]
                X = tuple(rng.choice(levels) for _ in range(n))
                mu = capacity_family("uniform-random", n, seed=rng.randint(0, 9999))
                views, zero = _row_views(kernel, X)
                ops = (mu.values, kernel.term, addop.term)
                perms = PermutationSet(X, order)
                for sigma, value in _tie_candidates(views, perms, zero, *ops):
                    folded = _fold(views, sigma, zero, *ops)
                    assert list(map(float.hex, value)) == list(map(float.hex, folded))
                    drawn += 1
        assert drawn > 400, drawn

    def test_prefixes_ending_in_different_inputs_are_not_merged(self):
        # The two tied inputs differ by 6e-13: both prefixes of the state
        # {0, 1} have sums within TOL, but b-scale-d reads the previous
        # input, so they continue to values 1.2e-12 apart.
        X = tuple(map(Scalar, (0.2, 0.2000000000006, 0.5000000000009)))
        inp = AggregationInput(X, capacity_family("uniform-random", 3, seed=89494),
                               ScalarUsual(), PLUS)
        kernel = kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, "scalar")
        values = [choquet_eval(inp, kernel, s) for s in PermutationSet(X, ScalarUsual())]
        assert [v.value for v in values] == [0.4974313423147951, 0.49743134231599506]
        res = choquet_aggregate(inp, kernel)
        assert (res.consistent, res.checked) == (False, 2)
        assert res.witness["value_b"] == values[1]

    @pytest.mark.parametrize("offset", [0.0, 5e-14])
    def test_walk_keeps_one_state_per_placed_set_and_last_input(self, offset):
        # With every state's sums close: k * 2^(k-1) terms for k equal
        # inputs, k + k * (k-1) * 2^(k-2) for k distinct ones.
        k = 8
        X = tuple(Scalar(0.4 + i * offset) for i in range(k))
        perms = PermutationSet(X, ScalarUsual())
        assert len(perms.groups) == 1
        kernel = kernel_catalog({"family": "delta-scale", "delta": "sq-diff"}, "scalar")
        calls = []

        def term(*args):
            calls.append(args)
            return kernel.term(*args)

        comps = [x.components for x in X]
        ops = ((0.0,), capacity_family("cardinality", k).values, term, PLUS.term)
        values = [value for _, value in _tie_candidates(comps, perms, *ops)]
        assert len(values) == (1 if offset == 0.0 else k)
        assert len(calls) == (k << (k - 1) if offset == 0.0 else k + (k * (k - 1) << (k - 2)))

    @pytest.mark.parametrize("offset", [0.0, 5e-14])
    def test_walk_keeps_one_state_per_placed_set_when_the_previous_is_unread(self, offset):
        # A kernel that ignores the previous input: k * 2^(k-1) terms and
        # one value, whether the k tied inputs are equal or distinct.
        k = 8
        X = tuple(Scalar(0.4 + i * offset) for i in range(k))
        perms = PermutationSet(X, ScalarUsual())
        kernel = kernel_catalog({"family": "delta-scale", "delta": "sq-diff"}, "scalar")
        assert not kernel.reads_previous
        calls = []

        def term(*args):
            calls.append(args)
            return kernel.term(*args)

        comps = [x.components for x in X]
        ops = ((0.0,), capacity_family("cardinality", k).values, term, PLUS.term)
        values = [value for _, value in _tie_candidates(comps, perms, *ops, False)]
        assert len(values) == 1
        assert len(calls) == k << (k - 1)

    def test_signed_zeros_are_one_last_input(self):
        # -0.0 == 0.0, so both orders of this row reach one state and one value.
        X = (Scalar(-0.0), Scalar(0.0))
        kernel = kernel_catalog("delta-scale", "scalar")
        comps = [x.components for x in X]
        ops = ((0.0,), capacity_family("uniform-random", 2, seed=1).values, kernel.term,
               PLUS.term)
        walk = list(_tie_candidates(comps, PermutationSet(X, ScalarUsual()), *ops))
        assert len(walk) == 1

    def test_a_wide_row_reads_tail_weights_in_place(self):
        # One tied pair among 16 inputs walks; it reads the 2^16 tail
        # weights where the table holds them, far below the 1 MB of a copy.
        levels = [i / 20 for i in range(1, 16)]
        X = tuple(map(Scalar, levels + [levels[6]]))
        inp = AggregationInput(X, capacity_family("uniform-random", 16, seed=5),
                               ScalarUsual(), PLUS)
        kernel = kernel_catalog({"family": "delta-scale", "delta": "sq-diff"}, "scalar")
        perms = PermutationSet(X, ScalarUsual())
        assert len(perms.groups) == 15
        tracemalloc.start()
        try:
            res = choquet_aggregate(inp, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _bits(res.value) == _bits(choquet_eval(inp, kernel, perms.first()))
        assert res.consistent and res.permutations == 2
        assert peak < 64 * 1024, peak

    def test_bounded_sum_saturation_merges_split_partial_sums(self):
        # Partial sums differ at depth 2, yet every permutation saturates at 1.
        mu = capacity_from_table(3, [
            ((), 0), ((1,), .7), ((2,), .7), ((3,), .8),
            ((1, 2), .9), ((1, 3), .95), ((2, 3), .85), ((1, 2, 3), 1)])
        X = (Scalar(1.0),) * 3
        inp = AggregationInput(X, mu, ScalarUsual(), BOUNDED_SUM)
        kernel = _b1_kernel("scalar")
        assert {choquet_eval(inp, kernel, s).value
                for s in PermutationSet(X, ScalarUsual())} == {1.0}
        res = choquet_aggregate(inp, kernel)
        assert res.consistent and res.value.value == 1.0 and res.checked > 1


def _reference_fold(inp, kernel, sigma):
    """The operator along sigma from public calls only: ``tail_values``,
    ``kernel.evaluate`` and a checked ``add`` per term."""
    b = tail_values(inp.mu, sigma)
    prev, acc = zero_element(inp.X[0].kind, inp.X[0].dim), None
    for i, pos in enumerate(sigma):
        term = kernel.evaluate(inp.X[pos], prev, b[i], b[i + 1])
        acc = term if acc is None else add(inp.addop, acc, term)
        prev = inp.X[pos]
    return acc


def _bits(x):
    return x.kind, tuple(c.hex() for c in x.components)


_unit = st.floats(0.0, 1.0)
_LEAN_CARRIERS = {
    # kind: (order, additions, element strategy)
    "scalar": (ScalarUsual(), (PLUS, MIN_OP, BOUNDED_SUM), _unit.map(Scalar)),
    "interval": (XU, (IV_PLUS,), st.tuples(_unit, _unit).map(
        lambda p: Interval(min(p), max(p)))),
    "vector": (VectorLex((0, 1)), (VV_PLUS,), st.tuples(_unit, _unit).map(Vector)),
}
_LEAN_KERNELS = tuple(_KERNEL_SPECS) + ("b1-x",)


@st.composite
def _lean_cases(draw):
    kind = draw(st.sampled_from(sorted(_LEAN_CARRIERS)))
    order, additions, elements = _LEAN_CARRIERS[kind]
    levels = draw(st.lists(elements, min_size=1, max_size=3))
    X = tuple(draw(st.lists(st.sampled_from(levels), min_size=2, max_size=5)))
    mu = capacity_family("uniform-random", len(X), seed=draw(st.integers(0, 9999)))
    inp = AggregationInput(X, mu, order, draw(st.sampled_from(additions)))
    kernel = _kernel(draw(st.sampled_from(
        [k for k in _LEAN_KERNELS if k != "takac" or kind == "interval"])), kind, order)
    # A random admissible permutation: each tie group in a drawn order.
    groups = PermutationSet(X, order).groups
    sigma = tuple(i for g in groups for i in draw(st.permutations(g)))
    return inp, kernel, sigma


class TestLeanFold:
    """The operator's fold adds kernel terms without per-term carrier checks;
    it must give, bit for bit, what the checked public calls give."""

    @settings(deadline=None, max_examples=150)
    @given(_lean_cases())
    def test_matches_the_checked_fold(self, case):
        inp, kernel, sigma = case
        expected = _bits(_reference_fold(inp, kernel, sigma))
        assert _bits(choquet_eval(inp, kernel, sigma)) == expected
        first = PermutationSet(inp.X, inp.order).first()
        assert _bits(choquet_aggregate(inp, kernel).value) == _bits(
            _reference_fold(inp, kernel, first))

    @pytest.mark.parametrize("bad", [0.1, 0.5, 0.9])  # first, middle, last term
    def test_kernel_leaving_the_scalar_carrier_raises(self, bad):
        kernel = KernelL(lambda x, prev, b1, b2: Interval(0.0, 0.0) if x.value == bad
                         else scale(TIMES, b1 - b2, x), "interval-at")
        inp = scalar_input((0.9, 0.1, 0.5), capacity_family("cardinality", 3))
        with pytest.raises(KindMismatch):
            choquet_aggregate(inp, kernel)
        with pytest.raises(KindMismatch):
            choquet_eval(inp, kernel, (1, 2, 0))

    def test_addition_leaving_the_scalar_carrier_raises(self):
        # An addition without a component form reaches the fold through
        # _on_components, which checks the carrier of each sum.
        op = AdditionOp("to-interval", "scalar",
                        lambda x, z: Interval(0.0, x.value + z.value))
        kernel = classical_kernel("scalar")
        for values in ((0.2, 0.6), (0.4, 0.4)):  # a strict chain, then a tie
            inp = AggregationInput(tuple(map(Scalar, values)),
                                   capacity_family("cardinality", 2), ScalarUsual(), op)
            with pytest.raises(KindMismatch, match="left the carrier of the inputs"):
                choquet_eval(inp, kernel, (0, 1))
            with pytest.raises(KindMismatch,
                               match="addition 'to-interval' left the carrier"):
                choquet_aggregate(inp, kernel)

    def test_only_the_shipped_additions_set_term(self):
        # A term that differs from fn would make the two public calls
        # disagree (0.4 against 0.3 on the rows below with max as term).
        max_term = lambda a, b: (max(a[0], b[0]),)  # noqa: E731
        with pytest.raises(TypeError):
            AdditionOp("plus-max", "scalar", PLUS.fn, max_term)
        with pytest.raises(TypeError):
            AdditionOp("plus-max", "scalar", PLUS.fn, term=max_term)
        # A custom addition is folded through its fn on both calls.
        op = AdditionOp("custom-plus", "scalar",
                        lambda x, z: Scalar(x.value + z.value))
        assert op.term is None
        kernel = classical_kernel("scalar")
        mu = capacity_family("cardinality", 2)
        for values in ((0.2, 0.6), (0.4, 0.4)):  # a strict chain, then a tie
            inp = AggregationInput(tuple(map(Scalar, values)), mu, ScalarUsual(), op)
            first = PermutationSet(inp.X, inp.order).first()
            assert _bits(choquet_aggregate(inp, kernel).value) == _bits(
                choquet_eval(inp, kernel, first))

    def test_catalog_kernel_on_another_carrier_raises(self):
        X = (Interval(0.1, 0.3), Interval(0.2, 0.5))
        inp = AggregationInput(X, capacity_family("cardinality", 2), XU, IV_PLUS)
        for spec in ("delta-scale", "b-scale-d"):
            kernel = kernel_catalog(spec, "scalar")
            with pytest.raises(KindMismatch):
                choquet_aggregate(inp, kernel)
            with pytest.raises(KindMismatch):
                choquet_eval(inp, kernel, (0, 1))

    def test_kernel_output_of_another_dimension_raises(self):
        kernel = KernelL(lambda x, prev, b1, b2: Vector((0.0,) * 3), "three-dims")
        with pytest.raises(KindMismatch):
            kernel.evaluate(Vector((0.2, 0.4)), Vector((0.0, 0.0)), 1.0, 0.5)
        # The projected dissimilarity is of the order's dimension, 2.
        kernel = kernel_catalog("b-scale-d", "vector", VectorLex((0, 1)))
        X = (Vector((0.2, 0.4, 0.1)), Vector((0.3, 0.1, 0.1)))
        inp = AggregationInput(X, capacity_family("cardinality", 2),
                               VectorLex((0, 1, 2)), VV_PLUS)
        with pytest.raises(KindMismatch):
            kernel.evaluate(X[0], Vector((0.0,) * 3), 1.0, 0.5)
        with pytest.raises(KindMismatch):
            choquet_aggregate(inp, kernel)

    @staticmethod
    def _affine(kind, D):
        # X = (0.2, 1.0) as constant elements under a point mass on input 2:
        # the terms are F(0.2, 0) = D(0.2) and F(1, 1) = 0.7 + D(1).
        order, addop, constant = {
            "scalar": (ScalarUsual(), PLUS, Scalar),
            "interval": (XU, IV_PLUS, lambda v: Interval(v, v)),
            "vector": (VectorLex((0, 1)), VV_PLUS, lambda v: Vector((v, v)))}[kind]
        X = (constant(0.2), constant(1.0))
        inp = AggregationInput(X, capacity_family("dirac", 2, i=2), order, addop)
        return inp, kernel_catalog({"family": "affine-F", "C": "scale:0.7", "D": D},
                                   kind)

    @pytest.mark.parametrize("kind", ["scalar", "interval", "vector"])
    def test_term_beyond_the_snap_raises(self, kind):
        # F(1, 1) = 1.1: the kernel is refused when it is built.
        with pytest.raises(KernelRangeError):
            self._affine(kind, "scale:0.4")

    @pytest.mark.parametrize("kind", ["scalar", "interval", "vector"])
    def test_term_just_above_one_is_refused_when_built(self, kind):
        # F(1, 1) = 1 + 1e-10 is refused as 1.1 is: nothing is snapped.
        with pytest.raises(KernelRangeError):
            self._affine(kind, "scale:0.3000000001")
        inp, kernel = self._affine(kind, "scale:0.3")  # F(1, 1) = 0.7 + 0.3 = 1
        got = choquet_aggregate(inp, kernel).value
        assert _bits(got) == _bits(choquet_eval(inp, kernel, (0, 1)))
        assert set(got.components) == {0.3 * 0.2 + 1.0}


class TestNearTolerance:
    """Comparisons use an absolute tolerance of 1e-12, which is not
    transitive for values spaced about that far apart."""

    @pytest.mark.parametrize("kind,order", [("scalar", ScalarUsual()),
                                            ("interval", XU)])
    def test_first_permutation_is_the_index_stable_sort(self, kind, order):
        rng = random.Random(f"stable-{kind}")
        key = ((lambda x: (x.value,)) if kind == "scalar"
               else (lambda x: (k_alpha(x, 0.5), k_alpha(x, 1.0))))
        for _ in range(200):
            levels = [_random_element(rng, kind) for _ in range(rng.randint(1, 3))]
            levels += [zero_element(kind, 2)] if rng.random() < 0.3 else []
            X = tuple(rng.choice(levels) for _ in range(rng.randint(2, 8)))
            expected = tuple(sorted(range(len(X)), key=lambda i: (key(X[i]), i)))
            assert PermutationSet(X, order).first() == expected

    @pytest.mark.parametrize("spacing", [0.0, 2e-13, 5e-13, 1e-12, 2e-12, 3e-12])
    def test_classical_value_near_tolerance(self, spacing):
        rng = random.Random(f"near-{spacing}")
        kernel = classical_kernel("scalar")
        for _ in range(100):
            n = rng.randint(2, 6)
            base = rng.uniform(0.1, 0.9)
            values = [base + rng.randint(0, 3) * spacing for _ in range(n)]
            mu = capacity_family("uniform-random", n, seed=rng.randint(0, 9999))
            got = choquet_aggregate(scalar_input(values, mu), kernel).value.value
            assert abs(got - classical_choquet_increments(values, mu_lookup(mu))) <= 1e-9

    @pytest.mark.parametrize("kind", ["scalar", "interval", "vector"])
    @pytest.mark.parametrize("spacing", [0.0, 2e-13, 5e-13, 1e-12, 2e-12, 3e-12, 1e-6])
    def test_aggregate_agrees_with_the_comparator_sort(self, kind, spacing):
        """Rows whose leads sit ``spacing`` apart, with exact ties: a row
        with one admissible permutation under ``PermutationSet`` is folded
        once along it, whichever path ``choquet_aggregate`` takes.

        Every odd row's capacity table stores -0.0 at the empty set, which
        no tail weight may read: b_{n+1} is 0.0, and the custom kernel
        ``signed-b2`` halves its weight on a negative zero. Every third row
        adds with a custom addition, which has no ``term``."""
        order, addop = {"scalar": (ScalarUsual(), PLUS), "interval": (XU, IV_PLUS),
                        "vector": (VectorLex((0, 1)), VV_PLUS)}[kind]
        custom_addop = AdditionOp("custom-plus", kind, addop.fn)
        mul = scale_for(kind)
        signed_b2 = KernelL(lambda x, prev, b1, b2: scale(
            mul, (b1 - b2) * (0.5 if math.copysign(1.0, b2) < 0 else 1.0), x), "signed-b2")
        rng = random.Random(f"lead-{kind}-{spacing}")
        single = 0
        for r in range(120):
            kernel = (signed_b2 if r % 4 == 3 else
                      _kernel(("classical", "b-scale-d", "b1-x")[r % 4], kind, order))
            base, width = rng.uniform(0.1, 0.8), rng.choice((0.0, 0.1))
            offsets = [rng.randint(0, 3) * spacing for _ in range(rng.randint(2, 6))]
            X = tuple({"scalar": lambda t: Scalar(base + t),
                       "interval": lambda t: Interval(base + t, base + width + t),
                       "vector": lambda t: Vector((base + t, rng.choice((0.2, 0.6)))),
                       }[kind](t) for t in offsets)
            mu = capacity_family("uniform-random", len(X), seed=rng.randint(0, 9999))
            if r % 2:
                mu = Capacity(mu.n, (-0.0,) + mu.values[1:])
            inp = AggregationInput(X, mu, order, custom_addop if r % 3 == 0 else addop)
            perms = PermutationSet(X, order)
            res = choquet_aggregate(inp, kernel)
            assert res.permutations == perms.count
            assert _bits(res.value) == _bits(choquet_eval(inp, kernel, perms.first()))
            if perms.count == 1:
                single += 1
                assert res.checked == 1 and res.consistent
        assert single > 0 or spacing <= TOL


# Catalog kernels whose family settles tie consistency; "takac" is for
# intervals only. The affine-F bounds add up to at most 1.
_CERTIFIED_SPECS = (
    ["delta-scale", {"family": "delta-scale", "delta": "abs-diff"}]
    + [{"family": "b-scale-d", "d": d} for d in _DELTAS]
    + [{"family": "affine-F", "C": C, "D": D} for C, D in (
        ("scale:0.7", "scale:0.3"), ("identity", "zero"), ("upper", "zero"),
        ("zero", "lower"), ("zero", "identity"), ("scale:0.25", "scale:0.75"),
        ("lower", "scale:0"), ("zero", "zero"))])
_TAKAC = {"family": "b-scale-d", "d": "takac:0.5:max:abs-diff"}
_unit_or_edge = st.sampled_from([0.0, 1.0]) | _unit
_CERTIFIED_CARRIERS = [
    # (kind, order, addition, element strategy)
    ("scalar", ScalarUsual(), PLUS, (st.sampled_from([-0.0]) | _unit_or_edge).map(Scalar)),
    *(("interval", order, IV_PLUS, st.tuples(_unit_or_edge, _unit_or_edge).map(
        lambda p: Interval(min(p), max(p)))) for order in (XU, AlphaBeta(0.0, 1.0))),
    *(("vector", VectorLex(priority), VV_PLUS,
       st.tuples(_unit_or_edge, _unit_or_edge).map(Vector)) for priority in ((0, 1), (1, 0))),
]


@st.composite
def _exactly_tied_rows(draw):
    kind, order, addop, elements = draw(st.sampled_from(_CERTIFIED_CARRIERS))
    levels = draw(st.lists(elements, min_size=1, max_size=3))
    X = tuple(draw(st.lists(st.sampled_from(levels), min_size=2, max_size=8)))
    # Exactly tied: the members of each tie group are identical. The
    # reference folds every admissible permutation: at most 6! of them.
    perms = PermutationSet(X, order)
    assume(perms.count <= 720 and all(X[i].components == X[g[0]].components
                                       for g in perms.groups for i in g))
    mu = capacity_family("uniform-random", len(X), seed=draw(st.integers(0, 9999)))
    spec = draw(st.sampled_from(_CERTIFIED_SPECS + [_TAKAC] * (kind == "interval")))
    return AggregationInput(X, mu, order, addop), kernel_catalog(spec, kind, order)


def _no_walk(comps, perms, *ops):
    raise AssertionError("a certified row reached the tie walk")


class TestCertifiedTies:
    """A row whose kernel family settles tie consistency is decided
    without the tie walk; every other row still walks."""

    @settings(deadline=None, max_examples=120)
    @given(_exactly_tied_rows())
    def test_matches_enumeration(self, case):
        inp, kernel = case
        assert kernel.tie_invariant
        with mock.patch.object(operator_module, "_tie_candidates", _no_walk):
            res = choquet_aggregate(inp, kernel)
        # The reference: every admissible permutation, each folded on elements.
        perms = PermutationSet(inp.X, inp.order)
        base = choquet_eval(inp, kernel, perms.first())
        consistent = all(elements_equal(choquet_eval(inp, kernel, s), base) for s in perms)
        assert (_bits(res.value), res.consistent, res.permutations, res.checked) == (
            _bits(base), consistent, perms.count, 1)
        # The family's theorem in floats: the walk finds no value beyond TOL,
        # and draws one candidate, the ``checked`` it would have reported.
        views, zero = _row_views(kernel, inp.X)
        ops = (inp.mu.values, kernel.term, inp.addop.term)
        first = _fold(views, perms.first(), zero, *ops)
        candidates = [value for _, value in _tie_candidates(views, perms, zero, *ops)]
        assert len(candidates) == 1
        assert all(abs(a - b) <= TOL for a, b in zip(candidates[0], first))

    @pytest.fixture
    def walks(self, monkeypatch):
        """The permutation counts of the rows that reach the tie walk."""
        calls, walk = [], operator_module._tie_candidates

        def counted(comps, perms, *ops):
            calls.append(perms.count)
            return walk(comps, perms, *ops)

        monkeypatch.setattr(operator_module, "_tie_candidates", counted)
        return calls

    U3 = capacity_family("uniform-random", 3, seed=5)
    MU2 = capacity_from_table(2, [((), 0), ((1,), 0.0), ((2,), 0.5), ((1, 2), 1)])
    # The nearest exact capacity to one whose mu({1}) exceeds mu({1, 2})
    # and mu({1, 3}) within TOL, which is refused (test_capacity.py).
    NEAREST_EXACT = Capacity(3, (0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0))
    TIED = (0.5, 0.2, 0.5)
    CLASSICAL = "0x1.f970a2d7c784ep-2"  # the well-defined value of TIED under U3

    # ``expected`` is (consistent, permutations, checked, value, walks):
    # every row walks once but the certified one.
    @pytest.mark.parametrize("kernel,values,mu,addop,expected", [
        (kernel_catalog({"family": "delta-scale", "delta": "sq-diff"}, "scalar"),
         TIED, U3, PLUS, (False, 2, 2, "0x1.4ed9224dfd642p-2", 1)),
        (kernel_catalog({"family": "delta-scale", "delta": "capped-double"}, "scalar"),
         TIED, U3, PLUS, (False, 2, 2, "0x1.677aabd661a28p-1", 1)),
        (KernelL(classical_kernel("scalar").fn, "classical-copy"),
         TIED, U3, PLUS, (True, 2, 1, CLASSICAL, 1)),
        (f_difference_kernel(lambda x, a: scale(TIMES, a, x)),
         TIED, U3, PLUS, (True, 2, 1, CLASSICAL, 1)),
        (classical_kernel("scalar"), TIED, U3, MIN_OP,
         (True, 2, 1, "0x1.17e4dc0969d9ap-8", 1)),
        (classical_kernel("scalar"), TIED, U3, BOUNDED_SUM, (True, 2, 1, CLASSICAL, 1)),
        # Tied within TOL, not identical: the two prefixes end in different
        # inputs, but the classical kernel never reads the previous input,
        # so they reach one state and one permutation is drawn.
        (classical_kernel("scalar"), (0.5, 0.2, 0.5 + 5e-13), U3, PLUS,
         (True, 2, 1, "0x1.f970a2d7c93eep-2", 1)),
        # A capacity monotone only within TOL is refused when built, so the
        # classical kernel on identical tied inputs is certified, unwalked.
        (classical_kernel("scalar"), (1.0,) * 3, NEAREST_EXACT, PLUS,
         (True, 6, 1, "0x1.0000000000000p+0", 0)),
        # The hazard: tied inputs above 1, reachable from Python. A term
        # above 1 is refused however close, so the walk raises.
        (classical_kernel("scalar"), (1 + 5e-10,) * 2, MU2, PLUS, KernelRangeError),
        (classical_kernel("scalar"), (1.5, 1.5), MU2, PLUS, KernelRangeError),
    ], ids=["sq-diff", "capped-double", "custom", "f-difference", "min",
            "bounded-sum", "near-tolerance", "nearest-exact-capacity",
            "just-above-1-refused", "above-1-refused"])
    def test_other_rows_walk(self, walks, kernel, values, mu, addop, expected):
        inp = AggregationInput(tuple(map(Scalar, values)), mu, ScalarUsual(), addop)
        walked = 1
        if expected is KernelRangeError:
            with pytest.raises(KernelRangeError):
                choquet_aggregate(inp, kernel)
        else:
            res = choquet_aggregate(inp, kernel)
            *expected, walked = expected
            assert [res.consistent, res.permutations, res.checked,
                    res.value.value.hex()] == expected
        assert walks == [PermutationSet(inp.X, inp.order).count] * walked

    def test_the_catalog_alone_states_invariance(self):
        def invariant(spec, kind="scalar"):
            return kernel_catalog(spec, kind, ScalarUsual() if kind == "scalar" else XU
                                  ).tie_invariant

        assert all(invariant(spec) for spec in _CERTIFIED_SPECS)
        assert invariant(_TAKAC, "interval") and classical_kernel("vector").tie_invariant
        assert not any(invariant(spec) for spec in (
            {"family": "delta-scale", "delta": "sq-diff"},
            {"family": "delta-scale", "delta": "capped-double"}))
        # Every affine-F that is built is invariant: bounds above 1 are refused.
        with pytest.raises(KernelRangeError):
            invariant({"family": "affine-F", "C": "scale:0.7", "D": "scale:0.3000000001"})
        assert not any(k.tie_invariant for k in (
            KernelL(classical_kernel("scalar").fn, "copy"),
            f_difference_kernel(lambda x, a: x)))

    def test_the_catalog_states_which_terms_read_the_previous_input(self):
        reads = {name: kernel_catalog(spec, "interval", XU).reads_previous
                 for name, spec in _KERNEL_SPECS.items()}
        assert [name for name, read in reads.items() if read] == [
            "b-scale-d", "b-scale-d-sq", "takac"]
        assert not kernel_catalog({"family": "delta-scale", "delta": "capped-double"},
                                  "scalar").reads_previous
        # A custom kernel may read anything.
        assert all(k.reads_previous for k in (
            KernelL(classical_kernel("scalar").fn, "copy"),
            f_difference_kernel(lambda x, a: x)))

    @pytest.mark.parametrize("kind,order", [("scalar", ScalarUsual()), ("interval", XU),
                                            ("vector", VectorLex((1, 0)))])
    def test_b_scale_d_built_in_python_is_certified(self, kind, order):
        # Built outside the catalog, a b-scale-d kernel still states its
        # family's invariance, so an exactly tied row takes no walk.
        x = {"scalar": Scalar(0.4), "interval": Interval(0.2, 0.6),
             "vector": Vector((0.3, 0.7))}[kind]
        inp = AggregationInput((x, zero_element(kind, len(x.components)), x),
                               self.U3, order, addition_for(kind))
        kernel = b_scale_d_kernel("abs-diff", kind, order)
        with mock.patch.object(operator_module, "_tie_candidates", _no_walk):
            res = choquet_aggregate(inp, kernel)
        assert (res.consistent, res.permutations, res.checked) == (True, 2, 1)
        assert _bits(res.value) == _bits(choquet_eval(inp, kernel, (1, 0, 2)))


class _MethodLead(ScalarUsual):
    """The usual scalar order with ``lead`` a method: each access makes a
    new bound method, so no kernel's view is the input order's lead."""

    def lead(self, c):
        return c[0]


class _CountedLead(AlphaBeta):
    """``ab:0.5:1`` whose ``lead`` counts its calls in ``calls``."""

    def __init__(self):
        super().__init__(0.5, 1.0)
        mix, self.calls = self.lead, []

        def lead(c):
            self.calls.append(c)
            return mix(c)
        self.lead = lead


def _copy_of(addop):
    """The shipped addition ``addop`` without its component form: not
    ``addition_for(kind)``, so every tied row it adds walks."""
    return AdditionOp(f"{addop.name}-copy", addop.kind, addop.fn)


# (kind, order factory, additions, component strategy); each order is
# built twice per case, so a kernel can be built on another instance.
_VIEW_CARRIERS = [
    ("scalar", ScalarUsual, (PLUS, BOUNDED_SUM, MIN_OP), st.tuples(_unit)),
    ("scalar", _MethodLead, (PLUS, BOUNDED_SUM), st.tuples(_unit)),
    *(("interval", lambda a=a: AlphaBeta(a, 1.0), (IV_PLUS, _copy_of(IV_PLUS)),
       st.tuples(_unit, _unit).map(sorted).map(tuple)) for a in (0.5, 0.0)),
    *(("vector", lambda p=p: VectorLex(p), (VV_PLUS, _copy_of(VV_PLUS)),
       st.tuples(_unit, _unit)) for p in ((0, 1), (1, 0))),
]


@st.composite
def _view_cases(draw):
    """A row for a ``b-scale-d`` kernel over a shipped delta: strict, tied
    or within ``TOL`` of a tie, under an order whose lead the kernel's
    view may or may not be."""
    kind, new_order, additions, tuples = draw(st.sampled_from(_VIEW_CARRIERS))
    order = new_order()
    levels = draw(st.lists(tuples, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(levels), min_size=2, max_size=6))
    # A near tie: some tuples moved down by less than TOL.
    shift = draw(st.sampled_from([0.0, 4e-13]))
    rows = [tuple(max(0.0, c - shift) for c in t) if draw(st.booleans()) else t
            for t in rows]
    X = tuple(carrier(kind).make(t) for t in rows)
    mu = capacity_family("uniform-random", len(X), seed=draw(st.integers(0, 9999)))
    inp = AggregationInput(X, mu, order, draw(st.sampled_from(additions)))
    d = draw(st.sampled_from(sorted(_DELTAS)))
    kernel = kernel_catalog({"family": "b-scale-d", "d": d}, kind,
                            draw(st.sampled_from([order, new_order()])))
    return inp, kernel, d


def _dissimilarity_fold(inp, d, sigma):
    """The operator of ``b-scale-d(d)`` along sigma from the projected
    dissimilarity on elements, which reads component tuples: b1 * d(x,
    prev) per term, added by the input's addition."""
    dis = resolve_dissimilarity(d, inp.X[0].kind, inp.order)
    b, mul = tail_values(inp.mu, sigma), scale_for(inp.X[0].kind)
    prev, acc = zero_element(inp.X[0].kind, inp.X[0].dim), None
    for i, pos in enumerate(sigma):
        term = scale(mul, b[i], dis(inp.X[pos], prev))
        acc = term if acc is None else add(inp.addop, acc, term)
        prev = inp.X[pos]
    return acc


class TestViewKernels:
    """A ``b-scale-d`` kernel over a shipped delta reads each input's lead
    alone; the aggregate on those views is, bit for bit, the reference
    fold on elements and the projected dissimilarity's fold."""

    @settings(deadline=None, max_examples=300)
    @given(_view_cases())
    def test_matches_the_reference_fold(self, case):
        inp, kernel, d = case
        assert kernel.view is not None
        res = choquet_aggregate(inp, kernel)
        perms = PermutationSet(inp.X, inp.order)
        first = perms.first()
        expected = _bits(_eval_sorted(inp, kernel, first))
        assert _bits(res.value) == expected == _bits(_dissimilarity_fold(inp, d, first))
        assert res.permutations == perms.count
        if res.witness is not None:
            w = res.witness
            assert w["sigma_a"] == first
            assert _bits(w["value_b"]) == _bits(_eval_sorted(inp, kernel, w["sigma_b"]))
            assert not elements_equal(w["value_a"], w["value_b"])

    @pytest.mark.parametrize("addop", [IV_PLUS, _copy_of(IV_PLUS)],
                             ids=["certified", "walked"])
    def test_tied_rows_are_walked_or_certified(self, addop, monkeypatch):
        X = (Interval(0.2, 0.6), Interval(0.1, 0.3), Interval(0.2, 0.6))
        inp = AggregationInput(X, capacity_family("uniform-random", 3, seed=5), XU, addop)
        kernel = kernel_catalog({"family": "b-scale-d", "d": "sq-diff"}, "interval", XU)
        calls, walk = [], operator_module._tie_candidates

        def counted(views, perms, *ops):
            calls.append(views)
            return walk(views, perms, *ops)

        monkeypatch.setattr(operator_module, "_tie_candidates", counted)
        res = choquet_aggregate(inp, kernel)
        assert (res.consistent, res.permutations) == (True, 2)
        assert _bits(res.value) == _bits(_eval_sorted(inp, kernel, (1, 0, 2)))
        # The walk reads the inputs' alpha mixes, not their tuples.
        assert calls == ([] if addop is IV_PLUS else [[0.4, 0.2, 0.4]])

    def test_each_input_lead_is_read_once_per_row(self):
        order = _CountedLead()
        X = tuple(Interval(lo, lo + 0.1) for lo in (0.1, 0.5, 0.3, 0.8, 0.65))
        inp = AggregationInput(X, capacity_family("uniform-random", 5, seed=3), order,
                               IV_PLUS)
        kernel = kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, "interval", order)
        assert kernel.view is order.lead
        res = choquet_aggregate(inp, kernel)
        # Once per input, and once for the least element.
        assert order.calls == [x.components for x in X] + [(0.0, 0.0)]
        assert _bits(res.value) == _bits(_eval_sorted(inp, kernel, (0, 2, 1, 4, 3)))

    def test_which_kernels_take_a_view(self):
        # A projected d of fixed width has its order's lead as the view; a
        # takac d, or a vector order of any dimension, reads tuples.
        class AnyDim(VectorLex):
            """veclex:1,2 on vectors of any dimension."""

            def __init__(self):
                super().__init__((0, 1))
                self.dim = None

        method = _MethodLead()
        assert method.lead is not method.lead
        assert kernel_catalog("b-scale-d", "scalar", method).view == method.lead
        assert kernel_catalog("b-scale-d", "interval", XU).view is XU.lead
        assert kernel_catalog({"family": "b-scale-d", "d": "takac:0.5:max:abs-diff"},
                              "interval", XU).view is None
        assert kernel_catalog("b-scale-d", "vector", AnyDim()).view is None

    def test_a_vector_order_of_another_dimension_is_refused(self):
        # The kernel reads the third coordinate; the inputs have two.
        kernel = kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, "vector",
                                VectorLex((2, 0, 1)))
        X = (Vector((0.2, 0.4)), Vector((0.6, 0.1)))
        inp = AggregationInput(X, capacity_family("cardinality", 2), VectorLex((0, 1)),
                               VV_PLUS)
        with pytest.raises(KindMismatch, match="cannot read inputs of dimension 2"):
            choquet_aggregate(inp, kernel)
        with pytest.raises(KindMismatch, match="cannot read inputs of dimension 2"):
            kernel.evaluate(X[0], X[1], 1.0, 0.5)
        # A view that reads them still leaves their carrier.
        wide = kernel_catalog("b-scale-d", "vector", VectorLex((0, 1, 2)))
        with pytest.raises(KindMismatch):
            choquet_aggregate(inp, wide)
        with pytest.raises(KindMismatch):
            wide.evaluate(X[0], X[1], 1.0, 0.5)


class TestEquivariance:
    def test_relabeling_invariance_random_instances(self):
        rng = random.Random(7)
        kernel_kind = {"scalar": classical_kernel("scalar"),
                       "interval": classical_kernel("interval"),
                       "vector": classical_kernel("vector")}
        for _ in range(40):
            kind = rng.choice(("scalar", "interval", "vector"))
            n = rng.randint(2, 5)
            X = tuple(_random_element(rng, kind) for _ in range(n))
            if rng.random() < 0.5:  # force ties to exercise permutation sets
                X = X[:-1] + (X[0],)
            mu = capacity_family("uniform-random", n, seed=rng.randint(0, 9999))
            order = {"scalar": ScalarUsual(), "interval": XU,
                     "vector": VectorLex((0, 1))}[kind]
            addop = {"scalar": PLUS, "interval": IV_PLUS, "vector": VV_PLUS}[kind]
            pi = tuple(rng.sample(range(n), n))
            base = choquet_aggregate(AggregationInput(X, mu, order, addop),
                                     kernel_kind[kind])
            xhat = tuple(X[pi[i]] for i in range(n))
            res = choquet_aggregate(AggregationInput(xhat, mu.relabel(pi), order, addop),
                                    kernel_kind[kind])
            assert elements_equal(res.value, base.value)
            assert res.consistent == base.consistent


def _random_element(rng, kind):
    if kind == "scalar":
        return Scalar(rng.random())
    if kind == "interval":
        a, b = sorted((rng.random(), rng.random()))
        return Interval(a, b)
    return Vector((rng.random(), rng.random()))


class TestKernelCatalog:
    def test_delta_scale_is_current_only(self):
        k = kernel_catalog("delta-scale", "interval")
        assert k.name.startswith("delta-scale(")
        out = k.evaluate(Interval(0.2, 0.4), Interval(0.9, 0.9), 1.0, 0.5)
        assert elements_equal(out, Interval(0.1, 0.2))  # previous input ignored

    def test_b_scale_d_is_previous_aware(self):
        k = kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, "scalar")
        out = k.evaluate(Scalar(0.9), Scalar(0.4), 0.5, 0.0)
        assert out.value == pytest.approx(0.25)  # 0.5 * |0.9 - 0.4|
        assert k.evaluate(Scalar(0.9), Scalar(0.4), 0.5, 0.3) == out  # b2 ignored

    def test_custom_kernel_reads_all_four_arguments(self):
        kernel = KernelL(
            lambda x, prev, b1, b2: Scalar((b1 - b2) * (x.value + prev.value) / 2),
            "mean-with-previous")
        mu = capacity_from_table(3, [
            ((), 0), ((1,), 0.1), ((2,), 0.3), ((3,), 0.2),
            ((1, 2), 0.5), ((1, 3), 0.6), ((2, 3), 0.4), ((1, 2, 3), 1)])
        res = choquet_aggregate(scalar_input((0.9, 0.2, 0.5), mu), kernel)
        chain = (0.2, 0.5, 0.9)
        prev = (0.0, 0.2, 0.5)
        b = (1.0, 0.6, 0.1, 0.0)  # mu of {1, 2, 3}, {1, 3}, {1} and the empty tail
        expected = sum((b[i] - b[i + 1]) * (chain[i] + prev[i]) / 2 for i in range(3))
        assert res.consistent
        assert res.value.value == pytest.approx(expected) == pytest.approx(0.285)

    CARRIERS = {"scalar": (ScalarUsual(), PLUS), "interval": (XU, IV_PLUS),
                "vector": (VectorLex((1, 0)), VV_PLUS)}

    @pytest.mark.parametrize("kind", list(CARRIERS))
    def test_custom_kernel_is_passed_as_a_value(self, kind):
        # A custom kernel reaches the operator as an argument, and naming it
        # leaves no trace: the catalog still knows only its families.
        order, addop = self.CARRIERS[kind]
        classical = classical_kernel(kind)
        kernel = KernelL(classical.fn, "mine")
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 4)
            levels = [_random_element(rng, kind) for _ in range(rng.randint(1, n))]
            inp = AggregationInput(tuple(rng.choice(levels) for _ in range(n)),
                                   capacity_family("uniform-random", n,
                                                   seed=rng.randrange(1000)),
                                   order, addop)
            got, want = choquet_aggregate(inp, kernel), choquet_aggregate(inp, classical)
            assert _bits(got.value) == _bits(want.value)
            assert got.consistent == want.consistent
        with pytest.raises(UnknownKernel, match="unknown kernel family: 'mine'"):
            kernel_catalog("mine", kind)

    @pytest.mark.parametrize("family", ["delta-scale", "b-scale-d"])
    @pytest.mark.parametrize("kind", list(CARRIERS))
    def test_bare_name_is_the_family_spec(self, family, kind):
        order = self.CARRIERS[kind][0]
        bare = kernel_catalog(family, kind, order)
        spec = kernel_catalog({"family": family}, kind, order)
        assert (bare.name, bare.kind) == (spec.name, spec.kind)
        rng = random.Random(7)
        for _ in range(50):
            x, prev = _random_element(rng, kind), _random_element(rng, kind)
            b1 = rng.random()
            b2 = b1 * rng.random()
            assert (_bits(bare.evaluate(x, prev, b1, b2))
                    == _bits(spec.evaluate(x, prev, b1, b2)))

    def test_old_tagged_form_is_refused(self):
        with pytest.raises(TypeError):
            KernelL("ci", lambda x, b1, b2: x, "x")

    def test_a_kernel_needs_a_callable(self):
        with pytest.raises(BadParameter, match="needs a callable"):
            KernelL(3, "x")

    @pytest.mark.parametrize("field", ["term", "view", "kind", "tie_invariant",
                                       "reads_previous"])
    def test_only_the_catalog_sets_the_component_fields(self, field):
        classical = classical_kernel("scalar")
        with pytest.raises(TypeError):
            KernelL(classical.fn, "copy", **{field: getattr(classical, field)})

    @pytest.mark.parametrize("build,message", [
        (lambda: delta_scale_kernel(lambda a, b: abs(a - b), "scalar"),
         "unknown scalar dissimilarity"),
        (lambda: affine_f_kernel(lambda x: x, "zero", "scalar"), "unknown carrier function"),
        (lambda: affine_f_kernel("zero", lambda x: x, "scalar"), "unknown carrier function"),
        (lambda: b_scale_d_kernel(resolve_dissimilarity("abs-diff", "scalar"), "scalar"),
         "a dissimilarity spec is a string"),
    ], ids=["delta", "C", "D", "d"])
    def test_constructors_take_only_what_a_spec_carries(self, build, message):
        with pytest.raises(BadParameter, match=message):
            build()

    def test_affine_beyond_the_bounded_carrier_refused_when_built(self):
        # F(1, 1) is the sum of the bounds of C and D, so a kernel whose
        # bounds add up to more than 1 leaves [0, 1] on some input.
        bounds = {"zero": 0.0, "identity": 1.0, "upper": 1.0, "lower": 1.0,
                  "scale:0.3": 0.3, "scale:0.5": 0.5}
        built, refused = [], []
        for C, D in itertools.product(bounds, repeat=2):
            try:
                kernel = kernel_catalog({"family": "affine-F", "C": C, "D": D}, "interval")
            except KernelRangeError:
                refused.append((C, D))
            else:
                built.append((C, D))
                assert kernel.tie_invariant
                top = kernel.evaluate(Interval(1.0, 1.0), Interval(0.0, 0.0), 1.0, 0.0)
                assert top == Interval(bounds[C] + bounds[D], bounds[C] + bounds[D])
        assert (len(built), len(refused)) == (15, 21)
        assert refused == [(C, D) for C, D in itertools.product(bounds, repeat=2)
                           if bounds[C] + bounds[D] > 1.0]

    def test_affine_degenerate_instance(self):
        k = kernel_catalog({"family": "affine-F", "C": "upper", "D": "zero"},
                           "interval")
        assert k.name.startswith("affine-F(")
        out = k.evaluate(Interval(0.2, 0.6), Interval(0, 0), 1.0, 0.5)
        assert elements_equal(out, Interval(0.3, 0.3))  # 0.5 * [u, u]

    @pytest.mark.parametrize("kind", ["scalar", "interval", "vector"])
    @pytest.mark.parametrize("C", ["zero", "identity", "upper", "lower"])
    def test_affine_carrier_functions(self, kind, C):
        x, expected = {
            "scalar": (Scalar(0.3), {"zero": Scalar(0.0), "identity": Scalar(0.3),
                                     "upper": Scalar(0.3), "lower": Scalar(0.3)}),
            "interval": (Interval(0.2, 0.6), {
                "zero": Interval(0.0, 0.0), "identity": Interval(0.2, 0.6),
                "upper": Interval(0.6, 0.6), "lower": Interval(0.2, 0.2)}),
            "vector": (Vector((0.7, 0.1)), {
                "zero": Vector((0.0, 0.0)), "identity": Vector((0.7, 0.1)),
                "upper": Vector((0.7, 0.7)), "lower": Vector((0.1, 0.1))}),
        }[kind]
        k = kernel_catalog({"family": "affine-F", "C": C, "D": "zero"}, kind)
        out = k.evaluate(x, zero_element(kind, len(x.components)), 1.0, 0.0)
        assert out == expected[C]  # F(x, 1) = C(x) + 0

    @pytest.mark.parametrize("t", ["2", "-0.5", "1.000001", "nan", "1.0000000000001",
                                   "-1e-13"])
    @pytest.mark.parametrize("where", ["C", "D"])
    def test_affine_scale_out_of_range_refused_when_built(self, t, where):
        spec = {"family": "affine-F", "C": "zero", "D": "zero", where: f"scale:{t}"}
        with pytest.raises(ScaleOutOfRange):
            kernel_catalog(spec, "scalar")

    @pytest.mark.parametrize("spec,refused", [
        ({"family": "affine-F", "C": "scale:abc", "D": "zero"}, "carrier function spec: "
                                                                "'scale:abc'"),
        ({"family": "affine-F", "C": "zero", "D": "scale:"}, "carrier function spec: "
                                                             "'scale:'"),
        ({"family": "b-scale-d", "d": "takac:x:max:abs-diff"},
         "dissimilarity spec: 'takac:x:max:abs-diff'"),
    ], ids=["scale-abc", "scale-empty", "takac-alpha-x"])
    def test_malformed_spec_number_refused(self, spec, refused):
        # As a malformed ``ab:`` or ``veclex:`` order spec is.
        with pytest.raises(BadParameter, match=re.escape(f"bad {refused}") + "$"):
            kernel_catalog(spec, "interval", XU)

    # A caller may pass ``evaluate`` weights outside [0, 1], though no
    # capacity holds one; a coefficient they put outside [0, 1], however
    # close, is refused, never clamped.
    @pytest.mark.parametrize("spec,weights", [
        ("delta-scale", (1.0 + 5e-13, 0.0)),
        ({"family": "b-scale-d", "d": "abs-diff"}, (1.0 + 5e-13, 0.0)),
        ({"family": "affine-F", "C": "identity", "D": "zero"}, (1.0 + 5e-13, 0.0)),
        # The weight difference b1 - b2 is -5e-13.
        ({"family": "affine-F", "C": "identity", "D": "zero"}, (1.0, 1.0 + 5e-13)),
    ], ids=["delta-scale", "b-scale-d", "affine-F", "affine-F-negative-difference"])
    def test_coefficients_outside_the_unit_interval_are_refused(self, spec, weights):
        kernel = kernel_catalog(spec, "scalar", ScalarUsual())
        with pytest.raises(ScaleOutOfRange):
            kernel.evaluate(Scalar(0.6), Scalar(0.2), *weights)

    def test_f_difference_with_scaling_is_the_classical_kernel(self):
        # F(x, a) = a * x gives G = (b1 - b2) * x, and b1 >= b2 along every
        # admissible chain, so the fold matches the classical kernel bit for bit.
        kernel = f_difference_kernel(lambda x, a: scale(TIMES, a, x))
        assert kernel.name == "f-difference(custom)"
        x = Scalar(0.6)
        assert (kernel.evaluate(x, Scalar(0.0), 0.7, 0.2)
                == kernel.evaluate(x, Scalar(0.9), 0.7, 0.2))  # previous input ignored
        classical = classical_kernel("scalar")
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 6)
            levels = [rng.random() for _ in range(rng.randint(1, n))]
            inp = scalar_input([rng.choice(levels) for _ in range(n)],
                               capacity_family("uniform-random", n,
                                               seed=rng.randrange(1000)))
            got, want = choquet_aggregate(inp, kernel), choquet_aggregate(inp, classical)
            assert got.value.value.hex() == want.value.value.hex()
            assert got.consistent and want.consistent

    def test_unknown_kernel(self):
        with pytest.raises(UnknownKernel):
            kernel_catalog({"family": "no-such"}, "scalar")
        with pytest.raises(UnknownKernel, match="unknown kernel family: 'custom'"):
            kernel_catalog({"family": "custom", "name": "never-registered"}, "scalar")
        # A spec is a family name or an object; anything else is named.
        for spec in (["delta-scale"], None, 3):
            with pytest.raises(UnknownKernel, match=re.escape(f"got {spec!r}")):
                kernel_catalog(spec, "scalar")

    def test_kernel_output_validated_in_unit(self):
        bad = KernelL(lambda x, prev, b1, b2: Scalar(1.5), "escapes")
        with pytest.raises(KernelRangeError):
            bad.evaluate(Scalar(0.5), Scalar(0.0), 1.0, 0.0)

    def test_custom_output_just_above_one_raises(self):
        # An output within TOL above 1 is rounding and kept as it is; one
        # 5e-10 above 1 is refused, not snapped.
        near = KernelL(lambda x, prev, b1, b2: Scalar(1.0 + TOL / 2), "near")
        assert near.evaluate(Scalar(0.5), Scalar(0.0), 1.0, 0.0) == Scalar(1.0 + TOL / 2)
        above = KernelL(lambda x, prev, b1, b2: Scalar(1.0 + 5e-10), "above")
        with pytest.raises(KernelRangeError):
            above.evaluate(Scalar(0.5), Scalar(0.0), 1.0, 0.0)
        inp = scalar_input((0.2, 0.7), capacity_family("cardinality", 2))
        with pytest.raises(KernelRangeError):
            choquet_aggregate(inp, above)

    def test_input_validation(self):
        mu = capacity_family("cardinality", 2)
        with pytest.raises(BadParameter):
            AggregationInput((Scalar(0.5),), capacity_family("cardinality", 1),
                             ScalarUsual(), PLUS)
        with pytest.raises(BadParameter):
            AggregationInput((Scalar(0.5), Scalar(0.2), Scalar(0.1)), mu,
                             ScalarUsual(), PLUS)
        # Inputs of mixed carriers, an interval order or an interval
        # addition on scalars.
        for X, order, addop in (((Scalar(0.5), Interval(0.1, 0.2)), ScalarUsual(), PLUS),
                                ((Scalar(0.5), Scalar(0.2)), XU, PLUS),
                                ((Scalar(0.5), Scalar(0.2)), ScalarUsual(), IV_PLUS)):
            with pytest.raises(KindMismatch):
                AggregationInput(X, mu, order, addop)


# Bounded data for the catalog terms: components and weights on a grid or
# anywhere in [0, 1], and pairs of scale:t bounds, some of them grid values
# that add up to exactly 1.
_grid_or_unit = st.sampled_from(unit_grid(12)) | _unit_or_edge
_scale_pairs = (st.integers(1, 20).flatmap(
    lambda m: st.integers(0, m).map(lambda i: (i / m, (m - i) / m)))
    | st.tuples(_unit_or_edge, _unit_or_edge))
_BOUNDED_TUPLES = {
    "scalar": st.tuples(_grid_or_unit),
    "interval": st.tuples(_grid_or_unit, _grid_or_unit).map(lambda p: (min(p), max(p))),
    "vector": st.tuples(_grid_or_unit, _grid_or_unit),
}


class TestCatalogStaysBounded:
    """A catalog kernel maps the bounded carrier and weights
    1 >= b1 >= b2 >= 0 into the bounded carrier, so no term needs its
    output or its coefficient adjusted: each returns an ``in_unit`` tuple
    and never raises."""

    ORDERS = {"scalar": ScalarUsual(), "interval": XU, "vector": VectorLex((0, 1))}

    @staticmethod
    def specs(kind, t_c, t_d):
        specs = ([{"family": "delta-scale", "delta": d} for d in _DELTAS]
                 + [{"family": "b-scale-d", "d": d} for d in ("abs-diff", "sq-diff")]
                 + [_TAKAC] * (kind == "interval"))
        bounds = {name: bound for name, (_, bound) in _CARRIER_FNS.items()}
        bounds.update({f"scale:{t_c!r}": t_c, f"scale:{t_d!r}": t_d})
        return specs + [{"family": "affine-F", "C": C, "D": D}
                        for C, D in itertools.product(bounds, repeat=2)
                        if bounds[C] + bounds[D] <= 1.0]

    @pytest.mark.parametrize("kind", list(_BOUNDED_TUPLES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_term_stays_in_the_bounded_carrier(self, kind, data):
        x, prev = data.draw(_BOUNDED_TUPLES[kind]), data.draw(_BOUNDED_TUPLES[kind])
        b2, b1 = sorted(data.draw(st.tuples(_grid_or_unit, _grid_or_unit)))
        t_c, t_d = data.draw(_scale_pairs)
        for spec in self.specs(kind, t_c, t_d):
            out = _on_tuples(kernel_catalog(spec, kind, self.ORDERS[kind]))(x, prev, b1, b2)
            assert type(out) is tuple and carrier(kind).make(out).in_unit, spec


class TestComponentForms:
    """Every kernel a JSON spec builds, and every shipped addition and
    scaling, has a component form, so ``choquet_aggregate`` lifts no element
    function for them. A family or operation added without one fails
    here."""

    FAMILIES = {
        "delta-scale": [{"delta": d} for d in _DELTAS],
        "b-scale-d": [{"d": d} for d in _DELTAS]
        + [{"d": f"takac:0.5:{m}:abs-diff"} for m in _MEANS],
        "affine-F": [{"C": c, "D": "zero"} for c in _CARRIER_FNS]
        + [{"C": "zero", "D": c} for c in _CARRIER_FNS],
    }

    def test_the_table_covers_every_catalog_family(self):
        named = set(re.findall(r'family == "([^"]+)"', inspect.getsource(kernel_catalog)))
        assert named == set(self.FAMILIES)

    @pytest.mark.parametrize("kind,order", [("scalar", ScalarUsual()), ("interval", XU),
                                            ("vector", VectorLex((1, 0)))])
    def test_catalog_kernels(self, kind, order):
        specs = [dict(params, family=family) for family, variants in self.FAMILIES.items()
                 for params in variants]
        specs += ["delta-scale", "b-scale-d"]
        for spec in specs:
            if kind != "interval" and "takac" in str(spec):
                continue
            assert kernel_catalog(spec, kind, order).term is not None, spec

    CONSTRUCTORS = {
        "delta-scale": lambda p, kind, order: delta_scale_kernel(p["delta"], kind),
        "b-scale-d": lambda p, kind, order: b_scale_d_kernel(p["d"], kind, order),
        "affine-F": lambda p, kind, order: affine_f_kernel(p["C"], p["D"], kind),
    }

    @pytest.mark.parametrize("kind,order", [("scalar", ScalarUsual()), ("interval", XU),
                                            ("vector", VectorLex((1, 0)))])
    def test_python_constructors_build_the_catalog_kernels(self, kind, order):
        # Each constructor takes the values of its family's spec and builds
        # the kernel that kernel_catalog builds from the spec.
        tuples = [x.components for x in grid_elements(GridSpec(kind, 2))]
        weights = [(1.0, 0.0), (1.0, 0.5), (0.75, 0.25), (0.5, 0.5)]
        assert set(self.CONSTRUCTORS) == set(self.FAMILIES)
        for family, variants in self.FAMILIES.items():
            for params in variants:
                if kind != "interval" and "takac" in str(params):
                    continue
                built = self.CONSTRUCTORS[family](params, kind, order)
                catalog = kernel_catalog(dict(params, family=family), kind, order)
                assert ((built.name, built.kind, built.view, built.tie_invariant,
                         built.reads_previous)
                        == (catalog.name, catalog.kind, catalog.view, catalog.tie_invariant,
                            catalog.reads_previous)), params
                for xc, pc in itertools.product(tuples, repeat=2):
                    for b1, b2 in weights:
                        assert ([c.hex() for c in _on_tuples(built)(xc, pc, b1, b2)]
                                == [c.hex() for c in _on_tuples(catalog)(xc, pc, b1, b2)])

    def test_shipped_additions_and_scalings(self):
        shipped = [v for v in vars(algebra).values()
                   if isinstance(v, (AdditionOp, MultiplicationOp))]
        assert {op.name for op in shipped} >= {"plus", "iv-plus", "vv-plus", "min",
                                               "bounded-sum", "times", "iv-scale",
                                               "vv-scale"}
        assert [op.name for op in shipped if op.term is None] == []
