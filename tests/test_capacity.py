"""Capacity construction, validation, families, and tail values."""

import dataclasses
import itertools
import json
import math
import random
from array import array
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choquetlike import (
    BadBoundary, BadParameter, Capacity, ChoquetlikeError, MissingSubset, NotMonotone,
    capacity_battery, capacity_family, capacity_from_table, tail_values,
)
from choquetlike import capacity
from choquetlike.capacity import mask_to_subset


def table(n, mapping):
    return capacity_from_table(n, [(s, v) for s, v in mapping.items()])


class TestFromTable:
    def test_valid_hand_table(self):
        mu = table(2, {(): 0, (1,): 0.3, (2,): 0.6, (1, 2): 1})
        assert mu.of_subset((1,)) == 0.3
        assert mu.of_subset((1, 2)) == 1.0

    def test_not_monotone_witness(self):
        with pytest.raises(NotMonotone) as err:
            table(2, {(): 0, (1,): 0.7, (2,): 0.6, (1, 2): 0.5})
        assert err.value.witness == ([1], [1, 2])

    def test_bad_boundary(self):
        with pytest.raises(BadBoundary):
            table(2, {(): 0.1, (1,): 0.3, (2,): 0.6, (1, 2): 1})
        with pytest.raises(BadBoundary):
            table(2, {(): 0, (1,): 0.3, (2,): 0.6, (1, 2): 0.9})

    def test_missing_subset(self):
        with pytest.raises(MissingSubset):
            capacity_from_table(2, [((), 0), ((1,), 0.3), ((1, 2), 1)])

    def test_conflicting_entries(self):
        with pytest.raises(BadParameter):
            capacity_from_table(1, [((), 0), ((1,), 1), ((1,), 0.5)])

    def test_max_monotone_completion(self):
        # Only a single interior value given; completion takes the smallest
        # given value among supersets.
        mu = capacity_from_table(2, [((1,), 0.4)], complete=True)
        assert mu.of_subset(()) == 0.0
        assert mu.of_subset((1,)) == 0.4
        assert mu.of_subset((2,)) == pytest.approx(1.0)  # only superset {1,2}=1
        assert mu.of_subset((1, 2)) == 1.0

    def test_values_are_kept_as_a_tuple(self):
        # A list or an array is copied once, before it is checked, so a
        # later change to it is not seen and the capacity hashes.
        v = [0.0, 0.3, 0.6, 1.0]
        mu = Capacity(2, v)
        v[1] = 0.9
        assert mu.of_subset([1]) == 0.3
        assert mu.values == (0.0, 0.3, 0.6, 1.0)
        assert hash(mu) == hash(Capacity(2, array("d", [0.0, 0.3, 0.6, 1.0])))
        with pytest.raises(NotMonotone):  # the copy is what is checked
            Capacity(2, array("d", [0.0, 0.7, 0.6, 0.5]))
        # A tuple is kept as it is: no copy.
        t = (0.0, 0.3, 0.6, 1.0)
        assert Capacity(2, t).values is t

    def test_n_cap(self):
        with pytest.raises(BadParameter):
            capacity_from_table(25, [])

    @pytest.mark.parametrize("call,error,message", [
        (lambda: Capacity(0, (0.0,)), BadParameter, "n must lie in 1..24, got 0"),
        (lambda: Capacity(1, (0.0, 1.5)), BadParameter, "out of [0, 1]: 1.5"),
        (lambda: Capacity(2, (0.0, 1.0)), MissingSubset, "expected 4 subset values"),
        (lambda: capacity_family("cardinality", 0), BadParameter, "n must lie in"),
        (lambda: capacity_family("cardinality", 2).relabel((0, 0)), BadParameter,
         "pi must be a permutation"),
    ], ids=["no-inputs", "value-above-one", "short-table", "family-of-no-inputs",
            "relabel-by-a-non-permutation"])
    def test_direct_construction_refusals(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert message in str(exc.value)

    @pytest.mark.parametrize("values,error", [
        ((0.0, 0.3, 0.3, 1.0), None),
        ((-0.0, 0.0, 1.0, 1.0), None),
        ((0.0, 0.3, 0.3, 1.0 + 0.5e-12), BadParameter),
        ((-0.5e-12, 0.0, 0.0, 1.0), BadParameter),
        ((0.5e-12, 0.5, 0.5, 1.0), BadBoundary),
        ((0.0, 0.5, 0.5, 1.0 - 0.5e-12), BadBoundary),
        ((0.0, 0.5 + 0.9e-12, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0), NotMonotone),  # {1} > {1, 2}
    ], ids=["exact", "negative-zero", "above-one-within-tol", "below-zero-within-tol",
            "empty-set-within-tol", "full-set-within-tol", "monotone-within-tol"])
    def test_exact_without_the_tolerance(self, values, error):
        """A capacity is taken exactly: a value, a boundary or a decrease
        along inclusion within TOL of a capacity is refused, a decrease
        with its witness."""
        n = len(values).bit_length() - 1
        if error is None:
            assert Capacity(n, values).values == values
            return
        with pytest.raises(error) as exc:
            Capacity(n, values)
        if error is NotMonotone:
            assert exc.value.witness == ([1], [1, 2])

    def test_families_are_exact(self):
        """Every family and every battery capacity builds, and so does its
        reversal: their values are a capacity exactly."""
        for n in range(1, 7):
            for seed in range(20):
                caps = capacity_battery(n, seed)
                assert len(caps) == 2 * n + 6
                for mu in caps:
                    assert mu.relabel(tuple(reversed(range(n)))).n == n


@st.composite
def decimal_tables(draw):
    """The JSON text of a capacity table whose values, written as decimal
    strings of any precision, are monotone in ``Decimal``: drawn raw
    values in [0, 1] raised to the largest value over subsets, with
    mu(empty) and mu(N) spelt as 0 and 1 in any of several ways."""
    n = draw(st.integers(1, 4))
    size = 1 << n
    raw = draw(st.lists(st.decimals(0, 1, allow_nan=False, allow_infinity=False),
                        min_size=size, max_size=size))
    mono = [Decimal(0)] * size
    for mask in range(1, size):
        mono[mask] = max([raw[mask]] + [mono[mask & ~(1 << i)]
                                         for i in range(n) if mask >> i & 1])
    texts = [str(v) for v in mono]
    texts[0] = draw(st.sampled_from(["0", "0.0", "-0", "0E-7", texts[0]]))
    texts[-1] = draw(st.sampled_from(["1", "1.0", "1.000000000000000000000", "1E0",
                                      "0.1e1"]))
    entries = ", ".join(f'{{"subset": {mask_to_subset(m)}, "value": {t}}}'
                        for m, t in enumerate(texts))
    return f'{{"n": {n}, "kind": "table", "entries": [{entries}]}}', texts


class TestExactValues:
    """Values are taken exactly: correctly rounded decimal parsing keeps a
    table that is monotone in its text monotone as floats."""

    @settings(deadline=None, max_examples=200)
    @given(decimal_tables())
    def test_json_table_monotone_in_decimal_is_accepted(self, table):
        text, texts = table
        mu = Capacity.from_json(json.loads(text))
        assert mu.values == tuple(map(float, texts))

    @settings(deadline=None, max_examples=100)
    @given(st.floats(0, 1), st.floats(0, 1))
    @example(0.5, math.nextafter(0.5, 1.0))
    @example(0.0, -0.0)
    def test_unequal_entries_for_one_subset_are_refused(self, v, w):
        entries = [((), 0), ((1,), v), ((2,), 1), ((1, 2), 1), ((1,), w)]
        if v == w:
            assert capacity_from_table(2, entries).of_subset((1,)) == v
            return
        with pytest.raises(BadParameter, match="conflicting values for subset"):
            capacity_from_table(2, entries)
        with pytest.raises(BadParameter, match="conflicting values for subset"):
            Capacity.from_json({"n": 2, "entries": [
                {"subset": list(s), "value": x} for s, x in entries]})

    def test_a_subset_listing_an_element_twice_is_refused(self):
        # Not read as the set of its items: [1, 1] would be mu({1}).
        entries = [((), 0), ((1,), 0.3), ((2,), 0.6), ((1, 2), 1)]
        with pytest.raises(BadParameter, match=r"subset \[1, 1\] lists element 1 twice"):
            capacity_from_table(2, entries + [((1, 1), 0.3)])
        with pytest.raises(BadParameter, match=r"subset \[2, 1, 2\] lists element 2 twice"):
            capacity_from_table(2, entries[:3] + [((2, 1, 2), 1)])
        with pytest.raises(BadParameter, match="twice"):
            capacity_from_table(2, entries).of_subset((2, 2))


class TestPythonInputs:
    """A capacity built in Python is read as exactly as a JSON one: a
    subset lists ints in 1..n, no bools, and a value is an int or a
    float, no bool."""

    ENTRIES = [((), 0), ((1,), 0.3), ((2,), 0.6), ((1, 2), 1)]

    @pytest.mark.parametrize("subset,message", [
        ([1.7], "lists 1.7, which is no element number"),
        ([1.0], "lists 1.0, which is no element number"),
        ([True], "lists True, which is no element number"),
        (["2"], "lists '2', which is no element number"),
        ([0], "lists 0, which is no element number"),
        ([-1], "lists -1, which is no element number"),
        ([3], r"subset \[3\] outside 1..2"),
        ([2, 2], r"subset \[2, 2\] lists element 2 twice"),
    ], ids=["float", "integral-float", "bool", "string", "zero", "negative",
            "above-n", "twice"])
    def test_subset_items_are_element_numbers(self, subset, message):
        with pytest.raises(BadParameter, match=message):
            capacity_from_table(2, self.ENTRIES + [(subset, 0.3)])
        with pytest.raises(BadParameter, match=message):
            capacity_from_table(2, self.ENTRIES).of_subset(subset)

    def test_json_messages_are_kept(self):
        def entries(*pairs):
            return {"n": 2, "entries": [{"subset": s, "value": v} for s, v in pairs]}
        base = [([], 0), ([1], 0.3), ([2], 0.6), ([1, 2], 1)]
        for extra, message in [(([3], 0.5), r"subset \[3\] outside 1..2"),
                               (([3, 3], 0.5), "lists element 3 twice"),
                               (([1], 0.4), r"conflicting values for subset \[1\]")]:
            with pytest.raises(BadParameter, match=message):
                Capacity.from_json(entries(*base, extra))

    @pytest.mark.parametrize("value", ["0.3", True, None, [0.3], 10 ** 400, math.inf],
                             ids=["string", "bool", "none", "list", "huge-int", "inf"])
    def test_table_values_are_numbers(self, value):
        entries = [((), 0), ((1,), value), ((2,), 0.6), ((1, 2), 1)]
        with pytest.raises(BadParameter, match=r"subset \[1\] must be an int or a float"):
            capacity_from_table(2, entries)

    @pytest.mark.parametrize("values", [(0, True), (0.0, "1"), (False, 1.0), (0, None)],
                             ids=["true", "string", "false", "none"])
    def test_capacity_values_are_numbers(self, values):
        with pytest.raises(BadParameter, match="is an int or a float"):
            Capacity(1, values)

    def test_int_values_are_kept_as_given(self):
        t = (0, 0.5, 0.5, 1)
        mu = Capacity(2, t)
        assert mu.values is t
        assert Capacity.from_json(json.loads(json.dumps(mu.to_json()))) == mu


def reference_validate(n, values):
    """The entry-by-entry check that ``Capacity`` made before it decided
    range and monotonicity in bulk, kept as the oracle of its errors."""
    for v in values:
        if not (0.0 <= v <= 1.0):
            raise BadParameter(f"capacity value out of [0, 1]: {v}")
    for mask in range(1 << n):
        for i in range(n):
            if mask >> i & 1:
                continue
            bigger = mask | 1 << i
            if values[mask] > values[bigger]:
                raise NotMonotone(
                    f"mu({mask_to_subset(mask)}) = {values[mask]} exceeds "
                    f"mu({mask_to_subset(bigger)}) = {values[bigger]}",
                    witness=(mask_to_subset(mask), mask_to_subset(bigger)))
    if values[0] != 0.0:
        raise BadBoundary(f"value at the empty set must be 0, got {values[0]}")
    full = (1 << n) - 1
    if values[full] != 1.0:
        raise BadBoundary(f"value at the full set must be 1, got {values[full]}")


def outcome(thunk):
    """``(type, message, witness)`` of the library error ``thunk()``
    raises, or None."""
    try:
        thunk()
    except ChoquetlikeError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


@st.composite
def nudged_tables(draw):
    """A monotone table on n <= 8 elements, with values of 0 and 1 among
    its entries, then one entry moved a few ulps up or down, or made NaN,
    or -0.0 at the empty set."""
    n = draw(st.integers(1, 8))
    size = 1 << n
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    raw = [rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in range(size)]
    values = [0.0] * size
    for mask in range(1, size):
        values[mask] = max([raw[mask]] + [values[mask & ~(1 << i)]
                                          for i in range(n) if mask >> i & 1])
    values[0], values[-1] = 0.0, 1.0
    at = draw(st.integers(0, size - 1))
    change = draw(st.sampled_from(["none", "up", "down", "nan", "-0.0"]))
    if change in ("up", "down"):
        for _ in range(draw(st.integers(1, 4))):
            values[at] = math.nextafter(values[at], math.inf if change == "up" else -math.inf)
    elif change == "nan":
        values[at] = math.nan
    elif change == "-0.0":
        values[0] = -0.0
    return n, tuple(values)


class TestBulkValidation:
    """Range and monotonicity are decided in bulk; the errors, with their
    messages and witnesses, are the entry-by-entry check's."""

    @settings(deadline=None, max_examples=300)
    @given(nudged_tables())
    @example((2, (0.0, 0.7, 0.3, 0.5)))
    @example((3, (0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, math.nextafter(0.5, 0.0))))
    @example((1, (-0.0, 1.0)))
    def test_same_error_as_the_entry_by_entry_check(self, table):
        n, values = table
        want = outcome(lambda: reference_validate(n, values))
        assert outcome(lambda: Capacity(n, values)) == want
        entries = [{"subset": mask_to_subset(m), "value": v} for m, v in enumerate(values)]
        assert outcome(lambda: Capacity.from_json({"n": n, "entries": entries})) == want

    @pytest.mark.parametrize("at", ["early", "late"])
    def test_the_scan_finds_an_early_and_a_late_fault(self, at):
        # An additive table on 10 elements whose element 1 weighs 0, so
        # mu(A) = mu(A + 1) for every A without 1. Raising mu({2}), or mu
        # of all but {1, 2}, by 1e-9 makes its one fault the first pair
        # or one of the last.
        n = 10
        size = 1 << n
        values = [(m >> 1).bit_count() / (n - 1) for m in range(size)]
        mask = 2 if at == "early" else size - 4
        values[mask] += 1e-9
        want = outcome(lambda: reference_validate(n, values))
        assert want[0] is NotMonotone and want[2][0] == mask_to_subset(mask)
        assert outcome(lambda: Capacity(n, values)) == want

    # Each case: the entries added to a valid table on {1, 2}, and the
    # message the entry-by-entry reading gives.
    BASE = [{"subset": [], "value": 0}, {"subset": [1], "value": 0.3},
            {"subset": [2], "value": 0.6}, {"subset": [1, 2], "value": 1}]
    MALFORMED = {
        "bool-element": ([{"subset": [True], "value": 0.3}],
                         "capacity entry {'subset': [True], 'value': 0.3} needs a list of "
                         "element numbers (1 to 24) as subset"),
        "element-0": ([{"subset": [0], "value": 0.3}],
                      "capacity entry {'subset': [0], 'value': 0.3} needs a list of "
                      "element numbers (1 to 24) as subset"),
        "element-25": ([{"subset": [25], "value": 0.3}],
                       "capacity entry {'subset': [25], 'value': 0.3} needs a list of "
                       "element numbers (1 to 24) as subset"),
        "float-element": ([{"subset": [1.0], "value": 0.3}],
                          "capacity entry {'subset': [1.0], 'value': 0.3} needs a list of "
                          "element numbers (1 to 24) as subset"),
        "repeated-element": ([{"subset": [1, 1], "value": 0.3}],
                             "subset [1, 1] lists element 1 twice"),
        "unknown-key": ([{"subset": [1], "value": 0.3, "weight": 1}],
                        "unknown capacity entry key(s) ['weight']; known: ['subset', 'value']"),
        "bool-value": ([{"subset": [1], "value": True}], "'value' must be a number, got True"),
        "value-1e309": (json.loads('[{"subset": [1], "value": 1e309}]'),
                        "'value' lies beyond the float range"),
        "conflicting-duplicates": ([{"subset": [1], "value": 0.4}],
                                   "conflicting values for subset [1]"),
        "element-outside-n": ([{"subset": [3], "value": 0.3}], "subset [3] outside 1..2"),
        # The first entry refused as an entry wins over an earlier repeat.
        "repeat-then-bool": ([{"subset": [2, 2], "value": 0.6},
                              {"subset": [False], "value": 0}],
                             "capacity entry {'subset': [False], 'value': 0} needs a list of "
                             "element numbers (1 to 24) as subset"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_entry_keeps_its_message(self, case):
        extra, message = self.MALFORMED[case]
        with pytest.raises(BadParameter) as exc:
            Capacity.from_json({"n": 2, "kind": "table", "entries": self.BASE + extra})
        assert str(exc.value) == message

    @pytest.mark.parametrize("obj,error,message", [
        ({"n": 2, "entries": BASE[:3]}, MissingSubset, "no value for subset [1, 2]"),
        ({"n": 25, "entries": BASE}, BadParameter, "n must lie in 1..24, got 25"),
        ({"n": 2, "entries": [BASE[0], {"subset": [1], "value": math.nan}, *BASE[2:]]},
         BadParameter, "capacity value out of [0, 1]: nan"),
        ({"n": 2, "complete": True, "entries": [{"subset": [1], "value": math.nan}]},
         BadParameter, "capacity value out of [0, 1]: nan"),
    ], ids=["missing-subset", "n-above-the-cap", "nan-value", "nan-value-completed"])
    def test_other_table_refusals_keep_their_message(self, obj, error, message):
        with pytest.raises(error) as exc:
            Capacity.from_json(obj)
        assert str(exc.value) == message

    def test_completion_reads_entries_in_bulk(self):
        mu = Capacity.from_json({"n": 2, "complete": True, "entries": [
            {"subset": [1], "value": 0.4}, {"subset": [1], "value": 0.4}]})
        assert mu.values == (0.0, 0.4, 1.0, 1.0)


def reference_uniform_random(n, seed):
    """``uniform-random``'s table as its mask-order loop built it before
    the envelope was taken by bit planes, kept as the oracle of its values."""
    rng = random.Random(seed)
    size = 1 << n
    raw = [rng.random() for _ in range(size)]
    mono = [0.0] * size
    for mask in range(1, size):
        best = raw[mask]
        for i in range(n):
            if mask >> i & 1:
                best = max(best, mono[mask & ~(1 << i)])
        mono[mask] = best
    mono[0] = 0.0
    top_v = mono[size - 1]
    return tuple(v / top_v for v in mono)


def reference_relabel(mu, pi):
    """``Capacity.relabel``'s table as its per-mask image loop built it
    before the images were taken by doubling, kept as its oracle."""
    out = [0.0] * (1 << mu.n)
    for mask in range(1 << mu.n):
        image = 0
        for i in range(mu.n):
            if mask >> i & 1:
                image |= 1 << pi[i]
        out[mask] = mu.values[image]
    return tuple(out)


def hexes(values):
    return list(map(float.hex, values))


class TestFamilies:
    def test_cardinality(self):
        mu = capacity_family("cardinality", 4)
        assert mu.of_subset((1, 2)) == 0.5

    def test_dirac(self):
        mu = capacity_family("dirac", 3, i=2)
        assert mu.of_subset((1, 3)) == 0.0
        assert mu.of_subset((2,)) == 1.0

    def test_top_is_min_capacity_at_full_threshold(self):
        mu = capacity_family("top", 3, k=3)
        for r in range(1, 3):
            for subset in itertools.combinations((1, 2, 3), r):
                assert mu.of_subset(subset) == 0.0
        assert mu.of_subset((1, 2, 3)) == 1.0

    def test_uniform_random_deterministic_and_valid(self):
        a = capacity_family("uniform-random", 4, seed=7)
        b = capacity_family("uniform-random", 4, seed=7)
        c = capacity_family("uniform-random", 4, seed=8)
        assert a == b
        assert a != c  # different seed, different table

    @pytest.mark.parametrize("n,seed", [
        *itertools.product(range(1, 11), (0, 1, 7, 42, 2 ** 40)), (12, 42), (12, 3)])
    def test_uniform_random_equals_the_mask_order_envelope(self, n, seed):
        mu = capacity_family("uniform-random", n, seed=seed)
        assert hexes(mu.values) == hexes(reference_uniform_random(n, seed))

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            capacity_family("dirac", 3, i=4)
        with pytest.raises(BadParameter):
            capacity_family("top", 3, k=0)
        with pytest.raises(BadParameter):
            capacity_family("no-such-family", 3)


class TestTailValues:
    def test_cardinality_identity_permutation(self):
        mu = capacity_family("cardinality", 3)
        assert tail_values(mu, (0, 1, 2)) == pytest.approx((1.0, 2 / 3, 1 / 3, 0.0))

    def test_first_is_one(self):
        mu = capacity_family("uniform-random", 4, seed=3)
        assert tail_values(mu, (2, 0, 3, 1))[0] == 1.0

    def test_dirac_short(self):
        mu = capacity_family("dirac", 2, i=1)
        assert tail_values(mu, (0, 1)) == pytest.approx((1.0, 0.0, 0.0))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10 ** 6),
           st.randoms(use_true_random=False))
    def test_non_increasing_for_any_capacity_and_permutation(self, n, seed, rng):
        mu = capacity_family("uniform-random", n, seed=seed)
        sigma = list(range(n))
        rng.shuffle(sigma)
        b = tail_values(mu, tuple(sigma))
        assert b[0] == 1.0 and b[-1] == 0.0
        assert all(b[i] >= b[i + 1] - 1e-12 for i in range(n))

    def test_rejects_non_permutation(self):
        mu = capacity_family("cardinality", 3)
        with pytest.raises(BadParameter):
            tail_values(mu, (0, 0, 2))


class TestSerializationAndRelabel:
    def test_json_round_trip(self):
        mu = capacity_family("uniform-random", 3, seed=11)
        again = Capacity.from_json(mu.to_json())
        assert again == mu

    def test_from_json_families(self):
        mu = Capacity.from_json({"n": 3, "kind": "cardinality"})
        assert mu.of_subset((1, 2)) == pytest.approx(2 / 3)
        nu = Capacity.from_json({"n": 2, "kind": "table", "entries": [
            {"subset": [], "value": 0},
            {"subset": [1], "value": 0.3},
            {"subset": [2], "value": 0.6},
            {"subset": [1, 2], "value": 1},
        ]})
        assert nu.of_subset((2,)) == 0.6

    def test_relabel_transports_values(self):
        mu = capacity_family("dirac", 3, i=1)
        pi = (2, 0, 1)  # 0-based: element 0 maps to 2, etc.
        hat = mu.relabel(pi)
        # hat(C) = mu(pi(C)): {1} (mask of element 0) maps to {3}.
        assert hat.of_subset((1,)) == mu.of_subset((3,))
        assert hat.of_subset((2,)) == mu.of_subset((1,))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_relabel_equals_the_per_mask_image_for_every_permutation(self, n):
        mu = capacity_family("uniform-random", n, seed=n)
        for pi in itertools.permutations(range(n)):
            assert hexes(mu.relabel(pi).values) == hexes(reference_relabel(mu, pi))

    @pytest.mark.parametrize("n", range(5, 11))
    def test_relabel_equals_the_per_mask_image_for_drawn_permutations(self, n):
        rng = random.Random(f"relabel-{n}")
        mu = capacity_family("uniform-random", n, seed=n)
        for _ in range(5):
            pi = tuple(rng.sample(range(n), n))
            assert hexes(mu.relabel(pi).values) == hexes(reference_relabel(mu, pi))

    def test_relabel_does_not_check_again(self, monkeypatch):
        """A relabelled capacity is one by construction: ``relabel`` builds
        it without ``_validate``, as a frozen record of a tuple."""
        mu = capacity_family("uniform-random", 4, seed=4)
        calls = []
        monkeypatch.setattr(capacity, "_validate", lambda *args: calls.append(args))
        hat = mu.relabel((2, 0, 3, 1))
        assert calls == [] and type(hat) is Capacity and type(hat.values) is tuple
        assert hat == Capacity(4, list(hat.values)) and len(calls) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            hat.values = mu.values
