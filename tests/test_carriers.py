"""The carrier records of ``order.py``: one refusal for an unknown kind at
every entry point, grids and constant elements pinned element for element
and bit for bit, and the ``bounded`` contract the catalog kernels' fast
path relies on, with its bulk form ``all_bounded``."""

import copy
import dataclasses
import itertools
import math
import pickle
import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquetlike import (
    INTERVAL, SCALAR, TOL, VECTOR, AggregationInput, BadParameter, GridSpec, Interval,
    KernelRangeError, Scalar, ScalarUsual, Vector, addition_for, capacity_family,
    classical_kernel, element_from_json, grid_elements, kernel_catalog, parse_dataset,
    scale_for, zero_element,
)
from choquetlike.dissimilarity import projected_dissimilarity
from choquetlike.operator import AggregateResult, _validate_unit
from choquetlike.order import carrier, one_element

UNKNOWN = "unknown carrier kind: 'bogus'"


@pytest.mark.parametrize("call", [
    lambda: carrier("bogus"),
    lambda: element_from_json("bogus", 0.5),
    lambda: zero_element("bogus"),
    lambda: one_element("bogus", 2),
    lambda: parse_dataset('[[0.1, 0.2]]', "bogus"),
    lambda: projected_dissimilarity("abs-diff", "bogus"),
    lambda: addition_for("bogus"),
    lambda: scale_for("bogus"),
    lambda: classical_kernel("bogus"),
    lambda: kernel_catalog("delta-scale", "bogus"),
    lambda: kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, "bogus"),
    lambda: kernel_catalog({"family": "affine-F", "C": "identity", "D": "zero"}, "bogus"),
    lambda: GridSpec("bogus", 2),
], ids=["carrier", "element_from_json", "zero_element", "one_element",
        "parse_dataset", "projected_dissimilarity", "addition_for", "scale_for",
        "classical_kernel", "delta-scale", "b-scale-d", "affine-F", "GridSpec"])
def test_an_unknown_kind_is_refused_alike(call):
    with pytest.raises(BadParameter) as exc:
        call()
    assert str(exc.value) == UNKNOWN


def bits(elements) -> list:
    """Each element's type and the exact bits of its components."""
    return [(type(e), tuple(map(float.hex, e.components))) for e in elements]


def reference_grid(kind: str, m: int, dim: int) -> list:
    """The grid written out per kind: values i/m, intervals with
    lower <= upper in lexicographic order, vectors as full products."""
    vals = [i / m for i in range(m + 1)]
    if kind == SCALAR:
        return [Scalar(v) for v in vals]
    if kind == INTERVAL:
        return [Interval(lo, hi) for lo in vals for hi in vals if lo <= hi]
    return [Vector(c) for c in itertools.product(vals, repeat=dim)]


GRIDS = ([(SCALAR, m, 2) for m in range(1, 7)] + [(INTERVAL, m, 2) for m in range(1, 7)]
         + [(VECTOR, m, dim) for dim in (1, 2, 3) for m in range(1, 5)])


@pytest.mark.parametrize("kind,m,dim", GRIDS)
def test_grid_elements_are_pinned(kind, m, dim):
    got = grid_elements(GridSpec(kind, m, dim=dim))
    assert bits(got) == bits(reference_grid(kind, m, dim))


def test_small_grids_written_out():
    assert grid_elements(GridSpec(INTERVAL, 2)) == [
        Interval(0.0, 0.0), Interval(0.0, 0.5), Interval(0.0, 1.0),
        Interval(0.5, 0.5), Interval(0.5, 1.0), Interval(1.0, 1.0)]
    assert grid_elements(GridSpec(VECTOR, 1, dim=3)) == [
        Vector((a, b, c)) for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)]
    assert grid_elements(GridSpec(SCALAR, 3)) == [
        Scalar(0.0), Scalar(1 / 3), Scalar(2 / 3), Scalar(1.0)]


@pytest.mark.parametrize("kind,dim,zero,one", [
    (SCALAR, 1, Scalar(0.0), Scalar(1.0)),
    (SCALAR, 3, Scalar(0.0), Scalar(1.0)),  # dim is read for vectors only
    (INTERVAL, 1, Interval(0.0, 0.0), Interval(1.0, 1.0)),
    (INTERVAL, 4, Interval(0.0, 0.0), Interval(1.0, 1.0)),
    (VECTOR, 1, Vector((0.0,)), Vector((1.0,))),
    (VECTOR, 2, Vector((0.0, 0.0)), Vector((1.0, 1.0))),
    (VECTOR, 3, Vector((0.0, 0.0, 0.0)), Vector((1.0, 1.0, 1.0))),
])
def test_constant_elements_are_pinned(kind, dim, zero, one):
    assert bits([zero_element(kind, dim), one_element(kind, dim)]) == bits([zero, one])


def test_a_vector_constant_needs_a_dimension():
    with pytest.raises(BadParameter, match="at least one coordinate"):
        zero_element(VECTOR, 0)


# Each element type checks its components in its own ``__init__``. Per
# kind: the type, int components and the float fields they make, the
# repr, a field with another value for ``replace``, and arguments the
# constructor refuses with their messages.
CONSTRUCTORS = {
    SCALAR: (Scalar, (1,), {"value": 1.0}, "Scalar(value=1.0)", ("value", 0.25), [
        ((math.nan,), "scalar value is NaN"),
        ((-1,), "scalar value must be nonnegative, got -1"),
        ((math.inf,), "scalar value must be finite, got inf")]),
    INTERVAL: (Interval, (0, 1), {"lower": 0.0, "upper": 1.0},
               "Interval(lower=0.0, upper=1.0)", ("upper", 0.5), [
        ((math.nan, 0.5), "interval lower endpoint is NaN"),
        ((0.1, -0.5), "interval upper endpoint must be nonnegative, got -0.5"),
        ((0.1, math.inf), "interval upper endpoint must be finite, got inf"),
        ((0.5, 0.2), "interval endpoints out of order: [0.5, 0.2]"),
        ((1, 0), "interval endpoints out of order: [1.0, 0.0]")]),
    VECTOR: (Vector, ((1, 0),), {"coords": (1.0, 0.0)}, "Vector(coords=(1.0, 0.0))",
             ("coords", (0.5,)), [
        (((0.1, math.nan),), "vector coordinate is NaN"),
        (([-1.0],), "vector coordinate must be nonnegative, got -1.0"),
        (((math.inf,),), "vector coordinate must be finite, got inf"),
        (((),), "vector needs at least one coordinate")]),
}


@pytest.mark.parametrize("kind", [SCALAR, INTERVAL, VECTOR])
def test_element_constructor_contract(kind):
    cls, ints, fields, text, (name, other), refusals = CONSTRUCTORS[kind]
    x = cls(*ints)
    assert {f.name: getattr(x, f.name) for f in dataclasses.fields(x)} == fields
    assert all(type(c) is float for c in x.components)
    assert repr(x) == text
    assert x == cls(**fields) and hash(x) == hash(cls(**fields))
    changed = dataclasses.replace(x, **{name: other})
    assert changed == cls(**{**fields, name: other}) and changed != x
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls and twin == x and repr(twin) == text
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(x, name, other)
    for args, message in refusals:
        with pytest.raises(BadParameter, match=f"^{re.escape(message)}$"):
            cls(*args)
        # ``replace`` builds through the same checks.
        with pytest.raises(BadParameter, match=f"^{re.escape(message)}$"):
            dataclasses.replace(x, **dict(zip(fields, args)))


def test_aggregation_input_contract():
    """Slotted and frozen like the elements it holds: no ``__dict__``, no
    assignment, and ``copy`` and ``replace`` go through its checks."""
    inp = AggregationInput((Scalar(0.25), Scalar(0.5), Scalar(0.75)),
                           capacity_family("uniform-random", 3, seed=3), ScalarUsual(),
                           addition_for(SCALAR))
    assert not hasattr(inp, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        inp.X = inp.X[:2]
    assert copy.copy(inp) == inp
    with pytest.raises(BadParameter, match=r"^capacity is on \[2\] but there are 3 inputs$"):
        dataclasses.replace(inp, mu=capacity_family("uniform-random", 2, seed=3))


def test_aggregate_result_contract():
    """Slotted and frozen like ``AggregationInput``, with its fields set by
    its own ``__init__``: ``witness`` defaults to None, and ``copy`` and
    ``replace`` build equal records."""
    res = AggregateResult(Scalar(0.5), True, 2, 1)
    assert res.witness is None
    assert repr(res) == ("AggregateResult(value=Scalar(value=0.5), consistent=True, "
                         "permutations=2, checked=1, witness=None)")
    assert not hasattr(res, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.checked = 2
    assert copy.copy(res) == res and pickle.loads(pickle.dumps(res)) == res
    witness = {"sigma_a": (0, 1), "sigma_b": (1, 0)}
    changed = dataclasses.replace(res, consistent=False, witness=witness)
    assert changed == AggregateResult(Scalar(0.5), False, 2, 1, witness) != res


# Components at and around the edges of the bounded set: signed zeros,
# values within TOL below 0, which the constructors refuse, values within
# TOL above 1, which the kernels' range check keeps and ``bounded``
# refuses, values farther above 1, which both refuse however close, NaN,
# and ordinary values.
EDGES = [0.0, -0.0, 1.0, 0.5, -1e-13, -TOL, -2 * TOL, -1e-10, -0.25,
         1.0 + TOL / 2, 1.0 + TOL, math.nextafter(1.0 + TOL, 2.0), 1.0 + 2 * TOL,
         1.0 + 5e-10, 1.0 + 1e-9, 1.0 + 1e-6, 1.25, math.nan]
components = st.one_of(st.sampled_from(EDGES), st.floats(-0.5, 1.5))


def tuples_of(kind: str):
    if kind == VECTOR:
        return st.lists(components, min_size=1, max_size=4).map(tuple)
    if kind == INTERVAL:  # endpoints in either order, a near tie now and then
        near = st.tuples(components, st.sampled_from([0.0, -1e-13, -1e-10, 1e-13]))
        return st.one_of(st.tuples(components, components),
                         near.map(lambda p: (p[0], p[0] + p[1])))
    return st.tuples(components)


def unchanged(kind: str, c: tuple) -> bool:
    """Whether the constructor and then the kernels' range check hand back
    ``c`` itself, bit for bit; False where either refuses it."""
    try:
        x = carrier(kind).make(c)
        out = _validate_unit(x, "probe")
    except (BadParameter, KernelRangeError):
        return False
    return out is x and tuple(map(float.hex, x.components)) == tuple(map(float.hex, c))


@pytest.mark.parametrize("kind", [SCALAR, INTERVAL, VECTOR])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_bounded_is_exactly_the_unchanged_tuples(kind, data):
    c = data.draw(tuples_of(kind))
    assert carrier(kind).bounded(c) == (
        unchanged(kind, c) and all(0.0 <= a <= 1.0 for a in c))


@pytest.mark.parametrize("kind", [SCALAR, INTERVAL, VECTOR])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_all_bounded_is_bounded_of_every_tuple(kind, data):
    """The bulk check agrees with ``bounded`` on each tuple of a flat array,
    wherever a NaN, an infinity or a reversed interval lies in it."""
    dim = data.draw(st.integers(1, 3)) if kind == VECTOR else carrier(kind).arity
    some = st.one_of(components, st.sampled_from([math.inf, -math.inf]))
    tuples = data.draw(st.lists(st.tuples(*[some] * dim), min_size=1, max_size=6))
    record = carrier(kind)
    flat = array("d", itertools.chain.from_iterable(tuples))
    assert record.all_bounded(flat) == all(map(record.bounded, tuples))


def built(elements) -> tuple:
    """``bits`` of the elements that ``elements`` yields, up to the first
    it refuses, and that refusal's message, or None."""
    out = []
    try:
        for x in elements:
            out.append(x)
    except BadParameter as exc:
        return bits(out), str(exc)
    return bits(out), None


@pytest.mark.parametrize("kind,dim", [(SCALAR, 1), (INTERVAL, 2), (VECTOR, 1), (VECTOR, 3)])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_elements_is_make_on_each_tuple(kind, dim, data):
    """``elements`` over a flat float iterator builds what ``make`` builds
    from each tuple in turn, and refuses the first tuple ``make`` refuses,
    with the constructor's message."""
    tuples = data.draw(st.lists(st.tuples(*[components] * dim), max_size=6))
    record = carrier(kind)
    flat = iter(array("d", itertools.chain.from_iterable(tuples)))
    assert built(record.elements(flat, dim)) == built(map(record.make, tuples))


@pytest.mark.parametrize("kind,dim,floats,message", [
    (SCALAR, 1, [0.5, -0.25], "scalar value must be nonnegative, got -0.25"),
    (SCALAR, 1, [math.nan], "scalar value is NaN"),
    (INTERVAL, 2, [0.1, 0.2, 0.5, 0.25], "interval endpoints out of order: [0.5, 0.25]"),
    (INTERVAL, 2, [0.1, math.nan], "interval upper endpoint is NaN"),
    (VECTOR, 3, [0.1, 0.2, 0.3, 0.4, -1.0, 0.6], "vector coordinate must be "
                                                 "nonnegative, got -1.0"),
    (VECTOR, 1, [math.nan], "vector coordinate is NaN"),
])
def test_elements_refuses_as_the_constructor_does(kind, dim, floats, message):
    with pytest.raises(BadParameter, match=f"^{re.escape(message)}$"):
        list(carrier(kind).elements(iter(floats), dim))
