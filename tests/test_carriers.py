"""The carrier records of ``order.py``: one refusal for an unknown kind at
every entry point, grids and constant elements pinned element for element
and bit for bit, and the ``bounded`` contract the catalog kernels' fast
path relies on."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquetlike import (
    INTERVAL, SCALAR, TOL, VECTOR, BadParameter, GridSpec, Interval,
    KernelRangeError, Scalar, Vector, addition_for, classical_kernel,
    element_from_json, grid_elements, kernel_catalog, parse_dataset, scale_for,
    zero_element,
)
from choquetlike.dissimilarity import projected_dissimilarity
from choquetlike.operator import _validate_unit
from choquetlike.order import carrier, one_element

UNKNOWN = "unknown carrier kind: 'bogus'"


@pytest.mark.parametrize("call", [
    lambda: carrier("bogus"),
    lambda: element_from_json("bogus", 0.5),
    lambda: zero_element("bogus"),
    lambda: one_element("bogus", 2),
    lambda: parse_dataset('{"kind": "bogus", "rows": [[0.1, 0.2]]}', SCALAR),
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


# Components at and around the edges of the bounded set: signed zeros,
# values inside the constructors' -TOL snap, inside and beyond the
# kernels' 1e-9 snap above 1, NaN, and ordinary values.
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
    assert carrier(kind).bounded(c) == unchanged(kind, c)
