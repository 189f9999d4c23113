"""The paper's selection special cases, bit for bit on every carrier: the
weight-difference kernel ``delta-scale`` with any shipped delta gives x_i
under the point mass ``dirac:i`` and the k-th largest input under the
threshold ``top:k``.

Along an admissible chain the tail weights of ``dirac:i`` are 1 while x_i
is in the tail and 0 after, and those of ``top:k`` are 1 while the tail
holds k inputs or more. Every shipped delta has delta(1, 1) = delta(0, 0)
= 0 and delta(1, 0) = 1, so one term is the selected input and every
other term is zero. The expected input comes from a sort key written in
``oracles.py``, never from the order's ``compare`` or ``lead``."""

import random

import pytest

from choquetlike import (
    AggregationInput, Interval, Scalar, Vector, addition_for, capacity_family,
    choquet_aggregate, kernel_catalog, parse_order,
)
from choquetlike.dissimilarity import _DELTAS
from oracles import order_key, order_statistic

ORDERS = {"scalar": "scalar", "ab:0.5:1": "interval", "ab:0:1": "interval",
          "veclex:1,2": "vector", "veclex:2,1": "vector"}
MAKE = {"scalar": Scalar, "interval": Interval, "vector": lambda *c: Vector(c)}


def _draw(rng, kind):
    if kind == "scalar":
        return (rng.random(),)
    if kind == "interval":
        return tuple(sorted((rng.random(), rng.random())))
    return (rng.random(), rng.random())


def _strict(rng, kind, n, key):
    """n component tuples whose leading keys lie at least 1e-6 apart."""
    while True:
        row = [_draw(rng, kind) for _ in range(n)]
        leads = sorted(key(c)[0] for c in row)
        if all(b - a >= 1e-6 for a, b in zip(leads, leads[1:])):
            return row


def _rows(spec, n):
    """Strict rows, and rows that repeat identical inputs."""
    kind, key = ORDERS[spec], order_key(spec)
    rng = random.Random(f"{spec}-{n}")
    for _ in range(4):
        yield _strict(rng, kind, n, key)
        levels = _strict(rng, kind, rng.randint(1, n - 1), key)
        yield [rng.choice(levels) for _ in range(n)]


@pytest.mark.parametrize("spec", ORDERS)
def test_point_mass_and_threshold_select(spec):
    kind, key = ORDERS[spec], order_key(spec)
    order, addop = parse_order(spec), addition_for(kind)
    kernels = [kernel_catalog({"family": "delta-scale", "delta": d}, kind, order)
               for d in _DELTAS]
    checked = 0
    for n in (2, 3, 5):
        caps = [(capacity_family("dirac", n, i=i), lambda row, i=i: row[i - 1])
                for i in range(1, n + 1)]
        caps += [(capacity_family("top", n, k=k),
                  lambda row, k=k: order_statistic(row, k, key)) for k in range(1, n + 1)]
        for row in _rows(spec, n):
            X = tuple(MAKE[kind](*c) for c in row)
            for mu, selected in caps:
                want = [v.hex() for v in selected(row)]
                inp = AggregationInput(X, mu, order, addop)
                for kernel in kernels:
                    res = choquet_aggregate(inp, kernel)
                    assert [v.hex() for v in res.value.components] == want, (
                        kernel.name, row, mu.to_json())
                    assert res.consistent
                    checked += 1
    assert checked == 4 * 8 * 2 * (2 + 3 + 5)
