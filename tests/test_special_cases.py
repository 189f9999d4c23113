"""The paper's special cases as closed forms on every carrier.

The selections, bit for bit: the weight-difference kernel ``delta-scale``
with any shipped delta gives x_i under the point mass ``dirac:i`` and the
k-th largest input under the threshold ``top:k``.

Along an admissible chain the tail weights of ``dirac:i`` are 1 while x_i
is in the tail and 0 after, and those of ``top:k`` are 1 while the tail
holds k inputs or more. Every shipped delta has delta(1, 1) = delta(0, 0)
= 0 and delta(1, 0) = 1, so one term is the selected input and every
other term is zero. The expected input comes from a sort key written in
``oracles.py``, never from the order's ``compare`` or ``lead``.

The means, within n * TOL: ``delta-scale(difference)`` under an additive
capacity is the weighted mean sum_i mu({i}) * x_i, componentwise, in any
order, since each tail weight difference is the weight of the input it
multiplies; under ``cardinality`` that is the arithmetic mean. The weights
are dyadic, so every subset sum is exact and the table is a capacity, and
so is |A| / n for n a power of 2. ``affine-F(C, D)`` gives (b_i -
b_{i+1}) * C(x_(i)) + D(x_(i)) at position i of the chain: the classical
Choquet sum of C(x) along the chain, plus sum_i D(x_i)."""

import random

import pytest

from choquetlike import (
    TOL, AggregationInput, Capacity, Interval, Scalar, Vector, addition_for,
    capacity_family, choquet_aggregate, kernel_catalog, parse_order,
)
from choquetlike.dissimilarity import _DELTAS
from oracles import chain_weights, mu_lookup, order_key, order_statistic, weighted_mean

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


def _close(got, want, n):
    return all(abs(g - w) <= n * TOL for g, w in zip(got, want, strict=True))


def _dyadic_weights(rng, n):
    """n positive weights k_i / 64 that add up to 1."""
    cuts = sorted(rng.sample(range(1, 64), n - 1))
    return [(b - a) / 64 for a, b in zip([0, *cuts], [*cuts, 64])]


def _additive(weights):
    """mu(A) = sum of the weights of A, each sum exact."""
    n = len(weights)
    return Capacity(n, tuple(sum(w for i, w in enumerate(weights) if m >> i & 1)
                             for m in range(1 << n)))


@pytest.mark.parametrize("spec", ORDERS)
def test_additive_capacity_gives_the_weighted_mean(spec):
    kind = ORDERS[spec]
    order, addop = parse_order(spec), addition_for(kind)
    kernel = kernel_catalog("delta-scale", kind, order)
    rng = random.Random(spec)
    checked = 0
    for n in (2, 3, 5, 4, 8):
        weights = [_dyadic_weights(rng, n) for _ in range(3)] if n in (2, 3, 5) else []
        caps = [(_additive(w), w) for w in weights]
        caps += [(capacity_family("cardinality", n), [1 / n] * n)] if n in (2, 4, 8) else []
        for row in _rows(spec, n):
            X = tuple(MAKE[kind](*c) for c in row)
            for mu, w in caps:
                res = choquet_aggregate(AggregationInput(X, mu, order, addop), kernel)
                assert res.consistent
                assert _close(res.value.components, weighted_mean(row, w), n), (row, w)
                checked += 1
    assert checked == 8 * (3 * 3 + 3)


# Carrier functions written from their definitions, with affine-F pairs
# whose bounds add up to at most 1.
CARRIER_FNS = {
    "identity": lambda c: c, "zero": lambda c: (0.0,) * len(c),
    "upper": lambda c: (max(c),) * len(c), "lower": lambda c: (min(c),) * len(c),
    "scale:0.7": lambda c: tuple(0.7 * a for a in c),
    "scale:0.3": lambda c: tuple(0.3 * a for a in c),
}
AFFINE_PAIRS = [("identity", "zero"), ("upper", "zero"), ("zero", "lower"),
                ("scale:0.7", "scale:0.3"), ("lower", "zero")]


@pytest.mark.parametrize("spec", ORDERS)
def test_affine_f_is_the_chain_sum_of_c_plus_the_sum_of_d(spec):
    kind, key = ORDERS[spec], order_key(spec)
    order, addop = parse_order(spec), addition_for(kind)
    checked = 0
    for n in (2, 3, 5):
        caps = [capacity_family("uniform-random", n, seed=s) for s in range(2)]
        for row in _rows(spec, n):
            X = tuple(MAKE[kind](*c) for c in row)
            for mu in caps:
                weights = chain_weights(row, key, mu_lookup(mu))
                for C, D in AFFINE_PAIRS:
                    kernel = kernel_catalog({"family": "affine-F", "C": C, "D": D}, kind,
                                            order)
                    chain = weighted_mean([CARRIER_FNS[C](c) for c in row], weights)
                    spread = weighted_mean([CARRIER_FNS[D](c) for c in row], [1.0] * n)
                    want = [a + b for a, b in zip(chain, spread)]
                    res = choquet_aggregate(AggregationInput(X, mu, order, addop), kernel)
                    assert res.consistent
                    assert _close(res.value.components, want, n), (C, D, row)
                    checked += 1
    assert checked == 8 * 2 * 5 * 3
