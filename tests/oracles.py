"""Independent reference implementations used to cross-check the library.

These deliberately avoid the operator module's evaluation path: they sort
with plain Python (or not at all: the Moebius form), walk textbook
summation forms directly, and accept capacities only through subset
lookups.
"""

from __future__ import annotations

import itertools
import math


def classical_choquet_increments(values, mu_of_subset):
    """Textbook increments form: sum of (x_(i) - x_(i-1)) * mu(tail set),
    with x sorted ascending and x_(0) = 0. ``mu_of_subset`` maps an
    iterable of 0-based indices to the capacity value."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    total, prev = 0.0, 0.0
    for pos, idx in enumerate(order):
        total += (values[idx] - prev) * mu_of_subset(order[pos:])
        prev = values[idx]
    return total


def classical_choquet_weights(values, mu_of_subset):
    """Textbook weight-difference form: sum of x_(i) * (mu(B_i) - mu(B_{i+1}))
    with x sorted ascending, B_i the tail set from position i, and
    mu(B_{n+1}) = 0."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    n = len(values)
    total = 0.0
    for pos, idx in enumerate(order):
        b_here = mu_of_subset(order[pos:])
        b_next = mu_of_subset(order[pos + 1:]) if pos + 1 < n else 0.0
        total += values[idx] * (b_here - b_next)
    return total


def classical_choquet_mobius(values, mu_of_subset):
    """Moebius form: sum over nonempty subsets A of m(A) * min_{i in A} x_i,
    with m(A) = sum over B subset of A of (-1)^{|A| - |B|} mu(B). It needs
    no sort and no permutation, so tied values take no path of their own."""
    n = len(values)
    total = 0.0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            m = sum((-1) ** (size - k) * mu_of_subset(part) for k in range(size + 1)
                    for part in itertools.combinations(subset, k))
            total += m * min(values[i] for i in subset)
    return total


def mu_lookup(capacity):
    """Subset lookup (0-based indices) against a Capacity object."""
    def of(indices):
        mask = 0
        for i in indices:
            mask |= 1 << i
        return capacity.values[mask]
    return of


def order_key(spec: str):
    """A sort key on component tuples for the admissible order ``spec``,
    written from the order's definition: the value (``scalar``), the alpha
    mix then the beta mix of the endpoints (``ab:<alpha>:<beta>``), or the
    coordinates in priority order (``veclex:<perm>``, 1-based)."""
    if spec == "scalar":
        return lambda c: (c[0],)
    name, *fields = spec.split(":")
    if name == "ab":
        a, b = map(float, fields)
        return lambda c: ((1 - a) * c[0] + a * c[1], (1 - b) * c[0] + b * c[1])
    priority = [int(i) - 1 for i in fields[0].split(",")]
    return lambda c: tuple(c[i] for i in priority)


def order_statistic(values, k, key):
    """The k-th largest of ``values`` (component tuples) under ``key``."""
    return sorted(values, key=key)[len(values) - k]


def weighted_mean(values, weights):
    """The componentwise mean of ``values`` (component tuples) with
    ``weights``: sum over i of weights[i] * values[i]."""
    return tuple(math.fsum(w * c[j] for w, c in zip(weights, values))
                 for j in range(len(values[0])))


def chain_weights(values, key, mu_of_subset):
    """Each input's weight mu(B_i) - mu(B_{i+1}) along the chain that
    ``key`` sorts ``values`` (component tuples) into, ascending, where B_i
    is the tail set from position i and mu(B_{n+1}) = 0: the classical
    Choquet sum along that chain is ``weighted_mean(values, weights)``.
    ``mu_of_subset`` maps an iterable of 0-based indices to the capacity
    value."""
    order = sorted(range(len(values)), key=lambda i: key(values[i]))
    weights = [0.0] * len(values)
    for pos, idx in enumerate(order):
        weights[idx] = mu_of_subset(order[pos:]) - mu_of_subset(order[pos + 1:])
    return weights
