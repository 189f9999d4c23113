"""Capacities: normalized monotone set functions on {1, ..., n}.

Subsets are stored as bitmasks (bit i-1 represents element i), which caps
n at 24; verification workloads stay at n <= 6, the cap only bounds
memory. Capacities are immutable after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BadBoundary, BadParameter, MissingSubset, NotMonotone, json_number,
)
from .order import TOL

MAX_N = 24


def subset_to_mask(items) -> int:
    mask = 0
    for i in items:
        mask |= 1 << (int(i) - 1)
    return mask


def mask_to_subset(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True)
class Capacity:
    """Set function mu with mu(empty) = 0, mu(full) = 1, monotone under
    inclusion. ``values[mask]`` is mu of the subset encoded by ``mask``."""

    n: int
    values: tuple[float, ...]

    def __post_init__(self):
        if not (1 <= self.n <= MAX_N):
            raise BadParameter(f"n must lie in 1..{MAX_N}, got {self.n}")
        if len(self.values) != 1 << self.n:
            raise MissingSubset(
                f"expected {1 << self.n} subset values, got {len(self.values)}")
        _validate(self.n, self.values)

    def of_subset(self, items) -> float:
        return self.values[subset_to_mask(items)]

    def relabel(self, pi: tuple[int, ...]) -> "Capacity":
        """Transported capacity mu_hat(C) = mu({pi(i) : i in C}) for a
        0-based permutation pi of range(n)."""
        if sorted(pi) != list(range(self.n)):
            raise BadParameter("pi must be a permutation of range(n)")
        out = [0.0] * (1 << self.n)
        for mask in range(1 << self.n):
            image = 0
            for i in range(self.n):
                if mask >> i & 1:
                    image |= 1 << pi[i]
            out[mask] = self.values[image]
        return Capacity(self.n, tuple(out))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kind": "table",
            "entries": [{"subset": mask_to_subset(m), "value": v}
                        for m, v in enumerate(self.values)],
        }

    @staticmethod
    def from_json(obj: dict) -> "Capacity":
        if not isinstance(obj, dict):
            raise BadParameter(f"a capacity is a JSON object, got {type(obj).__name__}")
        kind = obj.get("kind", "table")
        n = json_number(obj, "n", integral=True)
        if kind == "table":
            entries = obj.get("entries")
            if not isinstance(entries, list):
                raise BadParameter(
                    f"a capacity table needs a list of entries, got {entries!r}")
            complete = obj.get("complete", False)
            if not isinstance(complete, bool):
                raise BadParameter(f"'complete' must be true or false, got {complete!r}")
            return capacity_from_table(n, [_table_entry(e) for e in entries], complete)
        params = {k: v for k, v in obj.items() if k not in ("n", "kind")}
        return capacity_family(kind, n, **params)


def _table_entry(entry) -> tuple[list, float]:
    """The (subset, value) pair of one capacity table entry."""
    if not (isinstance(entry, dict) and isinstance(entry.get("subset"), list)
            and all(isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= MAX_N
                    for i in entry["subset"])):
        raise BadParameter(f"capacity entry {entry!r} needs a list of element "
                           f"numbers (1 to {MAX_N}) as subset")
    return entry["subset"], json_number(entry, "value")


def _validate(n: int, values) -> None:
    for v in values:
        if not (-TOL <= v <= 1.0 + TOL):
            raise BadParameter(f"capacity value out of [0, 1]: {v}")
    # Monotone along single-element additions iff monotone under inclusion.
    for mask in range(1 << n):
        for i in range(n):
            if mask >> i & 1:
                continue
            bigger = mask | 1 << i
            if values[mask] > values[bigger] + TOL:
                raise NotMonotone(
                    f"mu({mask_to_subset(mask)}) = {values[mask]} exceeds "
                    f"mu({mask_to_subset(bigger)}) = {values[bigger]}",
                    witness=(mask_to_subset(mask), mask_to_subset(bigger)))
    if abs(values[0]) > TOL:
        raise BadBoundary(f"value at the empty set must be 0, got {values[0]}")
    full = (1 << n) - 1
    if abs(values[full] - 1.0) > TOL:
        raise BadBoundary(f"value at the full set must be 1, got {values[full]}")


def capacity_from_table(n: int, entries, complete: bool = False) -> Capacity:
    """Build a capacity from (subset, value) pairs; subsets are 1-based
    element lists.

    By default every one of the 2^n subsets must be assigned. With
    ``complete=True`` missing subsets receive the maximal monotone
    extension of the given entries: the smallest given value among
    supersets (the full set counts as given with value 1). Silent
    completion hides modeling errors, so it is strictly opt-in.
    """
    if not (1 <= n <= MAX_N):
        raise BadParameter(f"n must lie in 1..{MAX_N}, got {n}")
    size = 1 << n
    given: dict[int, float] = {}
    for subset, value in entries:
        mask = subset_to_mask(subset)
        if mask >= size:
            raise BadParameter(f"subset {sorted(subset)} outside 1..{n}")
        if mask in given and abs(given[mask] - value) > TOL:
            raise BadParameter(f"conflicting values for subset {sorted(subset)}")
        given[mask] = float(value)

    full = size - 1
    values = [None] * size
    for mask, v in given.items():
        values[mask] = v
    if complete:
        given.setdefault(full, 1.0)
        given.setdefault(0, 0.0)
        # Smallest given value over supersets, computed by sweeping masks
        # from the full set downward one removed element at a time.
        ext = [float("inf")] * size
        for mask, v in given.items():
            ext[mask] = v
        for mask in range(size - 1, -1, -1):
            for i in range(n):
                if mask >> i & 1:
                    continue
                ext[mask] = min(ext[mask], ext[mask | 1 << i])
        values = [given.get(mask, ext[mask]) for mask in range(size)]
    elif any(v is None for v in values):
        missing = next(mask for mask, v in enumerate(values) if v is None)
        raise MissingSubset(f"no value for subset {mask_to_subset(missing)}")
    return Capacity(n, tuple(values))


def capacity_family(kind: str, n: int, **params) -> Capacity:
    """Named capacity constructors.

    cardinality: mu(A) = |A| / n.
    dirac: mu(A) = 1 iff i in A (parameter ``i``, 1-based).
    top: mu(A) = 1 iff |A| >= k (parameter ``k``).
    uniform-random: monotone rescaled seeded random values
    (parameter ``seed``).
    """
    if not (1 <= n <= MAX_N):
        raise BadParameter(f"n must lie in 1..{MAX_N}, got {n}")
    size = 1 << n
    if kind == "cardinality":
        return Capacity(n, tuple(bin(m).count("1") / n for m in range(size)))
    if kind == "dirac":
        i = json_number(params, "i", 0, integral=True)
        if not 1 <= i <= n:
            raise BadParameter(f"dirac index must lie in 1..{n}, got {i}")
        bit = 1 << (i - 1)
        return Capacity(n, tuple(1.0 if m & bit else 0.0 for m in range(size)))
    if kind == "top":
        k = json_number(params, "k", 0, integral=True)
        if not 1 <= k <= n:
            raise BadParameter(f"top threshold must lie in 1..{n}, got {k}")
        return Capacity(n, tuple(1.0 if bin(m).count("1") >= k else 0.0
                                 for m in range(size)))
    if kind == "uniform-random":
        seed = json_number(params, "seed", 42, integral=True)
        rng = random.Random(seed)
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
        return Capacity(n, tuple(v / top_v for v in mono))
    raise BadParameter(f"unknown capacity family: {kind!r}")


def tail_values(mu: Capacity, sigma: tuple[int, ...]) -> tuple[float, ...]:
    """Capacities of the tail sets along a permutation.

    ``sigma`` is a 0-based permutation of range(n); entry i (0-based) of
    the result is mu({sigma(i), ..., sigma(n-1)}), and the final entry is
    mu(empty) = 0. The output is non-increasing and starts at 1.
    """
    if sorted(sigma) != list(range(mu.n)):
        raise BadParameter("sigma must be a permutation of range(n)")
    return tuple(_tail_weights(mu.values, sigma))


def _tail_weights(values, sigma) -> list[float]:
    """``tail_values`` without its permutation check: ``values`` is the
    capacity table and ``sigma`` must already be a permutation."""
    n = len(sigma)
    out = [0.0] * (n + 1)
    mask = 0
    for i in range(n - 1, -1, -1):
        mask |= 1 << sigma[i]
        out[i] = values[mask]
    return out
