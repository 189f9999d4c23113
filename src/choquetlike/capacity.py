"""Capacities: normalized monotone set functions on {1, ..., n}.

Subsets are stored as bitmasks (bit i-1 represents element i), which caps
n at 24; verification workloads stay at n <= 6. The cap bounds time as
well as memory: a table holds 2^n values, and reading and checking it
takes a few passes over them. Capacities are immutable, and taken
exactly: correctly rounded parsing keeps a table monotone in its JSON text
monotone as floats. A table, in JSON or as (subset, value) pairs, is taken
by one reader, ``_pair_values``, in C-level passes; ``_table_entry`` and
``_first_bad_pair`` read entries one by one only to name the fault of a
table it refuses.

``_planes`` is the one walk over the subset lattice: checking a table,
explaining its first fault and building ``uniform-random`` all read it.
Only ``complete``'s superset minimum keeps its own mask-order loop.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import gt, itemgetter, le, ne

from .errors import (
    BadBoundary, BadParameter, MissingSubset, NotMonotone, json_number,
    refuse_unknown_keys,
)

MAX_N = 24
_BIT = {i: 1 << (i - 1) for i in range(1, MAX_N + 1)}  # element -> its mask bit
_FLOAT_MAX = sys.float_info.max
_NUMBER_TYPES = frozenset((int, float))  # bool is its own type, and refused


def _subset_mask(items, n: int) -> int:
    """The bitmask of a subset of {1, ..., n} listed as element numbers:
    ints, no bools. A subset that lists an element twice is refused, not
    read as the set of its items."""
    mask = 0
    for i in items:
        if isinstance(i, bool) or not isinstance(i, int) or i not in _BIT:
            raise BadParameter(f"subset {list(items)} lists {i!r}, which is no "
                               f"element number (1 to {MAX_N})")
        bit = _BIT[i]
        if mask & bit:
            raise BadParameter(f"subset {list(items)} lists element {i} twice")
        mask |= bit
    if mask >> n:
        raise BadParameter(f"subset {sorted(items)} outside 1..{n}")
    return mask


def mask_to_subset(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True)
class Capacity:
    """Set function mu with mu(empty) = 0, mu(full) = 1, monotone under
    inclusion, all exactly. ``values[mask]`` is mu of the subset encoded
    by ``mask``."""

    n: int
    values: tuple[float, ...]

    def __post_init__(self):
        # A list or an array is copied, so no caller changes a checked value.
        object.__setattr__(self, "values", tuple(self.values))
        if not (1 <= self.n <= MAX_N):
            raise BadParameter(f"n must lie in 1..{MAX_N}, got {self.n}")
        if len(self.values) != 1 << self.n:
            raise MissingSubset(
                f"expected {1 << self.n} subset values, got {len(self.values)}")
        if not _NUMBER_TYPES.issuperset(map(type, self.values)):
            bad = next(v for v in self.values if type(v) not in _NUMBER_TYPES)
            raise BadParameter(f"a capacity value is an int or a float, got {bad!r}")
        _validate(self.n, self.values)

    def of_subset(self, items) -> float:
        return self.values[_subset_mask(items, self.n)]

    def relabel(self, pi: tuple[int, ...]) -> "Capacity":
        """Transported capacity mu_hat(C) = mu({pi(i) : i in C}) for a
        0-based permutation pi of range(n). It is a capacity because mu is
        one, so it is not checked again."""
        if sorted(pi) != list(range(self.n)):
            raise BadParameter("pi must be a permutation of range(n)")
        image = [0]  # image[mask]: the mask of {pi(i) : i in mask}, by doubling
        for p in pi:
            image += [m | 1 << p for m in image]
        return Capacity._unchecked(self.n, tuple(map(self.values.__getitem__, image)))

    @classmethod
    def _unchecked(cls, n: int, values: tuple[float, ...]) -> "Capacity":
        """The capacity of ``values``, a tuple that is one by construction,
        built past ``__post_init__`` and its checks."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "n", n)
        object.__setattr__(mu, "values", values)
        return mu

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
            refuse_unknown_keys(obj, ("n", "kind", "entries", "complete"),
                                "capacity table")
            entries = obj.get("entries")
            if not isinstance(entries, list):
                raise BadParameter(
                    f"a capacity table needs a list of entries, got {entries!r}")
            complete = obj.get("complete", False)
            if not isinstance(complete, bool):
                raise BadParameter(f"'complete' must be true or false, got {complete!r}")
            try:  # each entry an object of a subset and a value, in C-level passes
                subsets = list(map(itemgetter("subset"), entries))
                values = list(map(itemgetter("value"), entries))
            except (KeyError, TypeError):
                subsets = values = None
            shaped = subsets is not None and {*map(len, entries)} <= {2}
            given = _pair_values(n, subsets, values) if shaped else None
            if given is None:  # refused: name the first fault
                for entry in entries:
                    _table_entry(entry)
                _first_bad_pair(n, subsets, values)
            return _from_values(n, given, complete)
        params = {k: v for k, v in obj.items() if k not in ("n", "kind")}
        return capacity_family(kind, n, **params)


def _table_entry(entry) -> None:
    """Raise the fault of one JSON capacity table entry, if it has one: it
    is an object of a ``subset`` list of element numbers and a ``value``
    number, and nothing else."""
    if not (isinstance(entry, dict) and isinstance(entry.get("subset"), list)
            and all(isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= MAX_N
                    for i in entry["subset"])):
        raise BadParameter(f"capacity entry {entry!r} needs a list of element "
                           f"numbers (1 to {MAX_N}) as subset")
    refuse_unknown_keys(entry, ("subset", "value"), "capacity entry")
    json_number(entry, "value")


def _pair_values(n: int, subsets: list, values: list):
    """The values of a table's entries, given as the lists ``subsets`` and
    ``values``, as a dict from mask to float, read in C-level passes. None
    instead when ``n`` lies outside 1..MAX_N or some entry is refused: a
    subset that is no list of distinct element numbers in 1..n (ints, no
    bools), a value that is no int or float in the float range (a NaN
    passes, for ``_validate`` to refuse), or two values of one subset that
    differ. ``_first_bad_pair`` names the fault."""
    if not (1 <= n <= MAX_N and {*map(type, subsets)} <= {list}
            and _NUMBER_TYPES.issuperset(map(type, values))
            and not any(map(gt, map(abs, values), repeat(_FLOAT_MAX)))):
        return None
    kinds = {*map(type, chain.from_iterable(subsets))}  # ``_BIT`` also maps True and 1.0
    if bool in kinds or not all(map(issubclass, kinds, repeat(int))):
        return None
    try:
        masks = list(map(sum, map(map, repeat(_BIT.__getitem__), subsets)))
    except KeyError:  # an element outside 1..MAX_N
        return None
    values = list(map(float, values))
    given = dict(zip(masks, values))
    # A mask past bit n - 1 holds an element above n, and one of fewer
    # bits than its subset has items repeats one. Each value differs from
    # its subset's last unless it is the last, which differs from itself
    # only as a NaN.
    if (max(masks, default=0) >> n
            or any(map(ne, map(int.bit_count, masks), map(len, subsets)))
            or len(given) < len(masks) and (
                sum(map(ne, map(given.__getitem__, masks), values))
                > sum(map(ne, given.values(), given.values())))):
        return None
    return given


def _validate(n: int, values) -> None:
    """Refuse ``values`` unless they are a capacity, exactly. The range
    and monotonicity are decided in bulk, and only a table that fails
    them is scanned again, by ``_first_fault``, for the error to raise."""
    if not (all(map(le, repeat(0.0), values)) and all(map(le, values, repeat(1.0)))
            and _monotone(n, values)):
        _first_fault(n, values)
    if values[0] != 0.0:
        raise BadBoundary(f"value at the empty set must be 0, got {values[0]}")
    full = (1 << n) - 1
    if values[full] != 1.0:
        raise BadBoundary(f"value at the full set must be 1, got {values[full]}")


def _planes(n: int) -> list[tuple[slice, slice]]:
    """The subset lattice of {1, ..., n} as slice pairs ``(lo, hi)``, each set A
    and i outside it once: ``values[lo][j]`` is mu(A), ``values[hi][j]`` mu(A + i).
    Plane i = 0, 1, ... is 2^i strided slices, or blocks once 2^(2i+1) > 2^n."""
    size = 1 << n
    out = []
    for i in range(n):
        s = 1 << i
        step = s << 1
        if s * step <= size:
            out += [(slice(r, size, step), slice(r + s, size, step)) for r in range(s)]
        else:
            out += [(slice(k, k + s), slice(k + s, k + step)) for k in range(0, size, step)]
    return out


def _monotone(n: int, values) -> bool:
    """Whether mu(A) <= mu(A + i) for every set A and element i outside
    it, for ``values`` in [0, 1]; along single-element additions this is
    monotonicity under inclusion."""
    return all(all(map(le, values[lo], values[hi])) for lo, hi in _planes(n))


def _first_fault(n: int, values) -> None:
    """Raise the first value out of [0, 1], else the first decrease along
    a single-element addition: the least decreasing ``(mask, bigger)`` pair."""
    for v in values:
        if not (0.0 <= v <= 1.0):
            raise BadParameter(f"capacity value out of [0, 1]: {v}")
    masks = range(1 << n)
    least = (1 << n, 0)
    for lo, hi in _planes(n):
        # A pair's sets ascend, so its first decrease is its least; sets
        # above the least fault found so far cannot improve on it.
        shift, stop = hi.start - lo.start, min(lo.stop, least[0] + 1)
        lo, hi = slice(lo.start, stop, lo.step), slice(hi.start, stop + shift, lo.step)
        least = min(least, next(compress(zip(masks[lo], masks[hi]),
                                         map(gt, values[lo], values[hi])), least))
    mask, bigger = least
    raise NotMonotone(
        f"mu({mask_to_subset(mask)}) = {values[mask]} exceeds "
        f"mu({mask_to_subset(bigger)}) = {values[bigger]}",
        witness=(mask_to_subset(mask), mask_to_subset(bigger)))


def capacity_from_table(n: int, entries, complete: bool = False) -> Capacity:
    """Build a capacity from (subset, value) pairs; subsets are 1-based
    element lists, each read once, as a list.

    By default every one of the 2^n subsets must be assigned. With
    ``complete=True`` missing subsets receive the maximal monotone
    extension of the given entries: the smallest given value among
    supersets (the full set counts as given with value 1). Silent
    completion hides modeling errors, so it is strictly opt-in.
    """
    subsets, values = [], []
    for subset, value in entries:
        subsets.append(list(subset))
        values.append(value)
    given = _pair_values(n, subsets, values)
    if given is None:
        _first_bad_pair(n, subsets, values)
    return _from_values(n, given, complete)


def _first_bad_pair(n: int, subsets: list, values: list) -> None:
    """Raise the first fault, in entry order, of a table on ``n`` elements
    whose ``subsets`` and ``values`` ``_pair_values`` refused."""
    if not (1 <= n <= MAX_N):
        raise BadParameter(f"n must lie in 1..{MAX_N}, got {n}")
    given = {}
    for subset, value in zip(subsets, values):
        mask = _subset_mask(subset, n)
        if type(value) not in _NUMBER_TYPES or abs(value) > _FLOAT_MAX:
            raise BadParameter(f"capacity value for subset {sorted(subset)} must be an "
                               f"int or a float in the float range, got {value!r}")
        if mask in given and given[mask] != float(value):
            raise BadParameter(f"conflicting values for subset {sorted(subset)}")
        given[mask] = float(value)


def _from_values(n: int, given: dict, complete: bool) -> Capacity:
    """The capacity of the values ``given`` by mask, completed as
    ``capacity_from_table`` says."""
    size = 1 << n
    ext = repeat(None)
    if complete:
        given = {0: 0.0, size - 1: 1.0, **given}
        # Smallest given value over supersets, computed by sweeping masks
        # from the full set downward one removed element at a time. Not by
        # ``_planes``: ``min`` keeps the first of two equal zeros, so another
        # order would change which of 0.0 and -0.0 an entry gets.
        ext = list(map(given.get, range(size), repeat(float("inf"))))
        for mask in range(size - 1, -1, -1):
            for i in range(n):
                if not mask >> i & 1:
                    ext[mask] = min(ext[mask], ext[mask | 1 << i])
    values = tuple(map(given.get, range(size), ext))
    if None in values:
        raise MissingSubset(f"no value for subset {mask_to_subset(values.index(None))}")
    return Capacity(n, values)


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
        refuse_unknown_keys(params, (), "cardinality capacity")
        return Capacity(n, tuple(m.bit_count() / n for m in range(size)))
    if kind == "dirac":
        refuse_unknown_keys(params, ("i",), "dirac capacity")
        i = json_number(params, "i", 0, integral=True)
        if not 1 <= i <= n:
            raise BadParameter(f"dirac index must lie in 1..{n}, got {i}")
        bit = 1 << (i - 1)
        return Capacity(n, tuple(1.0 if m & bit else 0.0 for m in range(size)))
    if kind == "top":
        refuse_unknown_keys(params, ("k",), "top capacity")
        k = json_number(params, "k", 0, integral=True)
        if not 1 <= k <= n:
            raise BadParameter(f"top threshold must lie in 1..{n}, got {k}")
        return Capacity(n, tuple(1.0 if m.bit_count() >= k else 0.0
                                 for m in range(size)))
    if kind == "uniform-random":
        refuse_unknown_keys(params, ("seed",), "uniform-random capacity")
        draw = random.Random(json_number(params, "seed", 42, integral=True)).random
        mono = [draw() for _ in range(size)]
        mono[0] = 0.0
        for lo, hi in _planes(n):  # mono[A]: the largest draw over nonempty subsets of A
            mono[hi] = map(max, mono[hi], mono[lo])
        return Capacity(n, tuple(v / mono[-1] for v in mono))
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
    capacity table and ``sigma`` must already be a permutation. It walks
    sigma forward, dropping each input from the tail as ``operator._fold``
    does; the empty tail weighs 0.0, never ``values[0]``, which a table may
    store as -0.0."""
    tail = (1 << len(sigma)) - 1
    out = [values[tail]]
    for j in sigma:
        tail ^= 1 << j
        out.append(values[tail] if tail else 0.0)
    return out
