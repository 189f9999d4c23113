"""The Choquet-like operator: a fold, under an addition operation, of
kernel terms evaluated along an admissible permutation of the inputs.

For inputs x_1, ..., x_n, a capacity mu, and a permutation sigma sorting
the inputs into a non-decreasing chain, the operator value is

    (+)_{i=1..n} L(x_{sigma(i)}, x_{sigma(i-1)}, b_i, b_{i+1})

where x_{sigma(0)} is the least element, b_i is the capacity of the tail
set {sigma(i), ..., sigma(n)}, and b_{n+1} = 0. Every kernel is called
as L(current, previous, b1, b2) and may ignore any of its arguments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable, Optional

from .algebra import AdditionOp, add, addition_for, scale, scale_for
from .capacity import Capacity, _tail_weights
from .dissimilarity import DissimilarityFn, resolve_delta, resolve_dissimilarity
from .errors import (
    BadParameter, KernelRangeError, KindMismatch, NotAdmissiblePermutation,
    TooManyTies, UnknownKernel, lookup,
)
from .order import (
    TOL, AdmissibleOrder, Element, elements_equal, from_components, zero_element,
)

MAX_TIE_GROUP = 16


@dataclass(frozen=True)
class KernelL:
    """Kernel of the operator, always called as ``fn(current, previous,
    b1, b2)``: the current input, the previous input of the chain (the
    least element before the first), and the two adjacent tail weights.
    A kernel may ignore any of them. Outputs must stay in the
    unit-bounded carrier; values beyond 1e-9 outside raise, smaller
    overshoots are snapped. ``evaluate`` also checks that the output lies
    on the carrier of the current input (same ``kind`` and ``dim``) and
    raises ``KindMismatch`` otherwise, so a fold over kernel outputs needs
    no further carrier checks.
    """

    fn: Callable[[Element, Element, float, float], Element]
    name: str

    def __post_init__(self):
        if not callable(self.fn):
            raise BadParameter(f"kernel {self.name!r} needs a callable "
                               f"fn(current, previous, b1, b2), got {self.fn!r}")

    def evaluate(self, x1: Element, x2: Element, b1: float, b2: float) -> Element:
        out = _validate_unit(self.fn(x1, x2, b1, b2), self.name)
        if out.kind != x1.kind or out.dim != x1.dim:
            raise KindMismatch(f"kernel {self.name!r} produced {out!r} off the "
                               f"carrier of its input {x1!r}")
        return out


def _validate_unit(x: Element, kernel_name: str) -> Element:
    comps = x.components  # never NaN: the element constructors refuse it
    if -TOL <= min(comps) and max(comps) <= 1.0 + TOL:
        return x
    if all(-1e-9 <= c <= 1.0 + 1e-9 for c in comps):
        return from_components(x.kind, tuple(min(max(c, 0.0), 1.0) for c in comps))
    raise KernelRangeError(
        f"kernel {kernel_name!r} produced {x!r} outside the bounded carrier")


@dataclass(frozen=True)
class AggregationInput:
    """One aggregation instance: inputs, capacity, order, and addition."""

    X: tuple[Element, ...]
    mu: Capacity
    order: AdmissibleOrder
    addop: AdditionOp

    def __post_init__(self):
        X = tuple(self.X)
        object.__setattr__(self, "X", X)
        if len(X) < 2:
            raise BadParameter("aggregation needs at least two inputs")
        kind, dim = X[0].kind, X[0].dim
        for x in X[1:]:
            if x.kind != kind or x.dim != dim:
                raise KindMismatch("all inputs must share carrier kind and dimension")
        if self.mu.n != len(X):
            raise BadParameter(f"capacity is on [{self.mu.n}] but there are "
                               f"{len(X)} inputs")
        if self.order.kind != kind:
            raise KindMismatch("order carrier does not match the inputs")
        if self.addop.kind != kind:
            raise KindMismatch("addition carrier does not match the inputs")

    @property
    def n(self) -> int:
        return len(self.X)

    @property
    def zero(self) -> Element:
        return zero_element(self.X[0].kind, self.X[0].dim)


# ---------------------------------------------------------------------------
# Admissible permutations
# ---------------------------------------------------------------------------

class PermutationSet:
    """Lazy view of all permutations sorting X into a non-decreasing chain.

    Built as a stable sort by (order, original index) followed by the
    product of permutations within each tie group, which fixes a
    deterministic enumeration order whose first member is the
    lexicographically smallest admissible permutation.
    """

    def __init__(self, X, order: AdmissibleOrder):
        if not X:
            raise BadParameter("need at least one input")
        # Indices sorted by the comparator; the sort is stable, so ties keep
        # their original positions.
        key = cmp_to_key(order.compare)
        idx = sorted(range(len(X)), key=lambda i: key(X[i]))
        groups: list[list[int]] = [[idx[0]]]
        for i in idx[1:]:
            if order.compare(X[groups[-1][0]], X[i]) == 0:
                groups[-1].append(i)
            else:
                groups.append([i])
        self.groups = groups
        self.count = math.prod(math.factorial(len(g)) for g in groups)

    def __iter__(self):
        for parts in itertools.product(*(itertools.permutations(g) for g in self.groups)):
            yield tuple(itertools.chain.from_iterable(parts))

    def first(self) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.groups))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateResult:
    """Operator value plus the consistency report across admissible
    permutations. ``value`` always comes from the lexicographically first
    permutation so downstream tooling has a number to display;
    ``consistent`` is the authoritative flag, decided exactly. ``checked``
    counts the candidate permutations drawn; a row without ties has one.
    ``value.in_unit`` says whether the fold stayed in the bounded set."""

    value: Element
    consistent: bool
    permutations: int
    checked: int
    witness: Optional[dict] = None


def choquet_eval(inp: AggregationInput, kernel: KernelL,
                 sigma: tuple[int, ...]) -> Element:
    """The operator value along one admissible permutation.

    Raises ``NotAdmissiblePermutation`` if sigma does not sort the inputs
    into a non-decreasing chain. The folded sum may leave the bounded
    set; its ``in_unit`` records membership.
    """
    X, order = inp.X, inp.order
    n = inp.n
    if sorted(sigma) != list(range(n)):
        raise NotAdmissiblePermutation("sigma is not a permutation of range(n)")
    for a, b in zip(sigma, sigma[1:]):
        if order.compare(X[a], X[b]) > 0:
            raise NotAdmissiblePermutation(
                f"inputs at positions {a} and {b} are out of order under sigma")
    return _eval_sorted(inp, kernel, sigma)


def _eval_sorted(inp: AggregationInput, kernel: KernelL, sigma) -> Element:
    # The kernel keeps every term on the input carrier and the input ties
    # the addition to it, so the terms are added without per-call checks;
    # only the folded value's carrier is checked, once.
    X, evaluate, plus = inp.X, kernel.evaluate, inp.addop.fn
    b = _tail_weights(inp.mu.values, sigma)
    prev = X[sigma[0]]
    acc = evaluate(prev, inp.zero, b[0], b[1])
    for i in range(1, len(sigma)):
        x = X[sigma[i]]
        acc = plus(acc, evaluate(x, prev, b[i], b[i + 1]))
        prev = x
    if acc.kind != prev.kind or acc.dim != prev.dim:
        raise KindMismatch(f"addition {inp.addop.name!r} left the carrier of "
                           f"the inputs: {acc!r}")
    return acc


def _tie_candidates(inp: AggregationInput, kernel: KernelL, perms: PermutationSet):
    """Admissible permutations reaching every distinct value, by a walk over
    the states of each tie group in ``first()`` order. A state (the inputs
    placed so far) fixes the tail weights ahead, so it keeps one prefix per
    distinct partial sum. The first time a state holds two, both are
    completed in ``first()`` order and yielded at once (the addition may
    still merge them); at the end, one prefix per distinct full value."""
    X, first, full, zero = inp.X, perms.first(), (1 << inp.n) - 1, inp.zero
    evaluate, plus = kernel.evaluate, inp.addop.fn
    values = (0.0,) + inp.mu.values[1:]  # the empty tail weighs 0, as in tail_values
    states = {0: [((), None)]}  # placed mask -> [(prefix, partial sum)]
    split = False
    for group in perms.groups:
        for _ in group:
            reached = {}
            for mask, entries in states.items():
                for j in (j for j in group if not mask >> j & 1):
                    b1, b2 = values[full & ~mask], values[full & ~(mask | 1 << j)]
                    kept = reached.setdefault(mask | 1 << j, [])
                    for prefix, acc in entries:
                        prev = X[prefix[-1]] if prefix else zero
                        term = evaluate(X[j], prev, b1, b2)
                        acc = term if acc is None else plus(acc, term)
                        if not any(elements_equal(acc, other) for _, other in kept):
                            kept.append((prefix + (j,), acc))
                            if len(kept) == 2 and not split:
                                split = True
                                yield from (p + tuple(i for i in first if i not in p)
                                            for p, _ in kept)
            states = reached
    yield from (prefix for prefix, _ in states[full])


def choquet_aggregate(inp: AggregationInput, kernel: KernelL) -> AggregateResult:
    """Evaluate along the first admissible permutation and decide exactly
    whether every admissible permutation gives that value: the candidates
    of ``_tie_candidates`` are evaluated until one differs. A tie group of
    more than ``MAX_TIE_GROUP`` inputs raises ``TooManyTies``.
    Inconsistency is reported, never raised; the witness carries two
    permutations and their values.
    """
    perms = PermutationSet(inp.X, inp.order)
    if max(map(len, perms.groups)) > MAX_TIE_GROUP:
        raise TooManyTies(f"a tie group has more than {MAX_TIE_GROUP} inputs")
    first = perms.first()
    base = _eval_sorted(inp, kernel, first)
    candidates = [first] if perms.count == 1 else _tie_candidates(inp, kernel, perms)

    consistent = True
    witness = None
    checked = 0
    for sigma in candidates:
        checked += 1
        if sigma == first:
            continue
        v = _eval_sorted(inp, kernel, sigma)
        if not elements_equal(v, base):
            consistent = False
            witness = {"sigma_a": first, "value_a": base,
                       "sigma_b": sigma, "value_b": v}
            break

    return AggregateResult(value=base, consistent=consistent,
                           permutations=perms.count, checked=checked,
                           witness=witness)


# ---------------------------------------------------------------------------
# Kernel catalog
# ---------------------------------------------------------------------------

_CARRIER_FNS: dict[str, Callable[[Element], Element]] = {
    "zero": lambda x: zero_element(x.kind, x.dim),
    "identity": lambda x: x,
    "upper": lambda x: from_components(x.kind, (max(x.components),) * x.dim),
    "lower": lambda x: from_components(x.kind, (min(x.components),) * x.dim),
}


def resolve_carrier_fn(spec, kind: str) -> Callable[[Element], Element]:
    if callable(spec):
        return spec
    if isinstance(spec, str) and spec.startswith("scale:"):
        t = float(spec.split(":", 1)[1])
        mul = scale_for(kind)
        return lambda x: scale(mul, t, x)
    return lookup(_CARRIER_FNS, spec, "carrier function")


_KERNELS: dict[str, KernelL] = {}


def register_kernel(kernel: KernelL) -> KernelL:
    _KERNELS[kernel.name] = kernel
    return kernel


def delta_scale_kernel(delta, kind: str) -> KernelL:
    """Weight-difference kernel G(x, b1, b2) = delta(b1, b2) * x.

    With delta the plain difference this is the classical Choquet
    integrand lifted to the carrier.
    """
    delta_fn = resolve_delta(delta)
    mul = scale_for(kind)
    label = delta if isinstance(delta, str) else "custom"
    return KernelL(lambda x, prev, b1, b2: scale(mul, delta_fn(b1, b2), x),
                   name=f"delta-scale({label})")


def f_difference_kernel(F: Callable[[Element, float], Element]) -> KernelL:
    """Kernel G(x, b1, b2) = F(x, b1 - b2) for b1 >= b2, named
    ``f-difference(custom)``; no JSON spec can carry F."""
    return KernelL(lambda x, prev, b1, b2: F(x, b1 - b2),
                   name="f-difference(custom)")


def b_scale_d_kernel(d: DissimilarityFn, kind: str) -> KernelL:
    """Kernel G(x1, x2, b) = b * d(x1, x2): capacity-weighted dissimilarity
    to the previous input."""
    mul = scale_for(kind)
    return KernelL(lambda x, prev, b1, b2: scale(mul, b1, d(x, prev)),
                   name=f"b-scale-d({d.name})")


def affine_f_kernel(C, D, kind: str) -> KernelL:
    """Affine kernel F(x, a) = a*C(x) + D(x) componentwise, in the
    weight-difference form G(x, b1, b2) = F(x, b1 - b2)."""
    C_fn = resolve_carrier_fn(C, kind)
    D_fn = resolve_carrier_fn(D, kind)
    mul = scale_for(kind)
    addop = addition_for(kind)

    def F(x: Element, a: float) -> Element:
        return add(addop, scale(mul, a, C_fn(x)), D_fn(x))

    label = f"{C if isinstance(C, str) else 'C'},{D if isinstance(D, str) else 'D'}"
    return KernelL(lambda x, prev, b1, b2: F(x, b1 - b2),
                   name=f"affine-F({label})")


def kernel_catalog(spec, kind: str, order: Optional[AdmissibleOrder] = None) -> KernelL:
    """Build a kernel from a JSON-style spec.

    Families: ``{"family": "delta-scale", "delta": "difference"}``,
    ``{"family": "b-scale-d", "d": "abs-diff"}``,
    ``{"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"}``,
    ``{"family": "custom", "name": "..."}``. A bare string is shorthand
    for a family with default parameters or a registered custom name.
    """
    if isinstance(spec, str):
        if spec in _KERNELS:
            return _KERNELS[spec]
        spec = {"family": spec}
    family = spec.get("family")
    if family == "delta-scale":
        return delta_scale_kernel(spec.get("delta", "difference"), kind)
    if family == "b-scale-d":
        return b_scale_d_kernel(
            resolve_dissimilarity(spec.get("d", "abs-diff"), kind, order), kind)
    if family == "affine-F":
        if "C" not in spec or "D" not in spec:
            raise BadParameter("affine-F needs carrier functions C and D")
        return affine_f_kernel(spec["C"], spec["D"], kind)
    if family == "custom":
        name = spec.get("name")
        if isinstance(name, str) and name in _KERNELS:
            return _KERNELS[name]
        raise UnknownKernel(f"no registered kernel named {name!r}")
    raise UnknownKernel(f"unknown kernel family: {family!r}")


def classical_kernel(kind: str) -> KernelL:
    """The plain weight-difference kernel: the classical Choquet integrand."""
    return delta_scale_kernel("difference", kind)
