"""The Choquet-like operator: a fold, under an addition operation, of
kernel terms evaluated along an admissible permutation of the inputs.

For inputs x_1, ..., x_n, a capacity mu, and a permutation sigma sorting
the inputs into a non-decreasing chain, the operator value is

    (+)_{i=1..n} L(x_{sigma(i)}, x_{sigma(i-1)}, b_i, b_{i+1})

where x_{sigma(0)} is the least element, b_i is the capacity of the tail
set {sigma(i), ..., sigma(n)}, and b_{n+1} = 0. Every kernel is called
as L(current, previous, b1, b2) and may ignore any of its arguments.

The same formula holds on every carrier, and the shipped kernels,
additions and scalings work component by component. So each catalog
kernel is defined once, on component tuples, and ``KernelL.evaluate``
lifts it to elements. The two functions defined on elements, a custom
kernel and an addition without ``term``, reach the tuples through one
lift, ``_on_components``. ``choquet_aggregate`` folds each row on
component tuples, checks every kernel term as ``evaluate`` checks its
output, and builds one element per row. ``_eval_sorted`` folds on
elements with the addition's ``fn`` and stays the reference that
``choquet_eval`` and the brute-force oracles call.

A row whose inputs are pairwise strictly ordered has one admissible
permutation. ``choquet_aggregate`` reads each input's component tuple
once, and both the fold and the lead sort take that list. The sort finds
such rows from one float per tuple, the order's ``lead``: when the
sorted leads are more than ``TOL`` apart, ``compare`` follows them, so
their sort is the one chain ``PermutationSet`` would build, and the row
is folded once along it. Every other row, tied or within ``TOL``, takes
``PermutationSet``, which the oracles use too, and the tie walk, unless
the kernel's family settles the row (see ``choquet_aggregate``); a row
without ties walks to its one permutation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Callable, Optional

from .algebra import AdditionOp, addition_for, scale_for, unit_coefficient
from .capacity import Capacity, _tail_weights
from .dissimilarity import _DELTAS, delta_abs, resolve_dissimilarity
from .errors import (
    BadParameter, KernelRangeError, KindMismatch, NotAdmissiblePermutation,
    TooManyTies, UnknownKernel, lookup, refuse_unknown_keys,
)
from .order import TOL, AdmissibleOrder, Element, carrier, zero_element

MAX_TIE_GROUP = 16
SNAP = 1e-9  # how far outside [0, 1] a kernel output is snapped into it


@dataclass(frozen=True)
class KernelL:
    """Kernel of the operator, always called as ``fn(current, previous,
    b1, b2)``: the current input, the previous input of the chain (the
    least element before the first), and the two adjacent tail weights.
    A kernel may ignore any of them. Outputs must stay in the
    unit-bounded carrier; values beyond ``SNAP`` outside raise, smaller
    overshoots are snapped. ``evaluate`` also checks that the output lies
    on the carrier of the current input (same ``kind`` and ``dim``) and
    raises ``KindMismatch`` otherwise, so a fold over kernel outputs needs
    no further carrier checks.

    A custom kernel, ``KernelL(fn, name)`` or ``f_difference_kernel(F)``,
    is ``fn`` alone. Only the catalog constructors set the other fields:
    ``term``, the kernel on component tuples of carrier ``kind``, checked
    as above, of which ``fn`` is the lift that ``evaluate`` calls as is;
    and ``tie_invariant``, the family's proof that the order inside a
    group of identical tied inputs does not change the operator (see
    ``choquet_aggregate``).
    """

    fn: Callable[[Element, Element, float, float], Element]
    name: str
    term: Optional[Callable[[tuple, tuple, float, float], tuple]] = field(
        default=None, init=False)
    kind: Optional[str] = field(default=None, init=False)
    tie_invariant: bool = field(default=False, init=False)

    def __post_init__(self):
        if not callable(self.fn):
            raise BadParameter(f"kernel {self.name!r} needs a callable "
                               f"fn(current, previous, b1, b2), got {self.fn!r}")

    def evaluate(self, x1: Element, x2: Element, b1: float, b2: float) -> Element:
        if self.term is not None:
            return self.fn(x1, x2, b1, b2)
        out = _validate_unit(self.fn(x1, x2, b1, b2), self.name)
        if out.kind != x1.kind or out.dim != x1.dim:
            raise KindMismatch(f"kernel {self.name!r} produced {out!r} off the "
                               f"carrier of its input {x1!r}")
        return out


def _validate_unit(x: Element, kernel_name: str) -> Element:
    comps = x.components  # never NaN: the element constructors refuse it
    if -TOL <= min(comps) and max(comps) <= 1.0 + TOL:
        return x
    if all(-SNAP <= c <= 1.0 + SNAP for c in comps):
        return carrier(x.kind).make(tuple(min(max(c, 0.0), 1.0) for c in comps))
    raise KernelRangeError(
        f"kernel {kernel_name!r} produced {x!r} outside the bounded carrier")


def _on_components(fn, kind: str, what: str):
    """``fn``, a function of elements of carrier ``kind`` (and of any
    further arguments, such as a kernel's weights), called on component
    tuples: each tuple argument is made an element, any other is passed
    through. Its result must lie on the carrier of its first argument;
    any other raises ``KindMismatch`` naming ``what``."""
    make = carrier(kind).make

    def lifted(*args) -> tuple:
        out = fn(*[make(a) if isinstance(a, tuple) else a for a in args])
        if out.kind != kind or out.dim != len(args[0]):
            raise KindMismatch(f"{what} left the carrier of its input: {out!r}")
        return out.components

    return lifted


def _component_kernel(term, kind: str, name: str, *, tie_invariant: bool) -> KernelL:
    """The catalog kernel defined on component tuples of carrier ``kind``
    by ``term``. Its output goes through the carrier's constructor and
    ``_validate_unit`` unless it is ``bounded``: both leave such a tuple as is."""
    record = carrier(kind)
    make, bounded = record.make, record.bounded

    def checked(xc: tuple, pc: tuple, b1: float, b2: float) -> tuple:
        c = term(xc, pc, b1, b2)
        return c if bounded(c) else _validate_unit(make(c), name).components

    def fn(x: Element, prev: Element, b1: float, b2: float) -> Element:
        if x.kind != kind:
            raise KindMismatch(f"kernel {name!r} is defined on {kind} inputs, "
                               f"got {x!r}")
        xc = x.components
        c = checked(xc, prev.components, b1, b2)
        if len(c) != len(xc):
            raise KindMismatch(f"kernel {name!r} produced {c!r} off the carrier "
                               f"of its input {x!r}")
        return make(c)

    kernel = KernelL(fn, name)
    object.__setattr__(kernel, "term", checked)
    object.__setattr__(kernel, "kind", kind)
    object.__setattr__(kernel, "tie_invariant", tie_invariant)
    return kernel


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
        if self.order.dim not in (None, dim):
            raise KindMismatch("vector dimension does not match the order")
        if self.addop.kind != kind:
            raise KindMismatch("addition carrier does not match the inputs")


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
    counts the candidate permutations drawn; a row without ties has one,
    and so has a row that ``choquet_aggregate`` certifies.
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
    if sorted(sigma) != list(range(len(X))):
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
    acc = evaluate(prev, zero_element(prev.kind, prev.dim), b[0], b[1])
    for i in range(1, len(sigma)):
        x = X[sigma[i]]
        acc = plus(acc, evaluate(x, prev, b[i], b[i + 1]))
        prev = x
    if acc.kind != prev.kind or acc.dim != prev.dim:
        raise KindMismatch(f"addition {inp.addop.name!r} left the carrier of "
                           f"the inputs: {acc!r}")
    return acc


class _Fold:
    """The operator on one row's component tuples ``comps``, those of
    ``inp.X``: the kernel term, checked as ``KernelL.evaluate`` checks its
    output, and the addition. A custom kernel or an addition without a
    component form is lifted from elements by ``_on_components``."""

    def __init__(self, inp: AggregationInput, kernel: KernelL, comps: list):
        x0 = inp.X[0]
        kind, dim = x0.kind, x0.dim
        if kernel.kind not in (None, kind):
            raise KindMismatch(f"kernel {kernel.name!r} is defined on "
                               f"{kernel.kind} inputs, got {x0!r}")
        self.make = carrier(kind).make
        self.comps = comps
        self.zero = (0.0,) * dim
        self.values = inp.mu.values
        self.term = kernel.term or _on_components(
            kernel.evaluate, kind, f"kernel {kernel.name!r}")
        self.plus = inp.addop.term or _on_components(
            inp.addop.fn, kind, f"addition {inp.addop.name!r}")

    def __call__(self, sigma) -> tuple:
        comps, term, plus = self.comps, self.term, self.plus
        b = _tail_weights(self.values, sigma)
        prev = comps[sigma[0]]
        acc = term(prev, self.zero, b[0], b[1])
        for i in range(1, len(sigma)):
            x = comps[sigma[i]]
            acc = plus(acc, term(x, prev, b[i], b[i + 1]))
            prev = x
        if len(acc) != len(self.zero):  # a vector kernel of another dimension
            raise KindMismatch(f"the fold left the carrier of the inputs: {acc!r}")
        return acc


def _close(a: tuple, c: tuple) -> bool:
    """``elements_equal`` on component tuples of one carrier."""
    return all(abs(p - q) <= TOL for p, q in zip(a, c))


def _tie_candidates(fold: _Fold, perms: PermutationSet):
    """``(sigma, value)`` for admissible permutations reaching every distinct
    value, by a walk over the states of each tie group in ``first()`` order.
    A state (the inputs placed so far) fixes the tail weights ahead, so it
    keeps one prefix per distinct partial sum. The first time a state holds
    two, both are completed in ``first()`` order and yielded at once with
    their folds (the addition may still merge them); at the end, one prefix
    per distinct full value with the walk's sum, which is ``fold(prefix)``
    bit for bit: the same terms, tail weights and order of additions."""
    comps, term, plus, zero = fold.comps, fold.term, fold.plus, fold.zero
    first, full = perms.first(), (1 << len(comps)) - 1
    values = (0.0,) + fold.values[1:]  # the empty tail weighs 0, as in tail_values
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
                        prev = comps[prefix[-1]] if prefix else zero
                        t = term(comps[j], prev, b1, b2)
                        acc = t if acc is None else plus(acc, t)
                        if not any(_close(acc, other) for _, other in kept):
                            kept.append((prefix + (j,), acc))
                            if len(kept) == 2 and not split:
                                split = True
                                for p, _ in kept:
                                    sigma = p + tuple(i for i in first if i not in p)
                                    yield sigma, fold(sigma)
            states = reached
    yield from states[full]


def _strict_chain(comps, order: AdmissibleOrder) -> Optional[list[int]]:
    """The indices of the component tuples ``comps`` in increasing order
    when every two tuples' leads lie more than ``TOL`` apart, else None.
    Float subtraction is monotone, so adjacent gaps above ``TOL`` put every
    pair that far apart, and then ``compare`` follows the leads: the chain
    is the one admissible permutation. A NaN gap (inf - inf) is not above
    ``TOL``."""
    keys = list(map(order.lead, comps))
    chain = sorted(range(len(keys)), key=keys.__getitem__)
    for low, high in zip(chain, chain[1:]):
        if not keys[high] - keys[low] > TOL:
            return None
    return chain


def _certified(inp: AggregationInput, kernel: KernelL, comps: list, groups) -> bool:
    """The four conditions of ``choquet_aggregate`` under which the
    kernel's family settles the row's consistency."""
    return (kernel.tie_invariant and inp.mu.exact
            and inp.addop is addition_for(inp.X[0].kind)
            and all(max(comps[g[0]]) <= 1.0 and all(comps[i] == comps[g[0]] for i in g)
                    for g in groups if len(g) > 1))


def choquet_aggregate(inp: AggregationInput, kernel: KernelL) -> AggregateResult:
    """Evaluate along the first admissible permutation and decide exactly
    whether every admissible permutation gives that value. A row that
    ``_strict_chain`` orders has one admissible permutation and is folded
    once. Every other row takes ``PermutationSet``; a tie group of more
    than ``MAX_TIE_GROUP`` inputs raises ``TooManyTies``.

    Such a row is certified consistent, with ``checked`` 1, when (1) the
    kernel is ``tie_invariant``, (2) the addition is ``addition_for(kind)``,
    (3) the capacity is ``exact`` and (4) each tie group's members have
    identical component tuples in [0, 1]. Then no term is snapped, clamped
    or refused, the weights b_s and b_{e+1} around a group of k inputs x
    are the same in every order, and the group's terms add up alike, up
    to rounding: ``delta-scale`` with ``difference`` or ``abs-diff``
    telescopes to (b_s - b_{e+1}) * x; ``b-scale-d`` over a shipped
    dissimilarity adds b * d(x, x) = 0 inside the group and enters and
    leaves it alike; ``affine-F`` with shipped C and D whose bounds add up
    to at most 1 gives (b_s - b_{e+1}) * C(x) + k * D(x). Any other row
    compares the values that ``_tie_candidates`` yields with the first
    permutation's until one differs (a row without ties yields ``first``
    alone). Inconsistency is reported, never raised; the witness carries
    two permutations and their values. The value, bit for bit, is
    ``choquet_eval`` along the first permutation."""
    comps = [x.components for x in inp.X]
    chain = _strict_chain(comps, inp.order)
    if chain is not None:
        fold = _Fold(inp, kernel, comps)
        return AggregateResult(value=fold.make(fold(chain)), consistent=True,
                               permutations=1, checked=1)
    perms = PermutationSet(inp.X, inp.order)
    if max(map(len, perms.groups)) > MAX_TIE_GROUP:
        raise TooManyTies(f"a tie group has more than {MAX_TIE_GROUP} inputs")
    fold = _Fold(inp, kernel, comps)
    first = perms.first()
    base = fold(first)
    value = fold.make(base)
    if _certified(inp, kernel, comps, perms.groups):
        return AggregateResult(value=value, consistent=True,
                               permutations=perms.count, checked=1)
    witness = None
    checked = 0
    for checked, (sigma, v) in enumerate(_tie_candidates(fold, perms), 1):
        if not _close(v, base):
            witness = {"sigma_a": first, "value_a": value,
                       "sigma_b": sigma, "value_b": fold.make(v)}
            break
    return AggregateResult(value=value, consistent=witness is None,
                           permutations=perms.count, checked=checked,
                           witness=witness)


# ---------------------------------------------------------------------------
# Kernel catalog
# ---------------------------------------------------------------------------

# The shipped carrier functions of affine-F kernels, on component tuples,
# each with its bound: its largest output component on inputs in [0, 1].
_CARRIER_FNS: dict[str, tuple[Callable[[tuple], tuple], float]] = {
    "zero": (lambda c: (0.0,) * len(c), 0.0),
    "identity": (lambda c: c, 1.0),
    "upper": (lambda c: (max(c),) * len(c), 1.0),
    "lower": (lambda c: (min(c),) * len(c), 1.0),
}


def resolve_carrier_fn(spec) -> tuple[Callable[[tuple], tuple], float]:
    """A shipped carrier function, or ``scale:<t>`` (bound t), on component
    tuples, with its bound. t is checked here, once: clamped to [0, 1]
    within ``TOL`` of it, and refused with ``ScaleOutOfRange`` farther out."""
    if isinstance(spec, str) and spec.startswith("scale:"):
        t = unit_coefficient(float(spec.split(":", 1)[1]))
        return (lambda c: tuple([t * a for a in c])), t
    return lookup(_CARRIER_FNS, spec, "carrier function")


def delta_scale_kernel(delta: str, kind: str) -> KernelL:
    """Weight-difference kernel G(x, b1, b2) = delta(b1, b2) * x, for a
    shipped scalar dissimilarity ``delta``. With the plain difference this
    is the classical Choquet integrand lifted to the carrier; it and
    ``abs-diff`` telescope, so they are ``tie_invariant``."""
    delta_fn, mul = lookup(_DELTAS, delta, "scalar dissimilarity"), scale_for(kind).term

    def term(xc, pc, b1, b2):
        c = delta_fn(b1, b2)
        if not 0.0 <= c <= 1.0:
            c = unit_coefficient(c)
        return mul(c, xc)

    return _component_kernel(term, kind, f"delta-scale({delta})",
                             tie_invariant=delta_fn is delta_abs)


def f_difference_kernel(F: Callable[[Element, float], Element]) -> KernelL:
    """Kernel G(x, b1, b2) = F(x, b1 - b2) for b1 >= b2, named
    ``f-difference(custom)``; no JSON spec can carry F."""
    return KernelL(lambda x, prev, b1, b2: F(x, b1 - b2),
                   name="f-difference(custom)")


def b_scale_d_kernel(d: str, kind: str,
                     order: Optional[AdmissibleOrder] = None) -> KernelL:
    """Kernel G(x1, x2, b) = b * d(x1, x2): capacity-weighted dissimilarity
    to the previous input, for a dissimilarity spec string ``d`` resolved
    under ``order`` (see ``resolve_dissimilarity``). It is
    ``tie_invariant``: every shipped dissimilarity gives exactly 0 on
    equal tuples."""
    dis = resolve_dissimilarity(d, kind, order)
    dterm, mul_term = dis.term, scale_for(kind).term

    def term(xc, pc, b1, b2):
        t = dterm(xc, pc)
        if not 0.0 <= b1 <= 1.0:
            b1 = unit_coefficient(b1)
        return mul_term(b1, t)

    return _component_kernel(term, kind, f"b-scale-d({dis.name})", tie_invariant=True)


def affine_f_kernel(C: str, D: str, kind: str) -> KernelL:
    """Affine kernel F(x, a) = a*C(x) + D(x) componentwise, in the
    weight-difference form G(x, b1, b2) = F(x, b1 - b2), for shipped
    carrier functions C and D. Both are nondecreasing and a <= 1, so F
    reaches the sum of their bounds: a sum beyond 1 + ``SNAP`` raises
    ``KernelRangeError``, and one of at most 1 is ``tie_invariant``."""
    name = f"affine-F({C},{D})"
    (C_fn, c_C), (D_fn, c_D) = resolve_carrier_fn(C), resolve_carrier_fn(D)
    if c_C + c_D > 1.0 + SNAP:
        raise KernelRangeError(f"kernel {name!r} can leave the bounded carrier")

    def term(xc, pc, b1, b2):
        a = b1 - b2
        if not 0.0 <= a <= 1.0:
            a = unit_coefficient(a)
        return tuple([a * c + e for c, e in zip(C_fn(xc), D_fn(xc))])

    return _component_kernel(term, kind, name, tie_invariant=c_C + c_D <= 1.0)


def kernel_catalog(spec, kind: str, order: Optional[AdmissibleOrder] = None) -> KernelL:
    """Build a catalog kernel from a JSON-style spec.

    Families: ``{"family": "delta-scale", "delta": "difference"}``,
    ``{"family": "b-scale-d", "d": "abs-diff"}``,
    ``{"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"}``. A bare
    string ``s`` is shorthand for ``{"family": s}``. Any other family
    raises ``UnknownKernel``; a custom ``KernelL(fn, name)`` or
    ``f_difference_kernel(F)`` is passed to ``choquet_aggregate`` as is.
    """
    if isinstance(spec, str):
        spec = {"family": spec}
    if not isinstance(spec, dict):
        raise UnknownKernel(f"kernel spec must be a family name or an object, "
                            f"got {spec!r}")
    family = spec.get("family")
    if family == "delta-scale":
        refuse_unknown_keys(spec, ("family", "delta"), "delta-scale kernel")
        return delta_scale_kernel(spec.get("delta", "difference"), kind)
    if family == "b-scale-d":
        refuse_unknown_keys(spec, ("family", "d"), "b-scale-d kernel")
        return b_scale_d_kernel(spec.get("d", "abs-diff"), kind, order)
    if family == "affine-F":
        refuse_unknown_keys(spec, ("family", "C", "D"), "affine-F kernel")
        if "C" not in spec or "D" not in spec:
            raise BadParameter("affine-F needs carrier functions C and D")
        return affine_f_kernel(spec["C"], spec["D"], kind)
    raise UnknownKernel(f"unknown kernel family: {family!r}")


def classical_kernel(kind: str) -> KernelL:
    """The plain weight-difference kernel: the classical Choquet integrand."""
    return delta_scale_kernel("difference", kind)
