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
kernel is defined once, by its ``term``, and ``KernelL.evaluate`` lifts
it to elements. Each term checks its own output, as ``evaluate`` checks
a custom kernel's. A term reads each input through the kernel's ``view``:
its component tuple (no view), or, for a ``b-scale-d`` kernel over a
shipped delta on a carrier of fixed width, the one float of the tuple
that the projected dissimilarity reads, its order's ``lead``; such a
kernel reads the least element's view once, when it is built. The two
functions defined on elements, a custom kernel and an addition without
``term``, reach the tuples through one lift, ``_on_components``.
``choquet_aggregate`` folds each row with one fold, ``_fold``, on the
inputs' views: it walks sigma, reads each tail weight from the capacity
table as it drops an input from the tail (the empty tail weighs 0.0),
and makes one element of the sum per row, by the kernel's ``make``.
Strict rows, the first permutation of a tied row and the tie walk's
candidates all take this fold.
``_eval_sorted`` folds on elements with the addition's ``fn`` and stays
the reference that ``choquet_eval`` and the brute-force oracles call.

A row whose inputs are pairwise strictly ordered has one admissible
permutation. ``choquet_aggregate`` reads each input's component tuple
and its lead under the input order once. It finds such rows from the
leads, by ``order.strict_chain``: when the sorted leads are more than
``TOL`` apart, ``compare`` follows them, so their sort is the one chain
``PermutationSet`` would build, and the row is folded once along it.
Every other row, tied or within ``TOL``, takes ``PermutationSet``,
which the oracles use too, and the tie walk, unless the kernel's family
settles the row (see ``choquet_aggregate``); a row without ties walks to
its one permutation. Either way, a kernel whose view is the input order's
lead folds on those same keys, and any other view is applied to the row
once.
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
    TooManyTies, UnknownKernel, lookup, refuse_unknown_keys, spec_numbers,
)
from .order import AdmissibleOrder, Element, carrier, close, strict_chain

MAX_TIE_GROUP = 16


@dataclass(frozen=True)
class KernelL:
    """Kernel of the operator, always called as ``fn(current, previous,
    b1, b2)``: the current input, the previous input of the chain (the
    least element before the first), and the two adjacent tail weights.
    A kernel may ignore any of them. An output not ``in_unit`` raises
    ``KernelRangeError``; none is snapped. ``evaluate`` also checks that
    the output lies on the carrier of the current input (same ``kind``
    and ``dim``) and raises ``KindMismatch`` otherwise, so a fold over
    kernel outputs needs no further carrier checks. A catalog kernel
    refuses a previous input off that carrier alike.

    A custom kernel, ``KernelL(fn, name)`` or ``f_difference_kernel(F)``,
    is ``fn`` alone. Only the catalog constructors set the other fields:
    ``view``, None or a function of a component tuple of carrier
    ``kind``; ``zero``, the view of the least element, computed when the
    kernel is built; ``make``, the carrier's constructor; ``term``, the
    kernel on the views of inputs of carrier ``kind``, the component
    tuples themselves when ``view`` is None, which checks its own output
    as above, of which ``fn`` is the lift that ``evaluate`` calls as is;
    ``tie_invariant``, the family's proof that the order inside a
    group of identical tied inputs does not change the operator (see
    ``choquet_aggregate``); and ``reads_previous``, False for a family
    whose term never reads the previous input, which lets the tie walk
    of ``choquet_aggregate`` key its states by the placed set alone.

    A ``b-scale-d`` kernel over a shipped delta, on a carrier of fixed
    width (every scalar and interval order, and a vector order of fixed
    ``dim``), has its order's ``lead`` as its view, the float through
    which its projected dissimilarity reads an input: its term is
    ``(b1 * delta(lead x, lead prev),) * width``. Every other catalog kernel
    (``delta-scale``, ``affine-F``, ``b-scale-d`` over ``takac:``) reads
    component tuples. A view that cannot read an input, the lead of a
    vector order of more coordinates, raises ``KindMismatch``.
    """

    fn: Callable[[Element, Element, float, float], Element]
    name: str
    term: Optional[Callable[[object, object, float, float], tuple]] = field(
        default=None, init=False)
    view: Optional[Callable[[tuple], object]] = field(default=None, init=False)
    zero: object = field(default=None, init=False)
    kind: Optional[str] = field(default=None, init=False)
    make: Optional[Callable[[tuple], Element]] = field(default=None, init=False)
    tie_invariant: bool = field(default=False, init=False)
    reads_previous: bool = field(default=True, init=False)

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
    """``x`` as it is when ``in_unit``, else refused; the element
    constructors refuse negative and NaN components."""
    if x.in_unit:
        return x
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


def _viewed(view, comps, name: str) -> list:
    """``view`` of each component tuple in ``comps``, for the kernel
    ``name``. A view that cannot read a tuple, the lead of a vector order
    of more coordinates than it has, raises ``KindMismatch``."""
    try:
        return list(map(view, comps))
    except IndexError:
        raise KindMismatch(f"kernel {name!r} cannot read inputs of dimension "
                           f"{len(comps[0])}") from None


def _kept(c: tuple, kind: str, name: str) -> tuple:
    """The output ``c`` of the catalog kernel ``name`` on carrier ``kind``
    when a component of it is not at most 1: kept as it is when it is
    ``in_unit``, else refused by ``_validate_unit``, or by the carrier's
    constructor for a value no element takes."""
    return _validate_unit(carrier(kind).make(c), name).components


def _component_kernel(term, kind: str, name: str, *, tie_invariant: bool,
                      reads_previous: bool, view=None, zero=None) -> KernelL:
    """The catalog kernel defined by ``term`` on carrier ``kind``: on
    component tuples, or with a ``view``, on each input's view, ``zero``
    being the view of the least element. ``term`` checks its own output:
    its components are nonnegative, and an interval's endpoints in order,
    by construction, so it is kept when its carrier's ``peak`` is at most
    1 and goes through ``_kept`` otherwise."""
    make, arity, *_ = carrier(kind)
    on_tuples = term
    if view is not None:
        def on_tuples(xc: tuple, pc: tuple, b1: float, b2: float) -> tuple:
            return term(*_viewed(view, (xc, pc), name), b1, b2)

    def fn(x: Element, prev: Element, b1: float, b2: float) -> Element:
        if x.kind != kind:
            raise KindMismatch(f"kernel {name!r} is defined on {kind} inputs, "
                               f"got {x!r}")
        xc, pc = x.components, prev.components
        # Two inputs of one kind differ in width only where no arity is fixed.
        if prev.kind != kind or not arity and len(pc) != len(xc):
            raise KindMismatch(f"kernel {name!r} got the previous input {prev!r} off "
                               f"the carrier of its input {x!r}")
        c = on_tuples(xc, pc, b1, b2)
        if len(c) != len(xc):
            raise KindMismatch(f"kernel {name!r} produced {c!r} off the carrier "
                               f"of its input {x!r}")
        return make(c)

    kernel = KernelL(fn, name)
    for attr, value in (("term", term), ("view", view), ("zero", zero), ("kind", kind),
                        ("make", make), ("tie_invariant", tie_invariant),
                        ("reads_previous", reads_previous)):
        object.__setattr__(kernel, attr, value)
    return kernel


@dataclass(frozen=True, slots=True, init=False)
class AggregationInput:
    """One aggregation instance: inputs, capacity, order, and addition.
    A tuple of inputs is kept as given, any other iterable made a tuple;
    the checks run in ``__init__`` (``init=False``), one frame per row.
    ``Dataset.inputs`` binds a dataset's later rows past them."""

    X: tuple[Element, ...]
    mu: Capacity
    order: AdmissibleOrder
    addop: AdditionOp

    def __init__(self, X, mu: Capacity, order: AdmissibleOrder, addop: AdditionOp):
        if type(X) is not tuple:
            X = tuple(X)
        if len(X) < 2:
            raise BadParameter("aggregation needs at least two inputs")
        kind, dim = X[0].kind, X[0].dim
        for x in X[1:]:
            if x.kind != kind or x.dim != dim:
                raise KindMismatch("all inputs must share carrier kind and dimension")
        if mu.n != len(X):
            raise BadParameter(f"capacity is on [{mu.n}] but there are "
                               f"{len(X)} inputs")
        if order.kind != kind:
            raise KindMismatch("order carrier does not match the inputs")
        if order.dim not in (None, dim):
            raise KindMismatch("vector dimension does not match the order")
        if addop.kind != kind:
            raise KindMismatch("addition carrier does not match the inputs")
        # Frozen, so the fields are set past ``__setattr__``, through the
        # slot descriptors bound below the class.
        _SET_X(self, X)
        _SET_MU(self, mu)
        _SET_ORDER(self, order)
        _SET_ADDOP(self, addop)


_SET_X = AggregationInput.X.__set__
_SET_MU = AggregationInput.mu.__set__
_SET_ORDER = AggregationInput.order.__set__
_SET_ADDOP = AggregationInput.addop.__set__


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

@dataclass(frozen=True, slots=True, init=False)
class AggregateResult:
    """Operator value plus the consistency report across admissible
    permutations. ``value`` always comes from the lexicographically first
    permutation so downstream tooling has a number to display;
    ``consistent`` is the authoritative flag, decided up to ``close``.
    ``checked`` counts the candidate permutations drawn; a row without
    ties has one, and so has a row that ``choquet_aggregate`` certifies.
    ``value.in_unit`` says whether the fold stayed in the bounded set."""

    value: Element
    consistent: bool
    permutations: int
    checked: int
    witness: Optional[dict] = None

    def __init__(self, value: Element, consistent: bool, permutations: int, checked: int,
                 witness: Optional[dict] = None):
        # Frozen, so the fields are set past ``__setattr__``, through the
        # slot descriptors bound below the class.
        _SET_VALUE(self, value)
        _SET_CONSISTENT(self, consistent)
        _SET_PERMUTATIONS(self, permutations)
        _SET_CHECKED(self, checked)
        _SET_WITNESS(self, witness)


_SET_VALUE = AggregateResult.value.__set__
_SET_CONSISTENT = AggregateResult.consistent.__set__
_SET_PERMUTATIONS = AggregateResult.permutations.__set__
_SET_CHECKED = AggregateResult.checked.__set__
_SET_WITNESS = AggregateResult.witness.__set__


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
    acc = evaluate(prev, carrier(prev.kind).make((0.0,) * prev.dim), b[0], b[1])
    for i in range(1, len(sigma)):
        x = X[sigma[i]]
        acc = plus(acc, evaluate(x, prev, b[i], b[i + 1]))
        prev = x
    if acc.kind != prev.kind or acc.dim != prev.dim:
        raise KindMismatch(f"addition {inp.addop.name!r} left the carrier of "
                           f"the inputs: {acc!r}")
    return acc


def _fold(views: list, sigma, zero, values, term, plus) -> tuple:
    """The operator along ``sigma`` on the views ``views`` of one row's
    inputs, ``zero`` that of the least element: ``term(x, prev, b1, b2)``
    for each input in turn, summed left to right by ``plus``. Each tail
    weight b_i = mu({sigma(i), ..., sigma(n)}) is read from the capacity
    table ``values`` as the walk drops sigma(i-1) from the tail; the empty
    tail weighs 0.0, as in ``tail_values``, and never ``values[0]``, which
    a table may store as -0.0."""
    tail = (1 << len(views)) - 1
    b1, prev, acc = values[tail], zero, None
    for j in sigma:
        tail ^= 1 << j
        b2 = values[tail] if tail else 0.0
        x = views[j]
        t = term(x, prev, b1, b2)
        acc = t if acc is None else plus(acc, t)
        prev, b1 = x, b2
    return acc


def _tie_candidates(views: list, perms: PermutationSet, zero, values, term, plus,
                    reads_previous: bool = True):
    """``(sigma, value)`` for admissible permutations reaching every distinct
    value, by a walk over the states of each tie group in ``first()`` order.
    A state is the set of inputs placed so far, which fixes the tail
    weights ahead, with the last input placed when the kernel
    ``reads_previous``, as its term reads that input; inputs with equal
    views count as one. Prefixes of one state continue alike,
    so the state keeps one per ``close`` partial sum. The first time a
    state holds two, both are completed in ``first()`` order and yielded
    at once with their ``_fold`` (the addition may still merge them);
    at the end, each full prefix kept that is neither of those two, with
    the walk's sum, which is ``_fold`` along the prefix bit for bit: the
    same terms, tail weights and order of additions. So no permutation is
    yielded twice. ``views`` and the arguments after ``perms`` are
    ``_fold``'s, then the kernel's ``reads_previous``."""
    first, full = perms.first(), (1 << len(views)) - 1
    same = {}  # each input's stand-in: the first input of an equal view
    last = [same.setdefault(v, j) if reads_previous else None for j, v in enumerate(views)]
    states = {(0, None): [((), None)]}  # (placed mask, last) -> [(prefix, sum)]
    split = ()  # the permutations yielded when a state first holds two
    for group in perms.groups:
        for _ in group:
            reached = {}
            for (mask, _), entries in states.items():
                b1 = values[full ^ mask]  # some input is still to place
                for j in (j for j in group if not mask >> j & 1):
                    rest = full ^ mask ^ 1 << j  # the tail after j: empty, it weighs 0
                    b2 = values[rest] if rest else 0.0
                    kept = reached.setdefault((mask | 1 << j, last[j]), [])
                    x = views[j]
                    for prefix, acc in entries:
                        t = term(x, views[prefix[-1]] if prefix else zero, b1, b2)
                        acc = t if acc is None else plus(acc, t)
                        if not any(close(acc, other) for _, other in kept):
                            kept.append((prefix + (j,), acc))
                            if len(kept) == 2 and not split:
                                split = [p + tuple(i for i in first if i not in p)
                                         for p, _ in kept]
                                for sigma in split:
                                    yield sigma, _fold(views, sigma, zero, values, term,
                                                       plus)
            states = reached
    yield from (entry for entries in states.values() for entry in entries
                if entry[0] not in split)


def _certified(inp: AggregationInput, kernel: KernelL, comps: list, groups) -> bool:
    """The three conditions of ``choquet_aggregate`` under which the
    kernel's family settles the row's consistency."""
    return (kernel.tie_invariant
            and inp.addop is addition_for(inp.X[0].kind)
            and all(max(comps[g[0]]) <= 1.0 and all(comps[i] == comps[g[0]] for i in g)
                    for g in groups if len(g) > 1))


def choquet_aggregate(inp: AggregationInput, kernel: KernelL) -> AggregateResult:
    """Evaluate along the first admissible permutation and decide whether
    every admissible permutation gives that value, up to ``close``. A row
    that ``strict_chain`` orders has one admissible permutation. Every other
    row takes ``PermutationSet``. Either way the row is folded once by
    ``_fold`` along its first admissible permutation.

    Such a row is certified consistent, with ``checked`` 1, when (1) the
    kernel is ``tie_invariant``, (2) the addition is ``addition_for(kind)``
    and (3) each tie group's members have identical component tuples in
    [0, 1]; every ``Capacity`` is exact. Then no term is refused, the
    weights b_s and b_{e+1} around a group of k inputs x are the same in
    every order, and the group's terms add up alike, up to rounding:
    ``delta-scale`` with ``difference`` or ``abs-diff`` telescopes to
    (b_s - b_{e+1}) * x; ``b-scale-d`` over a shipped dissimilarity adds
    b * d(x, x) = 0 inside the group and enters and leaves it alike; every
    ``affine-F`` gives (b_s - b_{e+1}) * C(x) + k * D(x). Any other row
    walks: a tie group of more than ``MAX_TIE_GROUP`` inputs raises
    ``TooManyTies``, which bounds the walk's states on a group of k
    inputs: one per placed set, and per last input too when the kernel
    ``reads_previous``. While each state's sums stay ``close``, that is
    k * 2^(k-1) terms, or k + k * (k-1) * 2^(k-2) when the kernel
    reads the previous input and the inputs' views are distinct (near ties
    within ``TOL``). Otherwise the values that ``_tie_candidates``
    yields are compared with the first permutation's until one differs
    (a row without ties yields ``first`` alone). The walk is exhaustive
    but keeps one prefix per ``close`` partial sum, and ``close`` is not
    transitive, so a near-tie row can pass though some value is not
    ``close`` to the first. Inconsistency is reported, never raised; the
    witness carries two permutations and their values. The value, bit
    for bit, is ``choquet_eval`` along the first permutation."""
    X, order = inp.X, inp.order
    comps = [x.components for x in X]
    keys = list(map(order.lead, comps))
    perms = None
    sigma = strict_chain(keys)
    if sigma is None:
        perms = PermutationSet(X, order)
        sigma = perms.first()
    kind, make, view = X[0].kind, kernel.make, kernel.view
    if kernel.kind != kind:
        if kernel.kind is not None:
            raise KindMismatch(f"kernel {kernel.name!r} is defined on "
                               f"{kernel.kind} inputs, got {X[0]!r}")
        make = carrier(kind).make  # a custom kernel
    if view is None:
        views, zero = comps, (0.0,) * len(comps[0])
    else:
        views = keys if view is order.lead else _viewed(view, comps, kernel.name)
        zero = kernel.zero
    # A custom kernel or an addition without a component form is lifted
    # from elements.
    term = kernel.term or _on_components(kernel.evaluate, kind, f"kernel {kernel.name!r}")
    plus = inp.addop.term or _on_components(inp.addop.fn, kind,
                                            f"addition {inp.addop.name!r}")
    values = inp.mu.values
    base = _fold(views, sigma, zero, values, term, plus)
    if len(base) != len(comps[0]):  # a vector kernel of another dimension
        raise KindMismatch(f"the fold left the carrier of the inputs: {base!r}")
    value = make(base)
    if perms is None:
        return AggregateResult(value, True, 1, 1)
    if _certified(inp, kernel, comps, perms.groups):
        return AggregateResult(value, True, perms.count, 1)
    if max(map(len, perms.groups)) > MAX_TIE_GROUP:
        raise TooManyTies(f"a tie group has more than {MAX_TIE_GROUP} inputs")
    witness = None
    checked = 0
    walk = _tie_candidates(views, perms, zero, values, term, plus, kernel.reads_previous)
    for checked, (other, v) in enumerate(walk, 1):
        if not close(v, base):
            witness = {"sigma_a": sigma, "value_a": value,
                       "sigma_b": other, "value_b": make(v)}
            break
    return AggregateResult(value, witness is None, perms.count, checked, witness)


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
    tuples, with its bound. t is checked here, once: taken exactly when it
    lies in [0, 1], and refused with ``ScaleOutOfRange`` otherwise; a t
    that is no number refuses the spec with ``BadParameter``."""
    if isinstance(spec, str) and spec.startswith("scale:"):
        t = unit_coefficient(*spec_numbers("carrier function", spec,
                                           [spec[len("scale:"):]], float))
        return (lambda c: tuple([t * a for a in c])), t
    return lookup(_CARRIER_FNS, spec, "carrier function")


def delta_scale_kernel(delta: str, kind: str) -> KernelL:
    """Weight-difference kernel G(x, b1, b2) = delta(b1, b2) * x, for a
    shipped scalar dissimilarity ``delta``. With the plain difference this
    is the classical Choquet integrand lifted to the carrier; it and
    ``abs-diff`` telescope, so they are ``tie_invariant``."""
    delta_fn, mul = lookup(_DELTAS, delta, "scalar dissimilarity"), scale_for(kind).term
    name, peak = f"delta-scale({delta})", carrier(kind).peak

    def term(xc, pc, b1, b2):
        c = delta_fn(b1, b2)
        if not 0.0 <= c <= 1.0:
            unit_coefficient(c)  # raises ScaleOutOfRange
        out = mul(c, xc)
        return out if peak(out) <= 1.0 else _kept(out, kind, name)

    return _component_kernel(term, kind, name, tie_invariant=delta_fn is delta_abs,
                             reads_previous=False)


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
    equal tuples. A projected d of fixed width reads each input through
    its lead, the kernel's view (see ``KernelL``), and the least element's
    view is its lead of ``width`` zeros, read once."""
    dis = resolve_dissimilarity(d, kind, order)
    name = f"b-scale-d({dis.name})"
    if dis.projection is not None and dis.projection[2] is not None:
        lead, delta, width = dis.projection

        def view_term(lx, lp, b1, b2):
            if not 0.0 <= b1 <= 1.0:
                unit_coefficient(b1)  # raises ScaleOutOfRange
            c = (b1 * delta(lx, lp),) * width
            return c if c[0] <= 1.0 else _kept(c, kind, name)

        return _component_kernel(view_term, kind, name, tie_invariant=True,
                                 reads_previous=True, view=lead,
                                 zero=lead((0.0,) * width))
    dterm, mul_term, peak = dis.term, scale_for(kind).term, carrier(kind).peak

    def term(xc, pc, b1, b2):
        t = dterm(xc, pc)
        if not 0.0 <= b1 <= 1.0:
            unit_coefficient(b1)  # raises ScaleOutOfRange
        out = mul_term(b1, t)
        return out if peak(out) <= 1.0 else _kept(out, kind, name)

    return _component_kernel(term, kind, name, tie_invariant=True, reads_previous=True)


def affine_f_kernel(C: str, D: str, kind: str) -> KernelL:
    """Affine kernel F(x, a) = a*C(x) + D(x) componentwise, in the
    weight-difference form G(x, b1, b2) = F(x, b1 - b2), for shipped
    carrier functions C and D. Both are nondecreasing and a <= 1, so F
    reaches the sum of their bounds: a sum above 1 raises
    ``KernelRangeError`` when the kernel is built, so every kernel built
    stays in the bounded carrier and is ``tie_invariant``."""
    name = f"affine-F({C},{D})"
    (C_fn, c_C), (D_fn, c_D) = resolve_carrier_fn(C), resolve_carrier_fn(D)
    if c_C + c_D > 1.0:
        raise KernelRangeError(f"kernel {name!r} can leave the bounded carrier")
    peak = carrier(kind).peak

    def term(xc, pc, b1, b2):
        a = b1 - b2
        if not 0.0 <= a <= 1.0:
            unit_coefficient(a)  # raises ScaleOutOfRange
        out = tuple([a * c + e for c, e in zip(C_fn(xc), D_fn(xc))])
        return out if peak(out) <= 1.0 else _kept(out, kind, name)

    return _component_kernel(term, kind, name, tie_invariant=True, reads_previous=False)


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
