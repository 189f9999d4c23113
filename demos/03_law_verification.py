"""Deciding operator properties by exhaustive grid enumeration.

Whether the operator is permutation-invariant (well defined), monotone,
or a genuine aggregation function depends only on structural conditions
on its kernel. Each condition is executable: enumerate a grid, report
pass or a replayable counterexample. A brute-force sweep over all input
tuples and a capacity battery cross-checks every verdict.
"""

from choquetlike import (
    GridSpec, KernelL, PLUS, Scalar, ScalarUsual, check_aggregation,
    check_cancellation, check_delta_decomposition, check_monotonicity,
    check_wd, classical_kernel, kernel_catalog, oracle_crosscheck,
    MIN_OP,
)

order = ScalarUsual()
grid = GridSpec("scalar", 4, n=3)

# The algebra underneath must cancel, or permutation-invariance cannot
# even be characterized; the componentwise sum qualifies, min does not.
print("plus cancels:", check_cancellation(PLUS, grid).verdict)
print("min cancels: ", check_cancellation(MIN_OP, grid).verdict)

# The classical kernel passes everything.
kernel = classical_kernel("scalar")
for name, check in (("well-defined", check_wd),
                    ("monotone", check_monotonicity),
                    ("aggregation", check_aggregation)):
    print(f"weight-difference kernel {name}:",
          check(kernel, PLUS, order, 3, grid).verdict)

# A kernel that consults only the first weight is order-sensitive: the
# check fails and hands back the witness.
first_weight = KernelL(lambda x, prev, b1, b2: Scalar(b1 * x.value), "first-weight")
report = check_wd(first_weight, PLUS, order, 2, grid)
print("first-weight kernel well-defined:", report.verdict)
print("  witness:", {k: getattr(v, "value", v) for k, v in report.witness.items()})

# Squared weight differences break the decomposition criterion, and with
# it the aggregation property.
print("squared-delta decomposition:",
      check_delta_decomposition("sq-diff", grid).verdict)
sq = kernel_catalog({"family": "delta-scale", "delta": "sq-diff"}, "scalar")
print("squared-delta aggregation:",
      check_aggregation(sq, PLUS, order, 3, grid).verdict)

# Condition-level verdicts agree with direct enumeration over every grid
# tuple, every admissible permutation, and a battery of capacities.
for k in (kernel, first_weight):
    report = oracle_crosscheck(k, PLUS, order, 2, grid)
    print(f"crosscheck [{k.name}]:", report.detail["verdicts"])
