"""Classical Choquet aggregation of scalar data, step by step.

The operator folds kernel terms along a permutation that sorts the
inputs. With the plain weight-difference kernel it reproduces the
classical discrete Choquet integral exactly.
"""

from choquetlike import (
    AggregationInput, PLUS, PermutationSet, Scalar, ScalarUsual,
    capacity_family, capacity_from_table, choquet_aggregate, choquet_eval,
    classical_kernel, tail_values,
)

# Three criteria scores and a capacity expressing how much each coalition
# of criteria is worth. The cardinality capacity weighs coalitions by size.
scores = (Scalar(0.2), Scalar(0.5), Scalar(0.9))
mu = capacity_family("cardinality", 3)

order = ScalarUsual()
perms = list(PermutationSet(scores, order))
print("admissible permutations:", perms)          # unique: values are distinct

sigma = perms[0]
print("tail-set weights along sigma:", tail_values(mu, sigma))

inp = AggregationInput(scores, mu, order, PLUS)
kernel = classical_kernel("scalar")
value = choquet_eval(inp, kernel, sigma)
print("operator value:", value.value)              # 8/15 = 0.5333...

# The same number, written as the classic sorted sum:
#   0.2 * 1 + (0.5 - 0.2) * 2/3 + (0.9 - 0.5) * 1/3
print("textbook sum: ", 0.2 * 1 + 0.3 * (2 / 3) + 0.4 * (1 / 3))

# An importance-weighted capacity changes the verdict: criterion 3 dominates.
mu2 = capacity_from_table(3, [
    ((), 0.0), ((1,), 0.1), ((2,), 0.1), ((3,), 0.8),
    ((1, 2), 0.2), ((1, 3), 0.9), ((2, 3), 0.9), ((1, 2, 3), 1.0),
])
res = choquet_aggregate(AggregationInput(scores, mu2, order, PLUS), kernel)
print("criterion-3-heavy capacity:", res.value.value)

# Ties among inputs create several admissible permutations; a well-behaved
# kernel gives the same value for each, and the report says so.
tied = (Scalar(0.5), Scalar(0.5), Scalar(0.9))
res = choquet_aggregate(AggregationInput(tied, mu2, order, PLUS), kernel)
print(f"tied inputs: value={res.value.value:.6f} consistent={res.consistent} "
      f"permutations={res.permutations}")
