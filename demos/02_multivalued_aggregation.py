"""Aggregating intervals and vectors under admissible orders.

The natural orders on intervals and vectors are only partial; an
admissible order is a total refinement, which is what lets the operator
sort its inputs. Intervals use the (alpha, beta) endpoint-mix family,
vectors a lexicographic priority.
"""

from choquetlike import (
    AggregationInput, IV_PLUS, Interval, VV_PLUS, Vector, admissible_compare,
    capacity_family, capacity_from_table, choquet_aggregate, classical_kernel,
    kernel_catalog, parse_order, partial_leq,
)

# Two intervals the componentwise order cannot rank...
a, b = Interval(0.2, 0.9), Interval(0.5, 0.7)
print("componentwise comparable:", partial_leq(a, b) or partial_leq(b, a))

# ...but every (alpha, beta)-order can. Different parameters, different verdicts.
for spec in ("ab:0.5:1", "ab:0:1", "ab:1:0"):
    order = parse_order(spec)
    print(f"{spec:9s} says a vs b: {admissible_compare(order, a, b)}")

xu = parse_order("ab:0.5:1")  # the Xu-Yager order

# Interval-valued scores from two sensors, fused with a symmetric capacity.
X = (Interval(0.2, 0.4), Interval(0.5, 0.7))
mu = capacity_from_table(2, [((), 0), ((1,), 0.5), ((2,), 0.5), ((1, 2), 1)])
res = choquet_aggregate(AggregationInput(X, mu, xu, IV_PLUS),
                        classical_kernel("interval"))
print("interval fusion:", res.value.to_json(), "in unit range:", res.value.in_unit)

# Vector-valued data under a lexicographic priority (coordinate 2 first).
veclex = parse_order("veclex:2,1")
V = (Vector((0.9, 0.1)), Vector((0.2, 0.6)), Vector((0.4, 0.3)))
mu3 = capacity_family("cardinality", 3)
res = choquet_aggregate(AggregationInput(V, mu3, veclex, VV_PLUS),
                        classical_kernel("vector"))
print("vector fusion:", res.value.to_json())

# A previous-input-aware kernel: capacity-weighted dissimilarity steps.
# For scalar data this recovers the classical integral; on intervals it
# uses the order-projected distance.
kernel = kernel_catalog({"family": "b-scale-d", "d": "abs-diff"}, "interval", xu)
res = choquet_aggregate(AggregationInput(X, mu, xu, IV_PLUS), kernel)
print("dissimilarity-step fusion:", res.value.to_json())

# Kernels are declared by JSON-style specs, so configurations serialize.
affine = kernel_catalog({"family": "affine-F", "C": "scale:0.7", "D": "scale:0.1"},
                        "interval", xu)
res = choquet_aggregate(AggregationInput(X, mu, xu, IV_PLUS), affine)
print("affine-kernel fusion:", res.value.to_json())
