"""Why interval-valued dissimilarity kernels resist aggregation.

For the capacity-weighted dissimilarity kernel, being an aggregation
function is exactly the telescoping identity

    d(x1, 0) + d(x2, x1) = d(x2, 0)    whenever x1 <= x2.

Scalar absolute difference telescopes. The width-based interval
construction (prescribing the alpha mix and a normalized width of the
output) does not, no matter the parameters: this demo finds a concrete
violating pair and inspects its anatomy.
"""

from choquetlike import (
    GridSpec, IV_PLUS, Interval, PLUS, ScalarUsual, add, AlphaBeta,
    check_telescoping, lambda_alpha, resolve_dissimilarity,
    takac_counterexample, takac_dissimilarity_fn,
)

xu = AlphaBeta(0.5, 1.0)

# Scalar absolute difference: telescopes on the whole grid.
d_scalar = resolve_dissimilarity("abs-diff", "scalar")
print("scalar abs-diff telescopes:",
      check_telescoping(d_scalar, PLUS, ScalarUsual(), GridSpec("scalar", 8)).verdict)

# So does the order-projected interval variant (constant-width outputs).
d_proj = resolve_dissimilarity("abs-diff", "interval", xu)
print("projected interval abs-diff telescopes:",
      check_telescoping(d_proj, IV_PLUS, xu, GridSpec("interval", 4)).verdict)

# The width-based construction: output's alpha mix comes from the inputs'
# mixes, output's normalized width from the inputs' widths.
d = takac_dissimilarity_fn(0.5, "max", "abs-diff")
x = Interval(0.25, 0.75)
print("normalized width of [0.25, 0.75]:", lambda_alpha(x, 0.5))
print("distance to the zero interval:", d(x, Interval(0, 0)).to_json())

# Search for a telescoping violation. On the [0, t] family the max/abs
# pairing happens to telescope exactly, so the search goes on over the
# full grid and finds a pair there. It returns a law report whose
# witness is a dict: the violating pair and its diagnostics.
report = takac_counterexample(0.5, 1.0, "max", "abs-diff", GridSpec("interval", 8))
print("\nsearch:", report.verdict, "after", report.checked, "pairs")
w = report.witness
print("witness pair: x1 =", w["x1"].to_json(), " x2 =", w["x2"].to_json())
print("d(x1, 0) + d(x2, x1) =", w["lhs"].to_json())
print("d(x2, 0)             =", w["rhs"].to_json())
print("alpha-mix images a1, a2, a12:", w["a1"], w["a2"], w["a12"])
print("width equation lhs vs rhs:", w["width_lhs"], "vs", w["width_rhs"])

# Replay the witness through public operations: the gap is genuine.
zero = Interval(0, 0)
lhs = add(IV_PLUS, d(w["x1"], zero), d(w["x2"], w["x1"]))
print("replayed gap:", max(abs(lhs.lower - w["rhs"].lower),
                           abs(lhs.upper - w["rhs"].upper)))
