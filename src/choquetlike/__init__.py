"""Choquet-like aggregation of multivalued data under admissible orders.

The package provides three carriers (scalars, intervals, vectors), total
orders refining their natural partial orders, capacities, a kernel-driven
Choquet-like operator, dissimilarity functions, and grid-enumeration
checks of the algebraic laws characterizing when the operator is well
defined, monotone, or an aggregation function.
"""

from .algebra import (
    BOUNDED_SUM, IV_PLUS, IV_SCALE, MIN_OP, PLUS, TIMES, VV_PLUS, VV_SCALE,
    AdditionOp, add, addition_for, check_associativity, check_c1,
    check_cancellation, check_commutativity, check_compatibility,
    check_distributivity, scale, scale_for,
)
from .capacity import Capacity, capacity_family, capacity_from_table, tail_values
from .datasets import load_dataset, parse_dataset
from .dissimilarity import (
    DissimilarityFn, check_dissimilarity, check_telescoping, lambda_alpha,
    resolve_dissimilarity, takac_counterexample, takac_dissimilarity_fn,
)
from .errors import (
    AlphaOutOfRange, BadBoundary, BadParameter, ChoquetlikeError,
    DatasetFormatError, HypothesisViolated, KernelRangeError, KindMismatch,
    MissingSubset, NotAdmissiblePermutation, NotMonotone,
    OracleDisagreement, ReconstructionOutOfK, ScaleOutOfRange, TooManyTies,
    UnknownKernel,
)
from .operator import (
    AggregationInput, KernelL, PermutationSet, affine_f_kernel, b_scale_d_kernel,
    choquet_aggregate, choquet_eval, classical_kernel, delta_scale_kernel,
    f_difference_kernel, kernel_catalog,
)
from .order import (
    INTERVAL, SCALAR, TOL, VECTOR, AdmissibleOrder, AlphaBeta, Element,
    GridSpec, Interval, Scalar, ScalarUsual, Vector, VectorLex, check_admissibility,
    element_from_json, elements_equal, grid_elements, k_alpha, parse_order,
    partial_leq, unit_grid, zero_element,
)
from .reporting import LawReport
from .verifier import (
    brute_force_monotonicity, brute_force_wd, capacity_battery,
    check_aggregation, check_delta_decomposition, check_jensen_f,
    check_monotonicity, check_wd, oracle_crosscheck,
)

__version__ = "0.1.0"
