"""The seeded near-tie search: how often the tie rule disagrees with enumeration.

    python3 tools/neartie.py

It draws 2,500 scalar rows from ``random.Random(2024)``. For each row, in
this order, it draws n in 3..6, two levels ``random() * 0.9``, each of the
n inputs as one of the two levels plus ``randint(0, 9) * 1e-13``, and the
seed of a ``uniform-random`` capacity, ``randrange(2 ** 32)``. Even rows
use ``b-scale-d(abs-diff)``, odd rows ``delta-scale(sq-diff)``; the
addition is ``plus`` and the order the usual one. Enumeration folds every
admissible permutation of the row with ``choquet_eval`` and calls the row
consistent when each value is ``close`` to the first's. The script prints
the number of rows whose ``consistent`` from ``choquet_aggregate`` differs
from that, and exits 0. It takes about 2 s on a 2-core Xeon.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from choquetlike import (  # noqa: E402 (the checkout's own package)
    PLUS, AggregationInput, PermutationSet, Scalar, ScalarUsual, b_scale_d_kernel,
    capacity_family, choquet_aggregate, choquet_eval, delta_scale_kernel,
)
from choquetlike.order import close  # noqa: E402

ROWS = 2500
SEED = 2024


def enumerated_consistent(inp, kernel) -> bool:
    values = [choquet_eval(inp, kernel, sigma).components
              for sigma in PermutationSet(inp.X, inp.order)]
    return all(close(v, values[0]) for v in values)


def main() -> int:
    order = ScalarUsual()
    kernels = (b_scale_d_kernel("abs-diff", "scalar"), delta_scale_kernel("sq-diff", "scalar"))
    rng = random.Random(SEED)
    differ = 0
    for row in range(ROWS):
        n = rng.randint(3, 6)
        levels = (rng.random() * 0.9, rng.random() * 0.9)
        X = tuple(Scalar(rng.choice(levels) + rng.randint(0, 9) * 1e-13) for _ in range(n))
        mu = capacity_family("uniform-random", n, seed=rng.randrange(2 ** 32))
        kernel = kernels[row % 2]
        inp = AggregationInput(X, mu, order, PLUS)
        differ += choquet_aggregate(inp, kernel).consistent != enumerated_consistent(inp, kernel)
    print(f"{differ} of {ROWS} rows: choquet_aggregate's consistent differs from enumeration")
    return 0


if __name__ == "__main__":
    sys.exit(main())
