"""One set-up measurement in a fresh process.

    python3 perfbench/setup_probe.py WORKDIR SRC

Times ``import choquetlike`` (with its CLI module) and building the
workload's configuration from the generated files. Then runs the
calibration loop in the same process and prints the seconds and the loop
time.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

workdir, src = Path(sys.argv[1]), sys.argv[2]
sys.path.insert(0, src)
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benches  # noqa: E402

p = json.loads((workdir / "params.json").read_text(encoding="utf-8"))
t0 = perf_counter()
import choquetlike  # noqa: E402
import choquetlike.cli  # noqa: E402,F401

benches.build_config(choquetlike, workdir, p)
seconds = perf_counter() - t0
import calibrate  # noqa: E402

print(seconds, calibrate.loop_seconds())
