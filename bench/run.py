"""Benchmark entry point for the `raft` feature-space search.

    python3 bench/run.py --workload tall_reg --seed 1 --seconds 30 --trace 0

Starts `bench/harness.py` in a fresh process, so that the process's peak
resident memory belongs to one workload, with BLAS and OpenMP limited to one
thread before numpy loads.  The worker's standard output is passed through;
its last line is the JSON result.  Exits non-zero, without a result line,
when the worker fails or runs out of time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: list[str]) -> int:
    harness = Path(__file__).resolve().with_name("harness.py")
    env = {**os.environ, **SINGLE_THREAD}
    try:
        done = subprocess.run([sys.executable, str(harness), *argv], env=env,
                              timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        print(f"benchmark worker exceeded {TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
