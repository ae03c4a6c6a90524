#!/usr/bin/env python3
"""Run one workload of the aeloc benchmark and print its result as the last line.

    python3 perfbench/run.py --workload paper-chain --seed 1 --seconds 15 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout; without it the script exits with code 2 and prints no result.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def main() -> int:
    cap_threads()
    src = ROOT / "src"
    if not (src / "aeloc" / "__init__.py").is_file():
        print(f"error: no aeloc sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
