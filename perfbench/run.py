"""Seeded benchmark for chamberflow: one workload per fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 35 --trace 0

This entry point pins BLAS/OpenMP to one thread before numpy is imported,
checks that the checkout holds the chamberflow sources, puts them first on
the import path and hands over to harness.main. See harness.py for what a
run measures and prints.
"""

import os
import sys
import time

START = time.perf_counter()

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXIT_USAGE = 2


def bootstrap() -> None:
    for var in BLAS_ENV:
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "chamberflow", "__init__.py")):
        sys.stderr.write("perfbench: no chamberflow sources under src/ in this checkout\n")
        sys.exit(EXIT_USAGE)
    sys.path.insert(0, src)


if __name__ == "__main__":
    bootstrap()
    import harness

    sys.exit(harness.main(START, BLAS_ENV))
