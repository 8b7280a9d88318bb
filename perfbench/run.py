"""Benchmark of the tensorstep solvers.

Run from the repository root:

    python3 perfbench/run.py --workload itm-logistic --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the environment, and ``perfbench/out/`` keeps each
result with its environment and, for a traced run, its spans. The library is
imported from ``src/`` of the same checkout; without it the run exits with
code 2 and prints no result.
"""

import os
import sys

#: The BLAS thread count is pinned before numpy loads: with 2 threads on a
#: 2-core machine the run-to-run spread of solve time more than doubles.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tensorstep", "__init__.py")):
        print(f"perfbench: no tensorstep sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    return harness.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
