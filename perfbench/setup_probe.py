"""One set-up of a workload, timed in a fresh interpreter: import, instance
construction for every grid cell and one warm-up cell. Prints the seconds
taken. run.py starts this several times per run and reports the median as
setup_s; it passes the pinned BLAS thread count through the environment.

    python3 perfbench/setup_probe.py <workload>
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main(name):
    w = workloads.WORKLOADS[name]
    workloads.build_instances(w)
    row = workloads.call_cell(w, 0, w.learners[0], 0)
    if row.status != "ok":
        sys.exit(f"warm-up cell failed: {row.status}")
    print(repr(perf_counter() - T0))


if __name__ == "__main__":
    main(sys.argv[1])
