"""il-lab benchmark: closed-loop grid throughput on one workload.

    python3 perfbench/run.py --workload bc-lb-lp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
One client runs one cell after another in this process: rounds of the
workload's grid (every cell with every learner) on pool inputs chosen by
--seed, until --seconds have passed and the round in progress ends. Each
call to il_lab.harness.run_cell is timed from outside, and every output is
checked against reference.json. With --trace 0 the last stdout line carries
the end-to-end metrics; with --trace 1 each cell is run untraced and then
traced on the same input, and the line carries the per-layer metrics of the
traced calls. The line before it records the run and its environment. Exits
non-zero when an output is wrong or the program is missing."""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from tracing import PER_LAYER_UNITS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_DIR = os.path.join(HERE, "out")

# One BLAS thread: the simplex refactorizations are the only BLAS calls,
# and a single thread was both faster and steadier on the small LPs.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"cells_per_s": "1/s", "cell_ms_p50": "ms",
                    "cell_ms_p90": "ms", "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_reference(w):
    with open(REFERENCE) as fh:
        doc = json.load(fh)["workloads"][w.name]
    if doc["cells"] != [list(c) for c in w.cells] \
            or len(doc["entries"]) != w.pool_size:
        raise ValueError(f"reference for {w.name} does not match its pool")
    return doc["entries"]


def setup_probe(w):
    """Set-up time of the workload in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), w.name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    return float(res.stdout.split()[-1])


def measure(w, instances, ref, cap, seconds, order, tracer, probes):
    """Closed loop over whole rounds. Between rounds, `probes` set-up
    probes are spread evenly over the run, so that their median averages
    over the same stretch of time as the cells; their time is not counted
    in the --seconds. Returns untraced seconds per (cell, learner), summed
    traced seconds, counts, rounds, every output mismatch and the set-up
    seconds of each probe."""
    from workloads import call_cell, mismatches, outcome
    times = defaultdict(list)
    traced_s = 0.0
    attempted = failed = rounds = 0
    problems = []
    setup = []
    passes = (False, True) if tracer else (False,)
    start = perf_counter()
    stop = start + seconds
    while rounds == 0 or perf_counter() < stop:
        while len(setup) < probes and \
                perf_counter() - start >= len(setup) * seconds / probes:
            t0 = perf_counter()
            setup.append(setup_probe(w))
            paused = perf_counter() - t0
            start += paused
            stop += paused
        idx = order[rounds % len(order)]
        for cell in range(len(w.cells)):
            for learner in w.learners:
                for traced in passes:
                    cap.reset()
                    if traced:
                        tracer.cell = attempted
                        tracer.install()
                    t0 = perf_counter()
                    row = call_cell(w, cell, learner, idx)
                    dt = perf_counter() - t0
                    if traced:
                        tracer.remove()
                        traced_s += dt
                    else:
                        times[(cell, learner)].append(dt)
                    attempted += 1
                    failed += row.status != "ok"
                    rec = outcome(w, instances, cell, learner, idx, row, cap)
                    problems += [f"cell {w.cells[cell]} {learner} pool {idx}"
                                 f"{' traced' if traced else ''}: {msg}"
                                 for msg in mismatches(rec, ref[idx][cell],
                                                       learner)]
        rounds += 1
    while len(setup) < probes:
        setup.append(setup_probe(w))
    return times, traced_s, attempted, failed, rounds, problems, setup


def end_to_end(times, setup):
    import numpy as np
    per_type = [np.percentile(np.array(v) * 1e3, [50, 90])
                for v in times.values()]
    total = sum(sum(v) for v in times.values())
    n = sum(len(v) for v in times.values())
    return {
        "cells_per_s": n / total,
        "cell_ms_p50": float(np.mean([p[0] for p in per_type])),
        "cell_ms_p90": float(np.mean([p[1] for p in per_type])),
        "setup_s": statistics.median(setup),
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": BLAS_THREADS,
            "git_commit": git_commit()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "il_lab", "__init__.py")):
        print(f"perfbench: no program at {SRC}/il_lab; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    # Pin BLAS before numpy is first imported (by workloads, via il_lab).
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    ref = load_reference(w)

    instances = workloads.build_instances(w)
    order = w.pool_order(args.seed)
    tracer = Tracer() if args.trace else None
    with workloads.Capture() as cap:
        for learner in w.learners:
            workloads.call_cell(w, 0, learner, order[0])
        times, traced_s, attempted, failed, rounds, problems, setup = \
            measure(w, instances, ref, cap, args.seconds, order, tracer,
                    0 if tracer else SETUP_PROBES)

    untraced = [dt for v in times.values() for dt in v]
    info = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "attempted": attempted,
            "timed_cells": len(untraced),
            "samples_per_cell_type": min(len(v) for v in times.values()),
            "setup_probes_s": setup, "environment": environment()}
    if tracer:
        os.makedirs(TRACE_DIR, exist_ok=True)
        info["trace_file"] = os.path.relpath(
            os.path.join(TRACE_DIR, f"trace-{w.name}.json"), ROOT)
        tracer.write(os.path.join(ROOT, info["trace_file"]))
        values = tracer.metrics(len(untraced), sum(untraced), traced_s)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(times, setup)
        units = END_TO_END_UNITS
    for msg in problems[:20]:
        print(f"perfbench: wrong output: {msg}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
