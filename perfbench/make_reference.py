"""Regenerate reference.json: the outcome of every pool input of every
workload (dataset digest; bc gap, or mm / re L1 distance to target, as
float.hex). Run from the root of a checkout at the commit whose outputs
are the reference:

    python3 perfbench/make_reference.py

Every workload is recomputed, and the file is written anew."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import BLAS_THREADS, BLAS_VARS, REFERENCE, git_commit  # noqa: E402

# The same BLAS threads as a run, pinned before numpy is first imported.
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import workloads  # noqa: E402


def entries(w):
    instances = workloads.build_instances(w)
    out = []
    with workloads.Capture() as cap:
        for idx in range(w.pool_size):
            per_cell = []
            for cell in range(len(w.cells)):
                entry = {}
                for learner in w.learners:
                    cap.reset()
                    row = workloads.call_cell(w, cell, learner, idx)
                    rec = workloads.outcome(w, instances, cell, learner, idx,
                                            row, cap)
                    if rec["status"] != "ok":
                        raise RuntimeError(
                            f"{w.name} cell {cell} {learner} pool {idx}: "
                            f"{rec['status']}")
                    if entry.setdefault("digest", rec["digest"]) \
                            != rec["digest"]:
                        raise RuntimeError("learners of a cell saw "
                                           "different datasets")
                    entry[learner] = rec["value"].hex()
                per_cell.append(entry)
            out.append(per_cell)
    return out


def main():
    doc = {"commit": git_commit(), "workloads": {}}
    for name, w in sorted(workloads.WORKLOADS.items()):
        doc["workloads"][name] = {"cells": [list(c) for c in w.cells],
                                  "entries": entries(w)}
        print(f"{name}: {w.pool_size} pool inputs", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
