"""Workload definitions, input pools and output checks for the il-lab
benchmark.

A workload is a slice of the acceptance gate's own traffic: one instance
family, one or more learners and an (H, N) grid. A round runs every grid
cell once with every learner, in order, on one pool index; learners of a
round share the run seed, and so the dataset (the paired design of the
gate). Run seeds are mix64(pool_key, cell, idx) for idx in a committed
pool, so that every input a run can draw has a reference result in
reference.json; the workload seed given on the command line chooses which
pool indices a run visits and in what order."""

import hashlib
import random
from dataclasses import dataclass

import numpy as np

import il_lab.harness as harness
from il_lab.datasets import SplitConfig, empirical_occupancy, split
from il_lab.instances import geometric_reset, make_bc_lb, make_mm_lb
from il_lab.learners import (bc_train, hybrid_estimate, membership_tabular,
                             replay_exact)
from il_lab.mdp import exact_occupancy
from il_lab.rng import mix64

# Vertex-independent check on mm / re: the L1 distance from the learned
# policy's exact occupancy to its target is the LP optimum, the same at
# every optimal vertex.
L1_TOL = 1e-9

# harness.run_cell's re learner: frac1 0.5, split seed mix64(run_seed, 2),
# exact replay, lowest-index ties, D2 as the empirical side.
RE_FRAC1 = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    instance: dict
    learners: tuple
    cells: tuple
    pool_key: int
    pool_size: int

    def run_seed(self, cell, idx):
        return mix64(self.pool_key, cell, idx)

    def pool_order(self, seed):
        """The pool indices in the order a run with this workload seed
        visits them."""
        order = list(range(self.pool_size))
        random.Random(seed).shuffle(order)
        return order


WORKLOADS = {w.name: w for w in (
    # Criterion 1/5 shape: many tiny 80x128 LPs plus S=2 sampling at large
    # N, so per-call fixed costs in matching and simplex show here.
    Workload("mm-lb-paired", {"family": "mm-lb"}, ("mm", "re"),
             ((8, 256), (8, 1024), (8, 4096), (8, 16384)),
             pool_key=505, pool_size=512),
    # Criterion 5's mixture component: the 640x1024 LP, ~98% simplex.
    Workload("bc-lb-lp",
             {"family": "bc-lb", "states": 16, "actions": 2,
              "reset": "geometric", "ratio": 0.5, "construction_seed": 7},
             ("mm", "re"), ((8, 1024), (8, 4096)),
             pool_key=515, pool_size=32),
    # Criterion 4: cloning only, no LP; rollout sampling over wide CDF rows.
    Workload("bc-lb-clone",
             {"family": "bc-lb", "states": 20, "actions": 2,
              "reset": "geometric", "ratio": 0.5, "construction_seed": 0},
             ("bc",), ((8, 1024), (8, 16384), (16, 1024), (16, 16384)),
             pool_key=404, pool_size=512),
)}


def build_instances(w):
    """(mdp, expert) per grid cell, built with the public constructors."""
    inst = w.instance
    out = []
    for H, n in w.cells:
        if inst["family"] == "mm-lb":
            out.append(make_mm_lb(H, n))
        else:
            S = inst["states"]
            reset = geometric_reset(S - 1, inst["ratio"])
            out.append(make_bc_lb(S, H, inst["actions"], reset,
                                  inst["construction_seed"]))
    return out


class Capture:
    """Keeps the dataset and the learned policy of the last run_cell call
    by wrapping the bindings il_lab.harness calls them through. Use as a
    context manager; the bindings are restored on exit."""

    HOOKS = (("sample_dataset", "dataset"), ("bc_train", "policy"),
             ("mm_train", "policy"), ("re_train", "policy"))

    def __init__(self):
        self.dataset = self.policy = None
        self._saved = []

    def __enter__(self):
        for attr, slot in self.HOOKS:
            fn = getattr(harness, attr)
            self._saved.append((attr, fn))
            setattr(harness, attr, self._hook(fn, slot))
        return self

    def __exit__(self, *exc):
        for attr, fn in reversed(self._saved):
            setattr(harness, attr, fn)
        self._saved.clear()

    def _hook(self, fn, slot):
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            setattr(self, slot, out)
            return out
        return hooked

    def reset(self):
        self.dataset = self.policy = None


def call_cell(w, cell, learner, idx):
    """One timed unit of work: the public run_cell on a pool input."""
    H, n = w.cells[cell]
    return harness.run_cell(w.instance, {"id": learner}, H, n,
                            w.run_seed(cell, idx), seed_index=idx)


def dataset_digest(ds):
    h = hashlib.blake2b(digest_size=8)
    h.update(np.ascontiguousarray(ds.states, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(ds.actions, dtype="<i8").tobytes())
    return h.hexdigest()


def match_target(learner, mdp, dataset, run_seed):
    """The measure mm / re match, recomputed from the dataset with the
    public pipeline pieces (no LP)."""
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    if learner == "mm":
        return empirical_occupancy(dataset, S, A).d
    d1, d2 = split(dataset, SplitConfig(RE_FRAC1, mix64(run_seed, 2)))
    oracle = membership_tabular(d1, S, H)
    replay = replay_exact(mdp, bc_train(d1, S, A, H), oracle)
    return hybrid_estimate(replay, d2, oracle).g


def outcome(w, instances, cell, learner, idx, row, cap):
    """What the reference pins for one run_cell call: status, dataset
    digest, and the bc gap or the mm / re L1 distance to target."""
    rec = {"status": row.status, "digest": None, "value": float("nan")}
    if cap.dataset is not None:
        rec["digest"] = dataset_digest(cap.dataset)
    if row.status != "ok":
        return rec
    if learner == "bc":
        rec["value"] = row.gap
    else:
        mdp, _ = instances[cell]
        g = match_target(learner, mdp, cap.dataset, w.run_seed(cell, idx))
        rec["value"] = float(np.abs(exact_occupancy(mdp, cap.policy).d
                                    - g).sum())
    return rec


def mismatches(rec, ref, learner):
    """Differences between one outcome and its reference entry (the
    reference entry holds "digest" and the learner's value as float.hex)."""
    out = []
    if rec["status"] != "ok":
        out.append(f"status {rec['status']}")
    if rec["digest"] != ref["digest"]:
        out.append(f"dataset digest {rec['digest']} != {ref['digest']}")
    want = float.fromhex(ref[learner])
    got = rec["value"]
    if learner == "bc":
        if got != want:
            out.append(f"bc gap {got!r} != {want!r}")
    elif not abs(got - want) <= L1_TOL:
        out.append(f"{learner} L1 to target {got!r} vs {want!r} "
                   f"(tol {L1_TOL:g})")
    return out
