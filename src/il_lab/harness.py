"""Seed sweeps over (instance, learner, H, N) grids, event probes for the
moment-matching lower-bound construction, log-log slope fits, and CSV
emission. Gaps are always exact DP values J(expert) - J(learned); rollout
noise never enters a reported gap. Per-run seed = hash(base, cell, seed_idx),
so runs are order-independent and mixtures pair with single-instance runs."""

import csv
import io
import math
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .datasets import Dataset, sample_dataset
from .instances import (MixtureSampler, make_bc_lb, make_fan, make_mm_lb,
                        make_two_state_uniform, geometric_reset)
from .learners import ReConfig, bc_train, mm_train, re_train
from .mdp import policy_value, rollout_batch
from .rng import mix64

CSV_COLUMNS = ["instance", "learner", "H", "S", "A", "n_exp", "seed", "gap",
               "status", "component", "wall_time_ms"]

DEFAULT_E3_COEFF = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    """instance: {"family": ..., params...}; learner: {"id": bc|mm|re,
    params...}; grid: {"H": [...], "n_exp": [...]}; seeds: {"count", "base"}."""

    instance: dict
    learner: dict
    grid: dict
    seeds: dict
    output: str = ""

    def __post_init__(self):
        if not self.grid.get("H") or not self.grid.get("n_exp"):
            raise ValueError("grid must carry nonempty H and n_exp lists")
        if self.seeds.get("count", 0) < 1:
            raise ValueError("need at least one seed")

    @classmethod
    def from_json(cls, doc):
        return cls(instance=doc["instance"], learner=doc["learner"],
                   grid=doc["grid"], seeds=doc["seeds"],
                   output=doc.get("output", ""))


@dataclass(frozen=True)
class ResultRow:
    instance: str
    learner: str
    H: int
    S: int
    A: int
    n_exp: int
    seed: int
    gap: float
    status: str
    component: str
    wall_time_ms: float = 0.0


def _reset_dist(kind, num_states, ratio):
    if kind in (None, "uniform"):
        return None
    if kind == "geometric":
        return geometric_reset(num_states - 1, ratio)
    raise ValueError(f"unknown reset kind {kind!r}")


def make_instance(inst_cfg, H, n_exp, draw_index):
    """Resolve one grid cell to (component_tag, mdp, expert)."""
    family = inst_cfg["family"]
    if family == "mm-lb":
        mdp, expert = make_mm_lb(H, n_exp)
        return family, mdp, expert
    if family == "bc-lb":
        S = inst_cfg.get("states", 20)
        reset = _reset_dist(inst_cfg.get("reset"), S, inst_cfg.get("ratio", 0.5))
        mdp, expert = make_bc_lb(S, H, inst_cfg.get("actions", 2), reset,
                                 inst_cfg.get("construction_seed", 0))
        return family, mdp, expert
    if family == "two-state":
        mdp, expert = make_two_state_uniform(H)
        return family, mdp, expert
    if family == "fan":
        mdp, expert = make_fan(inst_cfg.get("states", 4), H)
        return family, mdp, expert
    if family == "mixture":
        S = inst_cfg.get("states", 16)
        sampler = MixtureSampler(
            inst_cfg.get("mixture_seed", 0),
            mm_horizon=H, bc_states=S, bc_horizon=H,
            bc_actions=inst_cfg.get("actions", 2),
            bc_reset=_reset_dist(inst_cfg.get("reset"), S,
                                 inst_cfg.get("ratio", 0.5)),
            bc_seed=inst_cfg.get("construction_seed", 7))
        return sampler.draw(draw_index, n_exp)
    raise ValueError(f"unknown instance family {family!r}")


def _train(learner_cfg, dataset, mdp, run_seed):
    lid = learner_cfg["id"]
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    if lid == "bc":
        return bc_train(dataset, S, A, H, learner_cfg.get("tie_rule", "lowest"))
    if lid == "mm":
        return mm_train(dataset, mdp)
    if lid == "re":
        opts = {k: v for k, v in learner_cfg.items() if k != "id"}
        derived = sorted({"split_seed", "replay_seed"} & set(opts))
        if derived:
            raise ValueError(f"learner keys {', '.join(derived)} are derived "
                             "from the run seed")
        cfg = ReConfig.from_dict({**opts, "split_seed": mix64(run_seed, 2),
                                  "replay_seed": mix64(run_seed, 3)})
        return re_train(dataset, mdp, cfg)
    raise ValueError(f"unknown learner {lid!r}")


def run_cell(instance_cfg, learner_cfg, H, n_exp, run_seed, seed_index=0,
             draw_index=0):
    """One measurement. Dataset seed is hash(run_seed, 1), so the same
    run_seed yields the same dataset for every learner (paired designs)."""
    component, mdp, expert = make_instance(instance_cfg, H, n_exp, draw_index)
    dataset = sample_dataset(mdp, expert, n_exp, mix64(run_seed, 1),
                             instance_id=component, policy_id="expert")
    t0 = time.perf_counter()
    try:
        learned = _train(learner_cfg, dataset, mdp, run_seed)
        gap = policy_value(mdp, expert) - policy_value(mdp, learned)
        status = "ok"
    except RuntimeError:
        gap, status = float("nan"), "numeric-failure"
    ms = (time.perf_counter() - t0) * 1e3
    return ResultRow(instance_cfg["family"], learner_cfg["id"], H,
                     mdp.num_states, mdp.num_actions, n_exp, seed_index, gap,
                     status, component, ms)


def run_experiment(cfg):
    """One ResultRow per (grid cell, seed), ordered by (cell, seed). Failure
    rows are emitted with status "numeric-failure", never dropped."""
    rows = []
    base = cfg.seeds.get("base", 0)
    count = cfg.seeds["count"]
    cells = list(product(cfg.grid["H"], cfg.grid["n_exp"]))
    for ci, (H, n) in enumerate(cells):
        for si in range(count):
            rows.append(run_cell(cfg.instance, cfg.learner, H, n,
                                 mix64(base, ci, si), seed_index=si,
                                 draw_index=ci * count + si))
    return rows


def rows_to_csv(rows, path=None):
    """CSV with the fixed column set; bit-stable except wall_time_ms."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow([r.instance, r.learner, r.H, r.S, r.A, r.n_exp, r.seed,
                    repr(r.gap), r.status, r.component,
                    f"{r.wall_time_ms:.3f}"])
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_csv(path):
    with open(path) as fh:
        rdr = csv.DictReader(fh)
        rows = []
        for rec in rdr:
            rows.append(ResultRow(rec["instance"], rec["learner"],
                                  int(rec["H"]), int(rec["S"]), int(rec["A"]),
                                  int(rec["n_exp"]), int(rec["seed"]),
                                  float(rec["gap"]), rec["status"],
                                  rec["component"],
                                  float(rec["wall_time_ms"])))
    return rows


# ------------------------------------------------------------- event probe

def _dataset_events(states, n_exp, coeff):
    """Events on a batch of mm-lb expert datasets, states (D, n, H).
    E1: every state seen at every step. E2: at most sqrt(n_exp) trajectories
    start at state 1. E3: the common state distribution at steps t >= 1 is
    (1/2 - delta, 1/2 + delta) with delta >= coeff/sqrt(n_exp). Comparisons
    are on integer counts to keep boundaries exact."""
    D, n, H = states.shape
    root = math.sqrt(n_exp)
    e1 = np.ones(D, dtype=bool)
    for t in range(H):
        e1 &= (states[:, :, t] == 0).any(axis=1) & (states[:, :, t] == 1).any(axis=1)
    start1 = (states[:, :, 0] == 1).sum(axis=1)
    e2 = start1 <= root
    c0 = (states[:, :, 1] == 0).sum(axis=1)
    e3 = (n - 2 * c0) >= 2.0 * coeff * root
    return e1, e2, e3


def event_probe(n_exp, H, n_datasets, seed, coeff=DEFAULT_E3_COEFF,
                chunk=1000):
    """Empirical frequencies of E1, E2, E3 and their intersection over
    n_datasets independent mm-lb expert datasets of size n_exp."""
    if n_datasets < 100:
        raise ValueError("need at least 100 datasets")
    mdp, expert = make_mm_lb(H, n_exp)
    hits = np.zeros(4, dtype=np.int64)
    for lo in range(0, n_datasets, chunk):
        k = min(chunk, n_datasets - lo)
        states, _ = rollout_batch(mdp, expert, k * n_exp, mix64(seed, lo))
        states = states.reshape(k, n_exp, H)
        e1, e2, e3 = _dataset_events(states, n_exp, coeff)
        hits += [e1.sum(), e2.sum(), e3.sum(), (e1 & e2 & e3).sum()]
    freq = hits / n_datasets
    return {"n_datasets": n_datasets, "coeff": coeff,
            "p_e1": float(freq[0]), "p_e2": float(freq[1]),
            "p_e3": float(freq[2]), "p_all": float(freq[3]),
            "count_all": int(hits[3])}


def conditional_gap_check(n_exp, H, n_datasets, seed, coeff=DEFAULT_E3_COEFF,
                          tol=1e-9, chunk=1000):
    """On every dataset draw satisfying E1, E2, E3 the moment-matching gap
    must equal (H-1)/(2 sqrt(n_exp)) within tol. Reports "inconclusive" when
    no draw conditions, and "configuration-error" on invalid parameters."""
    try:
        mdp, expert = make_mm_lb(H, n_exp)
    except ValueError as err:
        return {"status": "configuration-error", "message": str(err)}
    expected = (H - 1) / (2.0 * math.sqrt(n_exp))
    je = policy_value(mdp, expert)
    checked, max_err = 0, 0.0
    for lo in range(0, n_datasets, chunk):
        k = min(chunk, n_datasets - lo)
        states, actions = rollout_batch(mdp, expert, k * n_exp, mix64(seed, lo))
        states = states.reshape(k, n_exp, H)
        actions = actions.reshape(k, n_exp, H)
        e1, e2, e3 = _dataset_events(states, n_exp, coeff)
        for i in np.flatnonzero(e1 & e2 & e3):
            ds = Dataset(states[i], actions[i])
            gap = je - policy_value(mdp, mm_train(ds, mdp))
            max_err = max(max_err, abs(gap - expected))
            checked += 1
    if checked == 0:
        return {"status": "inconclusive", "conditioning": 0, "checked": 0,
                "expected_gap": expected, "max_abs_err": 0.0}
    status = "pass" if max_err <= tol else "fail"
    return {"status": status, "conditioning": checked, "checked": checked,
            "expected_gap": expected, "max_abs_err": max_err}


# -------------------------------------------------------------- slope fits

def fit_slope(rows, where=None, x="n_exp"):
    """OLS slope of log(mean gap) on log(x) with stderr from residuals.
    Requires >= 3 grid points, each the mean of >= 100 ok rows."""
    groups = {}
    for r in rows:
        rec = r if isinstance(r, dict) else r.__dict__
        if rec["status"] != "ok":
            continue
        if where and any(str(rec.get(k)) != str(v) for k, v in where.items()):
            continue
        groups.setdefault(rec[x], []).append(rec["gap"])
    pts = sorted(groups.items())
    if len(pts) < 3:
        raise ValueError(f"need >= 3 grid points, have {len(pts)}")
    if min(len(v) for _, v in pts) < 100:
        raise ValueError("need >= 100 seeds per grid point")
    means = np.array([np.mean(v) for _, v in pts])
    if means.min() <= 0:
        raise ValueError("nonpositive mean gap; log-log fit undefined")
    lx = np.log(np.array([float(k) for k, _ in pts]))
    ly = np.log(means)
    X = np.stack([np.ones_like(lx), lx], axis=1)
    beta, *_ = np.linalg.lstsq(X, ly, rcond=None)
    resid = ly - X @ beta
    dof = max(len(pts) - 2, 1)
    s2 = float(resid @ resid) / dof
    sxx = float(((lx - lx.mean()) ** 2).sum())
    return float(beta[1]), math.sqrt(s2 / sxx)
