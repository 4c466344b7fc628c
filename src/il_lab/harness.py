"""Seed sweeps over (instance, learner, H, N) grids, event probes for the
moment-matching lower-bound construction, log-log slope fits, and CSV
emission. Gaps are always exact DP values J(expert) - J(learned); rollout
noise never enters a reported gap. Per-run seed = hash(base, cell, seed_idx),
so runs are order-independent and mixtures pair with single-instance runs.

make_instance and train are the only places that read instance and learner
configs: every default lives there, and a key nothing reads is an error.
The CLI hands them an experiment's own instance and learner mappings.
Every config here, like every file the lab reads, is checked by one
function, mdp.check_json, against its own {key: JSON kind} map.

A grid cell's seeds share one instance: the constructors return the same
(mdp, expert) for equal arguments, and run_cell evaluates that expert once
(_expert_value), so per seed only sampling, training and the learned
policy's value are left."""

import csv
import io
import math
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import product

import numpy as np

from .datasets import SPLIT_KINDS, Dataset, SplitConfig, check_dataset, \
    sample_dataset
from .instances import (make_bc_lb, make_fan, make_mm_lb,
                        make_two_state_uniform, geometric_reset)
from .learners import bc_train, mm_train, re_train
from .mdp import INSTANCE_CACHE, check_json, policy_value, rollout_batch
from .rng import mix64

# E3's deviation coefficient: criteria 2 and 3 were frozen with this value.
E3_COEFF = 0.5
# Datasets rolled out per batch by the event probes, and the conditional
# gap check's tolerance.
_EVENT_CHUNK = 1000
_GAP_TOL = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """instance: {"family": ..., params...}; learner: {"id": bc|mm|re,
    params...}; grid: {"H": [...], "n_exp": [...]}; seeds: {"count", "base"}.
    Each is a JSON object, the grid's H and n_exp are nonempty arrays of
    integers and the seeds are integers, all checked by mdp.check_json as
    the config is built (_EXPERIMENT_KINDS, _GRID_KINDS, _SEEDS_KINDS)."""

    instance: dict
    learner: dict
    grid: dict
    seeds: dict

    def __post_init__(self):
        check_json(vars(self), _EXPERIMENT_KINDS, "experiment config")
        check_json(self.grid, _GRID_KINDS, "grid", required=_GRID_KINDS)
        check_json(self.seeds, _SEEDS_KINDS, "seeds", required=("count",))
        if self.seeds["count"] < 1:
            raise ValueError("need at least one seed")

    @classmethod
    def from_json(cls, doc):
        """The config of a JSON object with exactly the field names as keys;
        a missing or unknown key raises ValueError."""
        return cls(**check_json(doc, _EXPERIMENT_KINDS, "experiment config",
                                required=_EXPERIMENT_KINDS))


_EXPERIMENT_KINDS = {f.name: dict for f in fields(ExperimentConfig)}
_GRID_KINDS = {"H": list[int], "n_exp": list[int]}
_SEEDS_KINDS = {"count": int, "base": int}


@dataclass(frozen=True)
class ResultRow:
    """One CSV row; the fields, in order, are the CSV columns."""

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


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


# Every key an instance config may hold, whatever its family, in the order
# the kinds are checked.
_INSTANCE_KINDS = {"family": str, "states": int, "actions": int,
                   "construction_seed": int, "mixture_seed": int,
                   "reset": str, "ratio": float}


def _reset_dist(cfg, num_states):
    """The reset distribution of cfg's "reset" kind. Only the geometric
    reset reads "ratio"; with any other kind the key is left over."""
    kind = cfg.pop("reset", None)
    if kind in (None, "uniform"):
        return None
    if kind == "geometric":
        return geometric_reset(num_states - 1, cfg.pop("ratio", 0.5))
    raise ValueError(f"unknown reset kind {kind!r}")


def make_instance(inst_cfg, H, n_exp, draw_index):
    """Resolve one grid cell to (component_tag, mdp, expert). inst_cfg is
    a JSON object whose keys and their kinds (_INSTANCE_KINDS) mdp.check_json
    checks first. Each key is then taken out of a copy of inst_cfg as it is
    read, since which keys are read depends on the family and the reset;
    one left over raises ValueError naming it."""
    cfg = dict(check_json(inst_cfg, _INSTANCE_KINDS, "instance"))
    family = cfg.pop("family", None)
    if family == "mm-lb":
        out = (family, *make_mm_lb(H, n_exp))
    elif family == "bc-lb":
        S = cfg.pop("states", 20)
        out = (family, *make_bc_lb(S, H, cfg.pop("actions", 2),
                                   _reset_dist(cfg, S),
                                   cfg.pop("construction_seed", 0)))
    elif family == "two-state":
        out = (family, *make_two_state_uniform(H))
    elif family == "fan":
        out = (family, *make_fan(cfg.pop("states", 4), H))
    elif family == "mixture":
        # A fair coin per draw between mm-lb and this bc-lb; every key is
        # read whichever component is drawn.
        S = cfg.pop("states", 16)
        bc_args = (S, H, cfg.pop("actions", 2), _reset_dist(cfg, S),
                   cfg.pop("construction_seed", 7))
        if mix64(cfg.pop("mixture_seed", 0), draw_index) & 1 == 0:
            out = ("mm-lb", *make_mm_lb(H, n_exp))
        else:
            out = ("bc-lb", *make_bc_lb(*bc_args))
    else:
        raise ValueError(f"unknown instance family {family!r}")
    check_json(cfg, {}, f"{family} instance")
    return out


def train(learner, options, dataset, mdp):
    """The learner dispatch: bc and mm read no key, re reads the SplitConfig
    fields (frac1, split_seed). options must be a JSON object; a key the
    learner does not read, or a value of the wrong kind, raises ValueError
    naming it (mdp.check_json). Then the dataset must fit the instance
    (datasets.check_dataset)."""
    if learner == "bc":
        check_json(options, {}, "bc config")
        check_dataset(dataset, mdp)
        return bc_train(dataset, mdp.num_states, mdp.num_actions,
                        mdp.horizon)
    if learner == "mm":
        check_json(options, {}, "mm config")
        check_dataset(dataset, mdp)
        return mm_train(dataset, mdp)
    if learner == "re":
        try:
            cfg = SplitConfig(**options)  # checks the fields' kinds
        except TypeError:  # not an object, or a key SplitConfig lacks
            check_json(options, SPLIT_KINDS, "replay-estimation config")
            raise
        check_dataset(dataset, mdp)
        return re_train(dataset, mdp, cfg)
    raise ValueError(f"unknown learner {learner!r}")


def run_cell(instance_cfg, learner_cfg, H, n_exp, run_seed, seed_index=0,
             draw_index=0):
    """One measurement. Dataset seed is hash(run_seed, 1), so the same
    run_seed yields the same dataset for every learner (paired designs).
    The re learner's split seed is hash(run_seed, 2); the config may not
    set it."""
    component, mdp, expert = make_instance(instance_cfg, H, n_exp, draw_index)
    dataset = sample_dataset(mdp, expert, n_exp, mix64(run_seed, 1),
                             instance_id=component, policy_id="expert")
    lid = learner_cfg.get("id")
    opts = {k: v for k, v in learner_cfg.items() if k != "id"}
    if lid == "re":
        if "split_seed" in opts:
            raise ValueError("learner key split_seed is derived from the run "
                             "seed")
        opts["split_seed"] = mix64(run_seed, 2)
    t0 = time.perf_counter()
    try:
        learned = train(lid, opts, dataset, mdp)
        gap = _expert_value(mdp, expert) - policy_value(mdp, learned)
        status = "ok"
    except RuntimeError:
        gap, status = float("nan"), "numeric-failure"
    ms = (time.perf_counter() - t0) * 1e3
    return ResultRow(instance_cfg["family"], lid, H, mdp.num_states,
                     mdp.num_actions, n_exp, seed_index, gap, status,
                     component, ms)


@lru_cache(maxsize=INSTANCE_CACHE)
def _expert_value(mdp, expert):
    """policy_value of an instance's expert, one per cached instance, by
    the identity of the frozen pair: computed on the first seed of a cell,
    reused on the rest."""
    return policy_value(mdp, expert)


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
    """CSV with one column per ResultRow field; bit-stable except the
    *_ms timings, which are written to 3 decimals."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow([f"{v:.3f}" if k.endswith("_ms") else v
                    for k, v in vars(r).items()])
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_csv(path):
    """The rows of a rows_to_csv file; a missing column, a line with fewer
    or more fields than the header, or a field that its column's type (int,
    float or str, the ResultRow annotation) cannot read raises ValueError
    naming the file, the line and the column."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        found = reader.fieldnames or ()
        missing = [c for c in CSV_COLUMNS if c not in found]
        if missing:
            raise ValueError(f"{path}: missing columns {', '.join(missing)}")
        rows = []
        for rec in reader:
            # DictReader files missing fields as None values and extra
            # ones under the key None.
            if None in rec or None in rec.values():
                which = "more" if None in rec else "fewer"
                raise ValueError(f"{path}: line {reader.line_num} has {which} "
                                 "fields than the header")
            rows.append(ResultRow(**{f.name: _csv_field(f, rec, path,
                                                        reader.line_num)
                                     for f in fields(ResultRow)}))
        return rows


def _csv_field(field, rec, path, line):
    text = rec[field.name]
    try:
        return field.type(text)
    except ValueError:
        raise ValueError(f"{path}: line {line}: column {field.name} must be "
                         f"{field.type.__name__}, got {text!r}") from None


# ------------------------------------------------------------- event probe

def _dataset_events(states, n_exp):
    """Events on a batch of mm-lb expert datasets, states (D, n, H).
    E1: every state seen at every step. E2: at most sqrt(n_exp) trajectories
    start at state 1. E3: the common state distribution at steps t >= 1 is
    (1/2 - delta, 1/2 + delta) with delta >= E3_COEFF/sqrt(n_exp). Comparisons
    are on integer counts to keep boundaries exact."""
    D, n, H = states.shape
    root = math.sqrt(n_exp)
    e1 = np.ones(D, dtype=bool)
    for t in range(H):
        e1 &= (states[:, :, t] == 0).any(axis=1) & (states[:, :, t] == 1).any(axis=1)
    start1 = (states[:, :, 0] == 1).sum(axis=1)
    e2 = start1 <= root
    c0 = (states[:, :, 1] == 0).sum(axis=1)
    e3 = (n - 2 * c0) >= 2.0 * E3_COEFF * root
    return e1, e2, e3


def _event_draws(mdp, expert, n_exp, n_datasets, seed):
    """n_datasets expert datasets of size n_exp on the mm-lb instance mdp,
    rolled out _EVENT_CHUNK at a time; yields (states, actions, e1, e2, e3)
    per batch, states and actions shaped (k, n_exp, H). Fewer than 100
    datasets raise ValueError as the first batch is asked for."""
    if n_datasets < 100:
        raise ValueError("need at least 100 datasets")
    H = mdp.horizon
    for lo in range(0, n_datasets, _EVENT_CHUNK):
        k = min(_EVENT_CHUNK, n_datasets - lo)
        states, actions = rollout_batch(mdp, expert, k * n_exp, mix64(seed, lo))
        states = states.reshape(k, n_exp, H)
        yield (states, actions.reshape(k, n_exp, H),
               *_dataset_events(states, n_exp))


def event_probe(n_exp, H, n_datasets, seed):
    """Empirical frequencies of E1, E2, E3 and their intersection over
    n_datasets independent mm-lb expert datasets of size n_exp."""
    mdp, expert = make_mm_lb(H, n_exp)
    hits = np.zeros(4, dtype=np.int64)
    for _, _, e1, e2, e3 in _event_draws(mdp, expert, n_exp, n_datasets,
                                         seed):
        hits += [e1.sum(), e2.sum(), e3.sum(), (e1 & e2 & e3).sum()]
    freq = hits / n_datasets
    return {"n_datasets": n_datasets, "coeff": E3_COEFF,
            "p_e1": float(freq[0]), "p_e2": float(freq[1]),
            "p_e3": float(freq[2]), "p_all": float(freq[3]),
            "count_all": int(hits[3])}


def conditional_gap_check(n_exp, H, n_datasets, seed):
    """On every dataset draw satisfying E1, E2, E3 the moment-matching gap
    must equal (H-1)/(2 sqrt(n_exp)) within _GAP_TOL. Reports
    "inconclusive" when no draw conditions. Invalid parameters raise
    ValueError, as in event_probe."""
    mdp, expert = make_mm_lb(H, n_exp)
    expected = (H - 1) / (2.0 * math.sqrt(n_exp))
    je = policy_value(mdp, expert)
    checked, max_err = 0, 0.0
    for states, actions, e1, e2, e3 in _event_draws(mdp, expert, n_exp,
                                                    n_datasets, seed):
        for i in np.flatnonzero(e1 & e2 & e3):
            ds = Dataset(states[i], actions[i])
            gap = je - policy_value(mdp, mm_train(ds, mdp))
            max_err = max(max_err, abs(gap - expected))
            checked += 1
    status = ("inconclusive" if checked == 0
              else "pass" if max_err <= _GAP_TOL else "fail")
    return {"status": status, "conditioning": checked,
            "expected_gap": expected, "max_abs_err": max_err}


# -------------------------------------------------------------- slope fits

def fit_slope(rows, where=None, x="n_exp"):
    """OLS slope of log(mean gap) on log(x), by the centered closed form,
    with stderr from residuals.
    Requires >= 3 grid points, each the mean of >= 100 ok rows. where
    keeps the rows whose columns equal its values; a key that is not a
    ResultRow column raises ValueError."""
    unknown = sorted(set(where or ()) - set(CSV_COLUMNS))
    if unknown:
        raise ValueError(f"unknown filter columns: {', '.join(unknown)}")
    groups = {}
    for r in rows:
        if r.status != "ok":
            continue
        if where and any(str(getattr(r, k)) != str(v)
                         for k, v in where.items()):
            continue
        groups.setdefault(getattr(r, x), []).append(r.gap)
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
    cx, cy = lx - lx.mean(), ly - ly.mean()
    sxx = float((cx ** 2).sum())
    slope = float(cx @ cy) / sxx
    resid = cy - slope * cx
    dof = max(len(pts) - 2, 1)
    s2 = float(resid @ resid) / dof
    return slope, math.sqrt(s2 / sxx)
