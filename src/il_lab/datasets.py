"""Expert-demonstration datasets: seeded sampling, empirical occupancies
and the per-(t, s, a) sums behind them (cell_sums), deterministic
splitting, missing-mass accounting, and JSONL serialization. Datasets
record state-action pairs only; rewards are never observed."""

import json
from dataclasses import dataclass, fields

import numpy as np

from .mdp import OccupancyMeasures, check_json, exact_occupancy, \
    parse_json, rollout_batch
from .rng import mix64_array


@dataclass(frozen=True, eq=False)
class Dataset:
    """states/actions (n,H) integer arrays, copied and frozen, so that a
    Dataset never shares memory the caller can write to; provenance is an
    opaque (instance_id, policy_id, base_seed) triple carried through
    splits. The constructor, and so load_dataset, stores int64; the
    sampler's arrays are adopted in their narrow dtype (rollout_batch), and
    subsets and splits keep the dtype they gather from. Code that forms an
    index product such as s * A + a from them does so in a dtype that
    holds it."""

    states: np.ndarray
    actions: np.ndarray
    provenance: tuple = ("", "", 0)

    def __post_init__(self):
        self._freeze(np.array(self.states, dtype=np.int64),
                     np.array(self.actions, dtype=np.int64))

    @classmethod
    def _adopt(cls, states, actions, provenance):
        """A Dataset over fresh integer arrays that no one else can write
        to, such as rollout_batch's output: they are frozen in place, not
        copied, and keep their layout and dtype."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "provenance", provenance)
        ds._freeze(states, actions)
        return ds

    def _freeze(self, s, a):
        if s.ndim != 2 or s.shape != a.shape:
            raise ValueError("states/actions must be matching (n,H) arrays")
        if s.size and (s.min() < 0 or a.min() < 0):
            raise ValueError("negative indices")
        for name, arr in (("states", s), ("actions", a)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def n(self):
        return self.states.shape[0]

    @property
    def horizon(self):
        return self.states.shape[1]

    def subset(self, idx):
        """The trajectories idx selects. Fancy indexing makes fresh arrays
        and a basic slice views arrays already frozen, so they are adopted,
        not copied again."""
        return Dataset._adopt(self.states[idx], self.actions[idx],
                              self.provenance)


@dataclass(frozen=True)
class SplitConfig:
    """The D1/D2 split, and so the replay-estimation learner's config:
    frac1 in (0,1), |D1| = round-half-up(frac1 * n), and the seed of the
    permutation. Each field must have the JSON kind of its annotation
    (SPLIT_KINDS), checked by mdp.check_json as the config is built."""

    frac1: float = 0.5
    split_seed: int = 0

    def __post_init__(self):
        check_json(vars(self), SPLIT_KINDS, "replay-estimation config")
        if not 0.0 < self.frac1 < 1.0:
            raise ValueError("frac1 must lie strictly in (0,1)")


# Each SplitConfig field with the JSON kind of its annotation.
SPLIT_KINDS = {f.name: f.type for f in fields(SplitConfig)}


def sample_dataset(mdp, policy, n, seed, instance_id="", policy_id=""):
    """n rollouts with per-trajectory seeds hash(seed, i); deterministic.
    The dataset adopts rollout_batch's arrays, (n,H) views in F-order, in
    their narrow dtype."""
    if n < 1:
        raise ValueError("n must be positive")
    states, actions = rollout_batch(mdp, policy, n, seed)
    return Dataset._adopt(states, actions, (instance_id, policy_id, seed))


def empirical_occupancy(dataset, S, A):
    """d_t(s,a) = count(s,a at step t) / n; layers sum to 1 exactly."""
    if dataset.n == 0:
        raise ValueError("empty dataset")
    counts = cell_sums(dataset.states, dataset.actions, S, A)
    return OccupancyMeasures(counts / dataset.n, "empirical")


def cell_sums(states, actions, S, A, weights=None):
    """(H,S,A) sums over the steps of (n,H) states/actions that fall in each
    (t, s, a) cell: step counts, or the sums of an (n,H) weights array.
    Raises ValueError on a state index >= S or an action index >= A, which
    would land in another state's cells. One bincount per step over its
    (s, a) index, formed in the narrowest signed dtype that holds S * A and
    the indices (the rule of rollout_batch), so the weights of a cell add
    in increasing trajectory index, whatever the layout and the index
    dtype."""
    _check_index("state", states, S)
    _check_index("action", actions, A)
    H = states.shape[1]
    dtype = np.promote_types(np.min_scalar_type(-(S * A)), states.dtype)
    out = np.empty((H, S * A), np.int64 if weights is None else np.float64)
    for t in range(H):
        idx = np.multiply(states[:, t], A, dtype=dtype)
        idx += actions[:, t]
        out[t] = np.bincount(idx, None if weights is None else weights[:, t],
                             S * A)
    return out.reshape(H, S, A)


def _check_index(name, arr, size):
    """Raise ValueError, naming the largest index and its bound, unless
    every index in arr is below size (a Dataset holds no negative one)."""
    top = arr.max(initial=-1)
    if top >= size:
        raise ValueError(f"dataset {name} index {top} is outside the "
                         f"instance's {size} {name}s")


def check_dataset(dataset, mdp):
    """Raise ValueError unless the dataset fits the instance: the same
    horizon, and every state and action index inside its (S, A)."""
    if dataset.horizon != mdp.horizon:
        raise ValueError(f"dataset horizon {dataset.horizon} does not match "
                         f"the instance horizon {mdp.horizon}")
    _check_index("state", dataset.states, mdp.num_states)
    _check_index("action", dataset.actions, mdp.num_actions)


def split(dataset, cfg):
    """Disjoint (D1, D2) by a seeded permutation of trajectory indices: D1
    holds the n1 trajectories with the smallest keys mix64(split_seed, i),
    both halves in index order. i -> mix64(split_seed, i) is a bijection on
    64-bit integers, so the keys never tie and the n1-th smallest key,
    found by a partial sort, separates the halves. Each array is gathered
    once, step-major as the sampler lays it out, into one fresh buffer
    that the two halves view."""
    n = dataset.n
    n1 = int(cfg.frac1 * n + 0.5)
    if n1 < 1 or n - n1 < 1:
        raise ValueError(f"split of n={n} at frac1={cfg.frac1} degenerates")
    keys = mix64_array(cfg.split_seed, np.arange(n, dtype=np.uint64))
    first = keys <= np.partition(keys, n1 - 1)[n1 - 1]
    order = np.concatenate([np.flatnonzero(first), np.flatnonzero(~first)])
    states, actions = (np.take(arr.T, order, axis=1)
                       for arr in (dataset.states, dataset.actions))
    return tuple(Dataset._adopt(states[:, part].T, actions[:, part].T,
                                dataset.provenance)
                 for part in (slice(n1), slice(n1, n)))


def visited_table(dataset, S):
    """(H,S) boolean: state s seen at step t in the dataset; a state index
    >= S raises ValueError."""
    _check_index("state", dataset.states, S)
    vis = np.zeros((dataset.horizon, S), dtype=bool)
    vis[np.arange(dataset.horizon), dataset.states] = True
    return vis


def missing_mass(d1, mdp, expert):
    """Per-step expert-measure of states unvisited in d1: exact occupancies,
    not an estimate. Length-H array, entries in [0,1]."""
    mu = exact_occupancy(mdp, expert).d.sum(axis=2)
    vis = visited_table(d1, mdp.num_states)
    return np.where(vis, 0.0, mu).sum(axis=1)


# ---------------------------------------------------------------- JSONL io

def save_dataset(dataset, path):
    with open(path, "w") as fh:
        header = {"n": dataset.n, "H": dataset.horizon,
                  "provenance": list(dataset.provenance)}
        fh.write(json.dumps(header) + "\n")
        for i in range(dataset.n):
            pairs = np.stack([dataset.states[i], dataset.actions[i]], axis=1)
            fh.write(json.dumps(pairs.tolist()) + "\n")


# The keys of a dataset file's header line, as save_dataset writes them.
_HEADER_KINDS = {"n": int, "H": int, "provenance": list}


def load_dataset(path):
    with open(path) as fh:
        header = parse_json(fh.readline(), path)
        rows = [parse_json(line, path) for line in fh if line.strip()]
    check_json(header, _HEADER_KINDS, "dataset header", required=_HEADER_KINDS)
    n, H = header["n"], header["H"]
    if len(rows) != n:
        raise ValueError("trajectory count disagrees with header")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != H:
            raise ValueError(f"trajectory {i}: expected {H} (state, action) "
                             "pairs as the header says")
        if not all(isinstance(pair, list) and len(pair) == 2
                   and all(type(v) is int for v in pair) for pair in row):
            raise ValueError(f"trajectory {i}: every step must be an "
                             "integer (state, action) pair")
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), H, 2)
    return Dataset(arr[:, :, 0], arr[:, :, 1], tuple(header["provenance"]))
