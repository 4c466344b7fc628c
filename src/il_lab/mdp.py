"""Finite-horizon tabular MDPs with exact occupancy/value computation and
seeded rollouts. Conventions: steps are 0-based t in [0, H); transitions[t]
maps step t to t+1 and exists only for t < H-1; probability rows live on the
last axis, must sum to 1 within 1e-9 (then get renormalized exactly), and
zero rows are rejected -- absorbing states need explicit self-loops. Every
float table the lab validates, here and in matching and learners, is
checked and copied read-only by table.
rollout_batch matches the scalar reference rollout (tests/oracles.py) bit
for bit: it absorbs each trajectory's hash prefix once, and it draws by
exact integer CDF thresholds instead of comparing floats, most draws as one
lookup in a row's guide table and the rest by counting the row's thresholds
(rng.categorical_rows). A step whose table is fixed (every row
deterministic, as in every expert) draws by lookup, and its stream is not
hashed: each step costs at most three absorb rounds, none for a fixed
stream. Its draw tables are built once per mdp and once per policy: both
are frozen, so they are cached by identity."""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import absorb, categorical_rows, draw_tables, mix64_array

ROW_TOL = 1e-9
VALUE_XCHECK_TOL = 1e-10
# Entries kept by every per-instance cache: the instances, their draw tables,
# match LPs and crash factors, and the experts' values. A grid cell builds one
# instance and reuses it for every seed. Criterion 5 touches 8 distinct
# instances, criterion 1 touches 4 and criterion 4 touches 2; no criterion
# builds more than 10 with one constructor (criterion 9's bc-lb sweep); the
# benchmark's three workloads touch 4, 1 and 2.
INSTANCE_CACHE = 16


def table(x, what, shape, hi=np.inf):
    """The one check of every float table the lab validates: returns a
    fresh read-only float64 copy of x. Raises ValueError naming what when
    its shape differs from shape (a None entry matches any length; the
    message gives both shapes) or when an entry is non-finite or outside
    [0, hi]."""
    x = np.array(x, dtype=np.float64)
    if x.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, x.shape)):
        raise ValueError(f"{what} must have shape "
                         f"{str(shape).replace('None', '*')}, got {x.shape}")
    if (not np.isfinite(x).all() or x.min(initial=0.0) < 0
            or x.max(initial=0.0) > hi):
        raise ValueError(f"{what} entries must be finite and lie in "
                         f"[0, {hi:g}]")
    x.flags.writeable = False
    return x


def _prob_rows(x, name, shape):
    """table(x, name, shape) with its rows along the last axis summing to
    1 +- ROW_TOL, renormalized: a fresh read-only copy."""
    x = table(x, name, shape)
    s = x.sum(axis=-1)
    if np.abs(s - 1.0).max(initial=0.0) > ROW_TOL:
        raise ValueError(f"{name}: row sums deviate from 1 by more than {ROW_TOL}")
    x = x / s[..., None]
    x.flags.writeable = False
    return x


@dataclass(frozen=True, eq=False)
class TabularMdp:
    """rho (S,), transitions (H-1,S,A,S), rewards (H,S,A) with r in [0,1]."""

    horizon: int
    num_states: int
    num_actions: int
    rho: np.ndarray
    transitions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        H, S, A = self.horizon, self.num_states, self.num_actions
        if H < 1 or S < 1 or A < 1:
            raise ValueError("horizon, num_states, num_actions must be positive")
        for name, arr in (
                ("rho", _prob_rows(self.rho, "rho", (S,))),
                ("transitions", _prob_rows(self.transitions, "transitions",
                                           (H - 1, S, A, S))),
                ("rewards", table(self.rewards, "rewards", (H, S, A), hi=1.0))):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class MarkovPolicy:
    """probs (H,S,A), each row a distribution over actions."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _prob_rows(self.probs, "policy",
                                                     (None, None, None)))


def deterministic_policy(actions, num_actions):
    """actions (H,S) integer table -> delta policy."""
    actions = np.asarray(actions)
    H, S = actions.shape
    p = np.zeros((H, S, num_actions))
    p[np.arange(H)[:, None], np.arange(S)[None, :], actions] = 1.0
    return MarkovPolicy(p)


_OCC_KINDS = ("exact", "empirical", "weighted")


@dataclass(frozen=True, eq=False)
class OccupancyMeasures:
    """Per-step state-action measures d (H,S,A). exact/empirical layers are
    probability measures; weighted layers may be subnormalized."""

    d: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in _OCC_KINDS:
            raise ValueError(f"kind must be one of {_OCC_KINDS}")
        d = table(self.d, "occupancies", (None, None, None))
        sums = d.sum(axis=(1, 2))
        if self.kind == "weighted":
            if sums.max() > 1 + ROW_TOL:
                raise ValueError("weighted layer sums exceed 1")
        elif np.abs(sums - 1.0).max() > ROW_TOL:
            raise ValueError(f"{self.kind} layers must sum to 1 within {ROW_TOL}")
        object.__setattr__(self, "d", d)


def _check_dims(mdp, policy):
    if policy.probs.shape != (mdp.horizon, mdp.num_states, mdp.num_actions):
        raise ValueError("mdp/policy dimension mismatch")


def rollout_batch(mdp, policy, n, seed):
    """n trajectories as (states, actions) arrays of shape (n,H), a pure
    function of the seed. Trajectory i draws on seed s_i = mix64(seed, i):
    the state arriving at step t (t = 0: the initial state) on stream
    hash(s_i, t, 0), the action at step t on hash(s_i, t, 1). The loop keeps
    (H, n) buffers and hashes incrementally: trajectory seeds are absorbed
    once per call, t once per step, and the stream tag last, so each step
    costs at most three absorb rounds; a step that hashes one stream only
    absorbs t and its tag straight into that stream's hash, and a stream
    whose table is fixed is not hashed, since no hash can change its
    draws. Draws come from the policy's draw tables and the mdp's arrival
    tables (_arrival_tables), each built once per object. The arrays are
    the buffers' F-order views, in the narrowest signed dtype that holds
    every state and action index, np.min_scalar_type(-max(S, A)), the rule
    of the tables' guides (int8 while max(S, A) <= 128): a caller forms an
    index product such as s * A + a in a wider dtype, as the loop widens
    each step's states to int64 once and uses them for the action draw and
    the row index."""
    _check_dims(mdp, policy)
    H, A = mdp.horizon, mdp.num_actions
    arrive = _arrival_tables(mdp)
    pi = _policy_tables(policy)
    prefix = np.zeros(n, np.uint64)
    tmp, step, h = (np.empty_like(prefix) for _ in range(3))
    absorb(prefix, mix64_array(seed, np.arange(n, dtype=np.uint64)), tmp)
    index = np.min_scalar_type(-max(mdp.num_states, A))
    states = np.empty((H, n), dtype=index)
    actions = np.empty((H, n), dtype=index)
    rows = np.zeros(n, dtype=np.int64)
    for t in range(H):
        hash_state = arrive[t][2] is None
        hash_action = pi[t][2] is None
        if hash_state and hash_action:
            np.copyto(step, prefix)
            absorb(step, t, tmp)
            base, head = step, ()
        else:
            base, head = prefix, (t,)
        if hash_state:
            _stream_hash(h, base, (*head, 0), tmp)
        states[t] = categorical_rows(arrive[t], rows, h)
        if hash_action:
            _stream_hash(h, base, (*head, 1), tmp)
        np.copyto(rows, states[t])  # the states, widened once per step
        actions[t] = categorical_rows(pi[t], rows, h)
        rows *= A
        rows += actions[t]
    return states.T, actions.T


def _stream_hash(h, base, suffix, tmp):
    """h = base's hash chain extended by the ints of suffix, in place."""
    np.copyto(h, base)
    for v in suffix:
        absorb(h, v, tmp)


@lru_cache(maxsize=INSTANCE_CACHE)
def _arrival_tables(mdp):
    """Draw tables for the state arriving at each step: row s*A + a of step
    t is P_{t-1}(.|s, a), and every row of step 0 holds rho (the first
    state is drawn from row 0)."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    arrivals = np.empty((H, S * A, S))
    arrivals[0] = mdp.rho
    arrivals[1:] = mdp.transitions.reshape(H - 1, S * A, S)
    return draw_tables(arrivals)


@lru_cache(maxsize=INSTANCE_CACHE)
def _policy_tables(policy):
    return draw_tables(policy.probs)


def exact_occupancy(mdp, policy):
    """Forward recursion d_{t+1}(s') = sum_{s,a} d_t(s,a) P_t(s'|s,a)."""
    _check_dims(mdp, policy)
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    d = np.empty((H, S, A))
    mu = mdp.rho
    for t in range(H):
        d[t] = mu[:, None] * policy.probs[t]
        if t + 1 < H:
            mu = np.einsum("sa,saz->z", d[t], mdp.transitions[t])
    return OccupancyMeasures(d, "exact")


def policy_value(mdp, policy):
    """J(pi) = sum_t d_t . r_t, cross-checked against backward Q-recursion
    within 1e-10 on every call."""
    occ = exact_occupancy(mdp, policy)
    forward = float(np.sum(occ.d * mdp.rewards))
    v = np.zeros(mdp.num_states)
    for t in range(mdp.horizon - 1, -1, -1):
        q = mdp.rewards[t].copy()
        if t + 1 < mdp.horizon:
            q += np.einsum("saz,z->sa", mdp.transitions[t], v)
        v = np.einsum("sa,sa->s", policy.probs[t], q)
    backward = float(mdp.rho @ v)
    if abs(forward - backward) > VALUE_XCHECK_TOL:
        raise RuntimeError(
            f"value cross-check failed: forward {forward!r} vs backward {backward!r}")
    return forward


def l1_layer_distance(p, q, t):
    """sum_{s,a} |p_t - q_t| (= 2 TV when both layers are probabilities)."""
    if p.d.shape != q.d.shape:
        raise ValueError("occupancy shape mismatch")
    if not 0 <= t < p.d.shape[0]:
        raise ValueError("step index out of range")
    return float(np.abs(p.d[t] - q.d[t]).sum())


# ---------------------------------------------------------------- JSON io

def mdp_to_json(mdp):
    return {
        "horizon": mdp.horizon,
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "rho": mdp.rho.tolist(),
        "transitions": mdp.transitions.tolist(),
        "rewards": mdp.rewards.tolist(),
    }


def show_value(value):
    """A value as a kind-check message shows it: a JSON value as its JSON
    text, anything else, such as a numpy scalar, as its str and its type,
    e.g. 3 (numpy.int64). Never raises."""
    kind = type(value)
    if kind in (type(None), bool, int, float, str, list, dict):
        try:
            return json.dumps(value)
        except (TypeError, ValueError, RecursionError):
            pass  # a non-JSON value inside, or a cycle
    module = "" if kind.__module__ == "builtins" else f"{kind.__module__}."
    try:
        text = str(value)
    except Exception:
        text = object.__repr__(value)
    return f"{text} ({module}{kind.__qualname__})"


def _nonempty_ints(items):
    return bool(items) and all(type(v) is int for v in items)


def _numbers(items):
    """Every entry of a nested array is a number; [] has none to check.
    Walks the nesting with a stack, so any depth the parser read is
    checked without recursion."""
    stack = [items]
    while stack:
        for v in stack.pop():
            if type(v) is list:
                stack.append(v)
            elif type(v) not in (int, float):
                return False
    return True


# The JSON kind a reader names for a key, by the Python type it stands for:
# how a message names it, the types json.load gives for it, and, for an
# array kind, the check its entries must pass. A bool is not an integer, an
# integer is a number, and a string may be null. An ndarray is an array of
# numbers, nested to any depth.
JSON_KINDS = {
    int: ("an integer", (int,), None),
    float: ("a number", (int, float), None),
    str: ("a string or null", (str, type(None)), None),
    dict: ("a JSON object", (dict,), None),
    list: ("an array", (list,), None),
    list[int]: ("a nonempty array of integers", (list,), _nonempty_ints),
    np.ndarray: ("an array of numbers", (list,), _numbers),
}


def check_json(doc, kinds, what, required=()):
    """The one check of every JSON config and file the lab reads; returns
    doc. doc must be an object that holds every key in required and no key
    outside kinds, and each value must have the JSON kind (a JSON_KINDS key)
    that kinds gives for its key; the values are checked in the order of
    kinds. A failure raises ValueError in one of four shapes:
    "<what> must be a JSON object, got <value>", "<what>: missing keys a, b",
    "unknown <what> keys: a, b" and "<what>: <key> must be <kind>, got
    <value>". An empty kinds takes the object with no keys, so a reader that
    pops what it reads can check that nothing is left over."""
    if type(doc) is not dict:
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{show_value(doc)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"{what}: missing keys {', '.join(missing)}")
    if not doc.keys() <= kinds.keys():
        raise ValueError(f"unknown {what} keys: "
                         + ", ".join(sorted(doc.keys() - kinds.keys())))
    for key, kind in kinds.items():
        if key in doc:
            value = doc[key]
            phrase, types, entries_ok = JSON_KINDS[kind]
            if type(value) not in types or (entries_ok
                                            and not entries_ok(value)):
                raise ValueError(f"{what}: {key} must be {phrase}, got "
                                 f"{show_value(value)}")
    return doc


# The keys of an instance file, as mdp_to_json writes them; all required.
_MDP_KINDS = {"horizon": int, "num_states": int, "num_actions": int,
              "rho": np.ndarray, "transitions": np.ndarray,
              "rewards": np.ndarray}


def mdp_from_json(doc):
    """The mdp of an instance file. Each array must be nested exactly as the
    header declares, rho (S,), transitions (H-1, S, A, S) and rewards
    (H, S, A); a single-step mdp's transitions may also be [], as
    mdp_to_json writes them. Any other nesting raises ValueError naming
    both shapes, since a flat or transposed table can hold valid rows."""
    check_json(doc, _MDP_KINDS, "instance", required=_MDP_KINDS)
    H, S, A = doc["horizon"], doc["num_states"], doc["num_actions"]
    if min(H, S, A) < 1:
        raise ValueError("instance: horizon, num_states and num_actions "
                         "must be positive")
    arrays = {}
    for key, shape in (("rho", (S,)), ("transitions", (H - 1, S, A, S)),
                       ("rewards", (H, S, A))):
        x = np.array(doc[key], dtype=np.float64)
        if x.shape != shape and not (key == "transitions" and H == 1
                                     and x.shape == (0,)):
            raise ValueError(f"instance: {key} must have shape {shape}, "
                             f"got {x.shape}")
        arrays[key] = x.reshape(shape)
    return TabularMdp(H, S, A, **arrays)


def policy_to_json(policy):
    H, S, A = policy.probs.shape
    return {"horizon": H, "num_states": S, "num_actions": A,
            "probs": policy.probs.tolist()}


# The keys of a policy file, as policy_to_json writes them; only probs is
# required, and each dimension given must be that of probs.
_POLICY_KINDS = {"horizon": int, "num_states": int, "num_actions": int,
                 "probs": np.ndarray}


def policy_from_json(doc):
    check_json(doc, _POLICY_KINDS, "policy", required=("probs",))
    policy = MarkovPolicy(doc["probs"])
    for key, size in zip(("horizon", "num_states", "num_actions"),
                         policy.probs.shape):
        if doc.get(key, size) != size:
            raise ValueError(f"policy: {key} is {doc[key]}, but probs has "
                             f"shape {policy.probs.shape}")
    return policy


def save_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def parse_json(text, source):
    """json.loads, with a syntax error, or a document nested too deep for
    the parser's recursion, rejected as a ValueError that names its source,
    such as the file it was read from."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{source}: {err}") from None


def load_json(path):
    with open(path) as fh:
        return parse_json(fh.read(), path)
