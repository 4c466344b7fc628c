"""Constructors for the benchmark MDP families and their expert policies.

State/action index conventions:
  mm_lb: state 0 carries reward for t >= 1, state 1 is the rare initial
         state; action 0 is the expert action, action 1 the deviation.
  bc_lb: state S-1 is the absorbing zero-reward bad state; each good state
         has one good action whose index is derived from the construction
         seed (fixed indices would leak to index-biased learners).
  two_state_uniform / fan: action 0 is the expert ("green") action.

Every constructor builds each instance once: equal arguments of equal
types return the same frozen (mdp, expert), from a bounded cache, so
a grid's seeds share one instance per cell, and with it everything cached
on that instance by identity (draw tables, the match LP, the expert's
value)."""

from functools import lru_cache

import numpy as np

from .mdp import INSTANCE_CACHE, TabularMdp, deterministic_policy
from .rng import mix64


@lru_cache(maxsize=INSTANCE_CACHE, typed=True)
def make_mm_lb(H, n_exp):
    """2-state 2-action instance on which moment matching pays ~H/sqrt(N).
    rho = (1 - 1/sqrt(n_exp), 1/sqrt(n_exp)); at t=0 every (s,a) except
    (state 1, action 1) maps to Unif(S) and (1,1) self-loops; all later
    steps are absorbing; reward 1 at state 0 for t >= 1."""
    if H < 4:
        raise ValueError(f"mm-lb requires H >= 4, got {H}")
    if n_exp < 1:
        raise ValueError("n_exp must be positive")
    S = A = 2
    eps = 1.0 / np.sqrt(n_exp)
    rho = np.array([1.0 - eps, eps])
    P = np.zeros((H - 1, S, A, S))
    P[0, :, :, :] = 0.5
    P[0, 1, 1, :] = [0.0, 1.0]
    for t in range(1, H - 1):
        P[t, 0, :, 0] = 1.0
        P[t, 1, :, 1] = 1.0
    r = np.zeros((H, S, A))
    r[1:, 0, :] = 1.0
    mdp = TabularMdp(H, S, A, rho, P, r)
    return mdp, deterministic_policy(np.zeros((H, S), dtype=np.int64), A)


def geometric_reset(n_good, ratio=0.5):
    """Normalized ratio**i over good states. Heavy-tailed resets are what
    make the missing mass (and the BC gap) decay like 1/n; a uniform reset
    drives both to ~0 exponentially fast in n instead."""
    w = ratio ** np.arange(n_good, dtype=np.float64)
    return w / w.sum()


def make_bc_lb(num_states, H, num_actions=2, reset_dist=None, seed=0):
    """Absorbing-failure instance on which BC pays ~S H^2 / N. Good states
    0..S-2 each have one rewarded good action that resets into reset_dist
    over the good states; every other action falls into the bad state S-1
    forever. reset_dist defaults to uniform and is also the initial
    distribution. Expert value is exactly H. The cache keys reset_dist by
    its float64 shape and bytes; None stays its own key."""
    reset_key = None
    if reset_dist is not None:
        reset_dist = np.asarray(reset_dist, dtype=np.float64)
        reset_key = (reset_dist.shape, reset_dist.tobytes())
    return _bc_lb(num_states, H, num_actions, reset_key, seed)


@lru_cache(maxsize=INSTANCE_CACHE, typed=True)
def _bc_lb(num_states, H, num_actions, reset_key, seed):
    if num_states < 2 or num_actions < 2:
        raise ValueError("need at least 2 states and 2 actions")
    S, A = num_states, num_actions
    n_good = S - 1
    if reset_key is None:
        reset_dist = np.full(n_good, 1.0 / n_good)
    else:
        shape, data = reset_key
        reset_dist = np.frombuffer(data).reshape(shape)
    if reset_dist.shape != (n_good,) or (reset_dist < 0).any() \
            or abs(reset_dist.sum() - 1.0) > 1e-9:
        raise ValueError("reset_dist must be a probability vector over good states")
    good_action = np.array([mix64(seed, s) % A for s in range(n_good)])
    rho = np.zeros(S)
    rho[:n_good] = reset_dist
    P = np.zeros((H - 1, S, A, S)) if H > 1 else np.zeros((0, S, A, S))
    r = np.zeros((H, S, A))
    if H > 1:
        P[:, :, :, S - 1] = 1.0
        for s in range(n_good):
            P[:, s, good_action[s], :] = 0.0
            P[:, s, good_action[s], :n_good] = reset_dist
    r[:, np.arange(n_good), good_action[:]] = 1.0
    mdp = TabularMdp(H, S, A, rho, P, r)
    return mdp, deterministic_policy(np.tile(np.r_[good_action, 0], (H, 1)), A)


@lru_cache(maxsize=INSTANCE_CACHE, typed=True)
def make_two_state_uniform(H):
    """2-state vignette: action 0 mixes to Unif(S) from both states, action 1
    self-loops at state 1 (and aliases action 0 at state 0); reward 1 at
    state 0 for t >= 1. Expert plays action 0."""
    S = A = 2
    rho = np.array([0.5, 0.5])
    P = np.zeros((H - 1, S, A, S)) if H > 1 else np.zeros((0, S, A, S))
    if H > 1:
        P[:, :, 0, :] = 0.5
        P[:, 0, 1, :] = 0.5
        P[:, 1, 1, 1] = 1.0
    r = np.zeros((H, S, A))
    r[1:, 0, :] = 1.0
    mdp = TabularMdp(H, S, A, rho, P, r)
    return mdp, deterministic_policy(np.zeros((H, S), dtype=np.int64), A)


@lru_cache(maxsize=INSTANCE_CACHE, typed=True)
def make_fan(n, H):
    """n top-row states plus an absorbing sink. Action 0 ("green") mixes
    uniformly over the top row and pays 1; action 1 ("red") drops into the
    sink; the sink pays nothing. Initial distribution Unif(top row)."""
    if n < 2:
        raise ValueError("fan needs n >= 2 top states")
    S, A = n + 1, 2
    rho = np.zeros(S)
    rho[:n] = 1.0 / n
    P = np.zeros((H - 1, S, A, S)) if H > 1 else np.zeros((0, S, A, S))
    if H > 1:
        P[:, :n, 0, :n] = 1.0 / n
        P[:, :n, 1, n] = 1.0
        P[:, n, :, n] = 1.0
    r = np.zeros((H, S, A))
    r[:, :n, 0] = 1.0
    mdp = TabularMdp(H, S, A, rho, P, r)
    return mdp, deterministic_policy(np.zeros((H, S), dtype=np.int64), A)

