"""Scalar reference implementations. The library's batch paths must match
them bit for bit: categorical is one inverse-CDF draw by float comparison,
rollout one trajectory drawn step by step on its own hashes, and
perturb_policy the rowwise mixture the instance tests build policies with.
bc_lb_expected_gap is an exact expectation that seed means are checked
against. Nothing in the library calls them."""

from dataclasses import dataclass

import numpy as np

from il_lab.mdp import MarkovPolicy
from il_lab.rng import mix64


def unit_double(h):
    """Hash -> float in [0,1), 53 mantissa bits."""
    return (int(h) >> 11) * 2.0**-53


def categorical(row, h):
    """Inverse-CDF draw from a probability row in stored order. The index is
    clamped to the last positive-probability entry so u ~ 1 roundoff never
    selects a zero-mass cell."""
    u = unit_double(h)
    cdf = np.cumsum(row)
    i = int(np.searchsorted(cdf, u, side="right"))
    last = int(np.flatnonzero(row > 0)[-1])
    return min(i, last)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One episode: states (H,), actions (H,). Rewards are never recorded."""

    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        s = np.array(self.states, dtype=np.int64)
        a = np.array(self.actions, dtype=np.int64)
        if s.shape != a.shape or s.ndim != 1 or s.size < 1:
            raise ValueError("states/actions must be equal-length 1-d arrays")
        if s.min() < 0 or a.min() < 0:
            raise ValueError("negative indices")
        for name, arr in (("states", s), ("actions", a)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def steps(self):
        return list(zip(self.states.tolist(), self.actions.tolist()))


def rollout(mdp, policy, seed):
    """One trajectory by ancestral sampling, a pure function of the seed.
    The state arriving at step t is drawn on stream hash(seed,t,0), the
    action at step t on hash(seed,t,1). Row i of rollout_batch(mdp, policy,
    n, seed) equals rollout(mdp, policy, mix64(seed, i))."""
    H = mdp.horizon
    if policy.probs.shape != (H, mdp.num_states, mdp.num_actions):
        raise ValueError("mdp/policy dimension mismatch")
    states = np.empty(H, dtype=np.int64)
    actions = np.empty(H, dtype=np.int64)
    s = categorical(mdp.rho, mix64(seed, 0, 0))
    for t in range(H):
        a = categorical(policy.probs[t, s], mix64(seed, t, 1))
        states[t], actions[t] = s, a
        if t + 1 < H:
            s = categorical(mdp.transitions[t, s, a], mix64(seed, t + 1, 0))
    return Trajectory(states, actions)


def perturb_policy(policy, gamma, deviation):
    """(1-gamma) policy + gamma deviation, rowwise; per-row TV to the base
    policy is at most gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0,1]")
    if policy.probs.shape != deviation.probs.shape:
        raise ValueError("policy/deviation dimension mismatch")
    return MarkovPolicy((1.0 - gamma) * policy.probs + gamma * deviation.probs)


def bc_lb_expected_gap(rho, num_actions, H, n):
    """Exact E[gap] of bc trained on n expert trajectories of a bc-lb
    instance with reset (and initial) distribution rho. Every expert step
    resets into rho, so the states at each step are i.i.d. rho across
    trajectories and independent across steps. bc plays the expert action
    on every seen (s, t) and the uniform row elsewhere, which falls into the
    bad state with probability c = 1 - 1/A. With M_t the mass of the states
    unseen at step t, J = sum_{k=1..H} prod_{t<k} (1 - c M_t); the M_t are
    independent with mean mu = sum_s rho_s (1 - rho_s)^n, so
    E[gap] = H - sum_{k=1..H} (1 - c mu)^k."""
    rho = np.asarray(rho, dtype=np.float64)
    mu = float(np.sum(rho * (1.0 - rho) ** n))
    c = 1.0 - 1.0 / num_actions
    return H - sum((1.0 - c * mu) ** k for k in range(1, H + 1))
