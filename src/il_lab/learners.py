"""The three learners. BC: per-(s,t) majority action. MM: L1 occupancy match
against the empirical measures. RE: split the data, train BC on D1, replay it
through the simulator weighted by D1-membership prefix weights, patch the
out-of-support remainder with D2 moments, and match against the hybrid.

Prefix-weight convention: the weight of step t is the product of membership
over states strictly before t (empty product 1 at t=0). replay_exact and
complement_exact also take include_current, which multiplies in the current
state too, so that acceptance criterion 7(c) checks their identity under
both conventions; the learner uses the first."""

from dataclasses import dataclass

import numpy as np

from .datasets import cell_sums, empirical_occupancy, split, visited_table
from .matching import MatchTarget, extract_policy, solve_occupancy_match
from .mdp import MarkovPolicy, OccupancyMeasures, rollout_batch, table


@dataclass(frozen=True, eq=False)
class MembershipOracle:
    """m (H,S) in [0,1]; the tabular hard oracle is the visited-in-D1
    indicator and takes values in {0,1}."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", table(self.m, "membership",
                                            (None, None), hi=1.0))

    @classmethod
    def ones(cls, H, S):
        return cls(np.ones((H, S)))

    @classmethod
    def zeros(cls, H, S):
        return cls(np.zeros((H, S)))


def bc_train(dataset, S, A, H):
    """Majority action per (s,t), a tie going to the smallest action index;
    unobserved (s,t) get the uniform row."""
    if dataset.n == 0:
        raise ValueError("empty dataset")
    counts = cell_sums(dataset.states, dataset.actions, S, A)
    probs = np.zeros((H, S, A))
    probs[np.arange(H)[:, None], np.arange(S)[None, :],
          counts.argmax(axis=2)] = 1.0
    probs[counts.sum(axis=2) == 0] = 1.0 / A
    return MarkovPolicy(probs)


def mm_train(dataset, mdp):
    """Moment matching: L1-match the occupancy polytope to the empirical
    measures of a Dataset. Raises on solver numeric-failure."""
    target = MatchTarget(
        empirical_occupancy(dataset, mdp.num_states, mdp.num_actions).d)
    return match(mdp, target)[1]


def match(mdp, target):
    """(solution, policy) of the L1 occupancy match to a MatchTarget, such
    as an exact occupancy (the infinite-data mode of mm); raises on solver
    numeric-failure."""
    sol = solve_occupancy_match(mdp, target)
    if sol.status != "optimal":
        raise RuntimeError(f"occupancy match failed: {sol.status}")
    return sol, extract_policy(sol.occupancies, mdp)


def membership_tabular(d1, S, H):
    """Hard oracle: m_t(s) = 1 iff s is visited at step t in d1."""
    if d1.n and d1.horizon != H:
        raise ValueError("dataset horizon mismatch")
    if d1.n == 0:
        return MembershipOracle.zeros(H, S)
    return MembershipOracle(visited_table(d1, S).astype(np.float64))


def prefix_weights(oracle, states):
    """(n,H) prefix weights along sampled trajectories: w_0 = 1 and
    w_t = w_{t-1} m_{t-1}(s_{t-1}), non-increasing in t. An F-order view
    of one (H, n) buffer filled step by step: the products of a running
    cumprod, in its order."""
    n, H = states.shape
    out = np.empty((H, n))
    out[0] = 1.0
    for t in range(1, H):
        oracle.m[t - 1].take(states[:, t - 1], out=out[t])
        out[t] *= out[t - 1]
    return out.T


def replay_exact(mdp, bc_policy, oracle, include_current=False):
    """Closed-form replay: w_{t+1}(s') = sum_{s,a} w_t(s) m_t(s) pi_t(a|s)
    P_t(s'|s,a) with w_0 = rho, and layer t measures w_t(s) pi_t(a|s).
    Returns "weighted" OccupancyMeasures: layer t sums to E[prefix weight
    at t] <= 1."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    d = np.empty((H, S, A))
    w = mdp.rho.copy()
    for t in range(H):
        kept = w * oracle.m[t]
        d[t] = (kept if include_current else w)[:, None] * bc_policy.probs[t]
        if t + 1 < H:
            w = np.einsum("s,sa,saz->z", kept, bc_policy.probs[t],
                          mdp.transitions[t])
    return OccupancyMeasures(d, "weighted")


def replay_mc(mdp, bc_policy, oracle, n_rollouts, seed):
    """Monte Carlo replay: n_rollouts seeded rollouts of the BC policy, each
    step counted with its prefix weight; contributions stop once the weight
    hits exactly 0. Deterministic given seed; "weighted" OccupancyMeasures
    as replay_exact returns."""
    if n_rollouts < 1:
        raise ValueError("n_rollouts must be positive")
    states, actions = rollout_batch(mdp, bc_policy, n_rollouts, seed)
    weights = prefix_weights(oracle, states)
    d = cell_sums(states, actions, mdp.num_states, mdp.num_actions, weights)
    return OccupancyMeasures(d / n_rollouts, "weighted")


def hybrid_estimate(replay, d2, oracle):
    """Hybrid target g_t(s,a) = replay_t(s,a)
    + E_{D2}[ 1(s_t=s, a_t=a) (1 - prefix weight) ]."""
    if d2.n == 0:
        raise ValueError("empty empirical split")
    _, S, A = replay.d.shape
    weights = prefix_weights(oracle, d2.states)
    np.subtract(1.0, weights, out=weights)
    weights /= d2.n
    return MatchTarget(replay.d + cell_sums(d2.states, d2.actions, S, A,
                                            weights))


def complement_exact(mdp, policy, oracle, include_current=False):
    """Exact value of the hybrid's empirical term when D2 is replaced by the
    policy's own distribution: x_t(s) pi_t(a|s) with
    x_{t+1}(s') = sum_{s,a} [x_t(s) + w_t(s)(1 - m_t(s))] pi_t(a|s) P_t(s'|s,a),
    x_0 = 0. Computed by its own recursion so replay + complement is a real
    two-route identity, not algebra reshuffled."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    d = np.empty((H, S, A))
    w = mdp.rho.copy()
    x = np.zeros(S)
    for t in range(H):
        carry = x + w * (1.0 - oracle.m[t])
        d[t] = (carry if include_current else x)[:, None] * policy.probs[t]
        if t + 1 < H:
            x = np.einsum("s,sa,saz->z", carry, policy.probs[t],
                          mdp.transitions[t])
            w = np.einsum("s,sa,saz->z", w * oracle.m[t], policy.probs[t],
                          mdp.transitions[t])
    return d


def re_pipeline(d1, d2, mdp, oracle):
    """Replay estimation on a split and a membership oracle, with its
    intermediates exposed: clone on D1, replay the clone exactly with the
    oracle's prefix weights, patch with D2's moments, match. Returns
    dict(bc, replay, target, solution, policy)."""
    bc = bc_train(d1, mdp.num_states, mdp.num_actions, mdp.horizon)
    replay = replay_exact(mdp, bc, oracle)
    target = hybrid_estimate(replay, d2, oracle)
    sol, policy = match(mdp, target)
    return {"bc": bc, "replay": replay, "target": target, "solution": sol,
            "policy": policy}


def re_train(dataset, mdp, cfg):
    """Replay estimation end to end on the split cfg (a SplitConfig) and
    the tabular oracle of D1; a pure function of (dataset, cfg)."""
    d1, d2 = split(dataset, cfg)
    oracle = membership_tabular(d1, mdp.num_states, mdp.horizon)
    return re_pipeline(d1, d2, mdp, oracle)["policy"]
