"""Occupancy-measure L1 matching over the occupancy polytope, the solver
behind both moment matching and replay-estimation training. Each cell's
occupancy splits as d = p + q with p <= g, and the LP is

    min sum (q - p)  s.t.  sum_a d_0(s,a) = rho(s)
                           sum_a d_{t+1}(s',a) = sum_{s,a} d_t(s,a) P_t(s'|s,a)
                           0 <= p <= g,  q >= 0

on the flow rows alone, solved by the bounded-variable simplex. At an
optimum p = min(d, g) and q = (d - g)^+, so sum (q - p) + sum g is the L1
distance sum |d - g|. Objectives are L1 distances (= 2 TV on probability
layers); every threshold in this package is L1."""

from dataclasses import dataclass

import numpy as np

from . import simplex as sx
from .mdp import (MarkovPolicy, OccupancyMeasures, deterministic_policy,
                  exact_occupancy)

FLOW_TOL = 1e-8
OBJ_TOL = 1e-8
UNREACHABLE_MASS = 1e-12
BRUTE_FORCE_CAP = 10**6


@dataclass(frozen=True, eq=False)
class MatchTarget:
    """Measure family g_t(s,a) >= 0 the LP matches against. Layers need not
    be normalized: hybrid targets hover near 1 and can land on either side
    by sampling noise, so only nonnegativity is enforced here."""

    g: np.ndarray

    def __post_init__(self):
        g = np.array(self.g, dtype=np.float64)
        if g.ndim != 3:
            raise ValueError("target must be (H,S,A)")
        if not np.all(np.isfinite(g)) or g.min() < 0:
            raise ValueError("target entries must be finite and nonnegative")
        g.flags.writeable = False
        object.__setattr__(self, "g", g)

    @classmethod
    def from_occupancy(cls, occ):
        return cls(occ.d)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """status "optimal" is only set after independent verification: flow
    residual within 1e-8 and objective reproduced from the occupancies
    within 1e-8. Anything unverifiable is "numeric-failure", never silent."""

    occupancies: object
    objective: float
    status: str
    iterations: int


def build_match_lp(mdp, g):
    """Dense (A, b, c, upper, nd): columns [p | q], both blocks the flow
    matrix, rows the H*S flow constraints, cost [-1 | 1], upper [g | inf];
    H*S x 2*nd with nd = H*S*A."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    nd = H * S * A
    flow = np.zeros((H * S, nd))
    b = np.zeros(H * S)
    for s in range(S):
        flow[s, s * A:(s + 1) * A] = 1.0
    b[:S] = mdp.rho
    for t in range(H - 1):
        for s2 in range(S):
            ri = (t + 1) * S + s2
            base = ((t + 1) * S + s2) * A
            flow[ri, base:base + A] = 1.0
            flow[ri, t * S * A:(t + 1) * S * A] -= mdp.transitions[t, :, :, s2].ravel()
    c = np.r_[np.full(nd, -1.0), np.ones(nd)]
    upper = np.r_[g.ravel(), np.full(nd, np.inf)]
    return np.hstack([flow, flow]), b, c, upper, nd


def crash_basis(mdp, g, nd):
    """Feasible start: the always-action-0 occupancy d0 covers the flow rows
    (triangular in time) through each action-0 cell's p where d0 <= g, else
    its q, so with every nonbasic variable at 0 each basic value d0 lies
    within its bounds."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    pi0 = deterministic_policy(np.zeros((H, S), dtype=np.int64), A)
    cells = np.arange(H * S) * A
    d0 = exact_occupancy(mdp, pi0).d.ravel()[cells]
    return (cells + np.where(d0 > g.ravel()[cells], nd, 0)).tolist()


def solve_occupancy_match(mdp, target):
    """Global L1 match over all stochastic Markov policies' occupancies."""
    g = target.g
    if g.shape != (mdp.horizon, mdp.num_states, mdp.num_actions):
        raise ValueError("target/mdp dimension mismatch")
    Amat, b, c, upper, nd = build_match_lp(mdp, g)
    basis = crash_basis(mdp, g, nd)
    x, obj, status, iters = sx.simplex(Amat, b, c, basis, upper)
    if status != "optimal":
        return LpSolution(None, np.inf, "numeric-failure", iters)
    d = (x[:nd] + x[nd:]).reshape(g.shape)
    honest = float(np.abs(d - g).sum())
    l1 = obj + g.sum()
    if abs(honest - l1) > OBJ_TOL or _flow_residual(mdp, d) > FLOW_TOL:
        return LpSolution(None, np.inf, "numeric-failure", iters)
    occ = OccupancyMeasures(d, "exact")
    return LpSolution(occ, honest, "optimal", iters)


def _flow_residual(mdp, d):
    res = np.abs(d[0].sum(axis=1) - mdp.rho).max()
    for t in range(mdp.horizon - 1):
        inflow = np.einsum("sa,saz->z", d[t], mdp.transitions[t])
        res = max(res, np.abs(d[t + 1].sum(axis=1) - inflow).max())
    return res


def extract_policy(occupancies, mdp):
    """pi_t(a|s) = d_t(s,a) / sum_a d_t(s,a); uniform rows where the state
    mass is below 1e-12 (unreachable, value-irrelevant)."""
    d = occupancies.d
    if d.shape != (mdp.horizon, mdp.num_states, mdp.num_actions):
        raise ValueError("occupancies/mdp dimension mismatch")
    if _flow_residual(mdp, d) > FLOW_TOL:
        raise ValueError("occupancies violate flow constraints")
    denom = d.sum(axis=2, keepdims=True)
    uniform = np.full_like(d, 1.0 / mdp.num_actions)
    probs = np.where(denom >= UNREACHABLE_MASS, d / np.maximum(denom, UNREACHABLE_MASS),
                     uniform)
    return MarkovPolicy(probs)


def brute_force_match(mdp, target):
    """Exhaustive min of sum_t L1(d_t^pi, g_t) over deterministic Markov
    policies; guarded to A**(S*H) <= 1e6 assignments."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    count = A ** (S * H)
    if count > BRUTE_FORCE_CAP:
        raise ValueError(f"{count} deterministic policies exceeds the cap")
    best_obj, best_pi = np.inf, None
    for code in range(count):
        digits = np.empty(H * S, dtype=np.int64)
        k = code
        for i in range(H * S):
            digits[i] = k % A
            k //= A
        pi = deterministic_policy(digits.reshape(H, S), A)
        occ = exact_occupancy(mdp, pi)
        obj = float(np.abs(occ.d - target.g).sum())
        if obj < best_obj - 1e-15:
            best_obj, best_pi = obj, pi
    return best_pi, best_obj
