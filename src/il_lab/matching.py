"""Occupancy-measure L1 matching over the occupancy polytope, the solver
behind both moment matching and replay-estimation training. The LP is

    min sum (u + v)  s.t.  sum_a d_0(s,a) = rho(s)
                           sum_a d_{t+1}(s',a) = sum_{s,a} d_t(s,a) P_t(s'|s,a)
                           d - u + v = g,  d, u, v >= 0

so d - g = u - v splits the deviation into its positive and negative parts;
at an optimum at most one of u, v is nonzero per cell and sum (u + v) is the
L1 distance. Objectives are L1 distances (= 2 TV on probability layers);
every threshold in this package is L1."""

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
    """Dense (A, b, c, nd): columns [d | u | v], rows [flow | d - u + v = g],
    cost [0 | 1 | 1]; (H*S + nd) x 3*nd with nd = H*S*A."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    nd = H * S * A
    m = H * S + nd
    n = 3 * nd
    Amat = np.zeros((m, n))
    b = np.zeros(m)
    c = np.zeros(n)
    c[nd:] = 1.0
    for s in range(S):
        Amat[s, s * A:(s + 1) * A] = 1.0
    b[:S] = mdp.rho
    for t in range(H - 1):
        for s2 in range(S):
            ri = (t + 1) * S + s2
            base = ((t + 1) * S + s2) * A
            Amat[ri, base:base + A] = 1.0
            Amat[ri, t * S * A:(t + 1) * S * A] -= mdp.transitions[t, :, :, s2].ravel()
    rows = H * S + np.arange(nd)
    cols = np.arange(nd)
    Amat[rows, cols] = 1.0
    Amat[rows, nd + cols] = -1.0
    Amat[rows, 2 * nd + cols] = 1.0
    b[H * S:] = g.ravel()
    return Amat, b, c, nd


def crash_basis(mdp, g, nd):
    """Feasible start: the always-action-0 occupancy d0 covers the flow rows
    (triangular in time), and each cell row takes u = d0 - g when d0 > g,
    else v = g - d0, so every basic value is nonnegative."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    pi0 = deterministic_policy(np.zeros((H, S), dtype=np.int64), A)
    d0 = exact_occupancy(mdp, pi0).d.ravel()
    basis = [(t * S + s) * A for t in range(H) for s in range(S)]
    over = d0 > g.ravel()
    basis.extend((np.where(over, nd, 2 * nd) + np.arange(nd)).tolist())
    return basis


def solve_occupancy_match(mdp, target):
    """Global L1 match over all stochastic Markov policies' occupancies."""
    g = target.g
    if g.shape != (mdp.horizon, mdp.num_states, mdp.num_actions):
        raise ValueError("target/mdp dimension mismatch")
    Amat, b, c, nd = build_match_lp(mdp, g)
    basis = crash_basis(mdp, g, nd)
    x, obj, status, iters = sx.simplex(Amat, b, c, basis)
    if status != "optimal":
        return LpSolution(None, np.inf, "numeric-failure", iters)
    d = np.maximum(x[:nd].reshape(g.shape), 0.0)
    honest = float(np.abs(d - g).sum())
    if abs(honest - obj) > OBJ_TOL or _flow_residual(mdp, d) > FLOW_TOL:
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
