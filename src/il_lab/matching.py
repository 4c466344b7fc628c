"""Occupancy-measure L1 matching over the occupancy polytope, the solver
behind both moment matching and replay-estimation training. The LP has one
column per cell d_t(s,a) and only the flow rows:

    min sum |d - g|  s.t.  sum_a d_0(s,a) = rho(s)
                           sum_a d_{t+1}(s',a) = sum_{s,a} d_t(s,a) P_t(s'|s,a)
                           d >= 0,

solved by the breakpoint simplex, which prices each |d - g| with its
breakpoint at g. Objectives are L1 distances (= 2 TV on probability
layers); every threshold in this package is L1."""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import simplex as sx
from .mdp import (INSTANCE_CACHE, MarkovPolicy, OccupancyMeasures,
                  deterministic_policy, exact_occupancy, table)

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
        object.__setattr__(self, "g", table(self.g, "target",
                                            (None, None, None)))


@dataclass(frozen=True, eq=False)
class LpSolution:
    """status "optimal" is only set after independent verification: flow
    residual within 1e-8 and the L1 distance of the occupancies within 1e-8
    of the solver's dual bound. Anything unverifiable is "numeric-failure",
    never silent."""

    occupancies: object
    objective: float
    status: str
    iterations: int


@lru_cache(maxsize=INSTANCE_CACHE)
def build_match_lp(mdp):
    """Dense (A, b): one column per cell d_t(s,a), one row per flow
    constraint; H*S x H*S*A. Built once per mdp (the frozen mdp is the key)
    and returned read-only."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    flow = np.zeros((H * S, H * S * A))
    b = np.zeros(H * S)
    b[:S] = mdp.rho
    # Row t*S + s', by cell (t', s, a): +1 on its own cells (t, s'), and
    # for t >= 1 P_{t-1}(s'|s, a) subtracted from zeros on layer t - 1, so
    # that a zero entry stays +0.
    cells = flow.reshape(H * S, H * S, A)
    rows = np.arange(H * S)
    cells[rows, rows] = 1.0
    for t in range(1, H):
        cells[t * S:(t + 1) * S, (t - 1) * S:t * S] -= np.moveaxis(
            mdp.transitions[t - 1], 2, 0)
    flow.flags.writeable = b.flags.writeable = False
    return flow, b


@dataclass(frozen=True)
class CrashLp:
    """An mdp's match LP (A, b) and crash basis, as a solve holds them. It
    compares and hashes by the mdp alone, since the rest is a function of
    it: the key of crash_factor."""

    mdp: object
    A: np.ndarray = field(compare=False)
    b: np.ndarray = field(compare=False)
    basis: list = field(compare=False)


@lru_cache(maxsize=INSTANCE_CACHE)
def crash_factor(lp):
    """The simplex's start from the crash basis B0, (B0, B0^-1, B0^-1 b,
    B0^-1 A), the same for every target: factored once per mdp and returned
    read-only."""
    return sx.factor(lp.A, lp.b, lp.basis)


def crash_basis(mdp):
    """Feasible start: the action-0 cells, one per flow row. The basis is
    triangular in time and its basic values are the always-action-0
    occupancy, which is nonnegative."""
    return (np.arange(mdp.horizon * mdp.num_states) * mdp.num_actions).tolist()


def solve_occupancy_match(mdp, target):
    """Global L1 match over all stochastic Markov policies' occupancies."""
    g = target.g
    if g.shape != (mdp.horizon, mdp.num_states, mdp.num_actions):
        raise ValueError("target/mdp dimension mismatch")
    Amat, b = build_match_lp(mdp)
    start = crash_factor(CrashLp(mdp, Amat, b, crash_basis(mdp)))
    x, bound, status, iters = sx.simplex(Amat, b, g.ravel(), start)
    if status != "optimal":
        return LpSolution(None, np.inf, "numeric-failure", iters)
    d = x.reshape(g.shape)
    honest = float(np.abs(d - g).sum())
    if abs(honest - bound) > OBJ_TOL or _flow_residual(mdp, d) > FLOW_TOL:
        return LpSolution(None, np.inf, "numeric-failure", iters)
    occ = OccupancyMeasures(d, "exact")
    return LpSolution(occ, honest, "optimal", iters)


def _flow_residual(mdp, d):
    """Max |flow row| violation of d, every layer's inflow in one einsum."""
    res = np.abs(d[0].sum(axis=1) - mdp.rho).max()
    inflow = np.einsum("tsa,tsaz->tz", d[:-1], mdp.transitions)
    return np.abs(d[1:].sum(axis=2) - inflow).max(initial=res)


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
