import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import il_lab

from il_lab.acceptance import random_mdp, random_policy, random_target
from il_lab.datasets import SplitConfig, empirical_occupancy, \
    sample_dataset, split
from il_lab.instances import geometric_reset, make_bc_lb, make_mm_lb
from il_lab.learners import membership_tabular, re_pipeline
from il_lab.matching import MatchTarget, brute_force_match, build_match_lp, \
    crash_basis, extract_policy, solve_occupancy_match
from il_lab.mdp import OccupancyMeasures, TabularMdp, deterministic_policy, \
    exact_occupancy, policy_value
from il_lab.rng import mix64


@lru_cache(maxsize=None)
def bc_lb_targets(n=1024, seed=515):
    """bc-lb S=16, H=8 (the mixture component of the acceptance gate) with
    its empirical (mm) and hybrid (re) targets from one dataset."""
    mdp, expert = make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7)
    ds = sample_dataset(mdp, expert, n, mix64(seed, 1))
    emp = empirical_occupancy(ds, mdp.num_states, mdp.num_actions)
    d1, d2 = split(ds, SplitConfig(split_seed=seed))
    hybrid = re_pipeline(d1, d2, mdp, membership_tabular(d1, 16, 8))
    return mdp, [MatchTarget(emp.d), hybrid["target"]]


def l1_match_reference(mdp, g):
    """min sum e s.t. flow, -e <= d - g <= e, solved by scipy HiGHS; written
    from the definition, independently of build_match_lp."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    nd = H * S * A
    flow = np.zeros((H * S, nd))
    for t in range(H):
        for s in range(S):
            flow[t * S + s, (t * S + s) * A:(t * S + s + 1) * A] = 1.0
            if t:
                flow[t * S + s, (t - 1) * S * A:t * S * A] = \
                    -mdp.transitions[t - 1, :, :, s].ravel()
    rhs = np.zeros(H * S)
    rhs[:S] = mdp.rho
    eye = np.eye(nd)
    res = linprog(np.r_[np.zeros(nd), np.ones(nd)],
                  A_ub=np.block([[eye, -eye], [-eye, -eye]]),
                  b_ub=np.r_[g.ravel(), -g.ravel()],
                  A_eq=np.hstack([flow, np.zeros((H * S, nd))]), b_eq=rhs,
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.fun


def test_match_lp_blocks():
    mdp, _ = bc_lb_targets()
    Amat, b = build_match_lp(mdp)
    # One column per cell, one row per flow constraint.
    assert Amat.shape == (8 * 16, 8 * 16 * 2) == (128, 256)
    assert np.array_equal(b, np.r_[mdp.rho, np.zeros(7 * 16)])
    for t in range(8):
        for s in range(16):
            row = Amat[t * 16 + s]
            # Each flow row sums the actions of its own (t, s) cell ...
            own = row[t * 32:(t + 1) * 32].reshape(16, 2)
            assert np.array_equal(own[s], [1.0, 1.0])
            assert not own[np.arange(16) != s].any()
            # ... less the inflow from layer t - 1, and nothing else.
            if t:
                inflow = -row[(t - 1) * 32:t * 32].reshape(16, 2)
                assert np.array_equal(inflow, mdp.transitions[t - 1, :, :, s])
            rest = np.r_[row[:max(t - 1, 0) * 32], row[(t + 1) * 32:]]
            assert not rest.any()


def test_match_lp_is_built_once_and_read_only(clear_caches):
    mdp = random_mdp(mix64(97), 3, 2, 4)
    Amat, b = build_match_lp(mdp)
    assert build_match_lp(mdp) is build_match_lp(mdp)
    for arr in (Amat, b):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # Another mdp with the same data is another key (its rows are
    # renormalized again, so its LP may differ in the last bit).
    twin = TabularMdp(mdp.horizon, mdp.num_states, mdp.num_actions,
                      mdp.rho, mdp.transitions, mdp.rewards)
    assert build_match_lp(twin)[0] is not Amat
    assert np.abs(build_match_lp(twin)[0] - Amat).max() <= 1e-15


def test_crash_basis_is_feasible():
    mdp, _ = bc_lb_targets()
    for m in (mdp, random_mdp(mix64(96), 3, 2, 4), make_mm_lb(8, 1024)[0]):
        Amat, b = build_match_lp(m)
        basis = crash_basis(m)
        # The action-0 cell of every (t, s), one per flow row.
        assert basis == list(range(0, Amat.shape[1], m.num_actions))
        B = Amat[:, basis]
        assert np.linalg.matrix_rank(B) == Amat.shape[0]
        # Every nonbasic cell at 0: the basic values are the always-action-0
        # occupancy, so they are nonnegative.
        xb = np.linalg.solve(B, b)
        assert xb.min() >= -1e-12
        pi0 = deterministic_policy(np.zeros((m.horizon, m.num_states),
                                            dtype=np.int64), m.num_actions)
        d0 = exact_occupancy(m, pi0).d.ravel()[basis]
        assert np.abs(xb - d0).max() <= 1e-12


def test_objective_matches_highs_on_bc_lb():
    for n, seed in ((1024, 515), (4096, 516)):
        mdp, targets = bc_lb_targets(n, seed)
        for target in targets:
            sol = solve_occupancy_match(mdp, target)
            assert sol.status == "optimal"
            ref = l1_match_reference(mdp, target.g)
            assert abs(sol.objective - ref) <= 1e-6, (n, sol.objective, ref)


def test_target_validation():
    with pytest.raises(ValueError):
        MatchTarget(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        MatchTarget(np.full((1, 2, 2), -0.1))
    # Layers above 1 are allowed: noisy hybrid targets live there.
    MatchTarget(np.full((1, 2, 2), 0.3))


def test_exact_target_reached():
    mdp, expert = make_mm_lb(4, 100)
    target = MatchTarget(exact_occupancy(mdp, expert).d)
    sol = solve_occupancy_match(mdp, target)
    assert sol.status == "optimal"
    assert sol.objective <= 1e-9
    assert np.abs(sol.occupancies.d - target.g).sum() <= 1e-9


def test_matcher_recovers_expert_action_at_rare_state():
    # Target built by hand: a sliver of start mass at the rare state, later
    # layers tilted toward the rewarded state. The only way to route the
    # rare-state sliver toward reward is the mixing action, and the matcher
    # must find that even though the sliver is tiny.
    mdp, _ = make_mm_lb(4, 100)
    delta = 0.2
    g = np.zeros((4, 2, 2))
    g[0, 0, 0] = 0.9
    g[0, 1, 0] = 0.1
    g[1:, 0, 0] = 0.5 + delta
    g[1:, 1, 0] = 0.5 - delta
    sol = solve_occupancy_match(mdp, MatchTarget(g))
    assert sol.status == "optimal"
    pol = extract_policy(sol.occupancies, mdp)
    assert pol.probs[0, 1, 0] == pytest.approx(1.0, abs=1e-9)
    bf_pi, bf_obj = brute_force_match(mdp, MatchTarget(g))
    assert bf_pi.probs[0, 1, 0] == 1.0
    assert sol.objective <= bf_obj + 1e-8


def test_lp_never_worse_than_deterministic_enumeration():
    for i in range(25):
        S = 1 + mix64(91, i, 0) % 3
        A = 1 + mix64(91, i, 1) % 2
        H = 1 + mix64(91, i, 2) % 3
        mdp = random_mdp(mix64(91, i, 3), S, A, H)
        target = random_target(mix64(91, i, 4), S, A, H)
        sol = solve_occupancy_match(mdp, target)
        assert sol.status == "optimal", (i, S, A, H)
        _, bf = brute_force_match(mdp, target)
        assert sol.objective <= bf + 1e-8, (i, sol.objective, bf)


def test_brute_force_cap_enforced():
    mdp = random_mdp(mix64(92), 4, 2, 6)
    with pytest.raises(ValueError):
        brute_force_match(mdp, random_target(mix64(93), 4, 2, 6))


def test_extract_round_trip():
    mdp = random_mdp(mix64(94), 3, 2, 4)
    pol = random_policy(mix64(95), 3, 2, 4)
    occ = exact_occupancy(mdp, pol)
    back = extract_policy(occ, mdp)
    assert np.allclose(back.probs, pol.probs, atol=1e-12)


def test_extract_normalizes_rows():
    mdp = TabularMdp(1, 2, 2, np.array([0.04, 0.96]), np.zeros((0, 2, 2, 2)),
                     np.zeros((1, 2, 2)))
    occ = OccupancyMeasures(np.array([[[0.02, 0.02], [0.72, 0.24]]]), "exact")
    pol = extract_policy(occ, mdp)
    assert np.allclose(pol.probs[0, 0], [0.5, 0.5], atol=1e-12)
    assert np.allclose(pol.probs[0, 1], [0.75, 0.25], atol=1e-12)


def test_extract_uniform_on_unreachable():
    # The expert never falls into the bad state, so its row carries no mass
    # and the extracted policy must default to uniform there.
    mdp, expert = make_bc_lb(3, 2)
    occ = exact_occupancy(mdp, expert)
    assert occ.d.sum(axis=2)[:, 2].max() == 0.0
    pol = extract_policy(occ, mdp)
    assert np.allclose(pol.probs[:, 2, :], 0.5, atol=1e-15)


def test_extract_rejects_flow_violations():
    mdp, _ = make_mm_lb(4, 100)
    bogus = OccupancyMeasures(np.full((4, 2, 2), 0.25), "exact")
    with pytest.raises(ValueError):
        extract_policy(bogus, mdp)


def test_matching_is_idempotent():
    mdp, expert = make_mm_lb(4, 64)
    sol = solve_occupancy_match(
        mdp, MatchTarget(exact_occupancy(mdp, expert).d))
    sol2 = solve_occupancy_match(mdp, MatchTarget(sol.occupancies.d))
    assert sol2.status == "optimal"
    assert sol2.objective <= 1e-9
    assert np.abs(sol2.occupancies.d - sol.occupancies.d).sum() <= 1e-8


def test_zero_objective_forces_expert_value():
    # A consistent target leaves no slack: any optimal point has d = g, so
    # the extracted policy earns exactly the target's value.
    mdp, expert = make_mm_lb(8, 1024)
    target = MatchTarget(exact_occupancy(mdp, expert).d)
    sol = solve_occupancy_match(mdp, target)
    assert sol.objective <= 1e-9
    pol = extract_policy(sol.occupancies, mdp)
    assert policy_value(mdp, pol) == pytest.approx(policy_value(mdp, expert),
                                                   abs=1e-9)


def test_scaled_down_target_is_fully_covered():
    # Scaling the expert occupancy by 0.8 leaves 0.2 slack per layer. Any
    # undershot cell would cost double, so every optimum covers each target
    # cell fully and the objective is exactly the lost normalization. The
    # slack routing is tie-ridden, so only every-optimum facts are asserted:
    # the loosest row bound over this instance is 0.4 target mass inside a
    # marginal of at most 0.6.
    mdp, expert = make_mm_lb(4, 100)
    g = exact_occupancy(mdp, expert).d * 0.8
    sol = solve_occupancy_match(mdp, MatchTarget(g))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.8, abs=1e-8)
    assert np.all(sol.occupancies.d >= g - 1e-8)
    pol = extract_policy(sol.occupancies, mdp)
    reach = sol.occupancies.d.sum(axis=2) > 1e-9
    assert np.all(pol.probs[:, :, 0][reach] >= 2.0 / 3.0 - 1e-8)


# The mm and re solves of 60 bc-lb S=16, H=8, N=1024 datasets: 120 LPs with
# m = 128 rows, hashed by their x bytes, bound, status and iterations.
THREAD_PROBE = """
import hashlib
import il_lab.simplex as sx
from il_lab.datasets import sample_dataset
from il_lab.harness import make_instance, train
from il_lab.rng import mix64

h, solve, solves = hashlib.blake2b(), sx.simplex, []

def hashed(*args):
    x, bound, status, it = out = solve(*args)
    h.update(x.tobytes() + repr((bound, status, it)).encode())
    solves.append(it)
    return out

sx.simplex = hashed
_, mdp, expert = make_instance({"family": "bc-lb", "states": 16,
                                "reset": "geometric",
                                "construction_seed": 7}, 8, 1024, 0)
for i in range(60):
    ds = sample_dataset(mdp, expert, 1024, mix64(99, i, 1))
    train("mm", {}, ds, mdp)
    train("re", {"split_seed": mix64(99, i, 2)}, ds, mdp)
print(len(solves), sum(it > 0 for it in solves), h.hexdigest())
"""


def test_match_bytes_do_not_depend_on_the_blas_thread_count():
    # LAPACK's inverse of a 128 x 128 basis can round differently on one
    # BLAS thread and on two. The solve inverts only its crash basis, once
    # per mdp, which rounds the same on both, and every later round reads
    # its basis off the tableau.
    env = {**os.environ, "PYTHONPATH": str(Path(il_lab.__file__).parents[1])}
    out = []
    for threads in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE],
                              capture_output=True, text=True, timeout=300,
                              env={**env, "OPENBLAS_NUM_THREADS": threads})
        assert done.returncode == 0, done.stderr
        out.append(done.stdout.split())
    assert out[0][:2] == ["120", "120"]
    assert out[0] == out[1]
