"""Executable acceptance suite behind `il-lab verify` and the test gate.
Each criterion returns (ok, detail) and prints one PASS/FAIL line via run().
Numeric bands were frozen from independent Monte Carlo oracle runs before
the library was written; they are part of the shipped contract, so widening
one is a behavior change, not a cleanup."""

import math
import time

import numpy as np

from .datasets import SplitConfig, empirical_occupancy, missing_mass, \
    sample_dataset, split
from .harness import ExperimentConfig, conditional_gap_check, event_probe, \
    fit_slope, run_experiment
from .instances import geometric_reset, make_bc_lb, make_fan, make_mm_lb, \
    make_two_state_uniform
from .learners import MembershipOracle, bc_train, complement_exact, match, \
    membership_tabular, mm_train, prefix_weights, re_pipeline, re_train, \
    replay_exact, replay_mc
from .matching import MatchTarget, brute_force_match, extract_policy, \
    solve_occupancy_match
from .mdp import MarkovPolicy, OccupancyMeasures, TabularMdp, \
    exact_occupancy, l1_layer_distance, policy_value, rollout_batch
from .rng import mix64, mix64_array, unit_double_array


def _unit_grid(seed, *shape):
    size = int(np.prod(shape)) if shape else 1
    idx = np.arange(size, dtype=np.uint64)
    u = unit_double_array(mix64_array(seed, idx))
    return u.reshape(shape)


def random_mdp(seed, S, A, H):
    """Random dense instance; rows bounded away from 0 so every state stays
    reachable and occupancy round-trips are well posed."""
    rho = _unit_grid(mix64(seed, 1), S) + 0.05
    rho = rho / rho.sum()
    P = _unit_grid(mix64(seed, 2), max(H - 1, 0), S, A, S) + 0.05
    if H > 1:
        P = P / P.sum(axis=3, keepdims=True)
    r = _unit_grid(mix64(seed, 3), H, S, A)
    return TabularMdp(H, S, A, rho, P, r)


def random_policy(seed, S, A, H):
    probs = _unit_grid(seed, H, S, A) + 0.02
    return MarkovPolicy(probs / probs.sum(axis=2, keepdims=True))


def random_target(seed, S, A, H):
    g = _unit_grid(seed, H, S, A)
    return MatchTarget(g / g.sum(axis=(1, 2), keepdims=True))


def _mean_gap(rows, n_exp=None, H=None):
    vals = [r.gap for r in rows
            if r.status == "ok"
            and (n_exp is None or r.n_exp == n_exp)
            and (H is None or r.H == H)]
    return float(np.mean(vals)) if vals else float("nan")


def _n_failed(rows):
    return sum(r.status != "ok" for r in rows)


# ----------------------------------------------------------- criterion 1

def criterion_1():
    """Moment matching on its adversarial instance decays like 1/sqrt(N):
    log-log slope of mean gap vs N in [-0.65, -0.35] (oracle run: -0.52)."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(instance={"family": "mm-lb"}, learner={"id": "mm"},
                           grid={"H": [8], "n_exp": [64, 256, 1024, 4096]},
                           seeds={"count": 500, "base": 101})
    rows = run_experiment(cfg)
    slope, err = fit_slope(rows, x="n_exp")
    el = time.perf_counter() - t0
    ok = -0.65 <= slope <= -0.35 and _n_failed(rows) == 0 and el < 300
    return ok, (f"slope {slope:.3f} (stderr {err:.3f}) in [-0.65,-0.35], "
                f"{_n_failed(rows)} failed rows, {el:.0f}s < 300s")


# ----------------------------------------------------------- criterion 2

def criterion_2():
    """On every dataset draw satisfying the three lower-bound events, the
    matching gap equals (H-1)/(2 sqrt(N)) = 0.15 exactly (tol 1e-9)."""
    rep = conditional_gap_check(100, 4, 10_000, seed=202)
    ok = (rep["status"] == "pass" and rep["conditioning"] >= 1
          and rep["max_abs_err"] <= 1e-9)
    return ok, (f"{rep['conditioning']} conditioned draws of 10000, expected "
                f"gap {rep['expected_gap']:.4f}, "
                f"max |err| {rep['max_abs_err']:.2e} <= 1e-9")


# ----------------------------------------------------------- criterion 3

def criterion_3():
    """The conditioning events have the advertised mass at N=400:
    Pr(E2) >= 0.45 and Pr(E1 & E2 & E3) >= 0.02 over 10^4 datasets."""
    rep = event_probe(400, 4, 10_000, seed=303)
    ok = rep["p_e2"] >= 0.45 and rep["p_all"] >= 0.02
    return ok, (f"Pr(E2)={rep['p_e2']:.3f} >= 0.45, "
                f"Pr(E1&E2&E3)={rep['p_all']:.4f} >= 0.02 "
                f"({rep['count_all']} joint hits)")


# ----------------------------------------------------------- criterion 4

def criterion_4():
    """Behavioral cloning on the cloning-adversarial chain: quadratic in H
    (gap ratio at H=16 vs H=8 near 4) and 1/N in data (slope near -1)."""
    inst = {"family": "bc-lb", "states": 20, "actions": 2,
            "reset": "geometric", "ratio": 0.5, "construction_seed": 0}
    cfg8 = ExperimentConfig(instance=inst, learner={"id": "bc"},
                            grid={"H": [8], "n_exp": [256, 1024, 4096, 16384]},
                            seeds={"count": 500, "base": 404})
    cfg16 = ExperimentConfig(instance=inst, learner={"id": "bc"},
                             grid={"H": [16], "n_exp": [4096]},
                             seeds={"count": 500, "base": 405})
    rows8 = run_experiment(cfg8)
    rows16 = run_experiment(cfg16)
    ratio = _mean_gap(rows16, n_exp=4096) / _mean_gap(rows8, n_exp=4096)
    slope, err = fit_slope(rows8, x="n_exp")
    ok = (3.0 <= ratio <= 5.0 and -1.2 <= slope <= -0.8
          and _n_failed(rows8) + _n_failed(rows16) == 0)
    return ok, (f"H16/H8 mean-gap ratio {ratio:.2f} in [3,5], "
                f"slope {slope:.3f} (stderr {err:.3f}) in [-1.2,-0.8]")


# ----------------------------------------------------------- criterion 5

N_GRID_5 = [256, 512, 1024, 2048, 4096, 8192, 16384]
ZERO_FLOOR = 1e-9


def criterion_5():
    """Replay estimation beats moment matching at every N (paired 3 sigma),
    decays at least like N^-0.8 on the upper half of the grid (an exact-zero
    floor certifies that even harder), and on the half-and-half mixture is
    within 10% of the better of cloning and matching for N >= 1024."""
    base = 505
    mk = lambda lid: ExperimentConfig(instance={"family": "mm-lb"},
                                      learner={"id": lid},
                                      grid={"H": [8], "n_exp": N_GRID_5},
                                      seeds={"count": 300, "base": base})
    rows_mm = run_experiment(mk("mm"))
    rows_re = run_experiment(mk("re"))
    failed = _n_failed(rows_mm) + _n_failed(rows_re)

    paired_ok, min_sig = True, float("inf")
    for n in N_GRID_5:
        gm = np.array([r.gap for r in rows_mm if r.n_exp == n])
        gr = np.array([r.gap for r in rows_re if r.n_exp == n])
        diff = gr - gm
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        paired_ok &= bool(diff.mean() <= 3.0 * se)
        if se > 0:
            min_sig = min(min_sig, -diff.mean() / se)

    upper = N_GRID_5[len(N_GRID_5) // 2:]
    re_means = {n: _mean_gap(rows_re, n_exp=n) for n in upper}
    if all(m <= ZERO_FLOOR for m in re_means.values()):
        decay_ok = True
        decay_note = f"re mean gap <= {ZERO_FLOOR:g} on N>={upper[0]} (zero floor)"
    else:
        slope, _ = fit_slope([r for r in rows_re if r.n_exp >= upper[0]],
                             x="n_exp")
        decay_ok = slope <= -0.8
        decay_note = f"re upper-half slope {slope:.3f} <= -0.8"

    mix_inst = {"family": "mixture", "states": 16, "actions": 2,
                "reset": "geometric", "ratio": 0.5, "construction_seed": 7,
                "mixture_seed": 0}
    mix_rows = {}
    for lid in ("bc", "mm", "re"):
        cfg = ExperimentConfig(instance=mix_inst, learner={"id": lid},
                               grid={"H": [8], "n_exp": [1024, 4096]},
                               seeds={"count": 200, "base": 515})
        mix_rows[lid] = run_experiment(cfg)
        failed += _n_failed(mix_rows[lid])
    mix_ok, mix_notes = True, []
    for n in (1024, 4096):
        means = {lid: _mean_gap(mix_rows[lid], n_exp=n) for lid in mix_rows}
        best = min(means["bc"], means["mm"])
        mix_ok &= bool(means["re"] <= 1.1 * best)
        mix_notes.append(f"N={n}: re {means['re']:.4f} vs 1.1*min(bc,mm) "
                         f"{1.1 * best:.4f}")
    ok = paired_ok and decay_ok and mix_ok and failed == 0
    return ok, (f"paired re<=mm at all {len(N_GRID_5)} points "
                f"(weakest margin {min_sig:.1f} sigma); {decay_note}; "
                + "; ".join(mix_notes) + f"; {failed} failed rows")


# ----------------------------------------------------------- criterion 6

# Criterion 6's policy grid: action probabilities in steps of 1/_GRID_STEPS.
_GRID_STEPS = 64


def _policy_grid(A):
    if A == 1:
        return np.ones((1, 1))
    p = np.arange(_GRID_STEPS + 1) / _GRID_STEPS
    return np.stack([p, 1.0 - p], axis=1)


def _grid_min(mdp, g):
    """Min of sum_t L1(d_t, g_t) over stochastic policies with rows on the
    1/_GRID_STEPS grid. Only shapes where the search is separable (A=1, H=1,
    S=1) or has one coupled layer (H=2) are supported; callers filter for
    those."""
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    G = _policy_grid(A)
    K = len(G)
    if A == 1:
        pi = MarkovPolicy(np.ones((H, S, 1)))
        return float(np.abs(exact_occupancy(mdp, pi).d - g).sum())
    if S == 1:
        return float(sum(np.abs(G - g[t, 0]).sum(axis=1).min()
                         for t in range(H)))
    if H == 1:
        return float(sum(np.abs(mdp.rho[s] * G - g[0, s]).sum(axis=1).min()
                         for s in range(S)))
    if H != 2:
        raise ValueError("grid search supports A=1, S=1, H=1, or H=2 only")
    combos = np.stack(np.meshgrid(*[np.arange(K)] * S, indexing="ij"),
                      axis=-1).reshape(-1, S)
    c0 = np.abs(mdp.rho[:, None, None] * G[None, :, :]
                - g[0][:, None, :]).sum(axis=2)
    cost = sum(c0[s, combos[:, s]] for s in range(S))
    contrib = np.einsum("s,ka,saz->skz", mdp.rho, G, mdp.transitions[0])
    w1 = sum(contrib[s, combos[:, s], :] for s in range(S))
    for z in range(S):
        cost = cost + _layer_min(w1[:, z], g[1, z], G)
    return float(cost.min())


def _layer_min(w, g, G):
    """min_k |w G_k - g|_1 over the A=2 grid rows G_k = (k, K - k) / K,
    K = _GRID_STEPS, for each state mass in w. The deviation is convex and
    piecewise linear in k with breakpoints K g_0 / w and K (1 - g_1 / w), so
    the grid minimum lies at the floor or ceiling of a breakpoint, or at
    k = 0 or K."""
    steps = len(G) - 1
    bp = np.zeros((len(w), 2))
    np.divide(steps * np.c_[np.full_like(w, g[0]), w - g[1]], w[:, None],
              out=bp, where=w[:, None] > 0)
    bp = np.clip(bp, 0, steps)
    ks = np.c_[np.floor(bp), np.ceil(bp), np.zeros_like(w),
               np.full_like(w, steps)].astype(np.int64)
    dev = np.abs(w[:, None, None] * G[ks] - g).sum(axis=2)
    return dev.min(axis=1)


def criterion_6():
    """The simplex matcher agrees with exhaustive oracles on 200 random
    small instances: never above the best deterministic policy, and equal to
    a stochastic grid search up to the grid's Lipschitz slack."""
    t0 = time.perf_counter()
    lp_bad, grid_bad, grid_checked, worst_lp, worst_grid = 0, 0, 0, -np.inf, -np.inf
    for i in range(200):
        S = 1 + mix64(606, i, 0) % 3
        A = 1 + mix64(606, i, 1) % 2
        H = 1 + mix64(606, i, 2) % 3
        mdp = random_mdp(mix64(606, i, 3), S, A, H)
        target = random_target(mix64(606, i, 4), S, A, H)
        sol = solve_occupancy_match(mdp, target)
        if sol.status != "optimal":
            lp_bad += 1
            continue
        _, bf_obj = brute_force_match(mdp, target)
        worst_lp = max(worst_lp, sol.objective - bf_obj)
        if sol.objective > bf_obj + 1e-8:
            lp_bad += 1
        if A == 1 or S == 1 or H <= 2:
            grid_checked += 1
            gmin = _grid_min(mdp, target.g)
            slack = H * (H + 1) / 2 / _GRID_STEPS
            err = max(sol.objective - 1e-8 - gmin, gmin - sol.objective - slack)
            worst_grid = max(worst_grid, err)
            if err > 1e-8:
                grid_bad += 1
    el = time.perf_counter() - t0
    ok = lp_bad == 0 and grid_bad == 0 and el < 60
    return ok, (f"200 instances: lp<=brute-force held {200 - lp_bad}/200 "
                f"(worst excess {worst_lp:.2e}), grid agreement "
                f"{grid_checked - grid_bad}/{grid_checked} checked, {el:.0f}s < 60s")


# ----------------------------------------------------------- criterion 7

def criterion_7():
    """Estimator identities: (a) sampled replay converges to exact replay at
    the Bernoulli rate, (b) forcing the membership oracle to 1 or 0 collapses
    replay estimation to cloning on D1 or matching on D2 respectively,
    (c) replay + complement recursions reproduce exact occupancies."""
    mdp, expert = make_mm_lb(8, 256)
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon

    ds = sample_dataset(mdp, expert, 256, mix64(707, 1))
    d1, _ = split(ds, SplitConfig(0.5, mix64(707, 2)))
    oracle = membership_tabular(d1, S, H)
    bc = bc_train(d1, S, A, H)
    exact_rep = replay_exact(mdp, bc, oracle).d
    a_ok, a_worst = True, -np.inf
    for n_rollouts in (100, 1000, 10_000):
        mc = replay_mc(mdp, bc, oracle, n_rollouts, mix64(707, 9, n_rollouts))
        dev = np.abs(mc.d - exact_rep)
        bound = 3.0 * np.sqrt(exact_rep * (1 - exact_rep) / n_rollouts) + 1e-6
        a_ok &= bool((dev <= bound).all())
        a_worst = max(a_worst, float((dev - bound).max()))

    d1_b, d2 = split(sample_dataset(mdp, expert, 256, mix64(711, 1)),
                     SplitConfig(split_seed=mix64(711, 2)))
    pipe1 = re_pipeline(d1_b, d2, mdp, MembershipOracle.ones(H, S))
    dj_ones = abs(policy_value(mdp, pipe1["policy"])
                  - policy_value(mdp, pipe1["bc"]))
    ones_ok = (dj_ones <= 1e-9
               and np.array_equal(pipe1["target"].g,
                                  pipe1["replay"].d))

    pipe0 = re_pipeline(d1_b, d2, mdp, MembershipOracle.zeros(H, S))
    # The value identity needs D2's start-1 frequency at or above the true
    # 1/sqrt(N): otherwise the matcher gets free mass to route through the
    # (state 1, action 1) transition that the replay-side target charges for.
    # The dataset seed above is pinned to satisfy that precondition.
    start1_ok = (d2.states[:, 0] == 1).mean() >= 1.0 / math.sqrt(256)
    emp2 = empirical_occupancy(d2, S, A).d
    t0_cell_ok = np.array_equal(pipe0["target"].g[0],
                                pipe0["replay"].d[0])
    rest_ok = float(np.abs(pipe0["target"].g[1:] - emp2[1:]).max()) <= 1e-12
    dj_zeros = abs(policy_value(mdp, pipe0["policy"])
                   - policy_value(mdp, mm_train(d2, mdp)))
    zeros_ok = dj_zeros <= 1e-9 and start1_ok and t0_cell_ok and rest_ok

    c_ok, c_worst = True, -np.inf
    for j, (m, pol) in enumerate([(mdp, expert), make_bc_lb(6, 5, 2, None, 3)]):
        for kind in ("hard", "soft"):
            if kind == "hard":
                d1j, _ = split(sample_dataset(m, pol, 64, mix64(709, j)),
                               SplitConfig(0.5, mix64(709, j, 1)))
                orc = membership_tabular(d1j, m.num_states, m.horizon)
            else:
                orc = MembershipOracle(_unit_grid(mix64(709, j, 2),
                                                  m.horizon, m.num_states))
            for flag in (False, True):
                total = (replay_exact(m, pol, orc, flag).d
                         + complement_exact(m, pol, orc, flag))
                gap = float(np.abs(total - exact_occupancy(m, pol).d).max())
                c_worst = max(c_worst, gap)
                c_ok &= gap <= 1e-12
    ok = a_ok and ones_ok and zeros_ok and c_ok
    return ok, (f"(a) mc-vs-exact within 3 sigma + 1e-6 at all cells, worst "
                f"excess {a_worst:.2e}; (b) |dJ| ones {dj_ones:.2e}, zeros "
                f"{dj_zeros:.2e} <= 1e-9, convention cell and D2 layers match; "
                f"(c) split identity worst cell {c_worst:.2e} <= 1e-12")


# ----------------------------------------------------------- criterion 8

def criterion_8():
    """Matching the expert's exact measures recovers the expert's value on
    every instance family (gap 0 within 1e-9)."""
    cases = [
        ("mm-lb H=4", make_mm_lb(4, 100)),
        ("mm-lb H=8", make_mm_lb(8, 1024)),
        ("bc-lb uniform", make_bc_lb(8, 6)),
        ("bc-lb geometric", make_bc_lb(8, 6, 2, geometric_reset(7), 0)),
        ("two-state", make_two_state_uniform(6)),
        ("fan", make_fan(5, 5)),
    ]
    ok, details = True, []
    for name, (mdp, expert) in cases:
        _, learned = match(mdp, MatchTarget(exact_occupancy(mdp, expert).d))
        gap = policy_value(mdp, expert) - policy_value(mdp, learned)
        ok &= abs(gap) <= 1e-9
        details.append(f"{name} {gap:.1e}")
    return ok, "gaps: " + ", ".join(details)


# ----------------------------------------------------------- criterion 9

def _prop_flow_conservation():
    worst = 0.0
    for i in range(30):
        S, A, H = 2 + i % 3, 1 + i % 2, 2 + i % 4
        mdp = random_mdp(mix64(909, i), S, A, H)
        pol = random_policy(mix64(909, i, 1), S, A, H)
        d = exact_occupancy(mdp, pol).d
        worst = max(worst, float(np.abs(d.sum(axis=(1, 2)) - 1.0).max()))
        for t in range(H - 1):
            inflow = np.einsum("sa,saz->z", d[t], mdp.transitions[t])
            worst = max(worst, float(np.abs(d[t + 1].sum(axis=1) - inflow).max()))
        if i < 10:
            sol = solve_occupancy_match(mdp, random_target(mix64(909, i, 2),
                                                           S, A, H))
            if sol.status != "optimal":
                return False, f"LP on instance {i} returned {sol.status}"
            dd = sol.occupancies.d
            for t in range(H - 1):
                inflow = np.einsum("sa,saz->z", dd[t], mdp.transitions[t])
                worst = max(worst,
                            float(np.abs(dd[t + 1].sum(axis=1) - inflow).max()))
    return worst <= 1e-8, f"flow residual <= {worst:.1e}"


def _prop_round_trip():
    worst = 0.0
    for i in range(30):
        S, A, H = 2 + i % 3, 2, 2 + i % 4
        mdp = random_mdp(mix64(910, i), S, A, H)
        pol = random_policy(mix64(910, i, 1), S, A, H)
        d = exact_occupancy(mdp, pol)
        d2 = exact_occupancy(mdp, extract_policy(d, mdp))
        worst = max(worst, float(np.abs(d.d - d2.d).max()))
    return worst <= 1e-12, f"occupancy round-trip drift <= {worst:.1e}"


def _prop_witness():
    ok, worst = True, -np.inf
    for i in range(30):
        S, A = 2 + i % 3, 1 + i % 2
        p = _unit_grid(mix64(911, i), 1, S, A)
        q = _unit_grid(mix64(911, i, 1), 1, S, A)
        p /= p.sum()
        q /= q.sum()
        dist = l1_layer_distance(OccupancyMeasures(p, "empirical"),
                                 OccupancyMeasures(q, "empirical"), 0)
        diff = (p - q)[0]
        ok &= abs(float(np.abs(diff).sum()) - dist) <= 1e-12
        f = 2.0 * _unit_grid(mix64(911, i, 2), 1000, S, A) - 1.0
        vals = np.einsum("fsa,sa->f", f, diff)
        worst = max(worst, float(vals.max() - dist))
        ok &= bool((vals <= dist + 1e-9).all())
    return ok, f"sign witness attains the L1 value; random f exceed it by <= {worst:.1e}"


def _prop_prefix_monotone():
    ok = True
    for i in range(20):
        S, A, H = 3, 2, 5
        mdp = random_mdp(mix64(912, i), S, A, H)
        pol = random_policy(mix64(912, i, 1), S, A, H)
        states, _ = rollout_batch(mdp, pol, 20, mix64(912, i, 2))
        soft = MembershipOracle(_unit_grid(mix64(912, i, 3), H, S))
        hard = MembershipOracle((_unit_grid(mix64(912, i, 4), H, S)
                                 > 0.4).astype(np.float64))
        for orc in (soft, hard):
            w = prefix_weights(orc, states)
            ok &= bool((w[:, 1:] <= w[:, :-1] + 1e-15).all())
            if orc is hard:
                hit = w == 0.0
                ok &= bool((hit[:, 1:] >= hit[:, :-1]).all())
    return ok, "prefix weights non-increasing; hard-oracle zeros absorbing"


def _prop_missing_mass_monotone():
    ok = True
    for i in range(10):
        mdp, expert = make_bc_lb(12, 5, 2, None, i)
        ds = sample_dataset(mdp, expert, 60, mix64(913, i))
        small = ds.subset(np.arange(20))
        mm_small = missing_mass(small, mdp, expert)
        mm_big = missing_mass(ds, mdp, expert)
        ok &= bool((mm_big <= mm_small + 1e-15).all())
        ok &= bool((mm_small >= 0).all() and (mm_small <= 1 + 1e-12).all())
    return ok, "missing mass shrinks as the dataset grows"


def _prop_bit_reproducible():
    mdp, expert = make_mm_lb(6, 64)
    a1 = rollout_batch(mdp, expert, 50, 914)
    a2 = rollout_batch(mdp, expert, 50, 914)
    ok = np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    ds1 = sample_dataset(mdp, expert, 64, 915)
    ds2 = sample_dataset(mdp, expert, 64, 915)
    ok &= np.array_equal(ds1.states, ds2.states)
    ok &= np.array_equal(ds1.actions, ds2.actions)
    s1 = split(ds1, SplitConfig(0.5, 916))
    s2 = split(ds2, SplitConfig(0.5, 916))
    ok &= all(np.array_equal(x.states, y.states) for x, y in zip(s1, s2))
    orc = membership_tabular(s1[0], mdp.num_states, mdp.horizon)
    bc = bc_train(s1[0], mdp.num_states, mdp.num_actions, mdp.horizon)
    m1 = replay_mc(mdp, bc, orc, 500, 917).d
    m2 = replay_mc(mdp, bc, orc, 500, 917).d
    ok &= np.array_equal(m1, m2)
    p1 = re_train(ds1, mdp, SplitConfig(split_seed=916))
    p2 = re_train(ds2, mdp, SplitConfig(split_seed=916))
    ok &= np.array_equal(p1.probs, p2.probs)
    return bool(ok), "rollout, sampling, split, mc replay, re_train all bit-stable"


def criterion_9():
    """Structural invariants on randomized instances."""
    props = [_prop_flow_conservation, _prop_round_trip, _prop_witness,
             _prop_prefix_monotone, _prop_missing_mass_monotone,
             _prop_bit_reproducible]
    ok, notes = True, []
    for prop in props:
        good, note = prop()
        ok &= good
        notes.append(("" if good else "FAIL ") + note)
    return ok, "; ".join(notes)


# ------------------------------------------------------------------ run

CRITERIA = [
    (1, "matching lower-bound rate", criterion_1),
    (2, "conditional gap exactness", criterion_2),
    (3, "event probabilities", criterion_3),
    (4, "cloning horizon-squared rate", criterion_4),
    (5, "replay beats baselines", criterion_5),
    (6, "solver oracle agreement", criterion_6),
    (7, "estimator identities", criterion_7),
    (8, "infinite-data equivalence", criterion_8),
    (9, "invariant suites", criterion_9),
]


def check_ids(ids):
    """The criterion ids as a set; ValueError on any id outside 1..9."""
    ids = set(ids)
    known = [k for k, _, _ in CRITERIA]
    unknown = sorted(ids - set(known))
    if unknown:
        raise ValueError(f"unknown criterion id(s) {unknown}; valid ids are "
                         f"{known[0]}-{known[-1]}")
    return ids


def run(only=None):
    """Run criteria (all, or the ids in `only`); one PASS/FAIL line each.
    Returns {id: (ok, detail)}. Unknown ids raise ValueError before any
    criterion runs, so a mistyped subset cannot pass vacuously."""
    if only:
        only = check_ids(only)
    results = {}
    for k, name, fn in CRITERIA:
        if only and k not in only:
            continue
        t0 = time.perf_counter()
        ok, detail = fn()
        el = time.perf_counter() - t0
        print(f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'} "
              f"[{el:.1f}s] {detail}")
        results[k] = (ok, detail)
    return results
