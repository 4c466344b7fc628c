from dataclasses import fields

import numpy as np
import pytest

from il_lab.datasets import Dataset, SplitConfig, empirical_occupancy, \
    sample_dataset, split
from il_lab.harness import ExperimentConfig, make_instance, run_experiment
from il_lab.instances import geometric_reset, make_bc_lb, make_mm_lb, \
    make_two_state_uniform
from il_lab.learners import MembershipOracle, bc_train, complement_exact, \
    hybrid_estimate, match, membership_tabular, mm_train, prefix_weights, \
    re_pipeline, re_train, replay_exact, replay_mc
from il_lab.matching import MatchTarget
from il_lab.mdp import exact_occupancy, l1_layer_distance, policy_value
from il_lab.rng import mix64

from oracles import bc_lb_expected_gap


def tiny_dataset(rows):
    arr = np.array(rows, dtype=np.int64)
    return Dataset(arr[:, :, 0], arr[:, :, 1])


# --------------------------------------------------------------------- bc

def test_bc_majority_vote():
    ds = tiny_dataset([[(0, 1)], [(0, 1)], [(0, 0)], [(1, 0)]])
    pol = bc_train(ds, 2, 2, 1)
    assert pol.probs[0, 0].tolist() == [0.0, 1.0]
    assert pol.probs[0, 1].tolist() == [1.0, 0.0]


def test_bc_unseen_states_uniform():
    ds = tiny_dataset([[(0, 1)]])
    pol = bc_train(ds, 3, 2, 1)
    assert pol.probs[0, 1].tolist() == [0.5, 0.5]
    assert pol.probs[0, 2].tolist() == [0.5, 0.5]


def test_bc_tie_rules():
    # A tie goes to the smallest action index, wherever the tied actions are.
    ds = tiny_dataset([[(0, 2)], [(0, 1)], [(1, 2)], [(1, 0)]])
    pol = bc_train(ds, 2, 3, 1)
    assert pol.probs[0, 0].tolist() == [0.0, 1.0, 0.0]
    assert pol.probs[0, 1].tolist() == [1.0, 0.0, 0.0]


def test_bc_recovers_deterministic_expert_under_full_coverage():
    mdp, expert = make_mm_lb(4, 4)  # rho = (0.5, 0.5): both starts common
    ds = sample_dataset(mdp, expert, 400, 3)
    pol = bc_train(ds, 2, 2, 4)
    seen = np.zeros((4, 2), dtype=bool)
    for t in range(4):
        seen[t, np.unique(ds.states[:, t])] = True
    assert seen.all()
    assert np.array_equal(pol.probs, expert.probs)


def test_bc_is_time_inhomogeneous():
    ds = tiny_dataset([[(0, 0), (0, 1)], [(0, 0), (0, 1)]])
    pol = bc_train(ds, 1, 2, 2)
    assert pol.probs[0, 0].tolist() == [1.0, 0.0]
    assert pol.probs[1, 0].tolist() == [0.0, 1.0]


def test_bc_mean_gap_matches_the_exact_expectation():
    # bc-lb S=16, geometric reset, construction seed 7, H=8, N=1024: 400
    # seeds' mean gap (0.025145) against the closed form (0.024752), with
    # z = +1.09 standard errors. A biased sampler, tie rule or value
    # recursion moves the mean by many standard errors; |z| <= 4 is the
    # bound.
    inst = {"family": "bc-lb", "states": 16, "reset": "geometric",
            "construction_seed": 7}
    rows = run_experiment(ExperimentConfig(
        inst, {"id": "bc"}, {"H": [8], "n_exp": [1024]},
        {"count": 400, "base": 9}))
    gaps = np.array([row.gap for row in rows])
    mdp = make_instance(inst, 8, 1024, 0)[1]
    exact = bc_lb_expected_gap(mdp.rho, mdp.num_actions, 8, 1024)
    assert exact == pytest.approx(0.024752, abs=1e-6)
    z = (gaps.mean() - exact) / (gaps.std(ddof=1) / np.sqrt(gaps.size))
    assert abs(z) <= 4.0, (gaps.mean(), exact, z)


# --------------------------------------------------------------------- mm

def test_mm_large_sample_closes_value_gap():
    mdp, expert = make_two_state_uniform(6)
    ds = sample_dataset(mdp, expert, 100_000, 11)
    pol = mm_train(ds, mdp)
    gap = policy_value(mdp, expert) - policy_value(mdp, pol)
    assert abs(gap) <= 0.02 * 6


def test_mm_accepts_exact_occupancies():
    # The infinite-data mode of mm: match the expert's exact occupancy.
    mdp, expert = make_mm_lb(4, 100)
    _, pol = match(mdp, MatchTarget(exact_occupancy(mdp, expert).d))
    assert policy_value(mdp, pol) == pytest.approx(1.5, abs=1e-9)


# ------------------------------------------------------------- membership

def test_membership_tabular_is_visited_indicator():
    ds = tiny_dataset([[(0, 0), (2, 1)], [(0, 1), (0, 0)]])
    oracle = membership_tabular(ds, 3, 2)
    assert oracle.m.tolist() == [[1.0, 0.0, 0.0], [1.0, 0.0, 1.0]]


def test_membership_validation():
    with pytest.raises(ValueError):
        MembershipOracle(np.full((2, 2), 1.5))
    assert membership_tabular(
        Dataset(np.zeros((0, 3), dtype=np.int64),
                np.zeros((0, 3), dtype=np.int64)), 2, 3).m.sum() == 0.0


def test_prefix_weight_examples():
    # Step t's weight is the product of membership over the states before
    # t; the last row of the oracle is never read.
    oracle = MembershipOracle(np.array([[1.0, 0.5], [0.9, 0.0], [1.0, 1.0]]))
    w = prefix_weights(oracle, np.array([[0, 1, 1], [1, 0, 0], [1, 1, 0]]))
    assert w[:, 0].tolist() == [1.0, 1.0, 1.0]
    assert w[0, 1] == 1.0
    assert w[1, 2] == pytest.approx(0.45, abs=1e-15)
    assert w[2, 2] == 0.0


def test_prefix_weight_non_increasing():
    oracle = MembershipOracle(np.array([[0.8, 1.0], [0.3, 0.6], [1.0, 0.2]]))
    w = prefix_weights(oracle, np.array([[0, 0, 0], [1, 1, 1], [0, 1, 0]]))
    assert (w[:, 1:] <= w[:, :-1]).all()


def cumprod_prefix_weights(oracle, states):
    """(n,H) prefix weights by one cumprod along each trajectory, shifted
    one step: the reference prefix_weights equals bit for bit."""
    mvals = oracle.m[np.arange(states.shape[1])[None, :], states]
    cum = np.cumprod(mvals, axis=1)
    out = np.ones_like(cum)
    out[:, 1:] = cum[:, :-1]
    return out


@pytest.mark.parametrize("n,H", [(500, 7), (1, 5), (40, 1), (1, 1)])
def test_prefix_weights_batch_equals_the_cumprod_reference(n, H):
    # Soft memberships with full mantissas, so that every product rounds,
    # and a hard oracle with zeros; narrow and int64 states in C- and
    # F-order.
    S = 4
    u = np.array([mix64(53, i) for i in range(n * H + H * S)]) / 2.0**64
    states = (u[:n * H] * S).astype(np.int8).reshape(n, H)
    soft = MembershipOracle(u[n * H:].reshape(H, S))
    hard = MembershipOracle((soft.m > 0.3).astype(np.float64))
    for oracle in (soft, hard):
        ref = cumprod_prefix_weights(oracle, states)
        for dtype in (np.int8, np.int64):
            for order in "CF":
                got = prefix_weights(
                    oracle, np.asarray(states, dtype=dtype, order=order))
                assert got.shape == (n, H) and got.dtype == np.float64
                assert got.tobytes() == ref.tobytes()


# ----------------------------------------------------------------- replay

def test_replay_with_full_membership_is_exact_occupancy():
    mdp, expert = make_mm_lb(4, 100)
    rep = replay_exact(mdp, expert, MembershipOracle.ones(4, 2))
    assert np.allclose(rep.d, exact_occupancy(mdp, expert).d,
                       atol=1e-15)


def test_replay_with_empty_membership_keeps_only_first_layer():
    mdp, expert = make_mm_lb(4, 100)
    rep = replay_exact(mdp, expert, MembershipOracle.zeros(4, 2))
    d = rep.d
    # Prefix over t' < 0 is empty, so layer 0 survives; everything after is
    # cut off by the zero membership of the first state.
    assert np.allclose(d[0], exact_occupancy(mdp, expert).d[0], atol=1e-15)
    assert np.all(d[1:] == 0.0)
    rep_inc = replay_exact(mdp, expert, MembershipOracle.zeros(4, 2),
                           include_current=True)
    assert np.all(rep_inc.d == 0.0)


def test_replay_partial_membership_layer_mass():
    # Membership only at state 0: trajectories entering state 1 stop
    # counting. Expert mixes uniformly, so half the weight survives per step.
    mdp, expert = make_two_state_uniform(3)
    m = np.zeros((3, 2))
    m[:, 0] = 1.0
    rep = replay_exact(mdp, expert, MembershipOracle(m))
    sums = rep.d.sum(axis=(1, 2))
    assert sums[0] == pytest.approx(1.0, abs=1e-15)
    assert sums[1] == pytest.approx(0.5, abs=1e-15)
    assert sums[2] == pytest.approx(0.25, abs=1e-15)


def test_replay_mc_converges_to_exact():
    mdp, expert = make_mm_lb(4, 100)
    ds = sample_dataset(mdp, expert, 32, 15)
    d1, _ = split(ds, SplitConfig(0.5, 1))
    oracle = membership_tabular(d1, 2, 4)
    bc = bc_train(d1, 2, 2, 4)
    ex = replay_exact(mdp, bc, oracle)
    mc = replay_mc(mdp, bc, oracle, 100_000, 44)
    for t in range(4):
        assert l1_layer_distance(mc, ex, t) <= 0.05


def test_replay_mc_single_rollout_and_determinism():
    mdp, expert = make_mm_lb(4, 100)
    oracle = MembershipOracle.ones(4, 2)
    one = replay_mc(mdp, expert, oracle, 1, 5)
    assert one.kind == "weighted"
    assert np.allclose(one.d.sum(axis=(1, 2)), 1.0, atol=1e-15)
    assert set(np.unique(one.d)) <= {0.0, 1.0}
    again = replay_mc(mdp, expert, oracle, 1, 5)
    assert np.array_equal(one.d, again.d)


# ----------------------------------------------------------------- hybrid

def test_hybrid_with_full_membership_is_pure_replay():
    mdp, expert = make_mm_lb(4, 100)
    ds = sample_dataset(mdp, expert, 16, 19)
    rep = replay_exact(mdp, expert, MembershipOracle.ones(4, 2))
    g = hybrid_estimate(rep, ds, MembershipOracle.ones(4, 2))
    assert np.array_equal(g.g, rep.d)


def test_hybrid_with_empty_membership_is_empirical_after_first_layer():
    mdp, expert = make_mm_lb(4, 100)
    ds = sample_dataset(mdp, expert, 64, 23)
    rep = replay_exact(mdp, expert, MembershipOracle.zeros(4, 2))
    g = hybrid_estimate(rep, ds, MembershipOracle.zeros(4, 2))
    emp = empirical_occupancy(ds, 2, 2).d
    # Layer 0 comes from the replay (prefix weight 1); the rest is data.
    assert np.allclose(g.g[0], rep.d[0], atol=1e-15)
    assert np.allclose(g.g[1:], emp[1:], atol=1e-15)


def test_hybrid_matches_a_scatter_onto_the_replay():
    # The reference adds each D2 step onto the replay in turn; hybrid_estimate
    # sums the D2 steps first, so the two differ by rounding only: at most
    # one rounding of a value <= 1 per added step.
    mdp, expert = make_mm_lb(6, 1024)
    ds = sample_dataset(mdp, expert, 1000, 29)
    d1, d2 = split(ds, SplitConfig(0.5, 3))
    soft = MembershipOracle(np.linspace(0.1, 0.9, 12).reshape(6, 2))
    rep = replay_exact(mdp, bc_train(d1, 2, 2, 6), soft)
    for oracle in (soft, membership_tabular(d1, 2, 6)):
        ref = rep.d.copy()
        w = 1.0 - prefix_weights(oracle, d2.states)
        t_idx = np.broadcast_to(np.arange(6), d2.states.shape)
        np.add.at(ref, (t_idx, d2.states, d2.actions), w / d2.n)
        g = hybrid_estimate(rep, d2, oracle).g
        assert np.abs(g - ref).max() <= d2.n * np.finfo(float).eps


def test_hybrid_layers_sum_to_one_with_hard_oracle():
    mdp, expert = make_mm_lb(6, 64)
    ds = sample_dataset(mdp, expert, 40, 27)
    d1, d2 = split(ds, SplitConfig(0.5, 2))
    oracle = membership_tabular(d1, 2, 6)
    bc = bc_train(d1, 2, 2, 6)
    g = hybrid_estimate(replay_exact(mdp, bc, oracle), d2, oracle)
    # Replay mass lost to out-of-support states is refilled from D2, but the
    # two routes weigh trajectories differently, so sums are only near 1.
    assert np.all(np.abs(g.g.sum(axis=(1, 2)) - 1.0) <= 0.35)


def test_complement_routes_match_on_self_distribution():
    mdp, expert = make_two_state_uniform(4)
    m = np.array([[1.0, 0.0]] * 4)
    oracle = MembershipOracle(m)
    rep = replay_exact(mdp, expert, oracle)
    comp = complement_exact(mdp, expert, oracle)
    total = rep.d + comp
    assert np.allclose(total, exact_occupancy(mdp, expert).d, atol=1e-12)


# --------------------------------------------------------------------- re

def re_split(ds, mdp, split_seed):
    """re_train's inputs to re_pipeline: (D1, D2) and D1's tabular oracle."""
    d1, d2 = split(ds, SplitConfig(split_seed=split_seed))
    return d1, d2, membership_tabular(d1, mdp.num_states, mdp.horizon)


def test_re_pipeline_exposes_consistent_intermediates():
    mdp, expert = make_mm_lb(8, 256)
    ds = sample_dataset(mdp, expert, 256, 31)
    d1, d2, oracle = re_split(ds, mdp, 7)
    out = re_pipeline(d1, d2, mdp, oracle)
    assert set(out) == {"bc", "replay", "target", "solution", "policy"}
    assert out["solution"].status == "optimal"
    assert out["target"].g.shape == (8, 2, 2)
    assert np.array_equal(out["policy"].probs,
                          re_train(ds, mdp, SplitConfig(0.5, 7)).probs)
    J = policy_value(mdp, out["policy"])
    assert 0.0 <= policy_value(mdp, expert) - J <= 8.0


def test_re_with_ones_override_reduces_to_bc_replay():
    mdp, expert = make_mm_lb(8, 256)
    ds = sample_dataset(mdp, expert, 256, 35)
    d1, d2, _ = re_split(ds, mdp, 7)
    out = re_pipeline(d1, d2, mdp, MembershipOracle.ones(8, 2))
    # With full membership the hybrid is exactly the BC replay occupancy, a
    # consistent target, so matching reproduces the BC policy's value.
    assert np.array_equal(out["target"].g, out["replay"].d)
    J_re = policy_value(mdp, out["policy"])
    J_bc = policy_value(mdp, out["bc"])
    assert abs(J_re - J_bc) <= 1e-9


def test_re_train_is_pure():
    mdp, expert = make_mm_lb(8, 128)
    ds = sample_dataset(mdp, expert, 128, 39)
    cfg = SplitConfig(split_seed=3)
    a = re_train(ds, mdp, cfg)
    b = re_train(ds, mdp, cfg)
    assert np.array_equal(a.probs, b.probs)


def test_re_config_validation():
    # The re learner's config is the split's: frac1 and split_seed, with
    # the defaults 0.5 and 0, positional or by name.
    for frac1 in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="frac1"):
            SplitConfig(frac1=frac1)
    assert [f.name for f in fields(SplitConfig)] == ["frac1", "split_seed"]
    assert SplitConfig() == SplitConfig(0.5, 0)
    assert SplitConfig(0.3, 5) == SplitConfig(frac1=0.3, split_seed=5)


def test_re_config_names_a_numpy_value_and_its_type():
    with pytest.raises(ValueError, match=r"^replay-estimation config: "
                                         r"split_seed must be an integer, "
                                         r"got 3 \(numpy\.int64\)$"):
        SplitConfig(split_seed=np.int64(3))
    with pytest.raises(ValueError, match=r"^replay-estimation config: frac1 "
                                         r"must be a number, got 0\.5 "
                                         r"\(numpy\.float64\)$"):
        SplitConfig(frac1=np.float64(0.5))


def test_re_pipeline_replays_d1_exactly_and_patches_with_d2():
    # On a bc-lb dataset small enough that D1 leaves good states unvisited,
    # the hybrid's D2 term is not zero, and the target is the exact replay
    # of the D1 clone plus that term, bit for bit.
    mdp, expert = make_bc_lb(16, 8, 2, geometric_reset(15, 0.5), 7)
    ds = sample_dataset(mdp, expert, 64, 47)
    d1, d2, oracle = re_split(ds, mdp, 5)
    out = re_pipeline(d1, d2, mdp, oracle)
    assert np.array_equal(out["bc"].probs, bc_train(d1, 16, 2, 8).probs)
    replay = replay_exact(mdp, out["bc"], oracle)
    assert np.array_equal(out["replay"].d, replay.d)
    assert not np.array_equal(out["target"].g, replay.d)
    assert np.array_equal(out["target"].g,
                          hybrid_estimate(replay, d2, oracle).g)


def test_re_replays_expert_action_on_covered_states():
    # Where D1 covers a (t, s) cell, BC plays the expert action there and the
    # replay keeps that mass on expert cells.
    mdp, expert = make_mm_lb(4, 64)
    ds = sample_dataset(mdp, expert, 64, 43)
    d1, d2, oracle = re_split(ds, mdp, 5)
    out = re_pipeline(d1, d2, mdp, oracle)
    seen = oracle.m.astype(bool)
    bc = out["bc"].probs
    assert np.all(bc[:, :, 0][seen] == 1.0)
    rep = out["replay"].d
    assert np.all(rep[:, :, 1][seen] == 0.0)
