import numpy as np
import pytest
from hypothesis import given, strategies as st

from il_lab.acceptance import random_policy
from il_lab.harness import make_instance
from il_lab.instances import geometric_reset, make_bc_lb, make_fan, \
    make_mm_lb, make_two_state_uniform
from il_lab.mdp import MarkovPolicy, deterministic_policy, exact_occupancy, \
    policy_value
from il_lab.rng import mix64
from oracles import perturb_policy


# ------------------------------------------------------------------ mm-lb

def test_mm_lb_shape_and_reset():
    mdp, expert = make_mm_lb(4, 100)
    assert (mdp.horizon, mdp.num_states, mdp.num_actions) == (4, 2, 2)
    assert np.allclose(mdp.rho, [0.9, 0.1], atol=1e-15)
    assert np.all(mdp.rewards[0] == 0.0)
    assert np.all(mdp.rewards[1:, 0, :] == 1.0)
    assert np.all(mdp.rewards[:, 1, :] == 0.0)
    assert np.all(expert.probs[:, :, 0] == 1.0)


def test_mm_lb_expert_value():
    mdp, expert = make_mm_lb(4, 100)
    assert policy_value(mdp, expert) == pytest.approx(1.5, abs=1e-12)


def test_mm_lb_rejects_short_horizon():
    with pytest.raises(ValueError):
        make_mm_lb(3, 100)
    with pytest.raises(ValueError):
        make_mm_lb(4, 0)


def test_mm_lb_later_steps_absorb():
    mdp, _ = make_mm_lb(6, 100)
    for t in range(1, 5):
        for s in (0, 1):
            for a in (0, 1):
                row = np.zeros(2)
                row[s] = 1.0
                assert np.array_equal(mdp.transitions[t, s, a], row)


def test_mm_lb_first_step_routing():
    mdp, _ = make_mm_lb(4, 100)
    assert np.array_equal(mdp.transitions[0, 1, 1], [0.0, 1.0])
    for s, a in ((0, 0), (0, 1), (1, 0)):
        assert np.array_equal(mdp.transitions[0, s, a], [0.5, 0.5])


# ------------------------------------------------------------------ bc-lb

def test_bc_lb_expert_value_is_horizon():
    for S, H in ((20, 8), (5, 3), (2, 1)):
        mdp, expert = make_bc_lb(S, H)
        assert policy_value(mdp, expert) == pytest.approx(H, abs=1e-9)


def test_bc_lb_always_bad_policy_earns_nothing():
    mdp, expert = make_bc_lb(3, 2)
    bad = MarkovPolicy(1.0 - expert.probs)
    assert policy_value(mdp, bad) == 0.0


def test_bc_lb_half_good_value():
    # Picking the good action w.p. 1/2 at every step survives like (1/2)^t.
    mdp, expert = make_bc_lb(3, 3)
    half = perturb_policy(expert, 0.5, MarkovPolicy(1.0 - expert.probs))
    assert policy_value(mdp, half) == pytest.approx(0.875, abs=1e-12)


def test_bc_lb_good_actions_follow_construction_seed():
    mdp, expert = make_bc_lb(6, 4, num_actions=2, seed=12)
    want = np.array([mix64(12, s) % 2 for s in range(5)])
    got = expert.probs[0, :5].argmax(axis=1)
    assert np.array_equal(got, want)
    assert np.all(mdp.rewards[:, np.arange(5), want] == 1.0)


def test_bc_lb_bad_state_absorbs():
    mdp, _ = make_bc_lb(4, 5)
    assert np.all(mdp.transitions[:, 3, :, 3] == 1.0)
    assert np.all(mdp.rewards[:, 3, :] == 0.0)


def test_bc_lb_geometric_reset_used_everywhere():
    reset = geometric_reset(4, 0.5)
    mdp, expert = make_bc_lb(5, 3, reset_dist=reset)
    assert np.allclose(mdp.rho[:4], reset, atol=1e-15)
    assert mdp.rho[4] == 0.0
    good = expert.probs[0, :4].argmax(axis=1)
    for s in range(4):
        assert np.allclose(mdp.transitions[0, s, good[s], :4], reset)
    assert policy_value(mdp, expert) == pytest.approx(3.0, abs=1e-9)


def test_bc_lb_rejects_degenerate_dims():
    with pytest.raises(ValueError):
        make_bc_lb(1, 4)
    with pytest.raises(ValueError):
        make_bc_lb(4, 4, num_actions=1)
    with pytest.raises(ValueError):
        make_bc_lb(4, 4, reset_dist=np.array([0.5, 0.5]))


def test_geometric_reset_values():
    w = geometric_reset(3, 0.5)
    assert np.allclose(w, np.array([4, 2, 1]) / 7.0, atol=1e-15)
    assert geometric_reset(1).tolist() == [1.0]


# -------------------------------------------------------------- two-state

def test_two_state_expert_occupancy_and_value():
    mdp, expert = make_two_state_uniform(6)
    d = exact_occupancy(mdp, expert).d
    marg = d.sum(axis=2)
    assert np.allclose(marg, 0.5, atol=1e-12)
    assert policy_value(mdp, expert) == pytest.approx(2.5, abs=1e-12)


def test_two_state_short_horizons():
    mdp, expert = make_two_state_uniform(2)
    assert policy_value(mdp, expert) == pytest.approx(0.5, abs=1e-12)
    mdp1, expert1 = make_two_state_uniform(1)
    assert policy_value(mdp1, expert1) == 0.0
    assert mdp1.transitions.shape == (0, 2, 2, 2)


def test_two_state_self_loop_traps_rare_state():
    mdp, _ = make_two_state_uniform(3)
    loop = deterministic_policy(np.ones((3, 2), dtype=np.int64), 2)
    d = exact_occupancy(mdp, loop).d
    # Self-looping at state 1 keeps its initial half stuck there.
    assert d.sum(axis=2)[2, 1] >= 0.5


# -------------------------------------------------------------------- fan

def test_fan_expert_value():
    mdp, expert = make_fan(4, 3)
    assert policy_value(mdp, expert) == pytest.approx(3.0, abs=1e-12)
    mdp2, expert2 = make_fan(2, 1)
    assert policy_value(mdp2, expert2) == pytest.approx(1.0, abs=1e-12)


def test_fan_always_red_earns_nothing():
    mdp, _ = make_fan(5, 5)
    red = MarkovPolicy(np.tile(np.array([0.0, 1.0]), (5, 6, 1)))
    assert policy_value(mdp, red) == 0.0


def test_fan_sink_absorbs():
    mdp, _ = make_fan(3, 4)
    assert np.all(mdp.transitions[:, 3, :, 3] == 1.0)
    assert np.all(mdp.rewards[:, 3, :] == 0.0)
    with pytest.raises(ValueError):
        make_fan(1, 4)


# ---------------------------------------------------------------- mixture

def mixture(seed, states=16, construction_seed=7, **knobs):
    return {"family": "mixture", "mixture_seed": seed, "states": states,
            "construction_seed": construction_seed, **knobs}


def test_mixture_draws_are_pure():
    tag_a, mdp_a, pol_a = make_instance(mixture(5), 8, 256, 12)
    tag_b, mdp_b, pol_b = make_instance(mixture(5), 8, 256, 12)
    assert tag_a == tag_b
    assert np.array_equal(mdp_a.transitions, mdp_b.transitions)
    assert np.array_equal(pol_a.probs, pol_b.probs)


def test_mixture_is_roughly_fair():
    tags = [make_instance(mixture(9), 8, 64, i)[0] for i in range(4000)]
    frac_mm = tags.count("mm-lb") / 4000
    assert abs(frac_mm - 0.5) <= 0.025
    assert set(tags) == {"mm-lb", "bc-lb"}


def test_mixture_components_match_direct_constructors():
    # The draw is the low bit of mix64(mixture_seed, draw index); both
    # components take the cell's horizon.
    seen = set()
    for i in range(40):
        tag, mdp, expert = make_instance(mixture(3, 5, 2), 8, 81, i)
        seen.add(tag)
        assert tag == ("mm-lb", "bc-lb")[mix64(3, i) & 1]
        if tag == "mm-lb":
            ref = make_mm_lb(8, 81)
        else:
            ref = make_bc_lb(5, 8, 2, None, 2)
        assert np.array_equal(mdp.transitions, ref[0].transitions)
        assert np.array_equal(expert.probs, ref[1].probs)
    assert seen == {"mm-lb", "bc-lb"}


# ------------------------------------------------------------------ cache

def same(a, b):
    return a[0] is b[0] and a[1] is b[1]


def test_equal_arguments_build_one_instance(clear_caches):
    assert same(make_mm_lb(6, 64), make_mm_lb(6, 64))
    # reset_dist is keyed by its float64 bytes: an equal array built anew,
    # or the same values as a list, is the same key.
    a = make_bc_lb(8, 5, 2, geometric_reset(7, 0.3), 4)
    assert same(a, make_bc_lb(8, 5, 2, geometric_reset(7, 0.3), 4))
    assert same(a, make_bc_lb(8, 5, 2, list(geometric_reset(7, 0.3)), 4))
    assert same(make_bc_lb(8, 5), make_bc_lb(8, 5, 2, None, 0))
    geometric = mixture(5, reset="geometric")
    for i in range(6):
        assert same(make_instance(geometric, 8, 256, i)[1:],
                    make_instance(geometric, 8, 256, i)[1:])


def test_different_arguments_build_different_instances(clear_caches):
    mm = make_mm_lb(6, 64)
    assert not same(mm, make_mm_lb(6, 65))
    assert not same(mm, make_mm_lb(7, 64))
    bc = make_bc_lb(8, 5, 2, geometric_reset(7, 0.3), 4)
    others = [make_bc_lb(8, 5, 2, geometric_reset(7, 0.3), 5),
              make_bc_lb(8, 5, 2, geometric_reset(7, 0.4), 4),
              make_bc_lb(8, 5, 3, geometric_reset(7, 0.3), 4),
              make_bc_lb(8, 5, 2, None, 4)]
    for other in others:
        assert not same(bc, other)
    # None stays its own key, apart from the uniform array it stands for.
    uniform = make_bc_lb(8, 5, 2, np.full(7, 1 / 7), 4)
    assert not same(others[-1], uniform)
    assert np.array_equal(others[-1][0].transitions, uniform[0].transitions)


def test_bad_arguments_raise_on_a_warm_cache(clear_caches):
    make_bc_lb(4, 4)
    make_mm_lb(4, 1)
    for _ in range(2):
        with pytest.raises(ValueError):
            make_bc_lb(4, 4, reset_dist=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            make_mm_lb(3, 1)


def test_cached_instances_are_read_only(clear_caches):
    for mdp, expert in (make_mm_lb(5, 16), make_bc_lb(6, 4, 3, None, 1)):
        for arr in (mdp.rho, mdp.transitions, mdp.rewards, expert.probs):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.5


# ---------------------------------------------------------------- perturb

def test_perturb_endpoints():
    _, expert = make_mm_lb(4, 100)
    dev = MarkovPolicy(1.0 - expert.probs)
    assert np.array_equal(perturb_policy(expert, 0.0, dev).probs, expert.probs)
    assert np.array_equal(perturb_policy(expert, 1.0, dev).probs, dev.probs)


def test_perturb_mixing_weights():
    _, expert = make_mm_lb(4, 100)
    dev = MarkovPolicy(1.0 - expert.probs)
    mixed = perturb_policy(expert, 0.3, dev)
    assert np.allclose(mixed.probs[:, :, 0], 0.7, atol=1e-15)
    with pytest.raises(ValueError):
        perturb_policy(expert, 1.2, dev)


@given(st.integers(0, 10_000))
def test_perturb_rowwise_tv_bounded(seed):
    base = random_policy(mix64(61, seed), 3, 2, 4)
    dev = random_policy(mix64(62, seed), 3, 2, 4)
    gamma = (seed % 101) / 100.0
    mixed = perturb_policy(base, gamma, dev)
    tv = 0.5 * np.abs(mixed.probs - base.probs).sum(axis=2)
    assert np.all(tv <= gamma + 1e-12)
