import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from il_lab.acceptance import random_mdp, random_policy
from il_lab.harness import make_instance
from il_lab.instances import make_bc_lb, make_mm_lb
from il_lab.learners import MembershipOracle
from il_lab.matching import MatchTarget
from il_lab.mdp import MarkovPolicy, OccupancyMeasures, TabularMdp, \
    check_json, deterministic_policy, exact_occupancy, l1_layer_distance, \
    mdp_from_json, mdp_to_json, policy_from_json, policy_to_json, \
    policy_value, rollout_batch, show_value
from il_lab import mdp as mdp_module
from il_lab.rng import mix64
from oracles import Trajectory, rollout


def one_state_mdp(H):
    return TabularMdp(H, 1, 1, np.ones(1), np.ones((H - 1, 1, 1, 1)),
                      np.ones((H, 1, 1)))


def deviating_policy(H):
    """Plays the self-loop action at the rare state at t=0, the expert
    action everywhere else."""
    acts = np.zeros((H, 2), dtype=np.int64)
    acts[0, 1] = 1
    return deterministic_policy(acts, 2)


# ------------------------------------------------------------- validation

def test_row_slightly_off_is_renormalized():
    rho = np.array([0.5 + 4e-10, 0.5])
    mdp = TabularMdp(1, 2, 1, rho, np.zeros((0, 2, 1, 2)), np.zeros((1, 2, 1)))
    assert mdp.rho.sum() == pytest.approx(1.0, abs=1e-15)


def test_row_far_off_rejected():
    with pytest.raises(ValueError):
        TabularMdp(1, 2, 1, np.array([0.6, 0.5]), np.zeros((0, 2, 1, 2)),
                   np.zeros((1, 2, 1)))


def test_negative_probability_rejected():
    with pytest.raises(ValueError):
        TabularMdp(1, 2, 1, np.array([1.2, -0.2]), np.zeros((0, 2, 1, 2)),
                   np.zeros((1, 2, 1)))


def test_zero_transition_row_rejected():
    P = np.zeros((1, 1, 1, 1))
    with pytest.raises(ValueError):
        TabularMdp(2, 1, 1, np.ones(1), P, np.zeros((2, 1, 1)))


def test_reward_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        TabularMdp(1, 1, 1, np.ones(1), np.zeros((0, 1, 1, 1)),
                   np.full((1, 1, 1), 1.5))


def test_policy_row_validation():
    with pytest.raises(ValueError):
        MarkovPolicy(np.array([[[0.7, 0.7]]]))


def test_arrays_frozen():
    mdp, _ = make_mm_lb(4, 100)
    with pytest.raises(ValueError):
        mdp.rho[0] = 0.3


def test_trajectory_shape_checked():
    with pytest.raises(ValueError):
        Trajectory(np.array([0, 1]), np.array([0]))


def test_occupancy_kind_rules():
    good = np.full((2, 1, 1), 1.0)
    OccupancyMeasures(good, "exact")
    with pytest.raises(ValueError):
        OccupancyMeasures(good * 0.4, "exact")
    OccupancyMeasures(good * 0.4, "weighted")
    with pytest.raises(ValueError):
        OccupancyMeasures(good * 1.2, "weighted")


# Every float table the lab validates, built through mdp.table: its name in
# messages, a builder that stores a given array, a valid array (H=3, S=2,
# A=2), the shape the message asks for, and whether entries stop at 1.
RHO, P, R = np.full(2, 0.5), np.full((2, 2, 2, 2), 0.5), np.full((3, 2, 2), 0.5)
TABLES = {
    "rho": (lambda x: TabularMdp(3, 2, 2, x, P, R).rho, RHO, "(2,)", False),
    "transitions": (lambda x: TabularMdp(3, 2, 2, RHO, x, R).transitions, P,
                    "(2, 2, 2, 2)", False),
    "rewards": (lambda x: TabularMdp(3, 2, 2, RHO, P, x).rewards, R,
                "(3, 2, 2)", True),
    "policy": (lambda x: MarkovPolicy(x).probs, np.full((3, 2, 2), 0.5),
               "(*, *, *)", False),
    "occupancies": (lambda x: OccupancyMeasures(x, "exact").d,
                    np.full((3, 2, 2), 0.25), "(*, *, *)", False),
    "target": (lambda x: MatchTarget(x).g, np.full((3, 2, 2), 0.25),
               "(*, *, *)", False),
    "membership": (lambda x: MembershipOracle(x).m, np.full((3, 2), 0.5),
                   "(*, *)", True),
}


@pytest.mark.parametrize("name", list(TABLES))
def test_every_float_table_is_checked_and_frozen_alike(name):
    build, good, want, unit = TABLES[name]
    stored = build(good)
    assert np.array_equal(stored, good) and stored.dtype == np.float64
    assert not stored.flags.writeable and not np.shares_memory(stored, good)
    with pytest.raises(ValueError) as exc:
        build(good[None])
    assert str(exc.value) == (f"{name} must have shape {want}, "
                              f"got {good[None].shape}")
    # A negative entry keeps its row's sum, so only the entry check sees it.
    nan, negative, above = good.copy(), good.copy(), good.copy()
    nan.flat[0] = np.nan
    negative.flat[0] -= 1.0
    negative.flat[1] += 1.0
    above.flat[0] = 1.5
    for bad in (nan, negative) + ((above,) if unit else ()):
        with pytest.raises(ValueError, match=f"^{name} entries must be "
                           f"finite and lie in \\[0, {1 if unit else 'inf'}\\]$"):
            build(bad)


# ---------------------------------------------------------------- rollout

def test_expert_rollout_always_plays_action_zero():
    mdp, expert = make_mm_lb(4, 100)
    for seed in range(20):
        traj = rollout(mdp, expert, seed)
        assert traj.actions.tolist() == [0, 0, 0, 0]


def test_forced_rollout():
    mdp = one_state_mdp(3)
    pol = MarkovPolicy(np.ones((3, 1, 1)))
    traj = rollout(mdp, pol, 5)
    assert traj.states.tolist() == [0, 0, 0]
    assert traj.actions.tolist() == [0, 0, 0]
    assert len(traj.steps) == 3 and traj.steps[0] == (0, 0)


def test_rollout_is_pure():
    mdp, expert = make_mm_lb(4, 100)
    a = rollout(mdp, expert, 99)
    b = rollout(mdp, expert, 99)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)


def assert_batch_matches_scalar(mdp, pol, n, seed):
    states, actions = rollout_batch(mdp, pol, n, seed)
    assert states.shape == actions.shape == (n, mdp.horizon)
    for i in range(n):
        t = rollout(mdp, pol, mix64(seed, i))
        assert states[i].tolist() == t.states.tolist()
        assert actions[i].tolist() == t.actions.tolist()
    return states, actions


def test_rollout_batch_matches_scalar_rollouts():
    assert_batch_matches_scalar(*make_mm_lb(5, 64), 40, 17)


@st.composite
def weighted_mdps(draw):
    """Small MDP and policy whose rows are integer weights 0..4 over their
    sum: zero-mass entries anywhere (trailing ones included), deterministic
    rows, and dyadic rows such as 0.25/0.75. Some steps (rho counting as
    the first arrival step) are all one-hot rows, so their draw tables are
    fixed and draw without a hash."""
    S, A, H = draw(st.integers(1, 4)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 5))

    def rows(*shape):
        size = int(np.prod(shape))
        if draw(st.booleans()):
            hot = draw(st.lists(st.integers(0, shape[-1] - 1),
                                min_size=size // shape[-1],
                                max_size=size // shape[-1]))
            return np.eye(shape[-1])[np.array(hot, dtype=np.int64)
                                     ].reshape(shape)
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=size,
                                   max_size=size)), dtype=np.float64)
        w = w.reshape(shape)
        w[..., 0] += w.sum(axis=-1) == 0
        return w / w.sum(axis=-1, keepdims=True)

    def steps(count, *shape):
        return np.array([rows(*shape) for _ in range(count)]
                        ).reshape(count, *shape)

    mdp = TabularMdp(H, S, A, rows(S), steps(H - 1, S, A, S),
                     np.zeros((H, S, A)))
    return mdp, MarkovPolicy(steps(H, S, A))


@given(weighted_mdps(), st.integers(1, 12), st.integers(0, 2**64 - 1))
def test_rollout_batch_is_bit_identical_to_scalar_rollouts(inst, n, seed):
    assert_batch_matches_scalar(*inst, n, seed)


def test_rollout_batch_single_trajectory_single_step():
    mdp = TabularMdp(1, 3, 2, np.array([0.25, 0.75, 0.0]),
                     np.zeros((0, 3, 2, 3)), np.zeros((1, 3, 2)))
    pol = MarkovPolicy(np.array([[[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]]))
    for seed in range(20):
        assert_batch_matches_scalar(mdp, pol, 1, seed)


def test_rollout_batch_past_one_key_block():
    # S*A = 2100 transition rows, more than the 2047 whose keys
    # (row << 53) + threshold fit in one uint64: draws of one step land on
    # rows on both sides of that limit.
    S, A = 700, 3
    mdp = random_mdp(mix64(24), S, A, 3)
    states, actions = assert_batch_matches_scalar(
        mdp, random_policy(mix64(25), S, A, 3), 200, 26)
    rows = states[:, :-1] * A + actions[:, :-1]
    assert (rows < 2047).any() and (rows >= 2047).any()


def test_draw_tables_are_built_once_and_read_only(clear_caches):
    mdp = random_mdp(mix64(27), 4, 3, 5)
    pol = random_policy(mix64(28), 4, 3, 5)
    cold = rollout_batch(mdp, pol, 300, 29)
    arrive = mdp_module._arrival_tables(mdp)
    pi = mdp_module._policy_tables(pol)
    warm = rollout_batch(mdp, pol, 300, 29)
    assert all(np.array_equal(c, w) for c, w in zip(cold, warm))
    assert mdp_module._arrival_tables(mdp) is arrive
    assert mdp_module._policy_tables(pol) is pi
    # An equal policy is another object, with tables of its own.
    twin = MarkovPolicy(pol.probs)
    assert mdp_module._policy_tables(twin) is not pi
    # A deterministic policy's tables are fixed; their stored draws are
    # shared too.
    fixed = mdp_module._policy_tables(
        deterministic_policy(np.zeros((5, 4), dtype=np.int64), 3))
    for thr, guide, draws in arrive + pi + fixed:
        for arr in (thr, guide, draws):
            if arr is not None:
                with pytest.raises(ValueError):
                    arr[0] = 0
    assert all(draws is None for _, _, draws in arrive + pi)
    assert all(draws is not None for _, _, draws in fixed)


def absorb_rounds(monkeypatch, mdp, policy, n):
    """The absorb rounds one rollout_batch call runs at mdp's binding."""
    rounds = []
    absorb = mdp_module.absorb
    with monkeypatch.context() as patch:
        patch.setattr(mdp_module, "absorb",
                      lambda *args: rounds.append(1) or absorb(*args))
        rollout_batch(mdp, policy, n, 31)
    return len(rounds)


def test_fixed_streams_are_not_hashed(monkeypatch):
    # Every expert is deterministic, so no action draw hashes. On mm-lb
    # every transition after t = 0 is absorbing: only the first two
    # arrivals hash, each with its step and its stream tag, after the
    # prefix: 5 rounds against 1 + 3H = 25. On bc-lb every arrival hashes:
    # 1 + 2H = 17. A change that turns a one-hot row into 1 - eps loses the
    # shortcut and fails here.
    H = 8
    assert absorb_rounds(monkeypatch, *make_mm_lb(H, 1024), 64) == 5
    _, mdp, expert = make_instance(
        {"family": "bc-lb", "states": 20, "reset": "geometric"}, H, 1024, 0)
    assert absorb_rounds(monkeypatch, mdp, expert, 64) == 17
    # The same instance with a stochastic policy hashes every stream.
    S, A = mdp.num_states, mdp.num_actions
    assert absorb_rounds(monkeypatch, mdp, MarkovPolicy(
        np.full((H, S, A), 1 / A)), 64) == 1 + 3 * H


def test_initial_state_frequency():
    mdp, expert = make_mm_lb(4, 100)
    states, _ = rollout_batch(mdp, expert, 100_000, 3)
    frac = (states[:, 0] == 1).mean()
    assert abs(frac - 0.1) <= 3 * np.sqrt(0.09 / 100_000)


def test_monte_carlo_matches_exact_occupancy():
    mdp = random_mdp(mix64(21), 3, 2, 4)
    pol = random_policy(mix64(22), 3, 2, 4)
    states, actions = rollout_batch(mdp, pol, 100_000, 23)
    counts = np.zeros((4, 3, 2))
    for t in range(4):
        np.add.at(counts[t], (states[:, t], actions[:, t]), 1.0)
    emp = counts / 100_000
    ex = exact_occupancy(mdp, pol).d
    sigma = np.sqrt(ex * (1 - ex) / 100_000) + 1e-6
    err = np.abs(emp - ex)
    # 24 cells at 3 sigma leave a fair chance of one marginal miss.
    assert (err > 3 * sigma).sum() <= 1
    assert np.all(err <= 4 * sigma)


# -------------------------------------------------------------- occupancy

def test_expert_occupancy_uniform_after_first_step():
    mdp, expert = make_mm_lb(4, 100)
    d = exact_occupancy(mdp, expert).d
    marg = d.sum(axis=2)
    for t in (1, 2, 3):
        assert marg[t, 0] == pytest.approx(0.5, abs=1e-12)
        assert marg[t, 1] == pytest.approx(0.5, abs=1e-12)


def test_first_layer_marginal_is_initial_distribution():
    mdp = random_mdp(mix64(31), 4, 2, 3)
    pol = random_policy(mix64(32), 4, 2, 3)
    d = exact_occupancy(mdp, pol).d
    assert np.allclose(d[0].sum(axis=1), mdp.rho, atol=1e-15)


def test_deviating_policy_shifts_mass_to_rare_state():
    mdp, _ = make_mm_lb(4, 100)
    d = exact_occupancy(mdp, deviating_policy(4)).d
    marg = d.sum(axis=2)
    for t in (1, 2, 3):
        assert marg[t, 1] == pytest.approx(0.55, abs=1e-12)
        assert marg[t, 0] == pytest.approx(0.45, abs=1e-12)


def test_occupancy_layers_are_probabilities():
    mdp = random_mdp(mix64(33), 5, 2, 6)
    pol = random_policy(mix64(34), 5, 2, 6)
    occ = exact_occupancy(mdp, pol)
    assert occ.kind == "exact"
    assert np.allclose(occ.d.sum(axis=(1, 2)), 1.0, atol=1e-9)


# ------------------------------------------------------------------ value

def test_expert_value():
    mdp, expert = make_mm_lb(4, 100)
    assert policy_value(mdp, expert) == pytest.approx(1.5, abs=1e-12)


def test_zero_reward_value():
    mdp = TabularMdp(3, 2, 2, np.array([0.5, 0.5]),
                     np.full((2, 2, 2, 2), 0.5), np.zeros((3, 2, 2)))
    pol = random_policy(mix64(41), 2, 2, 3)
    assert policy_value(mdp, pol) == 0.0


def test_single_deviation_gap():
    mdp, expert = make_mm_lb(4, 100)
    gap = policy_value(mdp, expert) - policy_value(mdp, deviating_policy(4))
    assert gap == pytest.approx(0.15, abs=1e-12)


@given(st.integers(0, 10_000))
def test_forward_backward_agreement(seed):
    S, A, H = 2 + seed % 3, 1 + seed % 2, 2 + seed % 5
    mdp = random_mdp(mix64(42, seed), S, A, H)
    pol = random_policy(mix64(43, seed), S, A, H)
    policy_value(mdp, pol)  # raises if the two recursions drift past 1e-10


# --------------------------------------------------------------- distance

def test_l1_identical_zero():
    mdp, expert = make_mm_lb(4, 100)
    occ = exact_occupancy(mdp, expert)
    assert l1_layer_distance(occ, occ, 2) == 0.0


def test_l1_disjoint_two():
    p = OccupancyMeasures(np.array([[[1.0], [0.0]]]), "exact")
    q = OccupancyMeasures(np.array([[[0.0], [1.0]]]), "exact")
    assert l1_layer_distance(p, q, 0) == 2.0


def test_l1_small_perturbation():
    p = OccupancyMeasures(np.array([[[0.5], [0.5]]]), "exact")
    q = OccupancyMeasures(np.array([[[0.48], [0.52]]]), "exact")
    assert l1_layer_distance(p, q, 0) == pytest.approx(0.04, abs=1e-15)


def test_l1_rejects_bad_step():
    mdp, expert = make_mm_lb(4, 100)
    occ = exact_occupancy(mdp, expert)
    with pytest.raises(ValueError):
        l1_layer_distance(occ, occ, 4)


# ------------------------------------------------------------------- json

def test_integer_check_names_a_numpy_value_and_its_type():
    doc = {"horizon": np.int64(4), "num_states": 2, "num_actions": 2}
    with pytest.raises(ValueError, match=r"^instance: horizon must be an "
                                         r"integer, got 4 \(numpy\.int64\)$"):
        check_json(doc, {"horizon": int, "num_states": int,
                         "num_actions": int}, "instance")


class Unprintable:
    def __str__(self):
        raise RuntimeError("no text")


def test_show_value_never_raises():
    cyclic = []
    cyclic.append(cyclic)
    assert show_value(None) == "null" and show_value("4") == '"4"'
    assert show_value([1, 2.5]) == "[1, 2.5]"
    assert show_value(np.int64(3)) == "3 (numpy.int64)"
    assert show_value((4,)) == "(4,) (tuple)"
    assert show_value([np.int64(1)]).endswith(" (list)")
    assert show_value(cyclic) == "[[...]] (list)"
    assert show_value(Unprintable()).startswith("<")


def test_mdp_json_round_trip():
    mdp, _ = make_mm_lb(5, 256)
    doc = json.loads(json.dumps(mdp_to_json(mdp)))
    back = mdp_from_json(doc)
    assert back.horizon == mdp.horizon
    assert np.array_equal(back.rho, mdp.rho)
    assert np.array_equal(back.transitions, mdp.transitions)
    assert np.array_equal(back.rewards, mdp.rewards)


def test_single_step_mdp_round_trip():
    mdp = TabularMdp(1, 2, 1, np.array([0.25, 0.75]), np.zeros((0, 2, 1, 2)),
                     np.zeros((1, 2, 1)))
    back = mdp_from_json(mdp_to_json(mdp))
    assert back.transitions.shape == (0, 2, 1, 2)
    assert np.array_equal(back.rho, mdp.rho)


def test_policy_json_round_trip():
    pol = random_policy(mix64(51), 3, 2, 4)
    back = policy_from_json(json.loads(json.dumps(policy_to_json(pol))))
    assert np.array_equal(back.probs, pol.probs)


@pytest.mark.parametrize("key,nest", [
    ("transitions", np.ravel), ("transitions", lambda P: P.swapaxes(0, 1)),
    ("transitions", lambda P: P[:0].ravel()), ("rho", lambda r: r[:, None]),
    ("rewards", np.ravel)],
    ids=["transitions-flat", "transitions-misnested", "transitions-empty",
         "rho-nested", "rewards-flat"])
def test_instance_arrays_must_have_the_declared_nesting(key, nest):
    # bc-lb S=4, H=4 transitions nested (S, H-1, A, S) have rows that sum
    # to 1, so only the shape tells them from the (H-1, S, A, S) table.
    mdp, _ = make_bc_lb(4, 4)
    arr = getattr(mdp, key)
    bad = nest(arr)
    doc = {**mdp_to_json(mdp), key: bad.tolist()}
    with pytest.raises(ValueError) as exc:
        mdp_from_json(doc)
    assert str(exc.value) == (f"instance: {key} must have shape "
                              f"{arr.shape}, got {bad.shape}")


@pytest.mark.parametrize("key", ["horizon", "num_states", "num_actions"])
def test_instance_dimensions_must_be_positive(key):
    doc = {**mdp_to_json(make_bc_lb(4, 4)[0]), key: 0}
    with pytest.raises(ValueError, match="^instance: horizon, num_states "
                       "and num_actions must be positive$"):
        mdp_from_json(doc)


@pytest.mark.parametrize("key,value", [("horizon", 99), ("num_states", 1),
                                       ("num_actions", 7)])
def test_policy_header_must_match_probs(key, value):
    doc = policy_to_json(random_policy(mix64(52), 4, 2, 3))
    with pytest.raises(ValueError) as exc:
        policy_from_json({**doc, key: value})
    assert str(exc.value) == (f"policy: {key} is {value}, but probs has "
                              "shape (3, 4, 2)")
    # The header is optional; probs alone gives the shape.
    assert policy_from_json({"probs": doc["probs"]}).probs.shape == (3, 4, 2)
