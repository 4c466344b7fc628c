import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from il_lab.acceptance import random_policy
from il_lab.datasets import Dataset, SplitConfig, cell_sums, \
    empirical_occupancy, check_dataset, load_dataset, missing_mass, sample_dataset, save_dataset, split, \
    visited_table
from il_lab.harness import make_instance, train
from il_lab.instances import geometric_reset, make_bc_lb, make_fan, \
    make_mm_lb
from il_lab.learners import bc_train
from il_lab.mdp import exact_occupancy, l1_layer_distance
from il_lab.rng import mix64, mix64_array
from oracles import rollout


def tiny_dataset(rows):
    arr = np.array(rows, dtype=np.int64)
    return Dataset(arr[:, :, 0], arr[:, :, 1])


# --------------------------------------------------------------- sampling

def test_sample_shapes_and_provenance():
    mdp, expert = make_mm_lb(4, 100)
    ds = sample_dataset(mdp, expert, 5, 7, "mm", "expert")
    assert ds.states.shape == (5, 4) and ds.actions.shape == (5, 4)
    assert ds.n == 5 and ds.horizon == 4
    assert ds.provenance == ("mm", "expert", 7)


def test_sample_keeps_the_sampler_layout_read_only():
    # The sampler's (n,H) arrays are taken over as they are, in the F-order
    # that bc_train's per-step counts read fastest and in the narrow dtype
    # the sampler writes, and frozen.
    mdp, expert = make_mm_lb(4, 100)
    ds = sample_dataset(mdp, expert, 64, 7)
    for arr in (ds.states, ds.actions):
        assert arr.dtype == np.int8 and arr.flags.f_contiguous
        assert not arr.flags.writeable


def test_dataset_does_not_alias_caller_arrays():
    # Writing to the arrays a Dataset was built from, C- or F-order, leaves
    # it unchanged.
    for order in "CF":
        states = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int64, order=order)
        actions = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.int64, order=order)
        ds = Dataset(states, actions)
        want = (states.copy(), actions.copy())
        states[:] = 7
        actions[0, 0] = 9
        assert np.array_equal(ds.states, want[0])
        assert np.array_equal(ds.actions, want[1])
        assert not np.shares_memory(ds.states, states)


def test_sample_is_pure():
    mdp, expert = make_mm_lb(4, 100)
    a = sample_dataset(mdp, expert, 50, 13)
    b = sample_dataset(mdp, expert, 50, 13)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    c = sample_dataset(mdp, expert, 50, 14)
    assert not np.array_equal(a.states, c.states)


def test_sample_start_state_frequency():
    mdp, expert = make_mm_lb(4, 10_000)
    ds = sample_dataset(mdp, expert, 10_000, 3)
    # rho(state 1) = 1/sqrt(10000) = 0.01, so about 100 rare starts.
    count = int((ds.states[:, 0] == 1).sum())
    assert abs(count - 100) <= 30


# blake2b-64 of the states then the actions (little-endian int64, (n,H)
# row-major) of sample_dataset on one cell per instance family, seed
# mix64(606, H, n). A sampler change that moves any trajectory moves these.
FROZEN_DIGESTS = [
    ({"family": "mm-lb"}, 8, 1024, "ca613a934ad4e62b"),
    ({"family": "bc-lb", "states": 20, "actions": 2, "reset": "geometric",
      "ratio": 0.5, "construction_seed": 0}, 16, 1024, "cc22cb8885588968"),
    ({"family": "two-state"}, 5, 512, "92987318300eb9c0"),
    ({"family": "fan", "states": 4}, 6, 512, "0609b431d80fbd5a"),
    ({"family": "mixture"}, 8, 1024, "2d35ea672a6a3ddc"),
]


@pytest.mark.parametrize("cfg,H,n,digest", FROZEN_DIGESTS,
                         ids=[c[0]["family"] for c in FROZEN_DIGESTS])
def test_sampled_datasets_keep_their_frozen_digests(cfg, H, n, digest):
    _, mdp, expert = make_instance(cfg, H, n, 0)
    ds = sample_dataset(mdp, expert, n, mix64(606, H, n))
    h = hashlib.blake2b(digest_size=8)
    h.update(np.ascontiguousarray(ds.states, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(ds.actions, dtype="<i8").tobytes())
    assert h.hexdigest() == digest


def test_sample_rejects_empty():
    mdp, expert = make_mm_lb(4, 100)
    with pytest.raises(ValueError):
        sample_dataset(mdp, expert, 0, 1)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family,dtype", [("bc-lb", np.int8),
                                          ("fan", np.int16)])
def test_narrow_indices_widen_every_product(family, dtype):
    # bc-lb with S=100, A=2 stores int8, and s * A + a reaches 199; fan
    # with 130 states stores int16, and a state's guide offset s << 8
    # reaches 33024. The policy is stochastic, so every action draw looks
    # up its guide at that offset (a fixed table never forms it), and its
    # rows differ by state, so a draw from a wrong row shows. The sampler
    # matches the scalar rollout, and every count matches the same data
    # held as int64, bit for bit.
    mdp, _ = make_bc_lb(100, 4) if family == "bc-lb" else make_fan(129, 4)
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    policy = random_policy(mix64(43), S, A, H)
    n, seed = 300, 41
    ds = sample_dataset(mdp, policy, n, seed)
    assert ds.states.dtype == ds.actions.dtype == dtype
    for i in range(n):
        traj = rollout(mdp, policy, mix64(seed, i))
        assert ds.states[i].tolist() == traj.states.tolist()
        assert ds.actions[i].tolist() == traj.actions.tolist()
    wide = Dataset(ds.states, ds.actions)
    assert wide.states.dtype == np.int64
    top = np.iinfo(dtype).max
    assert wide.states.max() << 8 > top
    overflows = (wide.states * A + wide.actions).max() > top
    assert overflows == (family == "bc-lb")
    weights = np.linspace(0.0, 1.0, n * H).reshape(n, H)
    for w in (None, weights):
        assert same_bits(cell_sums(ds.states, ds.actions, S, A, w),
                         cell_sums(wide.states, wide.actions, S, A, w))
    assert same_bits(bc_train(ds, S, A, H).probs,
                     bc_train(wide, S, A, H).probs)
    assert same_bits(empirical_occupancy(ds, S, A).d,
                     empirical_occupancy(wide, S, A).d)
    assert same_bits(visited_table(ds, S), visited_table(wide, S))


# ------------------------------------------------------------- empirical

def scatter_reference(states, actions, S, A, weights):
    """Per-cell sums by np.add.at, one step at a time in row-major order."""
    H = states.shape[1]
    out = np.zeros((H, S, A))
    t_idx = np.broadcast_to(np.arange(H), states.shape)
    np.add.at(out, (t_idx, states, actions), weights)
    return out


def test_cell_sums_match_the_scatter_reference():
    # bincount adds in the reference's order, so the sums agree bit for bit,
    # also on F-order steps such as the sampler's.
    S, A, n, H = 5, 3, 400, 6
    u = np.array([mix64(31, i) for i in range(3 * n * H)]) / 2.0**64
    states = (u[:n * H] * S).astype(np.int64).reshape(n, H)
    actions = (u[n * H:2 * n * H] * A).astype(np.int64).reshape(n, H)
    weights = u[2 * n * H:].reshape(n, H)
    ones = np.ones((n, H))
    for s, a in ((states, actions),
                 (np.asfortranarray(states), np.asfortranarray(actions))):
        counts = cell_sums(s, a, S, A)
        assert counts.dtype == np.int64 and counts.shape == (H, S, A)
        assert np.array_equal(counts, scatter_reference(s, a, S, A, ones))
        assert np.array_equal(cell_sums(s, a, S, A, weights),
                              scatter_reference(s, a, S, A, weights))


def flat_bincount_reference(states, actions, S, A, weights):
    """One bincount over the flat (t, s, a) index of every step, read in
    row-major order, so a cell's weights add in increasing trajectory
    index."""
    H = states.shape[1]
    flat = (np.arange(H) * S + states) * A + actions
    return np.bincount(flat.ravel(), weights.ravel(),
                       H * S * A).reshape(H, S, A)


def test_cell_sums_match_the_flat_bincount_reference_bit_for_bit():
    # One bincount per step sums each cell in the same order as one over
    # the flat index; compared by float.hex on both memory layouts.
    S, A, n, H = 7, 2, 1500, 5
    u = np.array([mix64(47, i) for i in range(3 * n * H)]) / 2.0**64
    states = (u[:n * H] * S).astype(np.int64).reshape(n, H)
    actions = (u[n * H:2 * n * H] * A).astype(np.int64).reshape(n, H)
    weights = u[2 * n * H:].reshape(n, H) * 3.0 - 1.0
    for order in ("C", "F"):
        s, a, w = (np.asarray(x, order=order)
                   for x in (states, actions, weights))
        got = cell_sums(s, a, S, A, w)
        ref = flat_bincount_reference(s, a, S, A, w)
        assert [v.hex() for v in got.ravel()] == \
            [v.hex() for v in ref.ravel()]
        assert np.array_equal(cell_sums(s, a, S, A),
                              flat_bincount_reference(s, a, S, A,
                                                      np.ones((n, H))))


def test_empirical_single_trajectory():
    ds = tiny_dataset([[(0, 1), (2, 0)]])
    d = empirical_occupancy(ds, 3, 2).d
    assert d.shape == (2, 3, 2)
    assert d[0, 0, 1] == 1.0 and d[0].sum() == 1.0
    assert d[1, 2, 0] == 1.0 and d[1].sum() == 1.0


def test_empirical_duplicates_average():
    ds = tiny_dataset([[(0, 0)], [(0, 0)], [(1, 1)], [(0, 1)]])
    d = empirical_occupancy(ds, 2, 2).d
    assert d[0, 0, 0] == 0.5
    assert d[0, 1, 1] == 0.25
    assert d[0, 0, 1] == 0.25


def test_empirical_matches_exact_frequency():
    mdp, expert = make_mm_lb(4, 100)
    ds = sample_dataset(mdp, expert, 400, 5)
    d = empirical_occupancy(ds, 2, 2).d
    # d_1(state 0, action 0) is Binomial(400, 1/2)/400.
    assert abs(d[1, 0, 0] - 0.5) <= 0.075
    assert np.all(d[:, :, 1] == 0.0)


def test_empirical_bound_checks():
    with pytest.raises(ValueError):
        empirical_occupancy(tiny_dataset([[(0, 1)]]), 3, 1)
    with pytest.raises(ValueError):
        empirical_occupancy(tiny_dataset([[(2, 0)]]), 2, 2)
    with pytest.raises(ValueError):
        empirical_occupancy(Dataset(np.zeros((0, 2), dtype=np.int64),
                                    np.zeros((0, 2), dtype=np.int64)), 2, 2)


def test_empirical_converges_to_exact():
    mdp, expert = make_mm_lb(4, 100)
    ds = sample_dataset(mdp, expert, 100_000, 6)
    emp = empirical_occupancy(ds, 2, 2)
    ex = exact_occupancy(mdp, expert)
    for t in range(4):
        assert l1_layer_distance(emp, ex, t) <= 0.05


# ------------------------------------------------------------------ split

def test_split_sizes():
    ds = tiny_dataset([[(0, 0)]] * 10)
    d1, d2 = split(ds, SplitConfig(0.5, 3))
    assert (d1.n, d2.n) == (5, 5)
    d1, d2 = split(tiny_dataset([[(0, 0)]] * 3), SplitConfig(0.5, 3))
    assert (d1.n, d2.n) == (2, 1)


def test_split_is_pure_and_seed_sensitive():
    mdp, expert = make_mm_lb(4, 100)
    ds = sample_dataset(mdp, expert, 64, 9)
    a1, a2 = split(ds, SplitConfig(0.5, 11))
    b1, b2 = split(ds, SplitConfig(0.5, 11))
    assert np.array_equal(a1.states, b1.states)
    assert np.array_equal(a2.actions, b2.actions)
    c1, _ = split(ds, SplitConfig(0.5, 12))
    assert not np.array_equal(a1.states, c1.states)


@given(st.integers(0, 10_000))
def test_split_partitions_multiset(seed):
    n = 4 + seed % 40
    states = np.arange(n, dtype=np.int64)[:, None]
    ds = Dataset(states, states % 3)
    d1, d2 = split(ds, SplitConfig(0.3 + (seed % 5) / 10.0, seed))
    merged = np.sort(np.concatenate([d1.states[:, 0], d2.states[:, 0]]))
    assert np.array_equal(merged, np.arange(n))
    assert d1.n + d2.n == n


def argsort_split(n, cfg):
    """Trajectory indices of the halves by a full stable argsort of the
    keys: the n1 smallest to D1, both halves in index order."""
    n1 = int(cfg.frac1 * n + 0.5)
    order = np.argsort(mix64_array(cfg.split_seed,
                                   np.arange(n, dtype=np.uint64)),
                       kind="stable")
    return np.sort(order[:n1]), np.sort(order[n1:])


def test_split_matches_the_argsort_reference():
    mdp, expert = make_bc_lb(8, 5, 2, geometric_reset(7, 0.5), 1)
    full = sample_dataset(mdp, expert, 400, 4, "bc-lb", "expert")
    sizes = set()
    for n in (2, 3, 7, 10, 64, 257, 400):
        # The sampler's step-major layout and a row-major copy.
        for ds in (full.subset(np.arange(n)),
                   Dataset(full.states[:n], full.actions[:n],
                           full.provenance)):
            for frac1 in (0.05, 0.1, 0.3, 0.5, 0.9, 0.95):
                for seed in range(4):
                    cfg = SplitConfig(frac1, mix64(31, n, seed))
                    n1 = int(frac1 * n + 0.5)
                    if n1 < 1 or n1 > n - 1:
                        continue
                    sizes.add((n1 == 1, n1 == n - 1))
                    for half, idx in zip(split(ds, cfg),
                                         argsort_split(n, cfg)):
                        assert np.array_equal(half.states, ds.states[idx])
                        assert np.array_equal(half.actions, ds.actions[idx])
                        assert half.provenance == ds.provenance
                        assert not half.states.flags.writeable
                        assert not half.actions.flags.writeable
    # n1 = 1 and n1 = n - 1 were both among the cases.
    assert {(True, False), (False, True)} <= sizes


def test_subset_shares_no_memory_a_caller_can_write():
    states = np.arange(12, dtype=np.int64).reshape(4, 3) % 3
    ds = Dataset(states, states % 2)
    for idx in (np.array([2, 0]), np.array([True, False, True, True]),
                slice(1, 3)):
        sub = ds.subset(idx)
        assert np.array_equal(sub.states, ds.states[idx])
        assert not sub.states.flags.writeable
        assert not np.shares_memory(sub.states, states)
    states[:] = 0
    assert ds.subset(slice(None)).states.any()


def test_split_rejects_degenerate():
    ds = tiny_dataset([[(0, 0)]])
    with pytest.raises(ValueError):
        split(ds, SplitConfig(0.5, 0))
    with pytest.raises(ValueError):
        SplitConfig(1.0, 0)


# ----------------------------------------------------------- missing mass

def test_missing_mass_zero_when_covered():
    mdp, expert = make_mm_lb(4, 100)
    ds = tiny_dataset([[(0, 0)] * 4, [(1, 0)] * 4])
    assert np.all(missing_mass(ds, mdp, expert) == 0.0)


def test_missing_mass_single_fan_trajectory():
    mdp, expert = make_fan(4, 3)
    ds = tiny_dataset([[(2, 0), (2, 0), (2, 0)]])
    mm = missing_mass(ds, mdp, expert)
    # Expert spreads uniformly over 4 top states; only one was seen.
    assert np.allclose(mm, 0.75, atol=1e-12)


def test_missing_mass_monotone_in_data():
    mdp, expert = make_bc_lb(12, 5, reset_dist=geometric_reset(11, 0.5))
    ds = sample_dataset(mdp, expert, 60, 21)
    small = ds.subset(np.arange(20))
    mm_small = missing_mass(small, mdp, expert)
    mm_big = missing_mass(ds, mdp, expert)
    assert np.all(mm_big <= mm_small + 1e-15)


def test_missing_mass_scales_inversely_with_data():
    mdp, expert = make_bc_lb(20, 4, reset_dist=geometric_reset(19, 0.5))
    means = []
    for n in (64, 256, 1024):
        vals = [missing_mass(sample_dataset(mdp, expert, n, mix64(31, n, r)),
                             mdp, expert)[0] for r in range(200)]
        means.append(np.mean(vals))
    slope = np.polyfit(np.log(np.array([64.0, 256.0, 1024.0])),
                       np.log(np.array(means)), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_visited_table():
    ds = tiny_dataset([[(0, 0), (2, 1)], [(0, 1), (0, 0)]])
    vis = visited_table(ds, 3)
    assert vis.tolist() == [[True, False, False], [True, False, True]]


def test_visited_table_matches_the_per_step_reference():
    mdp, expert = make_bc_lb(12, 5, 2, geometric_reset(11, 0.5), 0)
    datasets = [sample_dataset(mdp, expert, n, mix64(32, n))
                for n in (1, 2, 50, 1000)]
    datasets.append(tiny_dataset([[(3, 0), (3, 1), (3, 0)]] * 4))
    for ds in datasets:
        ref = np.zeros((ds.horizon, 12), dtype=bool)
        for t in range(ds.horizon):
            ref[t, np.unique(ds.states[:, t])] = True
        assert np.array_equal(visited_table(ds, 12), ref)
    # The last dataset visits state 3 alone.
    assert visited_table(datasets[-1], 12).sum(axis=1).tolist() == [1, 1, 1]


# ------------------------------------------------------------------ jsonl

def test_dataset_round_trip(tmp_path):
    mdp, expert = make_mm_lb(5, 64)
    ds = sample_dataset(mdp, expert, 12, 8, "mm", "expert")
    path = tmp_path / "d.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.states, ds.states)
    assert np.array_equal(back.actions, ds.actions)
    assert back.provenance == ds.provenance


def test_load_rejects_inconsistent_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 2, "H": 1, "provenance": ["", "", 0]}\n[[0, 0]]\n')
    with pytest.raises(ValueError):
        load_dataset(path)


@pytest.mark.parametrize("rows, message", [
    # Ragged: the second trajectory is one step short.
    ("[[0, 0], [1, 0]]\n[[0, 1]]\n", "trajectory 1: expected 2"),
    # Triples instead of (state, action) pairs.
    ("[[0, 0, 0], [1, 0, 0]]\n", "trajectory 0: every step"),
    # Not an integer index.
    ("[[0, 0], [1, 0.5]]\n", "trajectory 0: every step"),
])
def test_load_rejects_malformed_rows(tmp_path, rows, message):
    n = rows.count("\n")
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"n": {n}, "H": 2, "provenance": ["", "", 0]}}\n'
                    + rows)
    with pytest.raises(ValueError, match=message):
        load_dataset(path)


@pytest.mark.parametrize("learner", ["bc", "mm", "re"])
def test_an_out_of_range_action_is_not_counted_in_the_next_state(learner):
    # bc-lb with S=4, A=2: action 2 at state 0 forms the index s*A + a of
    # (state 1, action 0). Every learner refuses it, naming the index and
    # its bound, instead of cloning action 0 at state 1.
    mdp = make_bc_lb(4, 2, 2, None, 0)[0]
    ds = Dataset([[0, 1]] * 4, [[2, 0]] * 4)
    with pytest.raises(ValueError, match="action index 2 is outside the "
                                         "instance's 2 actions"):
        train(learner, {}, ds, mdp)


def test_out_of_range_indices_raise_where_they_are_counted():
    ds = Dataset([[0, 4]], [[1, 0]])
    for count in (lambda: cell_sums(ds.states, ds.actions, 4, 2),
                  lambda: visited_table(ds, 4)):
        with pytest.raises(ValueError, match="state index 4 is outside the "
                                             "instance's 4 states"):
            count()
    with pytest.raises(ValueError, match="action index 1 is outside the "
                                         "instance's 1 actions"):
        cell_sums(ds.states, ds.actions, 5, 1)


def test_check_dataset_against_instance():
    mdp, expert = make_mm_lb(4, 64)
    ds = sample_dataset(mdp, expert, 8, 3)
    check_dataset(ds, mdp)
    with pytest.raises(ValueError, match="horizon 4 does not match the "
                                         "instance horizon 5"):
        check_dataset(ds, make_mm_lb(5, 64)[0])
    big = make_bc_lb(5, 4)[0]
    with pytest.raises(ValueError, match=r"state index \d is outside the "
                                         "instance's 2 states"):
        check_dataset(sample_dataset(big, make_bc_lb(5, 4)[1], 64, 3), mdp)
    bad_action = Dataset(ds.states, np.full(ds.states.shape, 2))
    with pytest.raises(ValueError, match="action index 2"):
        check_dataset(bad_action, mdp)
