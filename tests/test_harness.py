import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from il_lab import datasets, harness
from il_lab.datasets import Dataset, SplitConfig, sample_dataset
from il_lab.harness import CSV_COLUMNS, ExperimentConfig, ResultRow, \
    conditional_gap_check, event_probe, fit_slope, load_csv, make_instance, \
    rows_to_csv, run_cell, run_experiment, train
from il_lab.instances import geometric_reset, make_bc_lb, make_mm_lb
from il_lab.learners import re_train
from il_lab.mdp import policy_value
from il_lab.rng import mix64


def synthetic_rows(fn, n_grid=(100, 1000, 10000, 100000), seeds=120):
    rows = []
    for n in n_grid:
        for s in range(seeds):
            rows.append(ResultRow("syn", "syn", 4, 2, 2, n, s, fn(n), "ok",
                                  "syn"))
    return rows


# ----------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig({"family": "mm-lb"}, {"id": "mm"},
                         {"H": [], "n_exp": [4]}, {"count": 1})
    with pytest.raises(ValueError):
        ExperimentConfig({"family": "mm-lb"}, {"id": "mm"},
                         {"H": [4], "n_exp": [4]}, {"count": 0})
    doc = {"instance": {"family": "mm-lb"}, "learner": {"id": "bc"},
           "grid": {"H": [4], "n_exp": [16]}, "seeds": {"count": 2}}
    assert ExperimentConfig.from_json(doc).seeds == {"count": 2}
    # The output path is the CLI's --out, not a config key.
    with pytest.raises(ValueError, match="^unknown experiment config keys: "
                                         "output$"):
        ExperimentConfig.from_json({**doc, "output": "rows.csv"})


def test_config_names_a_numpy_value_and_its_type():
    # A Python caller's numpy scalar fails the JSON type check in one line,
    # not in a TypeError from formatting the message.
    def config(H, count):
        return ExperimentConfig({"family": "mm-lb"}, {"id": "mm"},
                                {"H": [H], "n_exp": [16]}, {"count": count})
    with pytest.raises(ValueError, match=r"^grid: H must be a nonempty array "
                                         r"of integers, got \[np\.int64\(8\)\] "
                                         r"\(list\)$"):
        config(np.int64(8), 2)
    with pytest.raises(ValueError, match=r"^seeds: count must be an integer, "
                                         r"got 2 \(numpy\.int32\)$"):
        config(8, np.int32(2))


# ------------------------------------------------------------------ cells

def test_single_cell_row_fields():
    row = run_cell({"family": "mm-lb"}, {"id": "bc"}, 4, 16, mix64(1, 0, 0),
                   seed_index=0)
    assert (row.instance, row.learner) == ("mm-lb", "bc")
    assert (row.H, row.S, row.A, row.n_exp, row.seed) == (4, 2, 2, 16, 0)
    assert row.status == "ok" and row.component == "mm-lb"
    assert math.isfinite(row.gap) and row.wall_time_ms >= 0.0


def test_experiment_emits_cell_by_seed_rows():
    cfg = ExperimentConfig(instance={"family": "two-state"},
                           learner={"id": "bc"},
                           grid={"H": [2, 3], "n_exp": [8]},
                           seeds={"count": 3, "base": 5})
    rows = run_experiment(cfg)
    assert len(rows) == 6
    assert [(r.H, r.seed) for r in rows] == [(2, 0), (2, 1), (2, 2),
                                             (3, 0), (3, 1), (3, 2)]
    again = run_experiment(cfg)
    assert [r.gap for r in rows] == [r.gap for r in again]


def test_gap_is_learner_value_shortfall():
    # A dataset this large pins BC to the expert, so the gap must vanish.
    row = run_cell({"family": "two-state"}, {"id": "bc"}, 3, 400, mix64(2, 0))
    assert row.gap == pytest.approx(0.0, abs=1e-12)


def test_mixture_cells_reduce_to_their_component_families():
    mix_cfg = {"family": "mixture", "states": 16, "construction_seed": 7,
               "mixture_seed": 0}
    learner = {"id": "mm"}
    hits = {"mm-lb": 0, "bc-lb": 0}
    for draw in range(6):
        seed = mix64(99, 0, draw)
        row = run_cell(mix_cfg, learner, 8, 64, seed, draw_index=draw)
        assert row.instance == "mixture"
        direct_cfg = {"mm-lb": {"family": "mm-lb"},
                      "bc-lb": {"family": "bc-lb", "states": 16,
                                "construction_seed": 7}}[row.component]
        direct = run_cell(direct_cfg, learner, 8, 64, seed)
        assert direct.gap == row.gap
        assert (direct.S, direct.A) == (row.S, row.A)
        hits[row.component] += 1
    assert hits["mm-lb"] > 0 and hits["bc-lb"] > 0


def test_failure_rows_are_emitted_not_dropped(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic solver failure")
    monkeypatch.setattr(harness, "mm_train", boom)
    cfg = ExperimentConfig(instance={"family": "mm-lb"}, learner={"id": "mm"},
                           grid={"H": [4], "n_exp": [16]},
                           seeds={"count": 2, "base": 1})
    rows = run_experiment(cfg)
    assert len(rows) == 2
    assert all(r.status == "numeric-failure" for r in rows)
    assert all(math.isnan(r.gap) for r in rows)


def test_unknown_family_and_learner_raise():
    with pytest.raises(ValueError):
        run_cell({"family": "gridworld"}, {"id": "bc"}, 4, 8, 1)
    with pytest.raises(ValueError):
        run_cell({"family": "mm-lb"}, {"id": "dagger"}, 4, 8, 1)


def test_re_learner_keys():
    # frac1 reaches the split; the split seed comes from the run seed, so
    # the config may not set it; a misspelt key is an error.
    mdp, expert = make_mm_lb(4, 64)
    seed = mix64(3, 0, 0)
    ds = sample_dataset(mdp, expert, 64, mix64(seed, 1))
    learned = re_train(ds, mdp, SplitConfig(0.9, mix64(seed, 2)))
    row = run_cell({"family": "mm-lb"}, {"id": "re", "frac1": 0.9}, 4, 64,
                   seed)
    assert row.gap == policy_value(mdp, expert) - policy_value(mdp, learned)
    with pytest.raises(ValueError, match="keys: frac$"):
        run_cell({"family": "mm-lb"}, {"id": "re", "frac": 0.9}, 4, 64, seed)
    with pytest.raises(ValueError, match="^learner key split_seed is derived "
                                         "from the run seed$"):
        run_cell({"family": "mm-lb"}, {"id": "re", "split_seed": 1}, 4, 64,
                 seed)


def test_train_builds_re_config_from_its_fields():
    # re reads exactly the SplitConfig fields, by name: train's options are
    # SplitConfig(**options). A bad key or value is rejected as the config
    # is built, before the dataset or the instance is read.
    mdp, expert = make_mm_lb(4, 64)
    ds = sample_dataset(mdp, expert, 64, 5)
    doc = {"frac1": 0.3, "split_seed": 5}
    assert set(doc) == {f.name for f in fields(SplitConfig)}
    assert SplitConfig(**doc) == SplitConfig(0.3, 5)
    for opts, cfg in ((doc, SplitConfig(**doc)), ({}, SplitConfig())):
        assert np.array_equal(train("re", opts, ds, mdp).probs,
                              re_train(ds, mdp, cfg).probs)
    for opts, message in (({"frac": 0.3, "seed": 1, "split_seed": 3},
                           "^unknown replay-estimation config keys: "
                           "frac, seed$"),
                          ({"split": SplitConfig(0.3, 5)}, "keys: split$"),
                          ({"frac1": 1.5}, "frac1"),
                          ({"oracle_override": "ones"},
                           "^unknown replay-estimation config keys: "
                           "oracle_override$")):
        with pytest.raises(ValueError, match=message):
            train("re", opts, None, None)


def test_train_checks_an_accepted_re_config_once(monkeypatch):
    # SplitConfig checks its fields' kinds as it is built; train checks the
    # options itself only when SplitConfig cannot take them.
    checked, check_json = [], datasets.check_json
    for module in (datasets, harness):
        monkeypatch.setattr(module, "check_json", lambda doc, kinds, what,
                            **kw: checked.append(what)
                            or check_json(doc, kinds, what, **kw))
    mdp, expert = make_mm_lb(4, 64)
    ds = sample_dataset(mdp, expert, 64, 5)
    for opts in ({"frac1": 0.3, "split_seed": 5}, {}):
        checked.clear()
        train("re", opts, ds, mdp)
        assert checked == ["replay-estimation config"]


@pytest.mark.parametrize("learner", ["bc", "mm", "re"])
@pytest.mark.parametrize("states,message", [
    ([[0, 1]] * 4, "^dataset horizon 2 does not match the instance "
     "horizon 3$"),
    ([[0, 1, 2, 3]] * 4, "^dataset horizon 4 does not match the instance "
     "horizon 3$"),
    ([[0, 1, 2]] * 3 + [[0, 7, 1]], "^dataset state index 7 is outside the "
     "instance's 4 states$")], ids=["short", "long", "state"])
def test_train_checks_the_dataset_against_the_instance(learner, states,
                                                       message):
    # Every learner gets the same message, whichever array would first
    # index out of range; the re split puts trajectory 3 in D2.
    mdp = make_bc_lb(4, 3, 2, None, 0)[0]
    ds = Dataset(states, np.zeros_like(states))
    with pytest.raises(ValueError, match=message):
        train(learner, {}, ds, mdp)


@pytest.mark.parametrize("family,H", [("mm-lb", 4), ("bc-lb", 4), ("fan", 4),
                                      ("two-state", 4), ("mixture", 8)])
def test_every_family_rejects_an_unknown_key(family, H):
    with pytest.raises(ValueError,
                       match="^unknown instance keys: sates$"):
        make_instance({"family": family, "sates": 4}, H, 16, 0)


@pytest.mark.parametrize("family", ["bc-lb", "mixture"])
@pytest.mark.parametrize("reset", [None, "uniform"])
def test_ratio_without_the_geometric_reset_is_rejected(family, reset):
    # Only the geometric reset reads "ratio"; with any other reset the key
    # would be dropped unread.
    cfg = {"family": family, "ratio": 0.3}
    if reset:
        cfg["reset"] = reset
    with pytest.raises(ValueError,
                       match=f"^unknown {family} instance keys: ratio$"):
        make_instance(cfg, 8, 100, 0)


def test_ratio_reaches_the_geometric_reset():
    _, mdp, _ = make_instance({"family": "bc-lb", "states": 6,
                               "reset": "geometric", "ratio": 0.3}, 4, 100, 0)
    assert mdp is make_bc_lb(6, 4, 2, geometric_reset(5, 0.3), 0)[0]


@pytest.mark.parametrize("key,value,message", [
    ("states", 4.5, "states must be an integer, got 4.5"),
    ("actions", "2", 'actions must be an integer, got "2"'),
    ("construction_seed", 1.5, "construction_seed must be an integer, got 1.5"),
    ("mixture_seed", None, "mixture_seed must be an integer, got null"),
    ("ratio", True, "ratio must be a number, got true"),
    ("ratio", "0.5", 'ratio must be a number, got "0.5"'),
    ("states", np.int64(16), "states must be an integer, got 16 "
                             "(numpy.int64)"),
    ("ratio", np.float64(0.5), "ratio must be a number, got 0.5 "
                               "(numpy.float64)"),
], ids=["states", "actions", "construction-seed", "mixture-seed",
        "ratio-true", "ratio-string", "states-numpy", "ratio-numpy"])
def test_instance_values_must_have_their_json_type(key, value, message):
    # Not int() or float(): those build seed 1 from 1.5 and ratio 1 from
    # true.
    cfg = {"family": "mixture", "reset": "geometric", key: value}
    with pytest.raises(ValueError) as exc:
        make_instance(cfg, 8, 100, 0)
    assert str(exc.value) == f"instance: {message}"


def test_instance_types_are_checked_in_a_fixed_order():
    cfg = {"family": "bc-lb", "construction_seed": 1.5, "states": 4.5}
    with pytest.raises(ValueError, match="^instance: states "):
        make_instance(cfg, 8, 100, 0)
    with pytest.raises(ValueError, match=r'^instance must be a JSON object, '
                                         r'got \["mm-lb"\]$'):
        make_instance(["mm-lb"], 8, 100, 0)


@pytest.mark.parametrize("learner,what,key", [
    ("bc", "bc config", "tie_rul"),
    ("mm", "mm config", "frac1"),  # keys of the other learners are not mm's
    ("mm", "mm config", "tie_rule"),
    ("re", "replay-estimation config", "tie_rul")])
def test_every_learner_rejects_an_unknown_key(learner, what, key):
    # Through run_cell (an experiment's learner config) and through train
    # (the CLI's --config).
    message = f"^unknown {what} keys: {key}$"
    with pytest.raises(ValueError, match=message):
        run_cell({"family": "mm-lb"}, {"id": learner, key: 0.3}, 4, 16, 1)
    mdp, expert = make_mm_lb(4, 16)
    ds = sample_dataset(mdp, expert, 16, 1)
    with pytest.raises(ValueError, match=message):
        train(learner, {key: 0.3}, ds, mdp)


def test_experiment_config_from_json_names_missing_and_unknown_keys():
    base = {"instance": {"family": "mm-lb"}, "learner": {"id": "bc"},
            "grid": {"H": [4], "n_exp": [16]}, "seeds": {"count": 2}}
    with pytest.raises(ValueError, match="^experiment config: missing keys "
                                         "learner, grid, seeds$"):
        ExperimentConfig.from_json({"instance": {"family": "mm-lb"}})
    with pytest.raises(ValueError,
                       match="^unknown experiment config keys: seed$"):
        ExperimentConfig.from_json({**base, "seed": 3})
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_json([base])
    assert str(exc.value) == ("experiment config must be a JSON object, got "
                              + json.dumps([base]))


def test_experiment_config_rejects_unknown_grid_and_seeds_keys():
    base = {"instance": {"family": "mm-lb"}, "learner": {"id": "bc"},
            "grid": {"H": [4], "n_exp": [8]}, "seeds": {"count": 2}}
    with pytest.raises(ValueError, match="^unknown seeds keys: bsae$"):
        ExperimentConfig.from_json({**base,
                                    "seeds": {"count": 2, "bsae": 5}})
    with pytest.raises(ValueError, match="^unknown grid keys: N, n$"):
        ExperimentConfig.from_json(
            {**base, "grid": {"H": [4], "n_exp": [8], "n": [5], "N": [5]}})
    cfg = ExperimentConfig.from_json({**base,
                                      "seeds": {"count": 2, "base": 5}})
    assert [r.seed for r in run_experiment(cfg)] == [0, 1]


def test_a_warm_re_cell_at_large_n_peaks_under_two_mib():
    # A re cell on mm-lb at H=8, N=16384 allocates at most 2 MiB at its
    # peak once the instance and its tables are cached: the sampler's
    # index arrays are int8 and the replay weights one buffer. As int64,
    # the dataset's two (n,H) arrays alone would fill the bound.
    # tracemalloc counts numpy's buffers; the peak depends on no timing.
    inst, learner = {"family": "mm-lb"}, {"id": "re"}
    run_cell(inst, learner, 8, 16384, 1)
    tracemalloc.start()
    try:
        row = run_cell(inst, learner, 8, 16384, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.status == "ok"
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# -------------------------------------------------------------------- csv

def test_csv_schema_and_round_trip(tmp_path):
    rows = [run_cell({"family": "mm-lb"}, {"id": "mm"}, 4, 16, mix64(3, i),
                     seed_index=i) for i in range(3)]
    path = tmp_path / "rows.csv"
    text = rows_to_csv(rows, path)
    header = text.splitlines()[0].split(",")
    assert header == CSV_COLUMNS
    back = load_csv(path)
    assert [(r.n_exp, r.seed, r.gap, r.status) for r in back] == \
        [(r.n_exp, r.seed, r.gap, r.status) for r in rows]


def test_csv_is_deterministic_except_wall_time():
    def strip_wall(text):
        return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]
    rows_a = [run_cell({"family": "mm-lb"}, {"id": "mm"}, 4, 16, mix64(4, i))
              for i in range(2)]
    rows_b = [run_cell({"family": "mm-lb"}, {"id": "mm"}, 4, 16, mix64(4, i))
              for i in range(2)]
    assert strip_wall(rows_to_csv(rows_a)) == strip_wall(rows_to_csv(rows_b))


def test_csv_keeps_gap_bits(tmp_path):
    row = ResultRow("syn", "syn", 4, 2, 2, 16, 0, 1.0 / 3.0, "ok", "syn", 1.25)
    path = tmp_path / "one.csv"
    rows_to_csv([row], path)
    assert load_csv(path)[0].gap == 1.0 / 3.0


# ------------------------------------------------------------------ probes

def test_event_probe_small_run():
    out = event_probe(400, 4, 200, seed=66)
    assert out["p_e1"] >= 0.99
    assert out["p_e2"] >= 0.4
    assert out["p_all"] > 0.0
    assert out["count_all"] == round(out["p_all"] * 200)
    with pytest.raises(ValueError):
        event_probe(400, 4, 50, seed=66)


def test_conditional_gap_check_passes_on_conditioned_draws():
    out = conditional_gap_check(100, 4, 2000, seed=77)
    assert out["status"] == "pass"
    assert out["conditioning"] > 100
    assert out["expected_gap"] == pytest.approx(0.15, abs=1e-15)
    assert out["max_abs_err"] <= 1e-9


def test_conditional_gap_check_reports_inconclusive_when_none_conditions():
    # One trajectory never shows both states at a step, so E1 never holds.
    assert conditional_gap_check(1, 4, 100, seed=5) == {
        "status": "inconclusive", "conditioning": 0, "expected_gap": 1.5,
        "max_abs_err": 0.0}


def test_conditional_gap_check_rejects_bad_horizon():
    with pytest.raises(ValueError, match="H >= 4"):
        conditional_gap_check(100, 3, 1000, seed=1)


@pytest.mark.parametrize("n_datasets", [-3, 0, 99])
def test_conditional_gap_check_rejects_too_few_datasets(n_datasets):
    # The same check as event_probe's, not an "inconclusive" report.
    with pytest.raises(ValueError, match="^need at least 100 datasets$"):
        conditional_gap_check(100, 4, n_datasets, seed=1)


# ------------------------------------------------------------------ slopes

def test_fit_slope_exact_power_laws():
    slope, stderr = fit_slope(synthetic_rows(lambda n: 7.0 / n))
    assert slope == pytest.approx(-1.0, abs=1e-9)
    assert stderr <= 1e-9
    slope, _ = fit_slope(synthetic_rows(lambda n: 2.0 / math.sqrt(n)))
    assert slope == pytest.approx(-0.5, abs=1e-9)


def test_fit_slope_filters_and_axes():
    rows = synthetic_rows(lambda n: 1.0 / n)
    other = [ResultRow("other", "syn", h, 2, 2, 100, s, 0.25 / h, "ok", "syn")
             for h in (2, 4, 8) for s in range(150)]
    slope, _ = fit_slope(rows + other, where={"instance": "syn"})
    assert slope == pytest.approx(-1.0, abs=1e-9)
    slope_h, _ = fit_slope(other, where={"instance": "other"}, x="H")
    assert slope_h == pytest.approx(-1.0, abs=1e-9)


def test_fit_slope_error_cases():
    with pytest.raises(ValueError):
        fit_slope(synthetic_rows(lambda n: 1.0 / n, n_grid=(10, 100)))
    with pytest.raises(ValueError):
        fit_slope(synthetic_rows(lambda n: 1.0 / n, seeds=50))
    with pytest.raises(ValueError):
        fit_slope(synthetic_rows(lambda n: 0.0))
    with pytest.raises(ValueError, match="unknown filter columns: lerner"):
        fit_slope(synthetic_rows(lambda n: 1.0 / n), where={"lerner": "syn"})
    failed = synthetic_rows(lambda n: 1.0 / n)
    failed = [ResultRow(r.instance, r.learner, r.H, r.S, r.A, r.n_exp, r.seed,
                        float("nan"), "numeric-failure", r.component)
              for r in failed]
    with pytest.raises(ValueError):
        fit_slope(failed)


def test_fit_slope_ignores_failed_rows():
    rows = synthetic_rows(lambda n: 3.0 / n)
    rows += [ResultRow("syn", "syn", 4, 2, 2, 100, 999, float("nan"),
                       "numeric-failure", "syn")]
    slope, _ = fit_slope(rows)
    assert slope == pytest.approx(-1.0, abs=1e-9)


# -------------------------------------------------------------- statistics

def test_mm_gap_magnitude_on_rare_start_instance():
    # 200 paired draws at H=8, N=1024. The conditional gap is 7/64; roughly
    # a third of draws realize it, so the unconditioned mean sits near 0.04
    # (measured 0.0421 with sd 0.044, so a 3 sigma band is [0.03, 0.055]).
    cfg = ExperimentConfig(instance={"family": "mm-lb"}, learner={"id": "mm"},
                           grid={"H": [8], "n_exp": [1024]},
                           seeds={"count": 200, "base": 321})
    rows = run_experiment(cfg)
    gaps = np.array([r.gap for r in rows])
    assert all(r.status == "ok" for r in rows)
    assert gaps.min() >= -1e-12
    assert gaps.max() <= 7.0 / 64.0 + 1e-9
    assert 0.028 <= gaps.mean() <= 0.056


# ----------------------------------------------------------------- caches

def table_rows(cfg):
    return [(r.instance, r.learner, r.H, r.n_exp, r.seed, r.component,
             r.status, r.gap.hex()) for r in run_experiment(cfg)]


def test_rows_are_the_same_with_caches_cold_and_warm(clear_caches,
                                                     monkeypatch):
    # A small grid shaped like criterion 4 and a small mixture grid, run
    # with warm caches and then with every cache emptied before each seed.
    bc_lb = {"family": "bc-lb", "states": 20, "actions": 2,
             "reset": "geometric", "ratio": 0.5, "construction_seed": 0}
    mixture = {"family": "mixture", "states": 16, "actions": 2,
               "reset": "geometric", "ratio": 0.5, "construction_seed": 7,
               "mixture_seed": 0}
    cfgs = [ExperimentConfig(bc_lb, {"id": "bc"},
                             {"H": [8, 16], "n_exp": [64, 256]},
                             {"count": 3, "base": 121})]
    cfgs += [ExperimentConfig(mixture, {"id": lid},
                              {"H": [8], "n_exp": [64, 256]},
                              {"count": 4, "base": 515})
             for lid in ("bc", "mm", "re")]
    warm = [table_rows(cfg) for cfg in cfgs]
    assert warm == [table_rows(cfg) for cfg in cfgs]
    run_cell = harness.run_cell

    def cold_cell(*args, **kwargs):
        clear_caches()
        return run_cell(*args, **kwargs)
    monkeypatch.setattr(harness, "run_cell", cold_cell)
    assert warm == [table_rows(cfg) for cfg in cfgs]
    assert all(row[6] == "ok" for rows in warm for row in rows)
    assert {row[5] for row in warm[1]} == {"mm-lb", "bc-lb"}


def test_expert_value_is_computed_once_per_instance(clear_caches,
                                                    monkeypatch):
    calls = []

    def counted(mdp, policy):
        calls.append(policy)
        return policy_value(mdp, policy)
    monkeypatch.setattr(harness, "policy_value", counted)
    _, _, expert = make_instance({"family": "mm-lb"}, 4, 16, 0)
    for seed in range(3):
        run_cell({"family": "mm-lb"}, {"id": "bc"}, 4, 16, seed)
    assert len(calls) == 4
    assert sum(policy is expert for policy in calls) == 1


@pytest.mark.parametrize("inst", [{"family": "fan", "states": 3},
                                  {"family": "two-state"}],
                         ids=["fan", "two-state"])
def test_a_vignette_cell_builds_one_instance(inst, clear_caches,
                                             monkeypatch):
    # Every family is built once per distinct arguments, so a cell's seeds
    # share one (mdp, expert) and one evaluation of the expert's value.
    built, make = [], harness.make_instance

    def recorded(*args):
        built.append(make(*args))
        return built[-1]
    monkeypatch.setattr(harness, "make_instance", recorded)
    cfg = ExperimentConfig(inst, {"id": "bc"}, {"H": [4], "n_exp": [16]},
                           {"count": 3})
    run_experiment(cfg)
    assert len(built) == 3
    assert all(b[1] is built[0][1] and b[2] is built[0][2] for b in built)
    assert harness._expert_value.cache_info().misses == 1
