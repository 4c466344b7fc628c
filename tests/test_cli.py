import json

import numpy as np
import pytest

from il_lab.cli import main
from il_lab.datasets import load_dataset
from il_lab.harness import load_csv
from il_lab.instances import make_mm_lb
from il_lab.mdp import load_json, mdp_from_json, policy_from_json, \
    policy_value, rollout_batch


def gen_instance(tmp_path, *extra):
    prefix = tmp_path / "inst"
    rc = main(["gen-instance", "--family", "mm-lb", "--H", "4",
               "--n-exp", "100", "--out", str(prefix), *extra])
    assert rc == 0
    return prefix


def gen_dataset(tmp_path, prefix, n=64, seed=3):
    out = tmp_path / "data.jsonl"
    rc = main(["gen-dataset", "--instance", f"{prefix}.mdp.json",
               "--policy", f"{prefix}.policy.json", "--n", str(n),
               "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out


def test_gen_instance_writes_loadable_pair(tmp_path, capsys):
    prefix = gen_instance(tmp_path)
    mdp = mdp_from_json(load_json(f"{prefix}.mdp.json"))
    pol = policy_from_json(load_json(f"{prefix}.policy.json"))
    ref_mdp, ref_pol = make_mm_lb(4, 100)
    assert np.array_equal(mdp.transitions, ref_mdp.transitions)
    assert np.array_equal(pol.probs, ref_pol.probs)
    assert "S=2 A=2 H=4" in capsys.readouterr().out


def test_gen_instance_family_specific_knobs(tmp_path):
    prefix = tmp_path / "bc"
    rc = main(["gen-instance", "--family", "bc-lb", "--H", "6",
               "--states", "5", "--reset", "geometric", "--ratio", "0.5",
               "--construction-seed", "3", "--out", str(prefix)])
    assert rc == 0
    mdp = mdp_from_json(load_json(f"{prefix}.mdp.json"))
    assert (mdp.num_states, mdp.horizon) == (5, 6)
    assert np.allclose(mdp.rho[:4], np.array([8, 4, 2, 1]) / 15.0)


def test_gen_dataset_matches_direct_sampling(tmp_path):
    prefix = gen_instance(tmp_path)
    path = gen_dataset(tmp_path, prefix, n=32, seed=11)
    ds = load_dataset(path)
    mdp, expert = make_mm_lb(4, 100)
    states, actions = rollout_batch(mdp, expert, 32, 11)
    assert np.array_equal(ds.states, states)
    assert np.array_equal(ds.actions, actions)


@pytest.mark.parametrize("learner", ["bc", "mm", "re"])
def test_train_writes_policy(tmp_path, learner, capsys):
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    out = tmp_path / f"{learner}.policy.json"
    argv = ["train", "--learner", learner, "--instance",
            f"{prefix}.mdp.json", "--dataset", str(data), "--out", str(out)]
    if learner == "re":
        argv += ["--config", '{"frac1": 0.5, "split_seed": 2}']
    assert main(argv) == 0
    pol = policy_from_json(load_json(out))
    mdp, expert = make_mm_lb(4, 100)
    J = policy_value(mdp, pol)
    assert 0.0 <= J <= policy_value(mdp, expert) + 1e-12
    assert "J(policy) =" in capsys.readouterr().out


@pytest.mark.parametrize("learner", ["bc", "mm", "re"])
def test_train_rejects_dataset_of_another_instance(tmp_path, learner):
    # A bc-lb S=5, H=6 dataset against the mm-lb H=4 instance: every
    # learner stops at the same check before training.
    prefix = gen_instance(tmp_path)
    other = tmp_path / "bc"
    assert main(["gen-instance", "--family", "bc-lb", "--H", "6",
                 "--states", "5", "--out", str(other)]) == 0
    data = gen_dataset(tmp_path, other)
    out = tmp_path / "policy.json"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--learner", learner, "--instance",
              f"{prefix}.mdp.json", "--dataset", str(data),
              "--out", str(out)])
    assert exc.value.code == ("train: dataset horizon 6 does not match the "
                              "instance horizon 4")
    assert not out.exists()


def test_train_re_config_from_file(tmp_path):
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    cfg_path = tmp_path / "re.json"
    cfg_path.write_text(json.dumps({"replay_mode": "mc", "n_replay": 50,
                                    "replay_seed": 4}))
    out = tmp_path / "re.policy.json"
    rc = main(["train", "--learner", "re", "--instance", f"{prefix}.mdp.json",
               "--dataset", str(data), "--config", str(cfg_path),
               "--out", str(out)])
    assert rc == 0
    policy_from_json(load_json(out))


def test_bad_input_ends_in_a_message(tmp_path):
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps({"frac": 0.3}))
    train = ["train", "--learner", "re", "--instance", f"{prefix}.mdp.json",
             "--dataset", str(data), "--out", str(tmp_path / "p.json"),
             "--config"]
    cases = [
        (["gen-instance", "--family", "mm-lb", "--H", "3", "--out",
          str(tmp_path / "x")], "gen-instance: mm-lb requires H >= 4, got 3"),
        (["gen-dataset", "--instance", f"{prefix}.mdp.json", "--policy",
          f"{prefix}.policy.json", "--n", "0", "--out",
          str(tmp_path / "d.jsonl")], "gen-dataset: n must be positive"),
        (train + ['{"frac": 0.3}'],
         "train: unknown replay-estimation config keys: frac"),
        (train + [str(cfg_path)],
         "train: unknown replay-estimation config keys: frac"),
        (train + ['{"frac1": 0.3'],
         "train: Expecting ',' delimiter: line 1 column 14 (char 13)"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message
    assert not (tmp_path / "p.json").exists()


def test_experiment_round_trip_and_fit(tmp_path, capsys):
    cfg = {"instance": {"family": "mm-lb"}, "learner": {"id": "mm"},
           "grid": {"H": [4], "n_exp": [16, 64]},
           "seeds": {"count": 2, "base": 9}}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rows.csv"
    rc = main(["experiment", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    rows = load_csv(out)
    assert len(rows) == 4
    assert {r.n_exp for r in rows} == {16, 64}
    assert "4 rows, 0 failures" in capsys.readouterr().out


def test_experiment_requires_output_path(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(
        {"instance": {"family": "mm-lb"}, "learner": {"id": "bc"},
         "grid": {"H": [4], "n_exp": [8]}, "seeds": {"count": 1}}))
    with pytest.raises(SystemExit):
        main(["experiment", "--config", str(cfg_path)])


def test_fit_command_reads_back_csv(tmp_path, capsys):
    # Synthetic gap = 5/n so the log-log slope is exactly -1.
    lines = [",".join(["instance", "learner", "H", "S", "A", "n_exp", "seed",
                       "gap", "status", "component", "wall_time_ms"])]
    for n in (100, 1000, 10000):
        for s in range(100):
            lines.append(f"syn,syn,4,2,2,{n},{s},{5.0 / n!r},ok,syn,0.000")
    path = tmp_path / "syn.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["fit", "--in", str(path), "--filter", "learner=syn"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope=-1.000000" in out


def test_probe_events_prints_json(capsys):
    rc = main(["probe-events", "--n-exp", "100", "--H", "4",
               "--datasets", "150", "--seed", "8"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n_datasets"] == 150
    assert 0.0 <= rep["p_all"] <= 1.0


def test_verify_single_criterion(capsys):
    rc = main(["verify", "--only", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ACCEPTANCE 8" in out and "PASS" in out


@pytest.mark.parametrize("only", ["42", "0,8", "8,x"])
def test_verify_rejects_unknown_criteria(only, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", only])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "ACCEPTANCE" not in captured.out
    assert "--only" in captured.err
    if only != "8,x":
        assert "valid ids are 1-9" in captured.err
