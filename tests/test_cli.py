import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import il_lab
from il_lab.cli import main
from il_lab.datasets import SplitConfig, load_dataset
from il_lab.harness import CSV_COLUMNS, ExperimentConfig, load_csv, \
    make_instance, train
from il_lab.instances import make_mm_lb
from il_lab.learners import re_train
from il_lab.mdp import JSON_KINDS, load_json, mdp_from_json, \
    policy_from_json, policy_value, rollout_batch


def gen_instance(tmp_path):
    prefix = tmp_path / "inst"
    rc = main(["gen-instance", "--config", '{"family": "mm-lb"}', "--H", "4",
               "--n-exp", "100", "--out", str(prefix)])
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
    rc = main(["gen-instance", "--config",
               '{"family": "bc-lb", "states": 5, "reset": "geometric", '
               '"ratio": 0.5, "construction_seed": 3}',
               "--H", "6", "--out", str(prefix)])
    assert rc == 0
    mdp = mdp_from_json(load_json(f"{prefix}.mdp.json"))
    assert (mdp.num_states, mdp.horizon) == (5, 6)
    assert np.allclose(mdp.rho[:4], np.array([8, 4, 2, 1]) / 15.0)


CRITERION_4_BC_LB = {"family": "bc-lb", "states": 20, "actions": 2,
                     "reset": "geometric", "ratio": 0.5,
                     "construction_seed": 0}
CRITERION_5_MIXTURE = {"family": "mixture", "states": 16, "actions": 2,
                       "reset": "geometric", "ratio": 0.5,
                       "construction_seed": 7, "mixture_seed": 0}
BC_LB_S16 = ("a36960d1d3b3a20a", "e1337d7371929d10")
MM_LB_H8 = ("2b19ddf18a2755f7", "6990b03249a4c9cd")


@pytest.mark.parametrize("config,draw,digests", [
    ({"family": "mm-lb"}, 0, MM_LB_H8),
    (CRITERION_4_BC_LB, 0, ("2f905abc982c827d", "f2db6ed1252d9387")),
    ({"family": "two-state"}, 0, ("a798b5cd6f58934e", "6990b03249a4c9cd")),
    ({"family": "fan", "states": 4}, 0,
     ("4ac448a21fe9117c", "229c763af5928f1a")),
    (CRITERION_5_MIXTURE, 0, BC_LB_S16),
    (CRITERION_5_MIXTURE, 1, BC_LB_S16),
    (CRITERION_5_MIXTURE, 2, MM_LB_H8),
], ids=["mm-lb", "bc-lb", "two-state", "fan", "mixture-0", "mixture-1",
        "mixture-2"])
def test_gen_instance_files_are_pinned(tmp_path, config, draw, digests):
    # The leading 16 hex digits of the sha256 of each file, as gen-instance
    # wrote them at H 8, n-exp 1024 when it took one flag per instance key:
    # the mapping builds the same bytes.
    prefix = tmp_path / "inst"
    assert main(["gen-instance", "--config", json.dumps(config), "--H", "8",
                 "--n-exp", "1024", "--draw", str(draw),
                 "--out", str(prefix)]) == 0
    assert tuple(hashlib.sha256((tmp_path / f"inst.{kind}.json").read_bytes())
                 .hexdigest()[:16] for kind in ("mdp", "policy")) == digests


@pytest.mark.parametrize("config,message", [
    ('{"family": "bc-lb", "states": 4.5}',
     "instance: states must be an integer, got 4.5"),
    ('{"family": "bc-lb", "construction_seed": 1.5}',
     "instance: construction_seed must be an integer, got 1.5"),
    ('{"family": "bc-lb", "reset": "geometric", "ratio": true}',
     "instance: ratio must be a number, got true"),
    ('{"family": "mixture", "mixture_seed": "0"}',
     'instance: mixture_seed must be an integer, got "0"'),
    ('{"family": "gridworld"}', "unknown instance family 'gridworld'"),
], ids=["states", "construction-seed", "ratio", "mixture-seed", "family"])
def test_gen_instance_rejects_a_bad_mapping(tmp_path, config, message):
    with pytest.raises(SystemExit) as exc:
        main(["gen-instance", "--config", config, "--H", "8",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == f"gen-instance: {message}"
    assert not (tmp_path / "x.mdp.json").exists()


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
    assert main(["gen-instance", "--config",
                 '{"family": "bc-lb", "states": 5}', "--H", "6",
                 "--out", str(other)]) == 0
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
    cfg_path.write_text(json.dumps({"frac1": 0.3, "split_seed": 4}))
    out = tmp_path / "re.policy.json"
    rc = main(["train", "--learner", "re", "--instance", f"{prefix}.mdp.json",
               "--dataset", str(data), "--config", str(cfg_path),
               "--out", str(out)])
    assert rc == 0
    learned = re_train(load_dataset(data),
                       mdp_from_json(load_json(f"{prefix}.mdp.json")),
                       SplitConfig(0.3, 4))
    assert np.array_equal(policy_from_json(load_json(out)).probs,
                          learned.probs)


def test_bad_input_ends_in_a_message(tmp_path):
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps({"frac": 0.3}))
    pairs_path = tmp_path / "pairs.json"
    pairs_path.write_text(json.dumps([["frac1", 0.3]]))
    train = ["train", "--learner", "re", "--instance", f"{prefix}.mdp.json",
             "--dataset", str(data), "--out", str(tmp_path / "p.json"),
             "--config"]
    cases = [
        (["gen-instance", "--config", '{"family": "mm-lb"}', "--H", "3",
          "--out", str(tmp_path / "x")],
         "gen-instance: mm-lb requires H >= 4, got 3"),
        (["gen-dataset", "--instance", f"{prefix}.mdp.json", "--policy",
          f"{prefix}.policy.json", "--n", "0", "--out",
          str(tmp_path / "d.jsonl")], "gen-dataset: n must be positive"),
        (train + ['{"frac": 0.3}'],
         "train: unknown replay-estimation config keys: frac"),
        (train + [str(cfg_path)],
         "train: unknown replay-estimation config keys: frac"),
        (train + ['{"frac1": 0.3'],
         "train: --config: Expecting ',' delimiter: line 1 column 14 "
         "(char 13)"),
        (train + [str(pairs_path)],
         "train: replay-estimation config must be a JSON object, got "
         '[["frac1", 0.3]]'),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message
    assert not (tmp_path / "p.json").exists()


def test_config_array_literal_ends_in_a_message(tmp_path):
    # An array literal is read as JSON, not as a file path.
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    gen = ["gen-instance", "--H", "4", "--out", str(tmp_path / "x"),
           "--config"]
    train = ["train", "--learner", "re", "--instance", f"{prefix}.mdp.json",
             "--dataset", str(data), "--out", str(tmp_path / "p.json"),
             "--config"]
    re_config = "train: replay-estimation config must be a JSON object, got"
    for argv, message in (
            (gen + ['["mm-lb"]'],
             'gen-instance: instance must be a JSON object, got ["mm-lb"]'),
            (gen + [' [{"family": "mm-lb"}]'],
             "gen-instance: instance must be a JSON object, got "
             '[{"family": "mm-lb"}]'),
            (train + ['[["frac1", 0.3]]'], f'{re_config} [["frac1", 0.3]]'),
            (train + ["[]"], f"{re_config} []")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message
    assert not list(tmp_path.glob("x.*")) and not (tmp_path / "p.json").exists()


def test_missing_files_and_config_keys_end_in_a_message(tmp_path):
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    missing = tmp_path / "missing.json"
    no_file = f"No such file or directory: '{missing}'"
    train = ["train", "--learner", "re", "--out", str(tmp_path / "p.json")]
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(json.dumps({"instance": {"family": "mm-lb"}}))
    cases = [
        (train + ["--instance", str(missing), "--dataset", str(data)],
         f"train: [Errno 2] {no_file}"),
        (train + ["--instance", f"{prefix}.mdp.json", "--dataset",
                  str(missing)], f"train: [Errno 2] {no_file}"),
        (train + ["--instance", f"{prefix}.mdp.json", "--dataset", str(data),
                  "--config", str(missing)], f"train: [Errno 2] {no_file}"),
        (["experiment", "--config", str(exp_cfg), "--out",
          str(tmp_path / "rows.csv")],
         "experiment: experiment config: missing keys learner, grid, seeds"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message
    assert not (tmp_path / "p.json").exists()


# A JSON document nested deeper than the parser's recursion reaches.
DEEP = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_json_ends_in_a_message(tmp_path):
    # Every JSON file and --config mapping is parsed by one reader, which
    # names the file (or --config) of a document nested too deeply,
    # instead of letting a RecursionError through.
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    mdp, pol = f"{prefix}.mdp.json", f"{prefix}.policy.json"
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    header, *rows = data.read_text().splitlines()
    deep_header = tmp_path / "header.jsonl"
    deep_header.write_text("\n".join([DEEP, *rows]) + "\n")
    deep_row = tmp_path / "row.jsonl"
    deep_row.write_text("\n".join([header, DEEP, *rows[1:]]) + "\n")
    gen = ["gen-dataset", "--n", "4", "--out", str(tmp_path / "d.jsonl")]
    train = ["train", "--learner", "re", "--instance", mdp,
             "--out", str(tmp_path / "p.json"), "--dataset"]
    nested = "JSON nested too deeply"
    for argv, message in (
            (gen + ["--instance", str(deep), "--policy", str(deep)],
             f"gen-dataset: {deep}: {nested}"),
            (gen + ["--instance", mdp, "--policy", str(deep)],
             f"gen-dataset: {deep}: {nested}"),
            (train + [str(deep_header)], f"train: {deep_header}: {nested}"),
            (train + [str(deep_row)], f"train: {deep_row}: {nested}"),
            (train + [str(data), "--config", str(deep)],
             f"train: {deep}: {nested}"),
            (train + [str(data), "--config", DEEP],
             f"train: --config: {nested}")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message
    assert not (tmp_path / "d.jsonl").exists()
    assert not (tmp_path / "p.json").exists()
    argv = gen + ["--instance", str(deep), "--policy", str(deep)]
    env = {**os.environ, "PYTHONPATH": str(Path(il_lab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "il_lab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 1
    assert done.stderr == f"gen-dataset: {deep}: {nested}\n"


def test_a_json_syntax_error_names_its_file(tmp_path):
    # Of the two files gen-dataset reads, the message names the broken one.
    prefix = gen_instance(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text('{"horizon": 4,')
    argv = ["gen-dataset", "--instance", f"{prefix}.mdp.json", "--policy",
            str(broken), "--n", "4", "--out", str(tmp_path / "d.jsonl")]
    env = {**os.environ, "PYTHONPATH": str(Path(il_lab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "il_lab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 1
    assert done.stderr == (f"gen-dataset: {broken}: Expecting property name "
                           "enclosed in double quotes: line 1 column 15 "
                           "(char 14)\n")
    assert not (tmp_path / "d.jsonl").exists()


def test_an_array_the_parser_reads_is_checked_at_any_depth(tmp_path):
    # rho nested 600 deep parses, and its entries are checked without
    # recursing once per level; numpy then rejects its shape in one line.
    prefix = gen_instance(tmp_path)
    doc = load_json(f"{prefix}.mdp.json")
    bad = tmp_path / "bad.mdp.json"
    bad.write_text(json.dumps({**doc, "rho": None}).replace(
        "null", "[" * 600 + "0.5" + "]" * 600))
    with pytest.raises(SystemExit) as exc:
        main(["gen-dataset", "--instance", str(bad), "--policy",
              f"{prefix}.policy.json", "--n", "4",
              "--out", str(tmp_path / "d.jsonl")])
    assert exc.value.code.startswith("gen-dataset: ")
    assert "\n" not in exc.value.code


CSV_HEADER = ",".join(CSV_COLUMNS)


@pytest.mark.parametrize("kind,text,message", [
    ("instance", '{"horizon": 4}', "train: instance: missing keys "
     "num_states, num_actions, rho, transitions, rewards"),
    ("instance", "[4, 2, 2]",
     "train: instance must be a JSON object, got [4, 2, 2]"),
    ("policy", '{"horizon": 4, "num_states": 2}',
     "gen-dataset: policy: missing keys probs"),
    ("dataset", '{"n": 0, "provenance": []}\n',
     "train: dataset header: missing keys H"),
    ("dataset", "[0, 4]\n",
     "train: dataset header must be a JSON object, got [0, 4]"),
    ("csv", CSV_HEADER.replace(",H,", ",")
     + "\nsyn,syn,2,2,10,0,0.5,ok,syn,0.000\n",
     "fit: {path}: missing columns H"),
    ("csv", CSV_HEADER + "\nsyn,syn,4,2\n",
     "fit: {path}: line 2 has fewer fields than the header"),
    ("csv", CSV_HEADER + "\nsyn,syn,4,2,2,10,0,0.5,ok,syn,0.000"
     "\nsyn,syn,4,2,2,10,0,0.5,ok,syn,0.000,extra,more\n",
     "fit: {path}: line 3 has more fields than the header"),
    ("csv", CSV_HEADER + "\nsyn,syn,4,2,2,10,0,0.5,ok,syn,0.000"
     "\nsyn,syn,x,2,2,10,0,0.5,ok,syn,0.000\n",
     "fit: {path}: line 3: column H must be int, got 'x'"),
    ("csv", CSV_HEADER + "\nsyn,syn,4,2,2,10,0,half,ok,syn,0.000\n",
     "fit: {path}: line 2: column gap must be float, got 'half'"),
], ids=["instance-keys", "instance-list", "policy-keys", "dataset-keys",
        "dataset-list", "csv-columns", "csv-short-line", "csv-long-line",
        "csv-int-field", "csv-float-field"])
def test_malformed_files_end_in_a_message(tmp_path, kind, text, message):
    # A file that parses but lacks what its reader needs is rejected by
    # name, not with a KeyError or TypeError traceback.
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text)
    mdp, pol = f"{prefix}.mdp.json", f"{prefix}.policy.json"
    train = ["train", "--learner", "bc", "--out", str(tmp_path / "p.json")]
    argv = {"instance": train + ["--instance", str(bad), "--dataset",
                                 str(data)],
            "policy": ["gen-dataset", "--instance", mdp, "--policy",
                       str(bad), "--n", "4", "--out",
                       str(tmp_path / "d.jsonl")],
            "dataset": train + ["--instance", mdp, "--dataset", str(bad)],
            "csv": ["fit", "--in", str(bad)]}[kind]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == message.format(path=bad)


@pytest.mark.parametrize("value", [None, 4.7, 4.0, "4", True],
                         ids=["null", "fraction", "float", "string", "true"])
@pytest.mark.parametrize("kind,key", [("instance", "horizon"),
                                      ("instance", "num_states"),
                                      ("instance", "num_actions"),
                                      ("dataset", "n"), ("dataset", "H")])
def test_integer_fields_must_be_json_integers(tmp_path, kind, key, value):
    # Not int(): that reads 4.7 as 4, "4" as 4 and true as 1, and turns
    # null into a TypeError traceback.
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix, n=4)
    mdp = f"{prefix}.mdp.json"
    if kind == "instance":
        doc = load_json(mdp)
        doc[key] = value
        mdp = tmp_path / "bad.mdp.json"
        mdp.write_text(json.dumps(doc))
        what = "instance"
    else:
        header, *lines = data.read_text().splitlines(keepends=True)
        doc = json.loads(header)
        doc[key] = value
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps(doc) + "\n" + "".join(lines))
        what = "dataset header"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--learner", "bc", "--instance", str(mdp),
              "--dataset", str(data), "--out", str(tmp_path / "p.json")])
    assert exc.value.code == (f"train: {what}: {key} must be an integer, "
                              f"got {json.dumps(value)}")
    assert not (tmp_path / "p.json").exists()


def test_gen_instance_uses_the_experiment_defaults(tmp_path):
    # No knob given: the mixture's bc-lb component is the one an
    # experiment's {"family": "mixture"} builds (construction seed 7).
    prefix = tmp_path / "mix"
    assert main(["gen-instance", "--config", '{"family": "mixture"}',
                 "--H", "8", "--draw", "0", "--out", str(prefix)]) == 0
    mdp = mdp_from_json(load_json(f"{prefix}.mdp.json"))
    pol = policy_from_json(load_json(f"{prefix}.policy.json"))
    _, ref_mdp, ref_pol = make_instance({"family": "mixture"}, 8, 100, 0)
    assert mdp.num_states == ref_mdp.num_states
    assert np.array_equal(mdp.rho, ref_mdp.rho)
    assert np.array_equal(mdp.transitions, ref_mdp.transitions)
    assert np.array_equal(mdp.rewards, ref_mdp.rewards)
    assert np.array_equal(pol.probs, ref_pol.probs)


@pytest.mark.parametrize("config,message", [
    ('{"frac1": false}', "frac1 must be a number, got false"),
    ('{"split_seed": 1.5}', "split_seed must be an integer, got 1.5"),
    ('{"frac1": "0.5"}', 'frac1 must be a number, got "0.5"'),
    ('{"split_seed": true}', "split_seed must be an integer, got true"),
    ('{"split_seed": null}', "split_seed must be an integer, got null"),
], ids=["frac1-false", "split-seed", "frac1", "split-seed-true",
        "split-seed-null"])
def test_train_rejects_a_re_value_of_the_wrong_type(tmp_path, config,
                                                    message):
    # false is not a number, null is not an integer, and a fractional seed
    # is not rounded.
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    out = tmp_path / "p.json"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--learner", "re", "--instance", f"{prefix}.mdp.json",
              "--dataset", str(data), "--out", str(out), "--config", config])
    assert exc.value.code == f"train: replay-estimation config: {message}"
    assert not out.exists()


def test_train_rejects_an_unknown_learner(tmp_path):
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--learner", "dagger", "--instance",
              f"{prefix}.mdp.json", "--dataset", str(data),
              "--out", str(tmp_path / "p.json")])
    assert exc.value.code == "train: unknown learner 'dagger'"


def test_train_bc_breaks_ties_to_the_lowest_action(tmp_path):
    # Two trajectories tie at (t=0, s=1): one plays action 1, one action 0.
    prefix = gen_instance(tmp_path)
    data = tmp_path / "tied.jsonl"
    data.write_text('{"n": 2, "H": 4, "provenance": ["", "", 0]}\n'
                    "[[1, 1], [0, 0], [0, 0], [0, 0]]\n"
                    "[[1, 0], [0, 0], [0, 0], [0, 0]]\n")
    out = tmp_path / "bc.policy.json"
    assert main(["train", "--learner", "bc", "--instance",
                 f"{prefix}.mdp.json", "--dataset", str(data),
                 "--out", str(out)]) == 0
    assert policy_from_json(load_json(out)).probs[0, 1].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("command,config,message", [
    ("train", ("bc", {"tie_rule": "lowest"}), "unknown bc config keys: "
     "tie_rule"),
    ("train", ("re", {"replay_mode": "exact"}),
     "unknown replay-estimation config keys: replay_mode"),
    ("experiment", {"id": "re", "use_full_data": False},
     "unknown replay-estimation config keys: use_full_data"),
    ("train", ("re", {"oracle_override": "ones"}),
     "unknown replay-estimation config keys: oracle_override"),
    ("experiment", {"id": "re", "oracle_override": "ones"},
     "unknown replay-estimation config keys: oracle_override"),
], ids=["bc-tie-rule", "re-replay-mode", "experiment-re-use-full-data",
        "re-oracle-override", "experiment-re-oracle-override"])
def test_removed_learner_keys_are_unknown(tmp_path, command, config,
                                          message):
    # Each learner id names one algorithm: bc breaks ties to the lowest
    # action, and re replays exactly with D1's own membership oracle and
    # patches with D2, so no key selects another.
    if command == "train":
        prefix = gen_instance(tmp_path)
        learner, options = config
        argv = ["train", "--learner", learner, "--instance",
                f"{prefix}.mdp.json", "--dataset",
                str(gen_dataset(tmp_path, prefix)),
                "--config", json.dumps(options)]
    else:
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({**EXPERIMENT, "learner": config}))
        argv = ["experiment", "--config", str(cfg_path)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == f"{command}: {message}"
    assert not out.exists()


@pytest.mark.parametrize("learner,what", [("bc", "bc config"),
                                          ("mm", "mm config"),
                                          ("re", "replay-estimation config")])
def test_train_rejects_unknown_config_keys(tmp_path, learner, what):
    prefix = gen_instance(tmp_path)
    data = gen_dataset(tmp_path, prefix)
    out = tmp_path / "p.json"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--learner", learner, "--instance",
              f"{prefix}.mdp.json", "--dataset", str(data), "--out", str(out),
              "--config", '{"tie_rul": "uniform"}'])
    assert exc.value.code == f"train: unknown {what} keys: tie_rul"
    assert not out.exists()


def test_gen_instance_rejects_a_knob_its_family_does_not_read(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-instance", "--config", '{"family": "mm-lb", "states": 5}',
              "--H", "4", "--out", str(tmp_path / "x")])
    assert exc.value.code == ("gen-instance: unknown mm-lb instance keys: "
                              "states")
    assert not (tmp_path / "x.mdp.json").exists()


@pytest.mark.parametrize("family", ["bc-lb", "mixture"])
def test_gen_instance_rejects_ratio_without_the_geometric_reset(tmp_path,
                                                                family):
    with pytest.raises(SystemExit) as exc:
        main(["gen-instance", "--config",
              json.dumps({"family": family, "ratio": 0.3}), "--H", "8",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == (f"gen-instance: unknown {family} instance "
                              "keys: ratio")
    assert not (tmp_path / "x.mdp.json").exists()


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


EXPERIMENT = {"instance": {"family": "mm-lb"}, "learner": {"id": "bc"},
              "grid": {"H": [4], "n_exp": [8]}, "seeds": {"count": 1}}


def test_experiment_requires_output_path(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(EXPERIMENT))
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    ("instance", ["mm-lb"],
     'experiment config: instance must be a JSON object, got ["mm-lb"]'),
    ("learner", [["id", "re"]],
     "experiment config: learner must be a JSON object, got "
     '[["id", "re"]]'),
    ("grid", {"H": [4.5], "n_exp": [8]},
     "grid: H must be a nonempty array of integers, got [4.5]"),
    ("grid", {"H": [4], "n_exp": [8, "16"]},
     'grid: n_exp must be a nonempty array of integers, got [8, "16"]'),
    ("grid", {"H": 4, "n_exp": [8]},
     "grid: H must be a nonempty array of integers, got 4"),
    ("seeds", {"count": 2.5}, "seeds: count must be an integer, got 2.5"),
    ("seeds", {"count": 1, "base": True},
     "seeds: base must be an integer, got true"),
    ("instance", {"family": "bc-lb", "construction_seed": 1.5},
     "instance: construction_seed must be an integer, got 1.5"),
    ("instance", {"family": "bc-lb", "reset": "geometric", "ratio": True},
     "instance: ratio must be a number, got true"),
    ("learner", {"id": "re", "frac1": "0.5"},
     'replay-estimation config: frac1 must be a number, got "0.5"'),
], ids=["instance-list", "learner-list", "grid-H", "grid-n_exp",
        "grid-H-scalar", "seeds-count", "seeds-base", "construction-seed",
        "ratio", "frac1"])
def test_experiment_rejects_a_value_of_the_wrong_type(tmp_path, field, value,
                                                      message):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**EXPERIMENT, field: value}))
    out = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", str(cfg_path), "--out", str(out)])
    assert exc.value.code == f"experiment: {message}"
    assert not out.exists()


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


@pytest.mark.parametrize("spec,message", [
    ("lerner=syn", "fit: unknown filter columns: lerner"),
    ("learner", "fit: filter clause 'learner' is not column=value"),
    ("learner=syn, H", "fit: filter clause ' H' is not column=value"),
], ids=["unknown-column", "no-equals", "second-clause-no-equals"])
def test_fit_rejects_a_bad_filter(tmp_path, spec, message):
    # Each of these used to filter out every row and end in "need >= 3
    # grid points, have 0", which names neither the clause nor the column.
    path = tmp_path / "rows.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(
        f"syn,syn,4,2,2,{n},{s},{1.0 / n!r},ok,syn,0.000\n"
        for n in (10, 100, 1000) for s in range(100)))
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--in", str(path), "--filter", spec])
    assert exc.value.code == message


def test_probe_events_prints_json(capsys):
    rc = main(["probe-events", "--n-exp", "100", "--H", "4",
               "--datasets", "150", "--seed", "8"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n_datasets"] == 150
    assert 0.0 <= rep["p_all"] <= 1.0


def test_probe_events_has_a_fixed_e3_coefficient(capsys):
    # E3's coefficient is the constant criteria 2 and 3 were frozen with.
    with pytest.raises(SystemExit) as exc:
        main(["probe-events", "--n-exp", "100", "--H", "4",
              "--datasets", "150", "--coeff", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --coeff 0.5" in capsys.readouterr().err
    main(["probe-events", "--n-exp", "100", "--H", "4", "--datasets", "150"])
    assert json.loads(capsys.readouterr().out)["coeff"] == 0.5


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


# ------------------------------------------------------ one JSON kind check

def read_instance_file(tmp_path, key, value, cli):
    prefix = gen_instance(tmp_path)
    doc = {**load_json(f"{prefix}.mdp.json"), key: value}
    if not cli:
        return lambda: mdp_from_json(doc)
    bad = tmp_path / "bad.mdp.json"
    bad.write_text(json.dumps(doc))
    return ["gen-dataset", "--instance", str(bad), "--policy",
            f"{prefix}.policy.json", "--n", "4",
            "--out", str(tmp_path / "d.jsonl")]


def read_policy_file(tmp_path, key, value, cli):
    prefix = gen_instance(tmp_path)
    doc = {**load_json(f"{prefix}.policy.json"), key: value}
    if not cli:
        return lambda: policy_from_json(doc)
    bad = tmp_path / "bad.policy.json"
    bad.write_text(json.dumps(doc))
    return ["gen-dataset", "--instance", f"{prefix}.mdp.json", "--policy",
            str(bad), "--n", "4", "--out", str(tmp_path / "d.jsonl")]


def read_dataset_header(tmp_path, key, value, cli):
    prefix = gen_instance(tmp_path)
    header, *lines = gen_dataset(tmp_path, prefix, n=4).read_text() \
        .splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**json.loads(header), key: value}) + "\n"
                   + "".join(lines))
    if not cli:
        return lambda: load_dataset(bad)
    return ["train", "--learner", "bc", "--instance", f"{prefix}.mdp.json",
            "--dataset", str(bad), "--out", str(tmp_path / "p.json")]


def read_experiment(field):
    """The experiment config reader, with the bad value at key of field, or
    at the top level when field is None."""
    def read(tmp_path, key, value, cli):
        doc = dict(EXPERIMENT)
        if field is None:
            doc[key] = value
        else:
            doc[field] = {**doc[field], key: value}
        if not cli:
            return lambda: ExperimentConfig.from_json(doc)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        return ["experiment", "--config", str(path),
                "--out", str(tmp_path / "rows.csv")]
    return read


def read_instance_config(tmp_path, key, value, cli):
    doc = {"family": "bc-lb", "reset": "geometric", key: value}
    if not cli:
        return lambda: make_instance(doc, 8, 100, 0)
    return ["gen-instance", "--config", json.dumps(doc), "--H", "8",
            "--out", str(tmp_path / "x")]


def read_learner_config(learner):
    """harness.train's reader of learner's options, as an experiment's
    learner mapping without its id."""
    def read(tmp_path, key, value, cli):
        prefix = gen_instance(tmp_path)
        data = gen_dataset(tmp_path, prefix, n=8)
        if not cli:
            mdp = mdp_from_json(load_json(f"{prefix}.mdp.json"))
            return lambda: train(learner, {key: value}, load_dataset(data),
                                 mdp)
        return ["train", "--learner", learner, "--instance",
                f"{prefix}.mdp.json", "--dataset", str(data),
                "--out", str(tmp_path / "p.json"),
                "--config", json.dumps({key: value})]
    return read


# reader: (what its messages name, how to feed it a bad value)
JSON_READERS = {
    "instance-file": ("instance", read_instance_file),
    "policy-file": ("policy", read_policy_file),
    "dataset-header": ("dataset header", read_dataset_header),
    "experiment": ("experiment config", read_experiment(None)),
    "grid": ("grid", read_experiment("grid")),
    "seeds": ("seeds", read_experiment("seeds")),
    "instance-config": ("instance", read_instance_config),
    "re-config": ("replay-estimation config", read_learner_config("re")),
}
# (reader, key, bad value, the kind the key must have): a wrong value of
# every JSON type, for every kind in mdp.JSON_KINDS.
JSON_KIND_ROWS = [
    ("instance-file", "horizon", 4.5, "an integer"),
    ("instance-file", "rho", ["0.5", "0.5"], "an array of numbers"),
    ("instance-file", "transitions", {}, "an array of numbers"),
    ("instance-file", "rewards", [{}, 1], "an array of numbers"),
    ("policy-file", "probs", [[[True, False]]], "an array of numbers"),
    ("policy-file", "horizon", "4", "an integer"),
    ("dataset-header", "provenance", 5, "an array"),
    ("dataset-header", "H", None, "an integer"),
    ("experiment", "seeds", 3, "a JSON object"),
    ("experiment", "grid", [[4], [8]], "a JSON object"),
    ("grid", "n_exp", [], "a nonempty array of integers"),
    ("grid", "H", [8, 4.0], "a nonempty array of integers"),
    ("seeds", "count", True, "an integer"),
    ("instance-config", "ratio", "0.5", "a number"),
    ("instance-config", "reset", 1, "a string or null"),
    ("instance-config", "states", np.int64(16), "an integer"),
    ("re-config", "split_seed", True, "an integer"),
    ("re-config", "frac1", np.float64(0.5), "a number"),
]


def test_every_kind_has_a_row():
    assert {row[3] for row in JSON_KIND_ROWS} == \
        {phrase for phrase, _, _ in JSON_KINDS.values()}


@pytest.mark.parametrize("route,reader,key,value,kind", [
    pytest.param(route, *row, id=f"{route}-{row[0]}-{row[1]}")
    for row in JSON_KIND_ROWS for route in ("library", "cli")
    # A numpy scalar has no JSON text, so only a Python caller can pass it.
    if route == "library" or not isinstance(row[2], np.generic)])
def test_every_reader_names_a_wrong_kind_in_one_shape(tmp_path, route, reader,
                                                      key, value, kind):
    what, read = JSON_READERS[reader]
    shown = (f"{value} (numpy.{type(value).__name__})"
             if isinstance(value, np.generic) else json.dumps(value))
    message = f"{what}: {key} must be {kind}, got {shown}"
    feed = read(tmp_path, key, value, route == "cli")
    if route == "library":
        with pytest.raises(ValueError) as exc:
            feed()
        assert str(exc.value) == message
    else:
        with pytest.raises(SystemExit) as exc:
            main(feed)
        assert exc.value.code == f"{feed[0]}: {message}"
        assert not list(tmp_path.glob("x.*"))
        assert not any((tmp_path / name).exists()
                       for name in ("d.jsonl", "p.json", "rows.csv"))


@pytest.mark.parametrize("reader,key,value,kind", [
    ("instance-file", "rho", {}, "an array of numbers"),
    ("instance-file", "transitions", {}, "an array of numbers"),
    ("instance-file", "rewards", {}, "an array of numbers"),
    ("policy-file", "probs", {}, "an array of numbers"),
    ("dataset-header", "provenance", 5, "an array"),
    ("instance-file", "rho", ["0.5", "0.5"], "an array of numbers"),
    ("instance-file", "rho", [True, 0], "an array of numbers"),
    ("instance-file", "rho", [{}, 1], "an array of numbers"),
    ("instance-file", "transitions", [[[[0.5, None]]]], "an array of numbers"),
    ("policy-file", "probs", [[["1", 0]]], "an array of numbers"),
], ids=["instance-file-rho", "instance-file-transitions",
        "instance-file-rewards", "policy-file-probs",
        "dataset-header-provenance", "instance-file-rho-strings",
        "instance-file-rho-true", "instance-file-rho-object-entry",
        "instance-file-transitions-null-entry", "policy-file-probs-string"])
def test_arrays_of_the_wrong_kind_exit_with_a_message(tmp_path, reader, key,
                                                      value, kind):
    # An array or an entry of the wrong kind once ended in a TypeError
    # traceback from numpy or tuple(), or was read: "0.5" and true as
    # numbers.
    what, read = JSON_READERS[reader]
    argv = read(tmp_path, key, value, cli=True)
    env = {**os.environ, "PYTHONPATH": str(Path(il_lab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "il_lab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 1
    assert done.stderr == (f"{argv[0]}: {what}: {key} must be {kind}, got "
                           f"{json.dumps(value)}\n")
