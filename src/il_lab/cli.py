"""Command-line front end: instance/dataset generation, training, grid
experiments, event probes, slope fits, and the acceptance suite.
gen-instance --config takes an experiment's instance mapping and train
--config its learner mapping without the id; both go to the functions an
experiment uses, harness.make_instance and harness.train, so the defaults
and the checks on config keys and kinds are the experiment's. Every JSON
file and mapping is checked by mdp.check_json, so bad input ends in one
line, "<command>: <what>: <key> must be <kind>, got <value>" for a value
of the wrong kind."""

import argparse
import json
import sys

from . import acceptance
from .datasets import check_dataset, load_dataset, sample_dataset, \
    save_dataset
from .harness import ExperimentConfig, event_probe, fit_slope, load_csv, \
    make_instance, rows_to_csv, run_experiment, train
from .mdp import load_json, mdp_from_json, mdp_to_json, parse_json, \
    policy_from_json, policy_to_json, policy_value, save_json


def _cmd_gen_instance(args):
    component, mdp, expert = make_instance(_config_mapping(args.config),
                                           args.H, args.n_exp, args.draw)
    save_json(mdp_to_json(mdp), f"{args.out}.mdp.json")
    save_json(policy_to_json(expert), f"{args.out}.policy.json")
    print(f"{component}: wrote {args.out}.mdp.json and {args.out}.policy.json"
          f" (S={mdp.num_states} A={mdp.num_actions} H={mdp.horizon})")
    return 0


def _cmd_gen_dataset(args):
    mdp = mdp_from_json(load_json(args.instance))
    policy = policy_from_json(load_json(args.policy))
    ds = sample_dataset(mdp, policy, args.n, args.seed,
                        instance_id=args.instance, policy_id=args.policy)
    save_dataset(ds, args.out)
    print(f"wrote {args.out} ({ds.n} trajectories, horizon {ds.horizon})")
    return 0


def _config_mapping(spec_text):
    """The JSON document of --config, given as a literal or a file path;
    the reader it goes to checks that it is an object. Text that starts
    with { or [ is a literal, so an array ends in that reader's message
    instead of a missing file."""
    if not spec_text:
        return {}
    if spec_text.lstrip().startswith(("{", "[")):
        return parse_json(spec_text, "--config")
    return load_json(spec_text)


def _cmd_train(args):
    mdp = mdp_from_json(load_json(args.instance))
    ds = load_dataset(args.dataset)
    check_dataset(ds, mdp)
    pol = train(args.learner, _config_mapping(args.config), ds, mdp)
    save_json(policy_to_json(pol), args.out)
    print(f"wrote {args.out}; J(policy) = {policy_value(mdp, pol):.6f}")
    return 0


def _cmd_experiment(args):
    cfg = ExperimentConfig.from_json(load_json(args.config))
    rows = run_experiment(cfg)
    rows_to_csv(rows, args.out)
    failed = sum(r.status != "ok" for r in rows)
    print(f"wrote {args.out} ({len(rows)} rows, {failed} failures)")
    return 1 if failed else 0


def _cmd_probe_events(args):
    rep = event_probe(args.n_exp, args.H, args.datasets, args.seed)
    print(json.dumps(rep, indent=2))
    return 0


def _cmd_fit(args):
    rows = load_csv(args.input)
    where = {}
    if args.filter:
        for clause in args.filter.split(","):
            k, eq, v = clause.partition("=")
            if not eq:
                raise ValueError(f"filter clause {clause!r} is not "
                                 "column=value")
            where[k.strip()] = v.strip()
    slope, stderr = fit_slope(rows, where or None, x=args.x)
    print(f"slope={slope:.6f} stderr={stderr:.6f}")
    return 0


def _criterion_ids(text):
    try:
        return acceptance.check_ids(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_verify(args):
    results = acceptance.run(args.only)
    return 0 if all(ok for ok, _ in results.values()) else 1


def build_parser():
    p = argparse.ArgumentParser(prog="il-lab",
                                description="tabular imitation learning lab")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-instance", help="write an instance + expert pair")
    g.add_argument("--config", required=True,
                   help="an experiment's instance mapping: JSON literal or "
                        "file path")
    g.add_argument("--H", type=int, required=True)
    g.add_argument("--n-exp", type=int, default=100,
                   help="dataset size the instance is tuned against")
    g.add_argument("--draw", type=int, default=0,
                   help="draw index, as run_experiment numbers a grid's runs")
    g.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(func=_cmd_gen_instance)

    d = sub.add_parser("gen-dataset", help="roll expert trajectories to JSONL")
    d.add_argument("--instance", required=True)
    d.add_argument("--policy", required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_gen_dataset)

    t = sub.add_parser("train", help="fit a policy to a dataset")
    t.add_argument("--learner", required=True,
                   help="a learner id that harness.train knows")
    t.add_argument("--instance", required=True)
    t.add_argument("--dataset", required=True)
    t.add_argument("--config", default=None,
                   help="an experiment's learner mapping without its id: "
                        "JSON literal or file path")
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("experiment", help="run a (H, N, seed) grid to CSV")
    e.add_argument("--config", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_experiment)

    pe = sub.add_parser("probe-events", help="lower-bound event frequencies")
    pe.add_argument("--n-exp", type=int, required=True)
    pe.add_argument("--H", type=int, required=True)
    pe.add_argument("--datasets", type=int, required=True)
    pe.add_argument("--seed", type=int, default=0)
    pe.set_defaults(func=_cmd_probe_events)

    f = sub.add_parser("fit", help="log-log slope of mean gap from a CSV")
    f.add_argument("--in", dest="input", required=True)
    f.add_argument("--filter", default="",
                   help="comma-separated column=value filters")
    f.add_argument("--x", default="n_exp", choices=["n_exp", "H"])
    f.set_defaults(func=_cmd_fit)

    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--only", type=_criterion_ids, default=None,
                   help="comma-separated criterion ids, e.g. 2,3,8")
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None):
    """Runs one command; a ValueError (bad input), an OSError (say, a
    missing file) or a RuntimeError (a numeric failure, such as an occupancy
    match that fails) it raises ends the run with "<command>: <message>"
    instead of a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
