"""Run every workload on several seeds, twice over, and write the results
with their medians and quartiles, the record a later change is compared
against:

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Each of SETS sets gives every workload RUNS untraced runs at
BENCHMARK.json's run_seconds, on seeds of its own (set k uses seeds
k*RUNS+1 .. (k+1)*RUNS); a set runs all workloads before the next set
starts. One traced run (seed 1) per workload follows. For each end-to-end
metric the file records every run, the median, quartiles and spread
(quartile distance over median) of each set, and the shift of the second
set's median from the first's, in the direction in which the metric gets
worse, next to the metric's bound. A run that fails or reports wrong
output stops the script."""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run(workload, seed, seconds, trace):
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{res.stderr}")
    out = json.loads(lines[-1])
    if not out["correct"]:
        sys.exit(f"{workload} seed {seed}: wrong output\n{res.stderr}")
    return json.loads(lines[-2]), out


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [wl["name"] for wl in bench["workloads"]]
    runs = {(name, k): [] for name in names for k in range(SETS)}
    for k in range(SETS):
        for name in names:
            for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
                info, out = run(name, seed, seconds, 0)
                runs[name, k].append({m: v["value"]
                                      for m, v in out["metrics"].items()})
                print(f"set {k + 1} {name} seed {seed}: {runs[name, k][-1]}",
                      file=sys.stderr)
    doc = {"run_seconds": seconds, "environment": info["environment"],
           "workloads": {}}
    for name in names:
        metrics = {}
        for m in bench["end_to_end"]:
            sets = [summary([r[m["name"]] for r in runs[name, k]])
                    for k in range(SETS)]
            first, last = sets[0]["median"], sets[-1]["median"]
            worse = (last - first if m["better"] == "lower"
                     else first - last) / first
            metrics[m["name"]] = {"sets": sets, "median_worse_by": worse,
                                  "bound": m["bound"]}
        _, traced = run(name, 1, seconds, 1)
        doc["workloads"][name] = {
            "end_to_end": metrics,
            "runs": [runs[name, k] for k in range(SETS)],
            "per_layer_seed_1": {k: v["value"]
                                 for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
