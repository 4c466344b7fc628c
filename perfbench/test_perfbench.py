"""Self-test of the benchmark (about a minute):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import REFERENCE  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(REFERENCE) as _fh:
    REF = json.load(_fh)["workloads"]


def run_bench(root, workload, trace, seconds=0.5):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def copy_checkout(dst, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(HERE, os.path.join(dst, "perfbench"), ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=ignore)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(REF) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_short_run_emits_every_metric(workload, trace):
    res = run_bench(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    for v in out["metrics"].values():
        assert isinstance(v["value"], (int, float))
        assert math.isfinite(v["value"])


@pytest.mark.parametrize("workload,learner", [
    ("mm-lb-paired", "mm"), ("mm-lb-paired", "re"), ("bc-lb-clone", "bc")])
def test_check_rejects_perturbed_reference(workload, learner):
    w = workloads.WORKLOADS[workload]
    ref = REF[workload]["entries"][0][0]
    with workloads.Capture() as cap:
        row = workloads.call_cell(w, 0, learner, 0)
        rec = workloads.outcome(w, workloads.build_instances(w), 0, learner,
                                0, row, cap)
    assert workloads.mismatches(rec, ref, learner) == []

    assert workloads.mismatches(rec, dict(ref, digest="0" * 16), learner)
    want = float.fromhex(ref[learner])
    if learner == "bc":
        moved = math.nextafter(want, math.inf)
    else:
        moved = want + 2 * workloads.L1_TOL
    assert workloads.mismatches(rec, dict(ref, **{learner: moved.hex()}),
                                learner)


def test_tracer_refuses_missing_binding(monkeypatch):
    import il_lab.harness
    import il_lab.matching
    run_cell = il_lab.harness.run_cell
    monkeypatch.delattr(il_lab.matching, "crash_basis")
    with pytest.raises(AttributeError, match="il_lab.matching.crash_basis"):
        Tracer().install()
    assert il_lab.harness.run_cell is run_cell


def test_run_fails_on_perturbed_reference(tmp_path):
    copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "reference.json"
    doc = json.loads(path.read_text())
    for entry in doc["workloads"]["bc-lb-clone"]["entries"]:
        gap = float.fromhex(entry[0]["bc"])
        entry[0]["bc"] = math.nextafter(gap, math.inf).hex()
    path.write_text(json.dumps(doc))
    res = run_bench(tmp_path, "bc-lb-clone", 0)
    assert res.returncode != 0
    assert json.loads(res.stdout.strip().splitlines()[-1])["correct"] is False
    assert "bc gap" in res.stderr


def test_run_fails_without_program(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    res = run_bench(tmp_path, "bc-lb-clone", 0)
    assert res.returncode != 0
    assert res.stdout == ""
