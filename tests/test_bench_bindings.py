"""The benchmark's traced run wraps program functions by module binding and
reads their arguments and results (perfbench/tracing.py), and its output
check captures the dataset and the learned policy at harness's bindings
(perfbench/workloads.py). A renamed binding or a changed signature would
silently zero its per-layer metrics or blind the check; this runs one LP
cell of each kind, one sampling cell and mixture cells under the tracer and
checks they count, and runs pool input 0 of every workload through the
output check."""

import importlib.util
import json
from pathlib import Path

from il_lab import harness
from il_lab.rng import mix64

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_count_lp_work():
    tracer = load("tracing").Tracer()
    bc_lb = {"family": "bc-lb", "states": 16, "actions": 2,
             "reset": "geometric", "ratio": 0.5, "construction_seed": 7}
    tracer.install()
    try:
        rows = [harness.run_cell({"family": "mm-lb"}, {"id": "mm"}, 8, 1024,
                                 mix64(505, 0)),
                harness.run_cell(bc_lb, {"id": "re"}, 8, 1024, mix64(515, 0))]
    finally:
        tracer.remove()
    assert [r.status for r in rows] == ["ok", "ok"]
    counts = tracer.counts
    assert counts["matching.lps"] == counts["simplex.calls"] == 2
    assert counts["matching.lp_cols"] == 8 * 2 * 2 + 8 * 16 * 2
    assert counts["matching.lp_rows"] == 8 * 2 + 8 * 16
    assert counts["simplex.pivots"] > 0
    assert counts["simplex.optimal"] == 2
    names = {span[0] for span in tracer.spans}
    assert {"matching.build_lp", "matching.crash", "simplex.solve",
            "matching.solve"} <= names


def test_traced_bindings_count_sampler_work():
    # One bc-lb-clone cell: every step draws a state and an action through
    # mdp's categorical_rows binding, hash array third (the tracer counts
    # len(args[2])), and rollout_batch returns H * n steps.
    tracer = load("tracing").Tracer()
    inst = load("workloads").WORKLOADS["bc-lb-clone"].instance
    H, n = 8, 1024
    tracer.install()
    try:
        row = harness.run_cell(inst, {"id": "bc"}, H, n, mix64(404, 0))
    finally:
        tracer.remove()
    assert row.status == "ok"
    assert tracer.counts["rng.draws"] == 2 * H * n
    assert tracer.counts["mdp.steps"] == H * n
    names = {span[0] for span in tracer.spans}
    assert {"rng.hash", "rng.categorical", "mdp.rollout"} <= names


def test_pool_input_zero_matches_the_reference():
    # Every workload, grid cell and learner on pool index 0, checked as the
    # benchmark checks a run: the captured dataset's digest, and the bc gap
    # or the mm / re L1 distance to target, against reference.json. A
    # dispatch that bypasses harness.bc_train, mm_train or re_train leaves
    # Capture without a policy.
    wl = load("workloads")
    ref = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]
    problems = []
    with wl.Capture() as cap:
        for name, w in wl.WORKLOADS.items():
            instances = wl.build_instances(w)
            for cell in range(len(w.cells)):
                for learner in w.learners:
                    cap.reset()
                    row = wl.call_cell(w, cell, learner, 0)
                    assert cap.policy is not None, (name, cell, learner)
                    rec = wl.outcome(w, instances, cell, learner, 0, row, cap)
                    want = ref[name]["entries"][0][cell]
                    problems += [(name, cell, learner, msg)
                                 for msg in wl.mismatches(rec, want, learner)]
    assert not problems


def test_traced_bindings_fire_on_a_warm_cache(clear_caches):
    # The per-instance caches sit inside the traced functions, so a cell
    # traced again on warm caches opens the same kinds of span and counts
    # the same draws and LP sizes. Only the expert's policy_value is left
    # out on a warm cell: it runs once per instance.
    bc_lb = {"family": "bc-lb", "states": 16, "actions": 2,
             "reset": "geometric", "ratio": 0.5, "construction_seed": 7}
    clone = load("workloads").WORKLOADS["bc-lb-clone"].instance
    H, n = 8, 1024
    cells = [({"family": "mm-lb"}, "mm", mix64(505, 0), 2, 2),
             (bc_lb, "re", mix64(515, 0), 16, 2),
             (clone, "bc", mix64(404, 0), None, None)]
    for inst, learner, seed, S, A in cells:
        runs = []
        for _ in range(2):
            tracer = load("tracing").Tracer()
            tracer.install()
            try:
                row = harness.run_cell(inst, {"id": learner}, H, n, seed)
            finally:
                tracer.remove()
            assert row.status == "ok"
            runs.append((tracer, row))
        (cold, cold_row), (warm, warm_row) = runs
        assert warm_row.gap == cold_row.gap
        names = [span[0] for span in warm.spans]
        assert set(names) == {span[0] for span in cold.spans}
        for name in ("instances.build", "matching.build_lp",
                     "matching.crash", "rng.categorical", "mdp.rollout"):
            assert names.count(name) == [span[0] for span in cold.spans
                                         ].count(name), (learner, name)
        assert "instances.build" in names and "rng.categorical" in names
        assert [names.count("mdp.value"),
                [span[0] for span in cold.spans].count("mdp.value")] == [1, 2]
        assert warm.counts["rng.draws"] == 2 * H * n
        if S is not None:
            assert warm.counts["matching.lps"] == 1
            assert warm.counts["matching.lp_rows"] == H * S
            assert warm.counts["matching.lp_cols"] == H * S * A



def test_traced_mixture_cells_show_their_instance_build():
    # A mixture cell builds its drawn component through harness's own
    # make_mm_lb or make_bc_lb binding, so the traced run sees the build as
    # an instances.build span; the geometric reset opens one more.
    mixture = {"family": "mixture", "states": 16, "reset": "geometric",
               "construction_seed": 7}
    components = set()
    for draw in range(6):
        tracer = load("tracing").Tracer()
        calls = []

        def spy(attr, traced):
            def call(*args):
                start = len(tracer.spans)
                out = traced(*args)
                calls.append((attr, [s[0] for s in tracer.spans[start:]]))
                return out
            return call
        tracer.install()
        traced = {attr: getattr(harness, attr)
                  for attr in ("make_mm_lb", "make_bc_lb")}
        try:
            for attr, fn in traced.items():
                setattr(harness, attr, spy(attr, fn))
            row = harness.run_cell(mixture, {"id": "mm"}, 8, 256,
                                   mix64(99, draw), draw_index=draw)
        finally:
            for attr, fn in traced.items():
                setattr(harness, attr, fn)
            tracer.remove()
        assert row.status == "ok"
        drawn = {"mm-lb": "make_mm_lb", "bc-lb": "make_bc_lb"}[row.component]
        assert calls == [(drawn, ["instances.build"])]
        names = [span[0] for span in tracer.spans]
        assert names.count("instances.build") == 2
        components.add(row.component)
    assert components == {"mm-lb", "bc-lb"}
