"""The benchmark's traced run wraps program functions by module binding and
reads their arguments and results (perfbench/tracing.py). A renamed
binding or a changed signature would silently zero its per-layer metrics;
this runs one LP cell of each kind under the tracer and checks they count."""

import importlib.util
from pathlib import Path

from il_lab import harness
from il_lab.rng import mix64

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_count_lp_work():
    tracer = load_tracing().Tracer()
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
