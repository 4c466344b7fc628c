"""Span tracing for the benchmark's traced run.

Spans are recorded from outside the program: the tracer replaces each
public function at the module binding its caller looks it up through
(modules import with `from .x import y`, so matching calls
`il_lab.simplex.simplex` as `sx.simplex`, learners calls its own binding
`il_lab.learners.solve_occupancy_match`, and so on), and restores the
bindings when removed. A span is (name, start, end, parent, cell id); spans
stay in memory until the run ends. A layer's self time is its spans' time
minus the time of their direct children."""

import importlib
import json
from collections import defaultdict
from time import perf_counter


def _simplex_counts(counts, args, out):
    m, n = args[0].shape
    pivots = out[3]
    counts["simplex.calls"] += 1
    counts["simplex.pivots"] += pivots
    counts["simplex.optimal"] += out[2] == "optimal"
    # Rank-1 tableau update per pivot on the (m+1) x (n+1) tableau:
    # np.outer (1 mul) and the subtraction (1 sub) per entry; bytes count
    # writing the outer product, reading it and T, and writing T back.
    cells = (m + 1) * (n + 1)
    counts["simplex.pivot_flops"] += 2 * cells * pivots
    counts["simplex.pivot_bytes"] += 32 * cells * pivots


def _lp_counts(counts, args, out):
    rows, cols = out[0].shape
    counts["matching.lps"] += 1
    counts["matching.lp_rows"] += rows
    counts["matching.lp_cols"] += cols


def _draw_counts(counts, args, out):
    counts["rng.draws"] += len(args[2])


def _rollout_counts(counts, args, out):
    counts["mdp.steps"] += out[0].size


# (module, attribute, span name, counter). Several bindings may share a
# span name: the layer is the module that implements the function.
BINDINGS = (
    ("il_lab.harness", "run_cell", "harness.cell", None),
    ("il_lab.harness", "make_mm_lb", "instances.build", None),
    ("il_lab.harness", "make_bc_lb", "instances.build", None),
    ("il_lab.harness", "geometric_reset", "instances.build", None),
    ("il_lab.harness", "sample_dataset", "datasets.sample", None),
    ("il_lab.datasets", "rollout_batch", "mdp.rollout", _rollout_counts),
    ("il_lab.mdp", "mix64_array", "rng.hash", None),
    ("il_lab.mdp", "categorical_rows", "rng.categorical", _draw_counts),
    ("il_lab.harness", "bc_train", "learners.bc", None),
    ("il_lab.harness", "mm_train", "learners.train", None),
    ("il_lab.harness", "re_train", "learners.train", None),
    ("il_lab.learners", "bc_train", "learners.bc", None),
    ("il_lab.learners", "replay_exact", "learners.replay", None),
    ("il_lab.learners", "hybrid_estimate", "learners.hybrid", None),
    ("il_lab.learners", "empirical_occupancy", "datasets.empirical", None),
    ("il_lab.learners", "split", "datasets.split", None),
    ("il_lab.learners", "solve_occupancy_match", "matching.solve", None),
    ("il_lab.learners", "extract_policy", "matching.extract", None),
    ("il_lab.matching", "build_match_lp", "matching.build_lp", _lp_counts),
    ("il_lab.matching", "crash_basis", "matching.crash", None),
    ("il_lab.matching", "exact_occupancy", "mdp.occupancy", None),
    ("il_lab.simplex", "simplex", "simplex.solve", _simplex_counts),
    ("il_lab.harness", "policy_value", "mdp.value", None),
    ("il_lab.mdp", "exact_occupancy", "mdp.occupancy", None),
)

# Self time per cell, by span name.
SELF_MS = {
    "simplex.solve_ms": "simplex.solve",
    "matching.solve_ms": "matching.solve",
    "matching.build_lp_ms": "matching.build_lp",
    "matching.crash_ms": "matching.crash",
    "matching.extract_ms": "matching.extract",
    "rng.hash_ms": "rng.hash",
    "rng.categorical_ms": "rng.categorical",
    "mdp.rollout_ms": "mdp.rollout",
    "mdp.value_ms": "mdp.value",
    "mdp.occupancy_ms": "mdp.occupancy",
    "datasets.sample_ms": "datasets.sample",
    "datasets.empirical_ms": "datasets.empirical",
    "datasets.split_ms": "datasets.split",
    "learners.train_ms": "learners.train",
    "learners.bc_ms": "learners.bc",
    "learners.replay_ms": "learners.replay",
    "learners.hybrid_ms": "learners.hybrid",
    "instances.build_ms": "instances.build",
    "harness.cell_self_ms": "harness.cell",
}

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    **{name: "ms" for name in SELF_MS},
    "simplex.calls": "count",
    "simplex.pivots": "count",
    "simplex.us_per_pivot": "us",
    "simplex.optimal_ratio": "ratio",
    "simplex.pivot_flops_computed": "flop",
    "simplex.pivot_bytes_computed": "B",
    "matching.lp_rows": "count",
    "matching.lp_cols": "count",
    "rng.draws": "count",
    "mdp.rollout_steps_per_s": "1/s",
    "trace.cell_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans while installed; install() before a traced call and
    remove() after it. `cell` tags the spans of the current call."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.cell = -1
        self._stack = []
        self._saved = []

    def install(self):
        """Wraps every binding in BINDINGS; raises AttributeError, with
        nothing installed, when one of them no longer exists."""
        mods = [importlib.import_module(module)
                for module, _, _, _ in BINDINGS]
        for mod, (module, attr, _, _) in zip(mods, BINDINGS):
            if not hasattr(mod, attr):
                raise AttributeError(f"traced binding {module}.{attr} "
                                     "does not exist")
        for mod, (_, attr, name, count) in zip(mods, BINDINGS):
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, count))

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.cell)
            if count is not None:
                count(counts, args, out)
            return out
        return traced

    def self_times(self):
        """Total self seconds and total inclusive seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s, incl_s = defaultdict(float), defaultdict(float)
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += t1 - t0 - child[sid]
            incl_s[name] += t1 - t0
        return self_s, incl_s

    def metrics(self, n_cells, untraced_s, traced_s):
        """Per-layer metrics per traced cell. untraced_s / traced_s are the
        summed times of the same cells run without and with tracing."""
        self_s, incl_s = self.self_times()
        c = self.counts
        per = 1.0 / n_cells
        out = {k: self_s[span] * 1e3 * per for k, span in SELF_MS.items()}
        pivots = c["simplex.pivots"]
        calls = c["simplex.calls"]
        lps = c["matching.lps"]
        rollout_s = incl_s["mdp.rollout"]
        out.update({
            "simplex.calls": calls * per,
            "simplex.pivots": pivots * per,
            "simplex.us_per_pivot":
                self_s["simplex.solve"] * 1e6 / pivots if pivots else 0.0,
            "simplex.optimal_ratio":
                c["simplex.optimal"] / calls if calls else 0.0,
            "simplex.pivot_flops_computed": c["simplex.pivot_flops"] * per,
            "simplex.pivot_bytes_computed": c["simplex.pivot_bytes"] * per,
            "matching.lp_rows": c["matching.lp_rows"] / lps if lps else 0.0,
            "matching.lp_cols": c["matching.lp_cols"] / lps if lps else 0.0,
            "rng.draws": c["rng.draws"] * per,
            "mdp.rollout_steps_per_s":
                c["mdp.steps"] / rollout_s if rollout_s else 0.0,
            "trace.cell_ms": traced_s * 1e3 * per,
            "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        })
        return {k: out[k] for k in PER_LAYER_UNITS}

    def write(self, path):
        """Spans as JSON: names listed once, each span
        [name index, start s, end s, parent index, cell id]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "spans": [[index[n], round(t0, 7), round(t1, 7), p, cell]
                         for n, t0, t1, p, cell in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
