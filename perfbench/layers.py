"""Per-layer tracing from outside the package.

A Tracer replaces each traced function, at the module that imports
it, with a wrapper that times the call as a span of a named layer and
counts the work it was given. Spans nest on one thread (every workload
runs with threads=1), so a layer's self time is its span time minus
the time of the spans it directly encloses. Totals accumulate in
memory and are read once per op.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import isinglearn.cli
import isinglearn.estimator
import isinglearn.experiments
import isinglearn.sampler
import isinglearn.solver

import workloads

# Root span around each traced op; its self time is benchmark glue.
OP_LAYER = "bench.op"


def _read_bytes(t, result, path):
    t.counts["read_bytes"] += os.path.getsize(path)


def _exact(t, result, model, n, seed):
    t.counts["exact_calls"] += 1
    t.keys["candidates"].add((_model_key(model), n))


def _glauber(t, result, model, n, config):
    t.counts["glauber_updates"] += (
        config.burn_in_sweeps + n * config.thinning_sweeps) * model.p


def _trial(t, result, *args, **kwargs):
    t.counts["trials"] += 1


def _model_key(model):
    return (model.p, tuple(sorted(model.couplings.items())))


def _enumerate(t, result, model):
    t.counts["enumerate_calls"] += 1
    t.keys["models"].add(_model_key(model))


def _view(t, view, samples, u):
    t.counts["view_calls"] += 1
    t.counts["view_rows"] += view.n
    t.counts["distinct_rows"] += view.basis.shape[0]


def _solve(t, report, view, config, x0=None):
    t.counts["solves"] += 1
    t.counts["iterations"] += report.iterations
    t.counts["nonconverged"] += not report.converged


def _evaluate(t, result, view, theta):
    t.counts["evals"] += 1
    t.counts["eval_bytes"] += view.basis.nbytes


def _value(t, result, view, theta):
    t.counts["value_evals"] += 1
    t.counts["eval_bytes"] += view.basis.nbytes


# (module, attribute, layer, counting hook or None)
TARGETS = [
    (workloads, "cli_main", "cli.main", None),
    (workloads, "run_nmin_search", "experiments.run", None),
    (workloads, "sample_glauber", "sampler.glauber", _glauber),
    (workloads, "fit_all_nodes", "estimator.fit", None),
    (workloads, "edges_from_estimates", "estimator.threshold", None),
    (isinglearn.cli, "read_samples_binary", "cli.read", _read_bytes),
    (isinglearn.cli, "fit_all_nodes", "estimator.fit", None),
    (isinglearn.cli, "edges_from_estimates", "estimator.threshold", None),
    (isinglearn.cli, "result_to_json", "cli.emit", None),
    (isinglearn.experiments, "sample_exact", "sampler.exact", _exact),
    (isinglearn.experiments, "sample_glauber", "sampler.glauber", _glauber),
    (isinglearn.experiments, "learn_structure", "estimator.fit", _trial),
    (isinglearn.sampler, "exact_distribution", "model.enumerate", _enumerate),
    (isinglearn.estimator, "node_view", "screening.view", _view),
    (isinglearn.estimator, "minimize", "solver.solve", _solve),
    (isinglearn.estimator, "edges_from_estimates", "estimator.threshold",
     None),
    (isinglearn.solver, "evaluate", "screening.eval", _evaluate),
    (isinglearn.solver, "screening_value", "screening.eval", _value),
]

# Every per-layer metric, with its unit. Units in seconds or
# microseconds are timings (median over the traced ops of a run); the
# rest are counts and ratios of counts, which must repeat exactly.
METRICS = {
    "cli.read_s": "s",
    "cli.emit_s": "s",
    "cli.self_s": "s",
    "sampler.read_bytes": "bytes",
    "sampler.exact_s": "s",
    "sampler.exact_calls": "count",
    "sampler.glauber_s": "s",
    "sampler.glauber_us_per_update": "us",
    "model.enumerate_s": "s",
    "model.enumerate_calls": "count",
    "model.enumerate_reuse": "ratio",
    "screening.view_s": "s",
    "screening.view_calls": "count",
    "screening.distinct_rows": "count",
    "screening.compression": "ratio",
    "screening.eval_s": "s",
    "screening.evals": "count",
    "screening.value_evals": "count",
    "screening.eval_bytes": "computed_bytes",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.solves": "count",
    "solver.iterations": "count",
    "solver.accept_ratio": "ratio",
    "solver.nonconverged": "count",
    "estimator.fit_s": "s",
    "estimator.threshold_s": "s",
    "estimator.self_s": "s",
    "experiments.trials": "count",
    "experiments.candidates": "count",
    "experiments.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def is_timing(name: str) -> bool:
    return METRICS[name] in ("s", "us")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers on enter and restores the originals on
    exit; reset() starts the totals of a new op. A target the package
    no longer has is skipped and listed in missing, so its layer reads
    0 instead of the traced run failing."""

    def __init__(self):
        self._stack = []
        self._saved = []
        self.missing = sorted(f"{module.__name__}.{attr}"
                              for module, attr, _, _ in TARGETS
                              if not hasattr(module, attr))
        self.reset()

    def reset(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)

    def _wrap(self, layer, fn, hook):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                self.inclusive[layer] += dt
                self.self_time[layer] += dt - children
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result
        return wrapper

    def __enter__(self):
        for module, attr, layer, hook in TARGETS:
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_op(self, fn):
        """Trace one op: fresh totals, wrappers installed while it runs."""
        self.reset()
        with self:
            return self._wrap(OP_LAYER, fn, None)()

    def op_metrics(self) -> dict:
        """Per-layer metrics of the op just traced under OP_LAYER."""
        s, inc, c = self.self_time, self.inclusive, self.counts
        layer_self = sum(v for k, v in s.items() if k != OP_LAYER)
        m = {
            "cli.read_s": s["cli.read"],
            "cli.emit_s": s["cli.emit"],
            "cli.self_s": s["cli.main"],
            "sampler.read_bytes": c["read_bytes"],
            "sampler.exact_s": s["sampler.exact"],
            "sampler.exact_calls": c["exact_calls"],
            "sampler.glauber_s": s["sampler.glauber"],
            "sampler.glauber_us_per_update":
                1e6 * _ratio(s["sampler.glauber"], c["glauber_updates"]),
            "model.enumerate_s": s["model.enumerate"],
            "model.enumerate_calls": c["enumerate_calls"],
            "model.enumerate_reuse":
                _ratio(len(self.keys["models"]), c["enumerate_calls"]),
            "screening.view_s": s["screening.view"],
            "screening.view_calls": c["view_calls"],
            "screening.distinct_rows": c["distinct_rows"],
            "screening.compression":
                _ratio(c["view_rows"], c["distinct_rows"]),
            "screening.eval_s": s["screening.eval"],
            "screening.evals": c["evals"],
            "screening.value_evals": c["value_evals"],
            "screening.eval_bytes": c["eval_bytes"],
            "solver.solve_s": inc["solver.solve"],
            "solver.self_s": s["solver.solve"],
            "solver.solves": c["solves"],
            "solver.iterations": c["iterations"],
            "solver.accept_ratio":
                _ratio(c["iterations"], c["value_evals"]),
            "solver.nonconverged": c["nonconverged"],
            "estimator.fit_s": inc["estimator.fit"],
            "estimator.threshold_s": s["estimator.threshold"],
            "estimator.self_s": s["estimator.fit"],
            "experiments.trials": c["trials"],
            "experiments.candidates": len(self.keys["candidates"]),
            "experiments.self_s": s["experiments.run"],
            "trace.unattributed_s": inc[OP_LAYER] - layer_self,
        }
        return m
