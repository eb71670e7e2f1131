"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from a source checkout; the package is imported from its src/
directory. Ops run back to back in this one process, each starting
after the previous one ended (a closed loop with one client), until the
next op would end past --seconds; at least three ops run. Before each
op the workload's inputs are built again from the seed, for at least
SETUP_SECONDS, so that set-up is timed in every part of the run and
not only in the first.

--trace 0 reports the end-to-end metrics: median wall and CPU seconds
per op, the median set-up seconds per build and the process's peak
resident memory. The timings are scaled to the host's unloaded speed,
measured as the ops run (perfbench/speed.py); the record keeps every
op's raw wall time and the speed it was scaled by.
--trace 1 alternates traced and untraced ops and reports the per-layer
metrics of perfbench/layers.py: timings as the median over the traced
ops, counts from one traced op after checking that every traced op
produced the same counts, and the tracing overhead as the median
traced op wall time minus the median untraced one.

An op fails when it raises, when its output check fails, or when a
traced op finds a vertex whose fit failed its KKT certificate. The
second-to-last stdout line is a JSON record of the run (seed, op
times, failures, environment); the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 3
SETUP_SECONDS = 0.25


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  "HEAD"], capture_output=True, text=True,
                                 timeout=30)
            if git.returncode == 0:
                commit = git.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        # Without numba the Glauber sampler runs in pure Python.
        "numba": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": commit,
    }


def time_setup(workload, clock) -> float:
    """Build the inputs once, and again until SETUP_SECONDS have passed;
    returns the (scaled) seconds per build."""
    def builds():
        count = 0
        start = time.perf_counter()
        while not count or time.perf_counter() - start < SETUP_SECONDS:
            workload.setup()
            count += 1
        return count

    count, wall, _, _, _ = clock.timed(builds)
    return wall / count


def _attempt(workload, tracer):
    try:
        outcome = (workload.op() if tracer is None
                   else tracer.run_op(workload.op))
        return outcome.ok, outcome.reason
    except Exception as exc:  # an op that raises is a failed op
        traceback.print_exc(file=sys.stderr)
        return False, f"{type(exc).__name__}: {exc}"


def run_op(workload, tracer, clock):
    """Run one op; returns whether it passed, why not, its (scaled) wall
    and CPU seconds, its raw wall seconds and the host's speed, and,
    when traced, its per-layer metrics."""
    (ok, reason), wall, cpu, raw_wall, speed = clock.timed(
        lambda: _attempt(workload, tracer))
    op = {"ok": ok, "reason": reason, "wall": wall, "cpu": cpu,
          "raw_wall": raw_wall, "speed": speed, "layer": None}
    if tracer is not None:
        op["layer"] = tracer.op_metrics()
        if ok and op["layer"]["solver.nonconverged"]:
            op["ok"], op["reason"] = False, ("a vertex failed its KKT "
                                             "certificate")
    return op


def measure(workload, seconds, tracer, clock):
    """Closed loop of ops, each after a fresh set-up; with a tracer,
    even-numbered ops are traced. Returns (ops, set-up times)."""
    ops = []
    setup_times = []
    start = time.perf_counter()
    while True:
        setup_times.append(time_setup(workload, clock))
        traced = tracer is not None and len(ops) % 2 == 0
        ops.append(run_op(workload, tracer if traced else None, clock))
        typical = statistics.median(op["raw_wall"] for op in ops)
        if (len(ops) >= MIN_OPS
                and time.perf_counter() - start + typical > seconds):
            return ops, setup_times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(ops, setup_times):
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": _metric(statistics.median(op["wall"] for op in ops), "s"),
        "cpu_s": _metric(statistics.median(op["cpu"] for op in ops), "s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
    }


def layer_metrics(ops, layers_module):
    """Returns (metrics, mismatched count names)."""
    traced = [op["layer"] for op in ops if op["layer"] is not None]
    untraced = [op["wall"] for op in ops if op["layer"] is None]
    metrics = {}
    mismatched = []
    for name, unit in layers_module.METRICS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(op["wall"] for op in ops
                                       if op["layer"] is not None)
                     - statistics.median(untraced))
        elif layers_module.is_timing(name):
            value = statistics.median(m[name] for m in traced)
        else:
            value = traced[0][name]
            if any(m[name] != value for m in traced):
                mismatched.append(name)
        metrics[name] = _metric(value, unit)
    return metrics, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale sizes of the same workloads")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "isinglearn").is_dir():
        print(f"perfbench: no package sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads. With two cores shared with
    # other processes, multi-threaded BLAS calls spin against them and
    # one 10x10 fit was seen to take 89 s instead of 6 s.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import layers
    from speed import RawClock, SpeedProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed

    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as workdir:
        workload = cls(seed, args.smoke, workdir)
        tracer = layers.Tracer() if args.trace else None
        # End-to-end timings are scaled to the reference speed; traced
        # runs keep raw times, so that no probe lands in a layer's span.
        with (RawClock() if args.trace else SpeedProbe()) as clock:
            ops, setup_times = measure(workload, args.seconds, tracer,
                                       clock)

    failed = sum(not op["ok"] for op in ops)
    if args.trace:
        metrics, mismatched = layer_metrics(ops, layers)
    else:
        metrics, mismatched = end_to_end_metrics(ops, setup_times), []
    record = {
        "workload": args.workload,
        "seed": seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "ops": len(ops),
        "op_wall_s": [op["wall"] for op in ops],
        "op_cpu_s": [op["cpu"] for op in ops],
        "op_raw_wall_s": [op["raw_wall"] for op in ops],
        "op_speed": [op["speed"] for op in ops],
        "op_traced": [op["layer"] is not None for op in ops],
        "setups": len(setup_times),
        "failures": [op["reason"] for op in ops if not op["ok"]],
        "counts_not_repeated": mismatched,
        "untraced_targets": tracer.missing if tracer else [],
        "env": environment(),
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not mismatched,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
