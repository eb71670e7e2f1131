"""Sample-complexity experiments: minimal-n searches and error curves.

A run is described by an ExperimentManifest and is deterministic given
the manifest (wall-clock columns aside): every model draw and every
trial's sampling seed is derived from the manifest seed through
numpy's SeedSequence spawn keys, so re-running a manifest reproduces
the same science row for row.

run_nmin_search estimates, per swept parameter value, the smallest n
at which structure recovery succeeds in all `trials` independent
trials: doubling from n_start to bracket the transition, then
bisection until the bracket's relative width is at most rel_width.
The reported n_min is the bracket's upper end (a confirmed success).
A candidate's trials run in turn and its first failing trial settles
it. Neighbouring candidates fit nearly the same couplings, so each is
warm started: every trial of a candidate starts its fits from trial
0's coupling matrix at the candidate before it, and a width's first
candidate starts from 0.

run_error_curve fits every node at each listed n with the node-mode
penalty schedule and reports the mean l2 coupling error.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimator import (coupling_matrix, edges_from_estimates,
                        fit_all_nodes, lambda_schedule, perfect_recovery,
                        square_error)
from .model import IsingModel, make_grid_model
from .sampler import RNG_ALGORITHM, GlauberConfig, sample_exact, sample_glauber
from .solver import SolverConfig

NMIN_CSV_HEADER = "param,n_min,trials,success,seed,wall_seconds"
ERROR_CSV_HEADER = "n,mean_error,trials,seed,wall_seconds"


@dataclass
class ExperimentManifest:
    """Declarative description of one experiment run.

    kind "nmin_vs_p" sweeps grid sides at fixed coupling magnitude
    (param column = p); "nmin_vs_beta" sweeps coupling magnitudes at a
    fixed side (param column = beta); "error_vs_n" sweeps the sample
    sizes in ns on one fixed model. Trials run in turn; error_vs_n
    fits each from 0.
    """

    kind: str
    seed: int
    family: str = "ferromagnet"
    side: int = 4
    sides: tuple[int, ...] = ()
    beta: float = 0.7
    betas: tuple[float, ...] = ()
    ns: tuple[int, ...] = ()
    trials: int = 45
    epsilon: float = 0.05
    n_start: int = 1000
    n_max: int = 10 ** 8
    rel_width: float = 0.10
    sampler: str = "exact"
    burn_in_sweeps: int = 1000
    thinning_sweeps: int = 10
    kkt_tolerance: float = 1e-6
    max_iterations: int = 200000
    out: str | None = None

    def __post_init__(self):
        # A string or object would be read as its characters or keys.
        if isinstance(self.betas, (str, dict)):
            raise InputError(f"manifest field betas takes a list of "
                             f"numbers, got {self.betas!r}")
        # operator.index takes only integers (numpy ones too), float()
        # only numbers or numeric strings. A wrong type in a field
        # compared below raises TypeError, which manifest_from_dict reports.
        try:
            self.seed = operator.index(self.seed)
            self.sides = tuple(map(operator.index, self.sides))
            self.betas = tuple(map(float, self.betas))
            self.ns = tuple(map(operator.index, self.ns))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"seed, sides and ns take integers, betas "
                             f"numbers: {exc}") from exc
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.kind not in ("nmin_vs_p", "nmin_vs_beta", "error_vs_n"):
            raise InputError(f"unknown experiment kind {self.kind!r}")
        if self.family not in ("ferromagnet", "spin_glass"):
            raise InputError(f"unknown family {self.family!r}")
        if self.sampler not in ("exact", "glauber"):
            raise InputError(f"unknown sampler {self.sampler!r}")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if not 0.0 < self.rel_width < 1.0:
            raise InputError("rel_width must lie in (0, 1)")
        if self.n_start < 1 or self.n_max < self.n_start:
            raise InputError("need 1 <= n_start <= n_max")


def manifest_from_dict(obj: dict) -> ExperimentManifest:
    try:
        return ExperimentManifest(**obj)
    except TypeError as exc:
        raise InputError(f"bad manifest: {exc}") from exc


_INTEGER_FIELDS = ("side", "trials", "n_start", "burn_in_sweeps",
                   "thinning_sweeps", "max_iterations")
_NUMBER_FIELDS = ("beta", "epsilon", "kkt_tolerance")


def _check_run_fields(manifest: ExperimentManifest):
    """Type-check the fields __post_init__ does not compare, once per
    run: their values are checked where they are used, which a wrong
    type would reach as a TypeError (or, for out, a file descriptor)."""
    for name in _INTEGER_FIELDS + _NUMBER_FIELDS:
        value = getattr(manifest, name)
        integer = name in _INTEGER_FIELDS
        kinds = (int, np.integer) if integer else (int, float, np.integer,
                                                   np.floating)
        if isinstance(value, bool) or not isinstance(value, kinds):
            what = "an integer" if integer else "a number"
            raise InputError(f"manifest field {name} takes {what}, "
                             f"got {value!r}")
    if manifest.out is not None and not isinstance(manifest.out, str):
        raise InputError(f"manifest field out takes a path, "
                         f"got {manifest.out!r}")


def _derived_seed(root: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=root, spawn_key=tuple(key))


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _model_for(manifest: ExperimentManifest, param_index: int, side: int,
               beta: float) -> IsingModel:
    if manifest.family == "ferromagnet":
        return make_grid_model(side, beta, "ferromagnet")
    model_seed = _seed_int(_derived_seed(manifest.seed, 0, param_index))
    return make_grid_model(side, beta, "spin_glass", seed=model_seed)


def _draw(manifest: ExperimentManifest, model: IsingModel, n: int,
          seed: int):
    if manifest.sampler == "exact":
        return sample_exact(model, n, seed)
    cfg = GlauberConfig(seed=seed, burn_in_sweeps=manifest.burn_in_sweeps,
                        thinning_sweeps=manifest.thinning_sweeps)
    return sample_glauber(model, n, cfg)


def _solver_config(manifest: ExperimentManifest) -> SolverConfig:
    return SolverConfig(kkt_tolerance=manifest.kkt_tolerance,
                        max_iterations=manifest.max_iterations)


def _all_trials_succeed(manifest: ExperimentManifest, model: IsingModel,
                        n: int, param_index: int, attempt: int,
                        start: np.ndarray | None):
    """Whether every trial at n recovers the edges, and trial 0's
    coupling matrix. Trials run in turn, each fitted from the coupling
    matrix start (None: from 0), and the first failure ends the
    candidate, so trial 0 always runs."""
    lam = lambda_schedule(model.p, n, manifest.epsilon, mode="structure")
    config = _solver_config(manifest)
    for t in range(manifest.trials):
        seed = _seed_int(_derived_seed(manifest.seed, 1, param_index,
                                       attempt, t))
        samples = _draw(manifest, model, n, seed)
        estimates = fit_all_nodes(samples, lam, config, start)
        if t == 0:
            first = coupling_matrix(estimates, model.p)
        edge_set = edges_from_estimates(estimates, model.min_coupling,
                                        model.p)
        if not perfect_recovery(edge_set, model):
            return False, first
    return True, first


def _search_nmin(manifest: ExperimentManifest, model: IsingModel,
                 param_index: int):
    """Doubling then bisection; returns (n_min, resolved). Each
    candidate evaluation uses fresh derived seeds (attempt counter), so
    no candidate is judged on recycled samples, and starts its fits
    from trial 0's coupling matrix at the previous candidate."""
    attempt = 0
    start = None

    def success(n: int) -> bool:
        nonlocal attempt, start
        attempt += 1
        ok, start = _all_trials_succeed(manifest, model, n, param_index,
                                        attempt, start)
        return ok

    n = manifest.n_start
    if success(n):
        hi = n
        lo = 0
        while hi > 1:
            cand = max(1, hi // 2)
            if cand == hi:
                break
            if success(cand):
                hi = cand
            else:
                lo = cand
                break
        if hi == 1:
            return 1, True
    else:
        lo = n
        while True:
            n *= 2
            if n > manifest.n_max:
                return manifest.n_max, False
            if success(n):
                hi = n
                break
            lo = n
    while hi - lo > manifest.rel_width * hi and hi - lo > 1:
        mid = (lo + hi) // 2
        if success(mid):
            hi = mid
        else:
            lo = mid
    return hi, True


def run_nmin_search(manifest: ExperimentManifest) -> list[dict]:
    """Execute an nmin manifest; returns one row dict per swept value
    and writes CSV to manifest.out when set."""
    _check_run_fields(manifest)
    if manifest.kind == "nmin_vs_p":
        if not manifest.sides:
            raise InputError("nmin_vs_p needs a nonempty sides list")
        sweep = [(side, manifest.beta, float(side * side))
                 for side in manifest.sides]
    elif manifest.kind == "nmin_vs_beta":
        if not manifest.betas:
            raise InputError("nmin_vs_beta needs a nonempty betas list")
        sweep = [(manifest.side, b, b) for b in manifest.betas]
    else:
        raise InputError(f"run_nmin_search cannot run kind {manifest.kind!r}")
    rows = []
    for idx, (side, beta, param) in enumerate(sweep):
        t0 = time.perf_counter()
        model = _model_for(manifest, idx, side, beta)
        n_min, resolved = _search_nmin(manifest, model, idx)
        rows.append({
            "param": param,
            "n_min": int(n_min),
            "trials": manifest.trials,
            "success": resolved,
            "seed": manifest.seed,
            "wall_seconds": time.perf_counter() - t0,
        })
    if manifest.out:
        write_rows_csv(manifest.out, NMIN_CSV_HEADER, [
            [_fmt_param(r["param"]), r["n_min"], r["trials"],
             str(r["success"]).lower(), r["seed"], f"{r['wall_seconds']:.3f}"]
            for r in rows
        ])
    return rows


def run_error_curve(manifest: ExperimentManifest) -> list[dict]:
    """Mean l2 coupling error over all nodes (and trials) at each n in
    manifest.ns, with the node-mode penalty schedule."""
    _check_run_fields(manifest)
    if manifest.kind != "error_vs_n":
        raise InputError(f"run_error_curve cannot run kind {manifest.kind!r}")
    if not manifest.ns:
        raise InputError("error_vs_n needs a nonempty ns list")
    model = _model_for(manifest, 0, manifest.side, manifest.beta)
    rows = []
    for idx, n in enumerate(manifest.ns):
        t0 = time.perf_counter()
        errors = []
        for t in range(manifest.trials):
            seed = _seed_int(_derived_seed(manifest.seed, 2, idx, t))
            samples = _draw(manifest, model, n, seed)
            lam = lambda_schedule(model.p, n, manifest.epsilon, mode="node")
            estimates = fit_all_nodes(samples, lam,
                                      config=_solver_config(manifest))
            errors.extend(square_error(est.theta_hat, model, est.u)
                          for est in estimates)
        rows.append({
            "n": n,
            "mean_error": float(np.mean(errors)),
            "trials": manifest.trials,
            "seed": manifest.seed,
            "wall_seconds": time.perf_counter() - t0,
        })
    if manifest.out:
        write_rows_csv(manifest.out, ERROR_CSV_HEADER, [
            [r["n"], format(r["mean_error"], ".17g"), r["trials"], r["seed"],
             f"{r['wall_seconds']:.3f}"]
            for r in rows
        ])
    return rows


def _fmt_param(value: float) -> str:
    return format(value, ".17g")


def write_rows_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# generated={time.strftime('%Y-%m-%dT%H:%M:%S')} "
                 f"rng={RNG_ALGORITHM}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.log(np.asarray(xs, dtype=np.float64))
    ys = np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])


def semilog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against x."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])
