"""Sample-complexity experiments: minimal-n searches and error curves.

A run is described by an ExperimentManifest and is deterministic given
the manifest (wall-clock columns aside): every model draw and every
trial's sampling seed is derived from the manifest seed through
numpy's SeedSequence spawn keys, so re-running a manifest reproduces
the same science row for row.

run_nmin_search estimates, per swept parameter value, the smallest n
at which structure recovery succeeds in all `trials` independent
trials. One loop narrows a bracket between the last failing and the
last successful candidate: starting at n_start, it doubles n while no
candidate has succeeded (giving up past n_max), halves it while none
has failed, and otherwise bisects, until the bracket's relative width
is at most rel_width. The reported n_min is the bracket's upper end
(a confirmed success).
A candidate's first failing trial settles it: trial 0 is fitted alone,
and if it recovers the edges the other trials' tallies are fitted in
batches of up to _BATCH_BYTES, one lockstep solve each. Candidates are
warm started, as neighbours fit nearly the same couplings: every trial
starts its fits from trial 0's coupling matrix at the candidate before
it (each row on its support's table); a width's first starts from 0.

run_error_curve fits every node at each listed n with the node-mode
penalty schedule and reports the mean l2 coupling error. Its trials'
tallies are fitted from 0 in the same batches as a candidate's.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimator import (coupling_matrix, edges_from_estimates,
                        fit_all_nodes, fit_tallies, lambda_schedule,
                        perfect_recovery, square_error)
from .model import IsingModel, make_grid_model
from .sampler import RNG_ALGORITHM, GlauberConfig, sample_exact, sample_glauber
from .solver import SolverConfig

NMIN_CSV_HEADER = "param,n_min,trials,success,seed,wall_seconds"
ERROR_CSV_HEADER = "n,mean_error,trials,seed,wall_seconds"
_BATCH_BYTES = 1 << 21  # tally bytes one batch of trials holds
_CELL_FORMATS = {"param": ".17g", "mean_error": ".17g", "wall_seconds": ".3f"}
# Element types that seed, sides, betas and ns refuse.
_NOT_NUMBERS = frozenset((bool, str))


@dataclass
class ExperimentManifest:
    """Declarative description of one experiment run.

    kind "nmin_vs_p" sweeps grid sides at fixed coupling magnitude
    (param column = p); "nmin_vs_beta" sweeps coupling magnitudes at a
    fixed side (param column = beta); "error_vs_n" sweeps the sample
    sizes in ns on one fixed model, its trials fitted from 0 in
    batches of tallies, as the minimal-n search fits a candidate's.
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
        # operator.index takes integers (numpy ones too), float()
        # numbers, but both take bools and float() numeric strings too.
        # A wrong type in a field compared below raises TypeError, which
        # manifest_from_dict reports.
        try:
            if not _NOT_NUMBERS.isdisjoint(map(type, (
                    self.seed, *self.sides, *self.betas, *self.ns))):
                raise TypeError("got a bool or a string")
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
            # A float or bool that fails this should name its field.
            _check_run_fields(self)
            raise InputError("need 1 <= n_start <= n_max")


def manifest_from_dict(obj: dict) -> ExperimentManifest:
    try:
        return ExperimentManifest(**obj)
    except TypeError as exc:
        raise InputError(f"bad manifest: {exc}") from exc


_INTEGER_FIELDS = ("side", "trials", "n_start", "n_max", "burn_in_sweeps",
                   "thinning_sweeps", "max_iterations")
_NUMBER_FIELDS = ("beta", "epsilon", "kkt_tolerance")


def _check_run_fields(manifest: ExperimentManifest):
    """Type-check the scalar fields, once per run: __post_init__'s
    comparisons let floats and bools through, and the other fields are
    checked where they are used, which a wrong type would reach as a
    TypeError (or, for out, a file descriptor)."""
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


def _seed(root: int, *key: int) -> int:
    """The integer seed of SeedSequence(root)'s spawn at key."""
    ss = np.random.SeedSequence(entropy=root, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _model_for(manifest: ExperimentManifest, param_index: int, side: int,
               beta: float) -> IsingModel:
    if manifest.family == "ferromagnet":
        return make_grid_model(side, beta, "ferromagnet")
    return make_grid_model(side, beta, "spin_glass",
                           seed=_seed(manifest.seed, 0, param_index))


def _sample(manifest: ExperimentManifest, model: IsingModel, n: int,
            *key: int):
    seed = _seed(manifest.seed, *key)
    if manifest.sampler == "exact":
        return sample_exact(model, n, seed)
    cfg = GlauberConfig(seed=seed, burn_in_sweeps=manifest.burn_in_sweeps,
                        thinning_sweeps=manifest.thinning_sweeps)
    return sample_glauber(model, n, cfg)


def _solver_config(manifest: ExperimentManifest) -> SolverConfig:
    return SolverConfig(kkt_tolerance=manifest.kkt_tolerance,
                        max_iterations=manifest.max_iterations)


def _batched_fits(tallies, fit):
    """fit of the tallies in order, a run at a time: runs of at most
    _BATCH_BYTES, or a larger tally alone, dead before the next draw."""
    batch, held = [], 0
    for tally in tallies:
        size = tally.spins.nbytes + tally.weights.nbytes
        if batch and held + size > _BATCH_BYTES:
            yield from fit(batch)
            batch, held = [], 0
        batch, held = batch + [tally], held + size
        del tally  # only the batch holds it: it dies with its fit
        if held > _BATCH_BYTES:
            yield from fit(batch)
            batch, held = [], 0
    if batch:
        yield from fit(batch)


def _all_trials_succeed(manifest: ExperimentManifest, model: IsingModel,
                        n: int, param_index: int, attempt: int,
                        start: np.ndarray | None):
    """Whether every trial at n recovers the edges, and trial 0's
    coupling matrix. Every trial is fitted from the coupling matrix start
    (None: from 0): trial 0 alone, then, if it recovers, the others in
    _batched_fits. The first failing trial, in order, ends the candidate."""
    lam = lambda_schedule(model.p, n, manifest.epsilon, mode="structure")
    config = _solver_config(manifest)
    key = (1, param_index, attempt)
    estimates = fit_all_nodes(_sample(manifest, model, n, *key, 0), lam,
                              config, start)
    # Each set's words die with its draw; only its tally is held.
    tallies = (_sample(manifest, model, n, *key, t).tally
               for t in range(1, manifest.trials))
    fits = itertools.chain([estimates], _batched_fits(
        tallies, lambda batch: fit_tallies(batch, lam, config, start)))
    ok = all(perfect_recovery(edges_from_estimates(
        fit, model.min_coupling, model.p), model) for fit in fits)
    return ok, coupling_matrix(estimates, model.p)


def _search_nmin(manifest: ExperimentManifest, model: IsingModel,
                 param_index: int):
    """One loop over the bracket (lo, hi] of the last failed (0: none
    yet) and last successful (None: none yet) candidates: double while
    nothing has succeeded, halve while nothing has failed, otherwise
    bisect, until hi - lo <= max(rel_width * hi, 1). Returns (n_min,
    resolved). Each candidate evaluation uses fresh derived seeds
    (attempt counter), so no candidate is judged on recycled samples,
    and starts its fits from trial 0's coupling matrix at the previous
    candidate."""
    lo, hi, n, start = 0, None, manifest.n_start, None
    for attempt in itertools.count(1):
        ok, start = _all_trials_succeed(manifest, model, n, param_index,
                                        attempt, start)
        lo, hi = (lo, n) if ok else (n, hi)
        if hi is None:
            n = 2 * lo
            if n > manifest.n_max:
                return manifest.n_max, False
        elif hi - lo <= max(manifest.rel_width * hi, 1):
            return hi, True
        else:
            # With lo = 0 this halves hi.
            n = (lo + hi) // 2


def _sweep(manifest: ExperimentManifest, swept: str, header: str,
           run) -> list[dict]:
    """One row per value of the manifest's nonempty list field swept:
    run(index, value)'s columns, then trials, seed and the wall seconds
    of its call. Writes the rows, cells formatted by column, as CSV to
    manifest.out when set."""
    values = getattr(manifest, swept)
    if not values:
        raise InputError(f"{manifest.kind} needs a nonempty {swept} list")
    rows = []
    for idx, value in enumerate(values):
        t0 = time.perf_counter()
        row = run(idx, value)
        rows.append({**row, "trials": manifest.trials, "seed": manifest.seed,
                     "wall_seconds": time.perf_counter() - t0})
    if manifest.out:
        # Floats round-trip, bools read true/false.
        write_rows_csv(manifest.out, header, [
            [format(r[col], _CELL_FORMATS.get(col, "")).lower()
             for col in header.split(",")] for r in rows])
    return rows


def run_nmin_search(manifest: ExperimentManifest) -> list[dict]:
    """Execute an nmin manifest; returns one row dict per swept value
    and writes CSV to manifest.out when set."""
    _check_run_fields(manifest)
    if manifest.kind not in ("nmin_vs_p", "nmin_vs_beta"):
        raise InputError(f"run_nmin_search cannot run kind {manifest.kind!r}")
    by_side = manifest.kind == "nmin_vs_p"

    def search(idx, value):
        side, beta = ((value, manifest.beta) if by_side
                      else (manifest.side, value))
        n_min, resolved = _search_nmin(
            manifest, _model_for(manifest, idx, side, beta), idx)
        return {"param": float(side * side) if by_side else beta,
                "n_min": int(n_min), "success": resolved}

    return _sweep(manifest, "sides" if by_side else "betas", NMIN_CSV_HEADER,
                  search)


def run_error_curve(manifest: ExperimentManifest) -> list[dict]:
    """Mean l2 coupling error over all nodes (and trials) at each n in
    manifest.ns, with the node-mode penalty schedule."""
    _check_run_fields(manifest)
    if manifest.kind != "error_vs_n":
        raise InputError(f"run_error_curve cannot run kind {manifest.kind!r}")
    model = _model_for(manifest, 0, manifest.side, manifest.beta)
    config = _solver_config(manifest)

    def mean_error(idx, n):
        lam = lambda_schedule(model.p, n, manifest.epsilon, mode="node")
        tallies = (_sample(manifest, model, n, 2, idx, t).tally
                   for t in range(manifest.trials))
        fits = _batched_fits(
            tallies, lambda batch: fit_tallies(batch, lam, config))
        return {"n": n, "mean_error": float(np.mean(
            [square_error(est.theta_hat, model, est.u)
             for estimates in fits for est in estimates]))}

    return _sweep(manifest, "ns", ERROR_CSV_HEADER, mean_error)


def write_rows_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# generated={time.strftime('%Y-%m-%dT%H:%M:%S')} "
                 f"rng={RNG_ALGORITHM}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return semilog_slope(np.log(np.asarray(xs, dtype=np.float64)), ys)


def semilog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against x."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])
