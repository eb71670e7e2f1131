"""Finite-sample guarantees and executable verification oracles.

The calculators turn (p, d, alpha, beta) plus confidence parameters
into real-valued sample-size bounds: an information-theoretic
necessary count, an existence-style sufficient count, and the
sufficient counts under which the screening estimator's coupling-error
and structure-recovery guarantees kick in. They evaluate formulas
exactly as stated; callers decide how to round.

The oracles turn the analysis facts behind those guarantees into
finite checks against exact enumeration or seeded Monte-Carlo:

* at the true couplings the per-sample gradient terms
  X_l = -sigma_u sigma_l exp(-sum_i theta_ui sigma_u sigma_i) have
  population mean 0 and second moment exactly 1, and |X_l| never
  exceeds exp(beta*d);
* the sup-norm of the empirical gradient at the truth concentrates
  below 2*sqrt(ln(2p/eps)/n);
* the loss's second-order remainder dominates a quadratic: through
  the scalar kernel bound f(z) >= z^2/(2+|z|), through the empirical
  covariance, and, restricted to a sparsity cone, through an explicit
  curvature constant;
* the covariance of the spins excluding u has smallest eigenvalue at
  least exp(-2*beta*d)/(d+1), and its empirical version concentrates
  around it.

The oracles read their data as designs (sampler.Design), the same
weighted configurations a sample set's tally is: the exact distribution
in _CHUNK-sized pieces of configuration indices, and each multinomial
draw as one design of its counts. The screening identities are the
population loss itself, its gradient at theta* (mean 0) and its value
at 2 theta* (second moment 1), and every spin covariance is one
second-moment sum over designs.

verification_report runs the suite on one model and returns one entry
per oracle with the measured statistic, the bound, and pass/fail. Every
exact oracle reads the model's one enumeration (exact_distribution) and
builds its designs from it a chunk at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .estimator import _check_epsilon, lambda_schedule
from .model import (IsingModel, _check_integer, _check_vertex, _real, beta_d,
                    exact_distribution)
from .sampler import RNG_ALGORITHM, _indexed_design
from .screening import (NodeView, _second_moments, evaluate_rows,
                        remainder_kernel, remainder_kernel_floor,
                        screening_gradient, taylor_remainder)

_CHUNK = 1 << 16
# Smallest ||delta||_2 restricted_convexity_check draws.
_MIN_NORM = 1e-3


@dataclass(frozen=True)
class ModelParams:
    """Graph/coupling summary: vertex count p, max degree d, smallest
    and largest coupling magnitudes alpha <= beta."""

    p: int
    d: int
    alpha: float
    beta: float

    def __post_init__(self):
        _check_integer(self.p, "p", 2)
        _check_integer(self.d, "d", 1)
        if self.d > self.p - 1:
            raise InputError(f"need 1 <= d <= p-1, got d={self.d}, p={self.p}")
        a, b = self.alpha, self.beta
        if not (_real(a) and _real(b) and 0.0 < a <= b < math.inf):
            raise InputError(f"need 0 < alpha <= beta < inf, got {a!r}, {b!r}")

    @property
    def beta_d(self) -> float:
        return self.beta * self.d


def params_from_model(model: IsingModel) -> ModelParams:
    return ModelParams(model.p, model.max_degree,
                       model.min_coupling, model.max_coupling)


def sample_lower_bound(params: ModelParams) -> float:
    """Samples below which no estimator can recover the structure:
    max of a degree-driven branch exp(beta d) ln(pd/4 - 1)/(4 d alpha
    e^alpha) (applicable once pd/4 - 1 > 1) and a coupling-driven
    branch ln p / (2 alpha tanh alpha)."""
    p, d, alpha = params.p, params.d, params.alpha
    second = math.log(p) / (2.0 * alpha * math.tanh(alpha))
    x = p * d / 4.0 - 1.0
    if x <= 1.0:
        return second
    first = math.exp(params.beta_d) * math.log(x) / (4.0 * d * alpha * math.exp(alpha))
    return max(first, second)


def sample_upper_bound_existence(params: ModelParams, epsilon: float) -> float:
    """Samples at which some (not necessarily efficient) estimator
    succeeds with probability 1 - epsilon; natural-log reading of the
    16 log p term (see sample_upper_bound_existence_log2 for the
    base-2 reading)."""
    _check_epsilon(epsilon)
    return _existence(params, epsilon, math.log(params.p))


def sample_upper_bound_existence_log2(params: ModelParams, epsilon: float) -> float:
    _check_epsilon(epsilon)
    return _existence(params, epsilon, math.log2(params.p))


def _existence(params: ModelParams, epsilon: float, log_p: float) -> float:
    bd = params.beta_d
    front = bd * (3.0 * math.exp(2.0 * bd) + 1.0) / math.sinh(params.alpha / 4.0) ** 2
    return front ** 2 * (16.0 * log_p + 4.0 * math.log(2.0 / epsilon))


def coupling_error_sample_bound(params: ModelParams, epsilon: float) -> float:
    """Samples under which the node coupling-error guarantee holds
    with probability 1 - epsilon."""
    _check_epsilon(epsilon)
    d = params.d
    return (2.0 ** 14 * d * d * (d + 1) ** 2 * math.exp(6.0 * params.beta_d)
            * math.log(3.0 * params.p ** 2 / epsilon))


def coupling_error_bound(params: ModelParams, epsilon: float, n: int) -> float:
    """The guaranteed l2 coupling-error radius at sample size n (valid
    once n >= coupling_error_sample_bound)."""
    _check_epsilon(epsilon)
    _check_integer(n, "n", 1)
    d = params.d
    return (2.0 ** 8 * math.sqrt(d) * (d + 1) * math.exp(3.0 * params.beta_d)
            * math.sqrt(math.log(3.0 * params.p / epsilon) / n))


def structure_sample_bound(params: ModelParams, epsilon: float) -> float:
    """Samples under which thresholding at alpha recovers the exact
    edge set with probability 1 - epsilon."""
    _check_epsilon(epsilon)
    d = params.d
    return (max(d / 16.0, params.alpha ** -2) * 2.0 ** 18 * d * (d + 1) ** 2
            * math.exp(6.0 * params.beta_d) * math.log(3.0 * params.p ** 3 / epsilon))


def structure_lnp_coefficient(params: ModelParams) -> float:
    """Coefficient of ln p in structure_sample_bound (the ln(3 p^3 /
    epsilon) factor contributes 3 ln p plus a constant)."""
    d = params.d
    return (3.0 * max(d / 16.0, params.alpha ** -2) * 2.0 ** 18 * d
            * (d + 1) ** 2 * math.exp(6.0 * params.beta_d))


def gradient_sup_bound(p: int, n: int, epsilon: float,
                       beta_d_value: float | None = None) -> float:
    """High-probability bound 2*sqrt(ln(2p/eps)/n) on the sup-norm of
    the empirical gradient at the true couplings. Valid once
    n >= exp(2 beta d) ln(2p/eps); pass beta_d_value to have the
    precondition checked (a warning is emitted when it fails)."""
    _check_epsilon(epsilon)
    _check_integer(p, "p", 2)
    _check_integer(n, "n", 1)
    arg = math.log(2.0 * p / epsilon)
    if beta_d_value is not None and n < math.exp(2.0 * beta_d_value) * arg:
        warnings.warn(
            f"gradient_sup_bound outside its validity regime: n={n} < "
            f"exp(2*beta*d)*ln(2p/eps)={math.exp(2.0 * beta_d_value) * arg:.1f}",
            stacklevel=2,
        )
    return 2.0 * math.sqrt(arg / n)


def rsc_sample_bound(params: ModelParams, epsilon: float) -> float:
    """Samples under which the restricted curvature floor (see
    restricted_convexity_check) holds with probability 1 - epsilon."""
    _check_epsilon(epsilon)
    d = params.d
    return (2.0 ** 11 * d * d * (d + 1) ** 2 * math.exp(4.0 * params.beta_d)
            * math.log(params.p ** 2 / epsilon))


def covariance_concentration_bound(p: int, delta: float, epsilon: float) -> float:
    """Samples making every empirical pair-moment deviate by less than
    delta with probability 1 - epsilon (union Hoeffding bound)."""
    _check_epsilon(epsilon)
    _check_integer(p, "p", 2)
    if not (_real(delta) and 0 < delta < math.inf):
        raise InputError(f"delta must be finite and > 0, got {delta!r}")
    return 2.0 / delta ** 2 * math.log(p ** 2 / epsilon)


def support_bound(model: IsingModel) -> float:
    """Hard bound exp(beta*d) on the per-sample gradient magnitude."""
    return math.exp(beta_d(model))


def _enumeration_designs(model: IsingModel):
    """The exact distribution of model as designs of _CHUNK
    configurations each, built one at a time, so no more than one
    chunk's spins is held."""
    probs = exact_distribution(model)
    for start in range(0, probs.size, _CHUNK):
        stop = min(start + _CHUNK, probs.size)
        yield _indexed_design(np.arange(start, stop, dtype=np.uint64),
                              probs[start:stop], model.p, 1.0)


def population_gradient_moments(model: IsingModel, u: int):
    """Exact (enumerated) mean and second moment of the per-sample
    gradient terms at the true couplings; mean is 0 and second moment
    1 componentwise, which is what the screening construction is for.
    Both are the population loss: the mean is its gradient at theta*,
    the second moment its value at 2 theta*."""
    row = np.insert(model.coupling_row(u), u, 0.0)
    mean, second = 0.0, 0.0
    for design in _enumeration_designs(model):
        values, grads, _ = evaluate_rows(design, [u, u],
                                         np.stack([row, 2.0 * row]))
        mean = mean + grads[0]
        second += values[1]
    return np.delete(mean, u), np.full(model.p - 1, second)


def exact_pair_covariance(model: IsingModel, exclude: int) -> np.ndarray:
    """Population second-moment matrix of the spins other than
    exclude, by enumeration."""
    _check_vertex(exclude, model.p)
    return _second_moments(_enumeration_designs(model), exclude)


class CovarianceFloor(NamedTuple):
    min_eigenvalue: float
    floor: float


def covariance_floor_check(model: IsingModel, u: int) -> CovarianceFloor:
    """Smallest eigenvalue of the exact pair covariance excluding u,
    against the guaranteed floor exp(-2 beta d)/(d+1)."""
    min_eig = float(np.linalg.eigvalsh(exact_pair_covariance(model, u))[0])
    d = model.max_degree
    floor = math.exp(-2.0 * beta_d(model)) / (d + 1)
    return CovarianceFloor(min_eig, floor)


@dataclass
class RscReport:
    trials: int
    worst_ratio: float
    floor: float
    radius: float
    n: int
    passed: bool


def restricted_convexity_check(view: NodeView, model: IsingModel, u: int,
                               trials: int, seed: int) -> RscReport:
    """Monte-Carlo check that the loss remainder at the true couplings
    dominates floor * ||delta||_2^2 over the sparsity cone
    ||delta||_1 <= 4 sqrt(d) ||delta||_2 with _MIN_NORM <= ||delta||_2
    <= radius, where the radius is 2/sqrt(d). Directions are drawn with
    support size at most 16 d, which lands them in the cone
    automatically."""
    params = params_from_model(model)
    d = params.d
    radius = 2.0 / math.sqrt(d)
    _check_integer(trials, "trials", 1)
    _check_integer(seed, "seed", 0)
    if u != view.u:
        raise InputError(f"the view is of vertex {view.u}, not {u}")
    k = view.others.size
    theta_star = model.coupling_row(u)
    floor = math.exp(-3.0 * params.beta_d) / (
        4.0 * (d + 1) * (1.0 + 2.0 * math.sqrt(d) * radius))
    rng = np.random.default_rng(seed)
    max_support = max(1, min(k, int(16 * d)))
    worst = math.inf
    for t in range(trials):
        support = rng.integers(1, max_support + 1)
        idx = rng.choice(k, size=support, replace=False)
        delta = np.zeros(k)
        delta[idx] = rng.standard_normal(support)
        # Pin the radius extremes in the first two trials.
        if t == 0:
            norm = _MIN_NORM
        elif t == 1:
            norm = radius
        else:
            norm = rng.uniform(_MIN_NORM, radius)
        delta *= norm / np.linalg.norm(delta)
        ratio = taylor_remainder(view, theta_star, delta) / float(delta @ delta)
        worst = min(worst, ratio)
    passed = worst >= floor * (1.0 - 1e-10)
    return RscReport(trials, worst, floor, radius, view.n, passed)


def _entry(name, passed, statistic, bound, **extra):
    out = {"oracle": name, "passed": bool(passed),
           "statistic": float(statistic), "bound": float(bound)}
    out.update(extra)
    return out


def verification_report(model: IsingModel, seed: int, n: int = 10000,
                        sets: int = 200, rsc_trials: int = 200,
                        epsilon: float = 0.1) -> dict:
    """Run the oracle suite on one model (enumeration-sized). Returns
    {"metadata": ..., "oracles": [entry, ...], "all_passed": bool};
    every entry carries the measured statistic, its bound, and the
    seed so runs are reproducible."""
    _check_integer(seed, "seed", 0)
    _check_integer(n, "n", 1)
    _check_integer(sets, "sets", 1)
    _check_epsilon(epsilon)
    params = params_from_model(model)
    rng = np.random.default_rng(seed)
    entries = []

    def draw(size: int):
        """One multinomial draw of size samples, as a design."""
        counts = rng.multinomial(size, exact_distribution(model))
        nz = np.flatnonzero(counts)
        return _indexed_design(nz, counts[nz], model.p, size)

    # Exact screening identities over every focal vertex.
    worst_mean = 0.0
    worst_second = 0.0
    for u in range(model.p):
        mean, second = population_gradient_moments(model, u)
        worst_mean = max(worst_mean, float(np.abs(mean).max()))
        worst_second = max(worst_second, float(np.abs(second - 1.0).max()))
    entries.append(_entry("screening_mean_zero", worst_mean <= 1e-12,
                          worst_mean, 1e-12))
    entries.append(_entry("screening_unit_second_moment", worst_second <= 1e-12,
                          worst_second, 1e-12))

    # Hard per-sample gradient bound on one sampled set.
    design = draw(n)
    cap = support_bound(model)
    worst_x = 0.0
    for u in range(model.p):
        z = NodeView(design, u, n).basis @ model.coupling_row(u)
        worst_x = max(worst_x, float(np.exp(-z).max()))
    entries.append(_entry("support_bound", worst_x <= cap * (1.0 + 1e-12),
                          worst_x, cap, n=n))

    # Scalar kernel floor on a fixed grid.
    grid = np.linspace(-30.0, 30.0, 10001)
    fvals = remainder_kernel(grid)
    floors = remainder_kernel_floor(grid)
    margin = fvals - floors
    scale = np.maximum(floors, 1e-300)
    worst_rel = float((margin / scale).min())
    entries.append(_entry("kernel_floor", worst_rel >= -1e-10, worst_rel, 0.0,
                          grid_points=grid.size))

    # Remainder dominates the empirical quadratic, at the sampled set.
    u0 = 0
    view0 = NodeView(design, u0, n)
    theta0 = model.coupling_row(u0)
    bd = params.beta_d
    worst_remainder = math.inf
    for _ in range(200):
        delta = rng.standard_normal(view0.others.size)
        delta *= rng.uniform(0.01, 1.0) / np.linalg.norm(delta)
        dz = view0.basis @ delta
        quad = float(view0.weights @ (dz * dz))
        rhs = math.exp(-bd) / (2.0 + float(np.abs(delta).sum())) * quad
        rem = taylor_remainder(view0, theta0, delta)
        worst_remainder = min(worst_remainder,
                              (rem - rhs) / max(rhs, 1e-300))
    entries.append(_entry("remainder_quadratic_floor", worst_remainder >= -1e-10,
                          worst_remainder, 0.0, trials=200, u=u0))

    # Covariance eigenvalue floor, every focal vertex.
    worst_gap = math.inf
    for u in range(model.p):
        got = covariance_floor_check(model, u)
        worst_gap = min(worst_gap, got.min_eigenvalue - got.floor)
    entries.append(_entry("covariance_eigenvalue_floor", worst_gap >= -1e-10,
                          worst_gap, 0.0))

    # Gradient sup-norm concentration at the truth (fixed focal vertex).
    grad_bound = gradient_sup_bound(model.p, n, epsilon)
    lam = lambda_schedule(model.p, n, epsilon, mode="node")
    grad_exceed = 0
    penalty_exceed = 0
    cov_exceed = 0
    delta_cov = math.sqrt(2.0 / n * math.log(model.p ** 2 / epsilon))
    h_exact = exact_pair_covariance(model, u0)
    for _ in range(sets):
        design_s = draw(n)
        g = screening_gradient(NodeView(design_s, u0, n), theta0)
        sup = float(np.abs(g).max())
        if sup > grad_bound:
            grad_exceed += 1
        if 2.0 * sup > lam:
            penalty_exceed += 1
        h_emp = _second_moments([design_s], u0)
        if float(np.abs(h_emp - h_exact).max()) > delta_cov:
            cov_exceed += 1

    def _freq_entry(name, exceed, nominal):
        sigma = math.sqrt(nominal * (1.0 - nominal) / sets)
        limit = nominal + 3.0 * sigma
        freq = exceed / sets
        return _entry(name, freq <= limit, freq, limit, sets=sets, n=n,
                      nominal=nominal)

    entries.append(_freq_entry("gradient_sup_concentration", grad_exceed, epsilon))
    entries.append(_freq_entry("penalty_dominates_gradient", penalty_exceed,
                               2.0 * epsilon / 3.0))
    entries.append(_freq_entry("covariance_concentration", cov_exceed, epsilon))

    # Restricted curvature at the sample size its guarantee asks for.
    n_rsc = int(math.ceil(rsc_sample_bound(params, 0.05)))
    view_rsc = NodeView(draw(n_rsc), u0, n_rsc)
    rsc = restricted_convexity_check(view_rsc, model, u0, rsc_trials,
                                     int(rng.integers(1 << 31)))
    entries.append(_entry("restricted_convexity", rsc.passed, rsc.worst_ratio,
                          rsc.floor, trials=rsc.trials, n=rsc.n,
                          radius=rsc.radius))

    metadata = {
        "rng": RNG_ALGORITHM,
        "seed": seed,
        "p": params.p,
        "d": params.d,
        "alpha": params.alpha,
        "beta": params.beta,
        "n": n,
        "sets": sets,
        "epsilon": epsilon,
        "sample_lower_bound": sample_lower_bound(params),
        "sample_upper_bound_existence": sample_upper_bound_existence(params, 0.05),
        "sample_upper_bound_existence_log2":
            sample_upper_bound_existence_log2(params, 0.05),
        "coupling_error_sample_bound": coupling_error_sample_bound(params, 0.05),
        "structure_sample_bound": structure_sample_bound(params, 0.05),
        "structure_lnp_coefficient": structure_lnp_coefficient(params),
    }
    return {
        "metadata": metadata,
        "oracles": entries,
        "all_passed": all(e["passed"] for e in entries),
    }
