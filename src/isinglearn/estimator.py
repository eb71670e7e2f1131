"""Node-wise fits and graph reconstruction.

Each vertex u is fitted independently by minimizing the penalized
screening loss over its p-1 coupling coordinates; an edge (i, j) is
declared when the symmetrized sum of the two node estimates clears the
threshold: |theta_ij + theta_ji| >= alpha_threshold. Reported edge
weight is the average (theta_ij + theta_ji) / 2.

The penalty schedules are

    node mode:       lam = 4 * sqrt(ln(3 p   / epsilon) / n)
    structure mode:  lam = 4 * sqrt(ln(3 p^2 / epsilon) / n)

the second being the node schedule after a union bound over all p
fits, which is what graph recovery needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .model import IsingModel, _check_integer, _real
from .sampler import Design, SampleSet
from .screening import node_view
from .solver import SolveReport, SolverConfig, minimize, minimize_rows


@dataclass
class NodeEstimate:
    u: int
    theta_hat: np.ndarray
    lambda_used: float
    report: SolveReport


@dataclass
class EdgeSet:
    """Recovered edges (canonical i < j) with symmetrized weights."""

    edges: set[tuple[int, int]]
    weights: dict[tuple[int, int], float]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _check_epsilon(epsilon: float):
    if not _real(epsilon) or not 0.0 < epsilon < 1.0:
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon}")


def lambda_schedule(p: int, n: int, epsilon: float, mode: str = "structure") -> float:
    _check_integer(p, "p", 2)
    _check_integer(n, "n", 1)
    _check_epsilon(epsilon)
    if mode == "node":
        arg = 3.0 * p / epsilon
    elif mode == "structure":
        arg = 3.0 * p * p / epsilon
    else:
        raise InputError(f"unknown schedule mode {mode!r}")
    return 4.0 * math.sqrt(math.log(arg) / n)


def _with_penalty(lam: float, config: SolverConfig | None) -> SolverConfig:
    return replace(config if config is not None else SolverConfig(), lam=lam)


def fit_node(samples: SampleSet, u: int, lam: float,
             config: SolverConfig | None = None) -> NodeEstimate:
    """Penalized fit of vertex u's coupling vector."""
    cfg = _with_penalty(lam, config)
    view = node_view(samples, u)
    report = minimize(view, cfg)
    return NodeEstimate(u, report.solution, lam, report)


def fit_all_nodes(samples: SampleSet, lam: float,
                  config: SolverConfig | None = None,
                  x0: np.ndarray | None = None) -> list[NodeEstimate]:
    """Fit every vertex in one lockstep solve on the sample set's
    tally; results ordered by vertex id. x0, when given, is a p x p
    coupling matrix to start from (row u for vertex u; its diagonal is
    ignored), such as coupling_matrix of an earlier fit."""
    if samples.p < 2:
        raise InputError("need p >= 2 for a nonempty view")
    return fit_tallies([samples.tally], lam, config, x0)[0]


def fit_tallies(tallies: list[Design], lam: float,
                config: SolverConfig | None = None,
                x0: np.ndarray | None = None) -> list[list[NodeEstimate]]:
    """fit_all_nodes of several sample sets' tallies (one p, one sample
    count) in one lockstep solve from x0: the estimates of each tally."""
    nodes = range(tallies[0].spins.shape[0])
    reports = iter(minimize_rows(tallies, nodes, _with_penalty(lam, config),
                                 x0))
    return [[NodeEstimate(u, rep.solution, lam, rep)
             for u, rep in zip(nodes, reports)] for _ in tallies]


def _check_threshold(alpha_threshold: float):
    if not 0 < alpha_threshold < math.inf:  # NaN fails too
        raise InputError("alpha_threshold must be finite and positive")


def coupling_matrix(estimates: list[NodeEstimate], p: int) -> np.ndarray:
    """The p x p matrix whose row u holds vertex u's estimate (zero
    diagonal)."""
    if len(estimates) != p or any(est.u != u for u, est in enumerate(estimates)):
        raise InputError("need one estimate per vertex, ordered by vertex id")
    if any(np.shape(est.theta_hat) != (p - 1,) for est in estimates):
        raise InputError(f"every estimate needs theta_hat of shape ({p - 1},)")
    theta = np.zeros((p, p))
    theta[~np.eye(p, dtype=bool)] = np.concatenate(
        [est.theta_hat for est in estimates])
    return theta


def edges_from_estimates(estimates: list[NodeEstimate], alpha_threshold: float,
                         p: int) -> EdgeSet:
    _check_threshold(alpha_threshold)
    theta = coupling_matrix(estimates, p)
    pair_sums = theta + theta.T
    i, j = np.nonzero(np.triu(np.abs(pair_sums) >= alpha_threshold, k=1))
    edges = list(zip(i.tolist(), j.tolist()))
    weights = {e: float(pair_sums[e]) / 2.0 for e in edges}
    return EdgeSet(set(edges), weights)


def learn_structure(samples: SampleSet, lam: float, alpha_threshold: float,
                    config: SolverConfig | None = None) -> EdgeSet:
    """Full pipeline: fit every vertex, then threshold symmetrized sums."""
    estimates = fit_all_nodes(samples, lam, config)
    return edges_from_estimates(estimates, alpha_threshold, samples.p)


def perfect_recovery(edge_set: EdgeSet, model: IsingModel) -> bool:
    return edge_set.edges == set(model.couplings)


def square_error(theta_hat, model: IsingModel, u: int) -> float:
    """l2 distance between an estimated coupling vector for u and the
    model's true row (indexed by ascending vertices != u)."""
    truth = model.coupling_row(u)
    arr = np.asarray(theta_hat, dtype=np.float64)
    if arr.shape != truth.shape:
        raise InputError(
            f"theta_hat has shape {arr.shape}, expected {truth.shape}"
        )
    return float(np.linalg.norm(arr - truth))


def report_fields(report: SolveReport) -> dict:
    """A solve's certificate and counters, as the JSON node reports
    carry them."""
    return {
        "iterations": report.iterations,
        "kkt": report.final_kkt_residual,
        "converged": report.converged,
        "saturated": report.saturated,
        "evaluations": report.evaluations,
        "backtracks": report.backtracks,
        "restarts": report.restarts,
        "stalls": report.stalls,
    }


def result_to_json(lam: float, alpha_threshold: float, edge_set: EdgeSet,
                   estimates: list[NodeEstimate],
                   run: dict | None = None) -> str:
    """Serialize a reconstruction result to the interchange schema; the
    fields of run (how the result was computed) are added at the top
    level."""
    obj = {
        "lambda": lam,
        "threshold": alpha_threshold,
        "edges": [
            {"i": i, "j": j, "weight": edge_set.weights[(i, j)]}
            for i, j in edge_set.sorted_edges()
        ],
        "node_reports": [{"u": est.u, **report_fields(est.report)}
                         for est in estimates],
        **(run or {}),
    }
    return json.dumps(obj, indent=2)
