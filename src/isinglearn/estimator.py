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
from .model import IsingModel
from .sampler import SampleSet
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

    p: int
    edges: set[tuple[int, int]]
    weights: dict[tuple[int, int], float]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def lambda_schedule(p: int, n: int, epsilon: float, mode: str = "structure") -> float:
    if p < 2:
        raise InputError(f"p must be >= 2, got {p}")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon}")
    if mode == "node":
        arg = 3.0 * p / epsilon
    elif mode == "structure":
        arg = 3.0 * p * p / epsilon
    else:
        raise InputError(f"unknown schedule mode {mode!r}")
    return 4.0 * math.sqrt(math.log(arg) / n)


def _with_penalty(lam: float, config: SolverConfig | None) -> SolverConfig:
    if not 0 <= lam < math.inf:  # NaN fails too
        raise InputError("lam must be finite and >= 0")
    return replace(config if config is not None else SolverConfig(), lam=lam)


def fit_node(samples: SampleSet, u: int, lam: float,
             config: SolverConfig | None = None) -> NodeEstimate:
    """Penalized fit of vertex u's coupling vector."""
    cfg = _with_penalty(lam, config)
    view = node_view(samples, u)
    report = minimize(view, cfg)
    return NodeEstimate(u, report.solution, lam, report)


def fit_all_nodes(samples: SampleSet, lam: float,
                  config: SolverConfig | None = None) -> list[NodeEstimate]:
    """Fit every vertex in one lockstep solve on the sample set's
    tally; results ordered by vertex id."""
    cfg = _with_penalty(lam, config)
    if samples.p < 2:
        raise InputError("need p >= 2 for a nonempty view")
    nodes = range(samples.p)
    reports = minimize_rows(samples.tally, nodes, cfg)
    return [NodeEstimate(u, rep.solution, lam, rep)
            for u, rep in zip(nodes, reports)]


def _check_threshold(alpha_threshold: float):
    if not alpha_threshold > 0:  # NaN fails too
        raise InputError("alpha_threshold must be positive")


def edges_from_estimates(estimates: list[NodeEstimate], alpha_threshold: float,
                         p: int) -> EdgeSet:
    _check_threshold(alpha_threshold)
    if len(estimates) != p or any(est.u != u for u, est in enumerate(estimates)):
        raise InputError("need one estimate per vertex, ordered by vertex id")
    theta = np.zeros((p, p))
    for est in estimates:
        theta[est.u, np.arange(p) != est.u] = est.theta_hat
    pair_sums = theta + theta.T
    i, j = np.nonzero(np.triu(np.abs(pair_sums) >= alpha_threshold, k=1))
    edges = list(zip(i.tolist(), j.tolist()))
    weights = {e: float(pair_sums[e]) / 2.0 for e in edges}
    return EdgeSet(p, set(edges), weights)


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


def result_to_json(lam: float, alpha_threshold: float, edge_set: EdgeSet,
                   estimates: list[NodeEstimate]) -> str:
    """Serialize a reconstruction result to the interchange schema."""
    obj = {
        "lambda": lam,
        "threshold": alpha_threshold,
        "edges": [
            {"i": i, "j": j, "weight": edge_set.weights[(i, j)]}
            for i, j in edge_set.sorted_edges()
        ],
        "node_reports": [
            {
                "u": est.u,
                "iterations": est.report.iterations,
                "kkt": est.report.final_kkt_residual,
                "converged": est.report.converged,
                "saturated": est.report.saturated,
            }
            for est in estimates
        ],
    }
    return json.dumps(obj, indent=2)
