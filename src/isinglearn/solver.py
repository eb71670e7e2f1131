"""Proximal-gradient solver for the l1-penalized screening loss.

minimize_rows(design, rows, config) solves, for each focal vertex u in
rows,

    min_theta  S_u(theta) + lam * ||theta||_1

by FISTA (Beck & Teboulle 2009): accelerated proximal gradient descent
with backtracking line search. Momentum restarts whenever the composite
objective would materially increase (adaptive restart, O'Donoghue &
Candes 2015), so the accepted objective sequence is non-increasing up
to float rounding (each step may rise by at most one part in 1e15);
sub-resolution steps stay accepted because near the minimum true
descent is smaller than what float64 objective comparisons can
witness, while the iterates themselves keep contracting and the
optimality residual keeps improving. Starting point is the origin,
which makes the fully-penalized regime exact: the gradient at 0 is an
average of +/-1 rows, so ||grad||_inf <= 1 and any lam >= 1 keeps every
soft-threshold step at exactly 0. A caller may start from a nearby
solution instead (x0, such as an earlier fit of the same model); a start
that already meets the tolerance returns after its one evaluation, with
0 iterations.

Each candidate step is evaluated with its gradient, so an accepted
candidate becomes the iterate with the value, gradient and saturation
flag of that evaluation, and its optimality residual is read off that
gradient. The only other evaluation of a round is the new momentum
point, and only for rows that continue: an iteration costs two
evaluations plus one per backtrack.

The rows are independent problems, but they share their data, so one
loop advances all of them in lockstep: every row keeps its own step,
momentum and restart state, each round's evaluations of all unfinished
rows go through one pass over the design (screening.evaluate_rows), and
each round starts by writing out the rows that have converged (at the
start point too), stalled or reached max_iterations, which then drop
out. Each row's report counts its evaluations, backtracks, momentum
restarts and stalls. minimize(view, config) is the one-row case: a view
is the shared design plus its focal vertex, so one vertex is solved on
the same data.

Convergence is declared per row on the subgradient optimality residual
(kkt_residual below), not on objective or iterate drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .sampler import Design
from .screening import NodeView, evaluate_rows, focal_row

_INITIAL_STEP = 1.0
_BACKTRACK_SHRINK = 0.5
_STEP_GROWTH = 1.25
_MIN_STEP = 1e-18


@dataclass
class SolverConfig:
    lam: float = 0.0
    kkt_tolerance: float = 1e-7
    max_iterations: int = 50000

    def __post_init__(self):
        # Written so that NaN fails too; an infinite penalty would make
        # the objective inf * 0 at every zero coordinate.
        if not 0 <= self.lam < math.inf:
            raise InputError("lam must be finite and >= 0")
        if not 0 < self.kkt_tolerance < math.inf:
            raise InputError("kkt_tolerance must be finite and positive")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    final_kkt_residual: float
    objective_value: float
    converged: bool
    saturated: bool = False
    # Loss evaluations (the start point's included), backtracking
    # steps, momentum restarts and stalled steps.
    evaluations: int = 0
    backtracks: int = 0
    restarts: int = 0
    stalls: int = 0


def soft_threshold(x, t):
    """Componentwise shrink toward 0 by t (t >= 0)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def kkt_residual(gradient, theta, lam: float) -> float:
    """Max violation of the first-order optimality system: on the
    active set |g_l + lam * sign(theta_l)|, at zeros max(|g_l| - lam, 0)."""
    gradient = np.asarray(gradient, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if gradient.shape != theta.shape:
        raise InputError("gradient and theta must have the same shape")
    return float(_kkt_rows(gradient.reshape(1, -1), theta.reshape(1, -1),
                           lam)[0])


def _kkt_rows(gradients, theta, lam: float) -> np.ndarray:
    """kkt_residual of each row of a matrix (0 for empty rows; a focal
    entry, 0 in both, contributes 0)."""
    r = np.where(theta != 0.0,
                 np.abs(gradients + lam * np.sign(theta)),
                 np.maximum(np.abs(gradients) - lam, 0.0))
    return r.max(axis=1, initial=0.0)


def _majorized(val, cand, y, value_y, grad_y, step, slack):
    """Whether the quadratic model at y with each row's step majorizes
    the loss at its candidate (or the step cannot shrink further)."""
    d = cand - y
    model = (value_y + (grad_y * d).sum(axis=1)
             + (d * d).sum(axis=1) / (2.0 * step))
    return (val <= model + slack) | (step <= _MIN_STEP)


def minimize_rows(design: Design, rows, config: SolverConfig,
                  x0: np.ndarray | None = None) -> list[SolveReport]:
    """Minimize the penalized losses of the focal vertices rows of the
    design, all in one loop; each report's solution lists the row's
    couplings to the other vertices in ascending order.

    Every row runs its own copy of the scheme in the module docstring
    (iterate, momentum point, step, momentum t, backtracking, restart,
    stall shrink and certificate); a round advances each unfinished row
    by one iteration and evaluates all of them in shared passes over
    the design. x0, when given, holds one full p-wide starting row per
    focal vertex; its focal entries are ignored.
    """
    rows = np.asarray(rows, dtype=np.int64)
    r, p = rows.size, design.spins.shape[0]
    lam, tol = config.lam, config.kkt_tolerance
    if x0 is None:
        x = np.zeros((r, p))
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != (r, p):
            raise InputError(f"x0 has shape {x.shape}, expected ({r}, {p})")
        x[np.arange(r), rows] = 0.0
    value_x, grad_x, saturated = evaluate_rows(design, rows, x)
    obj_x = value_x + lam * np.abs(x).sum(axis=1)
    residual = _kkt_rows(grad_x, x, lam)
    # Per-row counters, indexed like rows. evals counts the start and
    # the momentum points; each iteration's candidate and each backtrack
    # are added at the end.
    evals = np.ones(r, dtype=np.int64)
    backtracks, restarts, stalls = (np.zeros(r, dtype=np.int64)
                                    for _ in range(3))
    # A row's results, written once, in the round after it finishes; it
    # converged iff its residual is within tol.
    out_x, out_obj, out_res = np.empty((r, p)), np.empty(r), np.empty(r)
    out_sat, out_iter = np.empty(r, dtype=bool), np.empty(r, dtype=np.int64)

    # Per-row state, compacted to the unfinished rows. A row's momentum
    # t is 1 exactly where its momentum point is its iterate itself (at
    # the start or after a restart; every momentum update makes t at
    # least 1.618): there a rejected step is a stall, not an overshoot.
    pos, u = np.arange(r), rows
    x_prev = x.copy()
    y, value_y, grad_y = x.copy(), value_x.copy(), grad_x.copy()
    t_mom = np.ones(r)
    step = np.full(r, _INITIAL_STEP)
    done = residual <= tol

    for iteration in range(config.max_iterations + 1):
        # Rows finish when they converge (at the start too) or stall, and
        # all that remain at the iteration cap; each keeps its last
        # accepted state.
        if iteration == config.max_iterations:
            done = np.ones(pos.size, dtype=bool)
        if done.any():
            i = pos[done]
            out_x[i], out_obj[i], out_res[i] = (x[done], obj_x[done],
                                                residual[done])
            out_sat[i], out_iter[i] = saturated[done], iteration
            keep = ~done
            (pos, u, x, x_prev, y, value_x, grad_x, value_y, grad_y, obj_x,
             residual, saturated, t_mom, step) = (
                a[keep] for a in (pos, u, x, x_prev, y, value_x, grad_x,
                                  value_y, grad_y, obj_x, residual,
                                  saturated, t_mom, step))
        if pos.size == 0:
            break
        # Backtracking: shrink each row's step until the quadratic model
        # at its y majorizes; rows leave the loop as they are satisfied.
        # Each candidate is evaluated with its gradient, which it keeps
        # if it is accepted.
        slack = 1e-15 * (1.0 + np.abs(value_y))
        cand = soft_threshold(y - step[:, None] * grad_y, step[:, None] * lam)
        val_cand, grad_cand, sat_cand = evaluate_rows(design, u, cand)
        fits = _majorized(val_cand, cand, y, value_y, grad_y, step, slack)
        todo = np.flatnonzero(~fits) if not fits.all() else ()
        while len(todo):
            step[todo] *= _BACKTRACK_SHRINK
            s = step[todo, None]
            c = soft_threshold(y[todo] - s * grad_y[todo], s * lam)
            v, g, sat = evaluate_rows(design, u[todo], c)
            backtracks[pos[todo]] += 1
            cand[todo], val_cand[todo], grad_cand[todo], sat_cand[todo] = (
                c, v, g, sat)
            todo = todo[~_majorized(v, c, y[todo], value_y[todo],
                                    grad_y[todo], step[todo], slack[todo])]
        obj_cand = val_cand + lam * np.abs(cand).sum(axis=1)

        # Only a material increase counts; wobble below float
        # resolution must stay accepted or the polish phase stalls
        # with the residual stuck above tight tolerances.
        worse = obj_cand > obj_x + 1e-15 * (1.0 + np.abs(obj_x))
        rejected = worse.any()
        if rejected:
            # A plain step from x cannot descend: numerical stall.
            stall = worse & (t_mom == 1.0)
            stalls[pos[stall]] += 1
            step[stall] *= _BACKTRACK_SHRINK
            # Momentum overshot: restart from the last accepted point.
            restart = worse & ~stall
            y[restart], value_y[restart], grad_y[restart] = (
                x[restart], value_x[restart], grad_x[restart])
            t_mom[restart] = 1.0
            restarts[pos[restart]] += 1
            # An accepted candidate is the new iterate, with the value,
            # gradient and saturation flag of its own evaluation.
            acc = np.flatnonzero(~worse)
            x_prev[acc] = x[acc]
            x[acc], value_x[acc], grad_x[acc], obj_x[acc] = (
                cand[acc], val_cand[acc], grad_cand[acc], obj_cand[acc])
            saturated[acc] |= sat_cand[acc]
        else:
            acc = slice(None)
            x_prev, x, value_x, grad_x, obj_x = (x, cand, val_cand,
                                                 grad_cand, obj_cand)
            saturated |= sat_cand
        residual[acc] = _kkt_rows(grad_x[acc], x[acc], lam)
        # A running row's residual is above tol until an accepted step
        # brings it down; a rejected row finishes only if it stalled at
        # the smallest step.
        done = (residual <= tol) | (step <= _MIN_STEP)
        if rejected:
            done = np.where(worse, stall & (step <= _MIN_STEP), done)
        if done.any():
            acc = np.flatnonzero(~(worse | done))

        # Momentum points, evaluated only for the accepted rows that
        # continue.
        x_acc = x[acc]
        if x_acc.shape[0]:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom[acc] ** 2))
            coef = (t_mom[acc] - 1.0) / t_next
            y_new = x_acc + coef[:, None] * (x_acc - x_prev[acc])
            value_y[acc], grad_y[acc], sat = evaluate_rows(design, u[acc],
                                                           y_new)
            evals[pos[acc]] += 1
            y[acc] = y_new
            saturated[acc] |= sat
            t_mom[acc] = t_next
            step[acc] *= _STEP_GROWTH

    evals += out_iter + backtracks
    return [SolveReport(np.delete(out_x[i], rows[i]), int(out_iter[i]),
                        float(out_res[i]), float(out_obj[i]),
                        bool(out_res[i] <= tol), bool(out_sat[i]),
                        int(evals[i]), int(backtracks[i]), int(restarts[i]),
                        int(stalls[i]))
            for i in range(r)]


def minimize(view: NodeView, config: SolverConfig,
             x0: np.ndarray | None = None) -> SolveReport:
    """Minimize one view's penalized loss: the one-row case of
    minimize_rows on the view's design. x0, when given, is indexed like
    view.others."""
    start = None if x0 is None else focal_row(view, x0)
    return minimize_rows(view.design, [view.u], config, start)[0]
