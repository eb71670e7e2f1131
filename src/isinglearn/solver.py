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
optimality residual keeps improving. Starting point is the origin
unless a caller overrides it, which makes the fully-penalized regime
exact: the gradient at 0 is an average of +/-1 rows, so
||grad||_inf <= 1 and any lam >= 1 keeps every soft-threshold step at
exactly 0.

The rows are independent problems, but they share their data, so one
loop advances all of them in lockstep: every row keeps its own step,
momentum and restart state, each round's evaluations of all unfinished
rows go through one pass over the design (screening.evaluate_rows), and
a row drops out once it converges, stalls or reaches max_iterations.
minimize(view, config) is the one-row case: a view is the shared design
plus its focal vertex, so one vertex is solved on the same data.

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
    acceleration: bool = True
    track_history: bool = False

    def __post_init__(self):
        # Written so that NaN fails too; an infinite penalty would make
        # the objective inf * 0 at every zero coordinate.
        if not 0 <= self.lam < math.inf:
            raise InputError("lam must be finite and >= 0")
        if not self.kkt_tolerance > 0:
            raise InputError("kkt_tolerance must be positive")
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
    # Accepted composite objectives, first entry at the starting point;
    # only filled when SolverConfig.track_history is set.
    objective_history: list[float] | None = None


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
    history = [[float(o)] for o in obj_x] if config.track_history else None

    # A row's results, written when it finishes; rows still running at
    # the iteration cap keep their last accepted state.
    out_x, out_obj, out_res = x.copy(), obj_x.copy(), residual.copy()
    out_sat = saturated.copy()
    out_iter = np.full(r, config.max_iterations)
    out_conv = residual <= tol
    out_iter[out_conv] = 0

    # Per-row state, compacted to the unfinished rows. y_is_x marks rows
    # whose momentum point is their iterate itself (at the start, after
    # a restart, or without acceleration): there a rejected step is a
    # stall, not an overshoot.
    running = ~out_conv
    pos, u = np.flatnonzero(running), rows[running]
    x, value_x, grad_x = x[running], value_x[running], grad_x[running]
    obj_x, residual, saturated = (obj_x[running], residual[running],
                                  saturated[running])
    x_prev = x.copy()
    y, value_y, grad_y = x.copy(), value_x.copy(), grad_x.copy()
    y_is_x = np.ones(pos.size, dtype=bool)
    t_mom = np.ones(pos.size)
    step = np.full(pos.size, _INITIAL_STEP)

    for iteration in range(1, config.max_iterations + 1):
        if pos.size == 0:
            break
        # Backtracking: shrink each row's step until the quadratic model
        # at its y majorizes; rows leave the loop as they are satisfied.
        slack = 1e-15 * (1.0 + np.abs(value_y))
        cand = soft_threshold(y - step[:, None] * grad_y, step[:, None] * lam)
        val_cand = evaluate_rows(design, u, cand, gradient=False)[0]
        fits = _majorized(val_cand, cand, y, value_y, grad_y, step, slack)
        todo = np.flatnonzero(~fits) if not fits.all() else ()
        while len(todo):
            step[todo] *= _BACKTRACK_SHRINK
            s = step[todo, None]
            c = soft_threshold(y[todo] - s * grad_y[todo], s * lam)
            v = evaluate_rows(design, u[todo], c, gradient=False)[0]
            cand[todo], val_cand[todo] = c, v
            todo = todo[~_majorized(v, c, y[todo], value_y[todo],
                                    grad_y[todo], step[todo], slack[todo])]
        obj_cand = val_cand + lam * np.abs(cand).sum(axis=1)

        # Only a material increase counts; wobble below float
        # resolution must stay accepted or the polish phase stalls
        # with the residual stuck above tight tolerances.
        worse = obj_cand > obj_x + 1e-15 * (1.0 + np.abs(obj_x))
        done = np.zeros(pos.size, dtype=bool)
        conv = np.zeros(pos.size, dtype=bool)
        if worse.any():
            # Momentum overshot: restart from the last accepted point.
            restart = worse & ~y_is_x
            y[restart], value_y[restart], grad_y[restart] = (
                x[restart], value_x[restart], grad_x[restart])
            t_mom[restart] = 1.0
            # A plain step from x cannot descend: numerical stall.
            stall = worse & y_is_x
            y_is_x |= restart
            step[stall] *= _BACKTRACK_SHRINK
            done = stall & (step <= _MIN_STEP)
            acc = np.flatnonzero(~worse)
        else:
            acc = slice(None)

        x_acc = cand[acc]
        k = x_acc.shape[0]
        if k:
            x_prev[acc] = x[acc]
            x[acc], obj_x[acc] = x_acc, obj_cand[acc]
            if history is not None:
                for i, o in zip(pos[acc], obj_cand[acc]):
                    history[i].append(float(o))
            # Momentum points, evaluated in the same pass as the new
            # iterates.
            if config.acceleration:
                t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom[acc] ** 2))
                coef = (t_mom[acc] - 1.0) / t_next
            else:
                t_next, coef = t_mom[acc], np.zeros(k)
            y_new = x_acc + coef[:, None] * (x_acc - x_prev[acc])
            u_acc = u[acc]
            values, grads, sat = evaluate_rows(
                design, np.concatenate([u_acc, u_acc]),
                np.concatenate([x_acc, y_new]))
            value_x[acc], grad_x[acc] = values[:k], grads[:k]
            saturated[acc] |= sat[:k]
            residual[acc] = _kkt_rows(grads[:k], x_acc, lam)
            conv[acc] = residual[acc] <= tol
            done[acc] = conv[acc] | (step[acc] <= _MIN_STEP)

        finished = done.any()
        if finished:
            i = pos[done]
            out_x[i], out_obj[i], out_res[i] = (x[done], obj_x[done],
                                                residual[done])
            out_sat[i], out_conv[i] = saturated[done], conv[done]
            out_iter[i] = iteration

        if k:
            y[acc], value_y[acc], grad_y[acc] = y_new, values[k:], grads[k:]
            saturated[acc] |= sat[k:]
            t_mom[acc] = t_next
            y_is_x[acc] = not config.acceleration
            step[acc] *= _STEP_GROWTH

        if finished:
            keep = ~done
            (pos, u, x, x_prev, y, value_x, grad_x, value_y, grad_y, obj_x,
             residual, saturated, y_is_x, t_mom, step) = (
                a[keep] for a in (pos, u, x, x_prev, y, value_x, grad_x,
                                  value_y, grad_y, obj_x, residual,
                                  saturated, y_is_x, t_mom, step))

    out_x[pos], out_obj[pos], out_res[pos], out_sat[pos] = (
        x, obj_x, residual, saturated)
    return [SolveReport(np.delete(out_x[i], rows[i]), int(out_iter[i]),
                        float(out_res[i]), float(out_obj[i]),
                        bool(out_conv[i]), bool(out_sat[i]),
                        history[i] if history is not None else None)
            for i in range(r)]


def minimize(view: NodeView, config: SolverConfig,
             x0: np.ndarray | None = None) -> SolveReport:
    """Minimize one view's penalized loss: the one-row case of
    minimize_rows on the view's design. x0, when given, is indexed like
    view.others."""
    start = None if x0 is None else focal_row(view, x0)
    return minimize_rows(view.design, [view.u], config, start)[0]
