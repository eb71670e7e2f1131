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
loop (_fista) advances all of them in lockstep: every row keeps its own
step, momentum and restart state, each round's evaluations of all
unfinished rows go through one screening.evaluate_rows call, and each
round starts by writing out the rows that have converged (at the start
point too), stalled or reached their iteration cap, which then drop
out. minimize(view, config) is the one-row case: a view is the shared
design plus its focal vertex, so one vertex is solved on the same data.

Wide rows are solved on working sets (Blitz, Johnson & Guestrin 2015;
Celer, Massias, Gramfort & Salmon 2018). The l1 penalty leaves most of
a row's coordinates at exactly 0, and at a theta supported on a set W
the loss, and its gradient on W, read the data only through the weight
of each sign pattern of sigma_u * sigma_W: the row's
screening.pattern_table, 2^|W| columns whatever the sample. After one
full pass over the design, each uncertified row's W is its support, after
the first round every coordinate that violates the optimality system
too, and then its largest |gradient| entries up to _WORKING_SET; the
rows are solved by the same loop on their tables, from that pass, and
a new full pass certifies them or starts another round. A row whose W
would exceed _WORKING_SET_CAP or reach half its p - 1 coordinates, or
that stalls on its table, is solved on the full design instead, as
every row is for p <= 2 * _WORKING_SET + 1. Each report counts table
and full-design work together (iterations, evaluations, backtracks,
momentum restarts, stalls), and max_iterations caps a row's total.

Convergence is declared per row on the subgradient optimality residual
(kkt_residual below) of the full gradient, not on objective or iterate
drift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .sampler import Design
from .screening import NodeView, evaluate_rows, focal_row, pattern_table

_INITIAL_STEP = 1.0
_BACKTRACK_SHRINK = 0.5
_STEP_GROWTH = 1.25
_MIN_STEP = 1e-18
# A row's working set holds at least _WORKING_SET coordinates; a row
# whose set would exceed _WORKING_SET_CAP, or reach half its width, is
# solved on the full design.
_WORKING_SET = 8
_WORKING_SET_CAP = 12


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
    # Loss evaluations on tables and the full design (the start point's
    # included), backtracking steps, momentum restarts and stalled steps.
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
    the loss at its candidate (or the step cannot shrink further). A
    far start can overflow the model; a model that is not finite does
    not majorize."""
    d = cand - y
    model = (value_y + (grad_y * d).sum(axis=1)
             + (d * d).sum(axis=1) / (2.0 * step))
    return (np.isfinite(model) & (val <= model + slack)) | (step <= _MIN_STEP)


# Once a solve: an errstate entered in every _majorized call cost the
# small p <= 17 fits a few percent.
@np.errstate(over="ignore", invalid="ignore")
def _fista(evaluate, x, value_x, grad_x, saturated, lam: float, tol: float,
           budget: np.ndarray):
    """Run the scheme of the module docstring on r rows at once from
    evaluated starts x (value_x, grad_x, saturated; modified in place).
    evaluate(i, theta) returns the values, gradients and saturation
    flags of the rows i at theta; budget caps each row's iterations.

    Every row keeps its own iterate, momentum point, step and momentum
    t; a round advances each unfinished row by one iteration and
    evaluates all of them in shared calls. Returns each row's last
    accepted iterate, objective, residual and saturation flag, and a
    5 x r array of its iterations, evaluations after the start,
    backtracks, restarts and stalls. numpy's overflow and invalid-value
    warnings are off: a far start can overflow the quadratic model of
    _majorized, which then does not majorize; evaluations are clamped
    and stay finite.
    """
    r = x.shape[0]
    obj_x = value_x + lam * np.abs(x).sum(axis=1)
    residual = _kkt_rows(grad_x, x, lam)
    # Per-row counters; evals counts the momentum points, and each
    # iteration's candidate and each backtrack are added at the end.
    evals, backtracks, restarts, stalls = (np.zeros(r, dtype=np.int64)
                                           for _ in range(4))
    # A row's results, written once, in the round after it finishes.
    out_x, out_obj, out_res = np.empty_like(x), np.empty(r), np.empty(r)
    out_sat, out_iter = np.empty(r, dtype=bool), np.empty(r, dtype=np.int64)

    # Per-row state, compacted to the unfinished rows. A row's momentum
    # t is 1 exactly where its momentum point is its iterate itself (at
    # the start or after a restart; every momentum update makes t at
    # least 1.618): there a rejected step is a stall, not an overshoot.
    pos = np.arange(r)
    x_prev = x.copy()
    y, value_y, grad_y = x.copy(), value_x.copy(), grad_x.copy()
    t_mom = np.ones(r)
    step = np.full(r, _INITIAL_STEP)
    done = residual <= tol
    min_budget = budget.min()

    for iteration in itertools.count():
        # Rows finish when they converge (at the start too) or stall, and
        # at their iteration cap; each keeps its last accepted state.
        if iteration >= min_budget:
            done |= iteration >= budget
        if done.any():
            i = pos[done]
            out_x[i], out_obj[i], out_res[i] = (x[done], obj_x[done],
                                                residual[done])
            out_sat[i], out_iter[i] = saturated[done], iteration
            keep = ~done
            (pos, budget, x, x_prev, y, value_x, grad_x, value_y, grad_y,
             obj_x, residual, saturated, t_mom, step) = (
                a[keep] for a in (pos, budget, x, x_prev, y, value_x, grad_x,
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
        val_cand, grad_cand, sat_cand = evaluate(pos, cand)
        fits = _majorized(val_cand, cand, y, value_y, grad_y, step, slack)
        todo = np.flatnonzero(~fits) if not fits.all() else ()
        while len(todo):
            step[todo] *= _BACKTRACK_SHRINK
            s = step[todo, None]
            c = soft_threshold(y[todo] - s * grad_y[todo], s * lam)
            v, g, sat = evaluate(pos[todo], c)
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
            value_y[acc], grad_y[acc], sat = evaluate(pos[acc], y_new)
            evals[pos[acc]] += 1
            y[acc] = y_new
            saturated[acc] |= sat
            t_mom[acc] = t_next
            step[acc] *= _STEP_GROWTH

    evals += out_iter + backtracks
    return (out_x, out_obj, out_res, out_sat,
            np.array([out_iter, evals, backtracks, restarts, stalls]))


def minimize_rows(design: Design, rows, config: SolverConfig,
                  x0: np.ndarray | None = None) -> list[SolveReport]:
    """Minimize the penalized losses of the focal vertices rows of the
    design (on working sets or the full design, as the module docstring
    says); each report's solution lists the row's couplings to the
    other vertices in ascending order. x0, when given, holds one full
    p-wide starting row per focal vertex; its focal entries are ignored.
    """
    rows = np.asarray(rows, dtype=np.int64)
    r, p = rows.size, design.spins.shape[0]
    lam, tol, cap = config.lam, config.kkt_tolerance, config.max_iterations
    if x0 is None:
        x = np.zeros((r, p))
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != (r, p):
            raise InputError(f"x0 has shape {x.shape}, expected ({r}, {p})")
        x[np.arange(r), rows] = 0.0
    value, obj, residual = np.empty((3, r))
    grad, saturated = np.empty((r, p)), np.zeros(r, dtype=bool)
    # Per-row iterations, evaluations, backtracks, restarts and stalls.
    counts = np.zeros((5, r), dtype=np.int64)
    # Rows that stalled on a table finish on the full design.
    to_full = np.zeros(r, dtype=bool)

    live, first = np.arange(r), True
    while True:
        # A full pass certifies rows, or gives the next round its start.
        value[live], grad[live], sat = evaluate_rows(design, rows[live],
                                                     x[live])
        counts[1, live] += 1
        saturated[live] |= sat
        obj[live] = value[live] + lam * np.abs(x[live]).sum(axis=1)
        residual[live] = _kkt_rows(grad[live], x[live], lam)
        live = live[(residual[live] > tol) & (counts[0, live] < cap)]
        if live.size == 0:
            break
        # Each row's working set: its support, after the first round
        # every coordinate that violates, then the largest |gradient|
        # entries up to _WORKING_SET.
        g = np.abs(grad[live])
        must = x[live] != 0.0
        if not first:
            must |= g - lam > tol
        first = False
        sizes = np.maximum(must.sum(axis=1), _WORKING_SET)
        full = (to_full[live] | (2 * sizes >= p - 1)
                | (sizes > _WORKING_SET_CAP))
        f = live[full]
        if f.size:
            f_rows = rows[f]
            x[f], obj[f], residual[f], saturated[f], run = _fista(
                lambda i, th: evaluate_rows(design, f_rows[i], th),
                x[f], value[f], grad[f], saturated[f], lam, tol,
                cap - counts[0, f])
            counts[:, f] += run
        live = live[~full]
        if live.size == 0:
            break
        g, must, sizes = g[~full], must[~full], sizes[~full]
        g[np.arange(live.size), rows[live]] = -1.0
        order = np.argsort(np.where(must, -np.inf, -g), axis=1, kind="stable")
        work = np.zeros_like(must)
        np.put_along_axis(work, order, np.arange(p) < sizes[:, None], axis=1)
        # Solve each group of rows whose sets share a size on one pattern
        # design with per-row weights, from the last full pass.
        for k in np.unique(sizes):
            grp = sizes == k
            t = live[grp]
            cols = np.nonzero(work[grp])[1].reshape(-1, k)
            table = pattern_table(design, rows[t], cols)
            start, start_grad = np.zeros((2, t.size, k + 1))
            start[:, 1:] = x[t[:, None], cols]
            start_grad[:, 1:] = grad[t[:, None], cols]
            sol, _, res, saturated[t], run = _fista(
                lambda i, th: evaluate_rows(
                    table._replace(weights=table.weights[i]),
                    np.zeros(len(i), dtype=np.int64), th),
                start, value[t], start_grad, saturated[t], lam, tol,
                cap - counts[0, t])
            x[t] = 0.0
            x[t[:, None], cols] = sol[:, 1:]
            counts[:, t] += run
            to_full[t] = (res > tol) & (counts[0, t] < cap)

    return [SolveReport(np.delete(x[i], rows[i]), int(counts[0, i]),
                        float(residual[i]), float(obj[i]),
                        bool(residual[i] <= tol), bool(saturated[i]),
                        *(int(c) for c in counts[1:, i]))
            for i in range(r)]


def minimize(view: NodeView, config: SolverConfig,
             x0: np.ndarray | None = None) -> SolveReport:
    """Minimize one view's penalized loss: the one-row case of
    minimize_rows on the view's design. x0, when given, is indexed like
    view.others."""
    start = None if x0 is None else focal_row(view, x0)
    return minimize_rows(view.design, [view.u], config, start)[0]
