"""Proximal-Newton solver for the l1-penalized screening loss.

minimize_rows(design, rows, config) solves, for each focal vertex u in rows,

    min_theta  S_u(theta) + lam * ||theta||_1

by proximal Newton steps on a predicted face (Lee, Sun & Saunders 2014;
newGLMNET's orthant-wise step, Yuan, Ho & Lin 2012). Each round a row's
face A is its support, signed s by its coordinates, and the zeros whose
|gradient| exceeds lam, signed against the gradient; the row solves
H_AA d = -(g_A + lam s_A) with the loss's exact Hessian on the face at
the iterate (screening.face_hessians), plus the row's residual on the
diagonal where H_AA is singular (the regularized Newton step of Li,
Fukushima, Qi & Yamashita 2004: equal columns, fewer distinct
configurations than coordinates), and its trial is theta + t d
projected onto the face's orthant (a coordinate that would cross 0
stops at 0), t = 1 halved until the line search accepts. A row whose
system is still singular or not finite (a clamped row), or whose Newton
line search runs out, takes the soft-thresholded gradient step, from
t = 1 / S_u, instead. A trial is accepted when its composite objective
falls by a quarter of what its linear model promises (Armijo) and by
more than float resolution (one part in 1e15), or stays within it and
lowers the optimality residual, which is what still improves near the
minimum. A row whose gradient step's line search runs out too
(_LINE_SEARCH halvings), or whose accepted trial is its iterate itself,
stalls and finishes.

The starting point is the origin, which makes the fully-penalized
regime exact: the gradient at 0 is an average of +/-1 rows, so
||grad||_inf <= 1 and any lam >= 1 certifies 0 at once. A caller may
start elsewhere (x0, such as an earlier fit of the same model): a start
that meets the tolerance returns after its one evaluation, with 0
iterations, and one whose objective exceeds the origin's, exactly 1,
restarts there. An accepted trial becomes the iterate with its own
evaluation (value, gradient, saturation flag and residual): an iteration
costs a Hessian pass, one evaluation and one per backtrack.

The rows are independent problems, but they share their data, so one
loop (_newton) advances all of them in lockstep: a round takes their
Hessians in one pass and solves their Newton systems in one batched call
(both in batches of _HESSIAN_ENTRIES), each step of its line search
evaluates the rows still searching in one screening.evaluate_rows call,
and rows drop out as they converge (at the start point too), stall or
reach their iteration cap. minimize(view, config) is the one-row case: a
view is the shared design plus its focal vertex.

Wide rows are solved on working sets (Blitz, Johnson & Guestrin 2015;
Celer, Massias, Gramfort & Salmon 2018). The l1 penalty leaves most of a
row's coordinates at exactly 0, and at a theta supported on a set W the
loss, and its gradient on W, read the data only through the weight of
each sign pattern of sigma_u * sigma_W: the row's
screening.pattern_table, 2^|W| columns whatever the sample. After one
full pass over the design, each uncertified row's W is its support,
after the first round every coordinate that violates the optimality
system too, and then its largest |gradient| entries up to _WORKING_SET;
the rows are solved by the same loop on their tables, from their
support, and a new full pass certifies them or starts another round. A
row whose W would exceed _WORKING_SET_CAP or reach half its p - 1
coordinates, or that stalls on its table, is solved on the full design
instead, as every row is for p <= 2 * _WORKING_SET + 1, from the full
pass. Each report counts table and full-design work together
(iterations, evaluations, backtracks, stalls), and max_iterations caps a
row's total; restarts counts the far-start restarts. Convergence is
declared per row on the optimality residual (kkt_residual below) of the
full gradient, not on objective or iterate drift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .sampler import Design
from .screening import (NodeView, evaluate_rows, face_hessians, focal_row,
                        pattern_table)

# A line search halves a row's step at most _LINE_SEARCH times.
_LINE_SEARCH = 40
# A row's working set holds at least _WORKING_SET coordinates; a row
# whose set would exceed _WORKING_SET_CAP, or reach half its width, is
# solved on the full design.
_WORKING_SET = 8
_WORKING_SET_CAP = 12
# Entries in one batch of Newton systems: flat memory for many rows.
_HESSIAN_ENTRIES = 1 << 15


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
    # included), backtracks, far-start restarts (a start above the
    # origin's objective, 1, restarts there) and stalls.
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


def _newton_steps(system, rhs, damping) -> np.ndarray:
    """Each row's solution of its linear system; a singular one is
    solved again with its damping added to the diagonal, and is NaN if
    that is singular too (or damping is None)."""
    try:
        return np.linalg.solve(system, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # find the singular ones one by one
        if len(rhs) > 1:
            return np.vstack([_newton_steps(a[None], b[None], m[None])
                              for a, b, m in zip(system, rhs, damping)])
        if damping is None:
            return np.full_like(rhs, np.nan)
        return _newton_steps(system + damping * np.eye(len(rhs[0])), rhs, None)


# Once a solve: a far trial (an overflowing l1 norm or linear form, or
# a step 1 / S_u with S_u = 0) is not finite and fails the line search.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(design_of, x, value, grad, saturated, lam: float, tol: float,
            budget: np.ndarray):
    """Run the scheme of the module docstring on r rows at once from
    the starts x, with their values and gradients; design_of(i) gives
    the design and focal vertices of the rows i. budget caps each row's
    iterations. Returns each row's last accepted iterate, objective,
    residual and saturation flag, and a 4 x r array of its iterations,
    evaluations (its start's not counted), backtracks and stalls."""
    r, p = x.shape
    obj = value + lam * np.abs(x).sum(axis=1)
    residual = _kkt_rows(grad, x, lam)
    backtracks, stalls = np.zeros((2, r), dtype=np.int64)
    # A row's results, written once, in the round after it finishes.
    out_x, out_obj, out_res = np.empty_like(x), np.empty(r), np.empty(r)
    out_sat, out_iter = np.empty(r, dtype=bool), np.empty(r, dtype=np.int64)

    # Per-row state, compacted to the unfinished rows.
    pos = np.arange(r)
    done = residual <= tol
    for iteration in itertools.count():
        # Rows finish when they converge (at the start too) or stall, and
        # at their iteration cap; each keeps its last accepted state.
        done |= iteration >= budget
        if done.any():
            i = pos[done]
            out_x[i], out_obj[i], out_res[i] = (x[done], obj[done],
                                                residual[done])
            out_sat[i], out_iter[i] = saturated[done], iteration
            pos, budget, x, value, grad, obj, residual, saturated = (
                a[~done] for a in (pos, budget, x, value, grad, obj,
                                   residual, saturated))
        if pos.size == 0:
            break
        # Each row's face and its Newton step, on the face's columns
        # padded to the widest face with identity rows, in chunks.
        on = x != 0.0
        face = on | (np.abs(grad) > lam)
        sign = np.where(on, np.sign(x), -np.sign(grad)) * face
        k = face.sum(axis=1).max(initial=1)
        cols = np.argsort(~face, axis=1, kind="stable")[:, :k]
        inside = np.take_along_axis(face, cols, axis=1)
        rhs = -np.take_along_axis(grad + lam * sign, cols, axis=1) * inside
        direction = np.zeros_like(x)
        chunk = max(1, _HESSIAN_ENTRIES // (k * k))
        for c in (slice(lo, lo + chunk) for lo in range(0, pos.size, chunk)):
            hess = face_hessians(*design_of(pos[c]), x[c], cols[c])
            system = np.where(inside[c, :, None] & inside[c, None, :], hess,
                              np.eye(k))
            np.put_along_axis(direction[c], cols[c],
                              _newton_steps(system, rhs[c], residual[c]),
                              axis=1)
        gradient_step = ~np.isfinite(direction).all(axis=1)
        t = np.where(gradient_step, 1.0 / value, 1.0)

        # The line search; rows leave it as their trials are accepted,
        # each with the value, gradient, residual and saturation flag of
        # its own evaluation. The others keep their state. A Newton
        # search that runs out starts over from the gradient step.
        slack = 1e-15 * (1.0 + obj)
        new = [a.copy() for a in (x, value, grad, obj, residual, saturated)]
        todo = np.arange(pos.size)
        halvings = np.zeros(pos.size, dtype=np.int64)
        while todo.size:
            at, ts = x[todo], t[todo, None]
            trial = at + ts * direction[todo]
            trial = np.where(gradient_step[todo, None],
                             soft_threshold(at - ts * grad[todo], ts * lam),
                             np.where(trial * sign[todo] > 0.0, trial, 0.0))
            v, gr, sat = evaluate_rows(*design_of(pos[todo]), trial)
            pen = lam * np.abs(trial).sum(axis=1)
            res = _kkt_rows(gr, trial, lam)
            promised = ((grad[todo] * (trial - at)).sum(axis=1) + pen
                        - (obj - value)[todo])
            change = v + pen - obj[todo]
            ok = ((change <= np.minimum(0.25 * promised, 0.0) - slack[todo])
                  | ((np.abs(change) <= slack[todo]) & (res < residual[todo])))
            for arr, val in zip(new, (trial, v, gr, v + pen, res)):
                arr[todo[ok]] = val[ok]
            new[5][todo[ok]] |= sat[ok]
            todo = todo[~ok]
            t[todo] *= 0.5
            halvings[todo] += 1
            spent = todo[halvings[todo] > _LINE_SEARCH]
            again = spent[~gradient_step[spent]]
            gradient_step[again], t[again], halvings[again] = (
                True, 1.0 / value[again], 0)
            todo = todo[halvings[todo] <= _LINE_SEARCH]
            backtracks[pos[todo]] += 1
        # A row stalls when its gradient step's line search runs out too,
        # or when its accepted trial is its iterate itself.
        stall = ~(new[0] != x).any(axis=1)
        stalls[pos[stall]] += 1
        x, value, grad, obj, residual, saturated = new
        done = stall | (residual <= tol)

    return (out_x, out_obj, out_res, out_sat,
            np.array([out_iter, out_iter + backtracks, backtracks, stalls]))


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
    # Per-row iterations, evaluations, backtracks, stalls and restarts.
    counts = np.zeros((5, r), dtype=np.int64)
    # Rows that stalled on a table finish on the full design.
    to_full = np.zeros(r, dtype=bool)

    def full_pass(i):
        value[i], grad[i], sat = evaluate_rows(design, rows[i], x[i])
        counts[1, i] += 1
        saturated[i] |= sat

    live, first = np.arange(r), True
    while True:
        # A full pass certifies rows, or gives the next round its start.
        full_pass(live)
        obj[live] = value[live] + lam * np.abs(x[live]).sum(axis=1)
        far = live[obj[live] > 1.0] if first and x0 is not None else live[:0]
        if far.size:  # starts above the origin's objective, 1, restart there
            x[far] = 0.0
            full_pass(far)
            obj[far] = value[far]
            counts[4, far] += 1
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
            x[f], obj[f], residual[f], saturated[f], run = _newton(
                lambda i: (design, rows[f[i]]), x[f], value[f], grad[f],
                saturated[f], lam, tol, cap - counts[0, f])
            counts[:4, f] += run
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
            sol, _, res, saturated[t], run = _newton(
                lambda i: (table._replace(weights=table.weights[i]),
                           np.zeros(len(i), dtype=np.int64)),
                start, value[t], start_grad, saturated[t], lam, tol,
                cap - counts[0, t])
            x[t] = 0.0
            x[t[:, None], cols] = sol[:, 1:]
            counts[:4, t] += run
            to_full[t] = (res > tol) & (counts[0, t] < cap)

    return [SolveReport(np.delete(x[i], rows[i]), int(counts[0, i]),
                        float(residual[i]), float(obj[i]),
                        bool(residual[i] <= tol), bool(saturated[i]),
                        *(int(c) for c in counts[[1, 2, 4, 3], i]))
            for i in range(r)]


def minimize(view: NodeView, config: SolverConfig,
             x0: np.ndarray | None = None) -> SolveReport:
    """Minimize one view's penalized loss: the one-row case of
    minimize_rows on the view's design. x0, when given, is indexed like
    view.others."""
    start = None if x0 is None else focal_row(view, x0)
    return minimize_rows(view.design, [view.u], config, start)[0]
