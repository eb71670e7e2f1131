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
configurations than coordinates). A zero of A whose d leaves its sign
leaves A, and the system is solved again, same Hessian, until none does
(the sign-consistent l1 step). The trial is theta + t d (a coordinate
crossing 0 stops at 0), t = 1 halved until the line search accepts, a
safeguard these steps seldom need. A row whose system is still singular
or not finite (a clamped row), or whose Newton search runs out, takes
the soft-thresholded gradient step, from t = 1 / S_u, instead. A trial
is accepted when its composite objective falls by a quarter of what its
linear model promises (Armijo) and by more than float resolution (one
part in 1e15), or stays within it and lowers the optimality residual,
which is what still improves near the minimum. A row whose gradient
step's search runs out too (_LINE_SEARCH halvings), or whose accepted
trial is its iterate itself, stalls and finishes.

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
view is the shared design plus its focal vertex. minimize_rows also
solves the rows on each of several designs of one p and total.

Rows are solved on working sets (Blitz, Johnson & Guestrin 2015;
Celer, Massias, Gramfort & Salmon 2018). The l1 penalty leaves most of a
row's coordinates at exactly 0, and at a theta supported on a set W the
loss, and its gradient on W, read the data only through the weight of
each sign pattern of sigma_u * sigma_W: the row's
screening.pattern_table, 2^|W| columns whatever the sample. After a full
pass over the design, each uncertified row's W is its support, then its
largest |gradient| entries, so violators come first. A round's sets
share one width: enough for each row's support and, after the first
round, its violators, at least _WORKING_SET, and at most the widest
table smaller than each row's design (and _WORKING_SET_CAP). The rows
are solved by the same loop on their tables in one call, from their
support, and a new full pass certifies them or starts another round. A
row is solved on the full design, from a full pass, when its support
does not fit, when its design has at most 2^_WORKING_SET
configurations, when it stalled on its table, or when its W was capped
and that pass does not certify it: a capped row could cycle otherwise.
Each report counts table and full-design work together (iterations,
evaluations, backtracks, stalls), and max_iterations caps a row's
total; restarts counts the far-start restarts. Convergence is
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
# A working set holds _WORKING_SET to _WORKING_SET_CAP coordinates, and
# its table fewer columns than the design.
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


def _face_steps(hess, inside, rhs, zeros, damping) -> np.ndarray:
    """_newton_steps on each row's face (inside), again without each face
    zero whose step leaves its sign (in zeros, else 0) until none does."""
    while True:
        step = _newton_steps(np.where(inside[:, :, None] & inside[:, None, :],
                                      hess, np.eye(inside.shape[1])),
                             rhs * inside, damping)
        leave = step * zeros < 0.0
        if not leave.any():
            return step
        inside = inside & ~leave


# Once a solve: a far trial (an overflowing l1 norm or linear form, or
# a step 1 / S_u with S_u = 0) is not finite and fails the line search.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(design_of, x, value, grad, saturated, lam: float, tol: float,
            budget: np.ndarray):
    """Run the scheme of the module docstring (each round's steps by
    _face_steps) on r rows at once from the starts x, with their values
    and gradients; design_of(i) gives the design, focal vertices and
    weight stack of the rows i. budget caps each row's iterations.
    Returns each row's last accepted iterate, objective, residual and
    saturation flag, and a 4 x r array of its iterations, evaluations
    (its start's not counted), backtracks and stalls."""
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
        at = np.arange(pos.size)[:, None]
        inside = face[at, cols]
        rhs = -(grad[at, cols] + lam * sign[at, cols])
        zeros = np.where(on, 0.0, sign)[at, cols]
        direction = np.zeros_like(x)
        chunk = max(1, _HESSIAN_ENTRIES // (k * k))
        for c in (slice(lo, lo + chunk) for lo in range(0, pos.size, chunk)):
            design, focal, stack = design_of(pos[c])
            hess = face_hessians(design, focal, x[c], cols[c], stack)
            direction[at[c], cols[c]] = _face_steps(hess, inside[c], rhs[c],
                                                    zeros[c], residual[c])
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
            trial = np.where(trial * sign[todo] > 0.0, trial, 0.0)
            g = np.flatnonzero(gradient_step[todo])
            if g.size:
                trial[g] = soft_threshold(at[g] - ts[g] * grad[todo[g]],
                                          ts[g] * lam)
            design, focal, stack = design_of(pos[todo])
            v, gr, sat = evaluate_rows(design, focal, trial, stack)
            pen = lam * np.abs(trial).sum(axis=1)
            res = _kkt_rows(gr, trial, lam)
            promised = ((grad[todo] * (trial - at)).sum(axis=1) + pen
                        - (obj - value)[todo])
            change = v + pen - obj[todo]
            ok = ((change <= np.minimum(0.25 * promised, 0.0) - slack[todo])
                  | ((np.abs(change) <= slack[todo]) & (res < residual[todo])))
            took = todo[ok]
            for arr, val in zip(new, (trial, v, gr, v + pen, res)):
                arr[took] = val[ok]
            new[5][took] |= sat[ok]
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


def minimize_rows(design, rows, config: SolverConfig,
                  x0: np.ndarray | None = None) -> list[SolveReport]:
    """Minimize the penalized losses of the focal vertices rows of the
    design (on working sets or the full design, as the module docstring
    says); each report's solution lists the row's couplings to the
    other vertices in ascending order. x0, when given, holds one full
    p-wide starting row per focal vertex; its focal entries are ignored.
    design may also be a list of designs that share p and total: the
    rows are solved on each from x0, reports design by design.
    """
    designs = [design] if isinstance(design, Design) else design
    if len({(d.spins.shape[0], d.total) for d in designs}) > 1:
        raise InputError("designs must share p and total")
    rows = np.asarray(rows, dtype=np.int64)
    (p, _), nd, each = designs[0].spins.shape, len(designs), rows.size
    lam, tol, cap = config.lam, config.kkt_tolerance, config.max_iterations
    x = np.zeros((each, p)) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (each, p):
        raise InputError(f"x0 has shape {x.shape}, expected ({each}, {p})")
    x[np.arange(each), rows] = 0.0
    # One solve row per design and focal vertex, design-major.
    of = np.repeat(np.arange(nd), each)
    x, rows, r = np.tile(x, (nd, 1)), np.tile(rows, nd), of.size
    # Each row's widest table: fewer columns than its design has rows.
    widest = np.minimum(_WORKING_SET_CAP, np.frexp(
        [d.spins.shape[1] - 1 for d in designs])[1] - 1)[of]
    value, obj, residual = np.empty((3, r))
    grad, saturated = np.empty((r, p)), np.zeros(r, dtype=bool)
    # Per-row iterations, evaluations, backtracks, stalls and restarts.
    counts = np.zeros((5, r), dtype=np.int64)
    # Rows that finish on the full design.
    to_full = np.zeros(r, dtype=bool)

    def full_pass(i):
        for d in np.unique(of[i]):
            j = i[of[i] == d]
            value[j], grad[j], sat = evaluate_rows(designs[d], rows[j], x[j])
            saturated[j] |= sat
        counts[1, i] += 1

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
        # Each row's working set: its support, then its largest |gradient|
        # entries, so violators come first. A round's sets share one
        # width: the widest need (after the first round violators count),
        # at least _WORKING_SET, at most the narrowest widest table.
        g = np.abs(grad[live])
        on = x[live] != 0.0
        need = np.maximum((on | ((g - lam > tol) & (not first))).sum(1),
                          _WORKING_SET)
        first, support = False, on.sum(axis=1)
        full = to_full[live] | (widest[live] < np.maximum(support,
                                                         _WORKING_SET))
        if not full.all():
            k = min(need[~full].max(), widest[live[~full]].min())
            full |= support > k
        for d in np.unique(of[live[full]]):
            f = live[full & (of[live] == d)]
            x[f], obj[f], residual[f], saturated[f], run = _newton(
                lambda i: (designs[d], rows[f[i]], ...), x[f], value[f],
                grad[f], saturated[f], lam, tol, cap - counts[0, f])
            counts[:4, f] += run
        live = live[~full]
        if live.size == 0:
            break
        g, on, capped = g[~full], on[~full], need[~full] > k
        g[np.arange(live.size), rows[live]] = -1.0
        order = np.argsort(np.where(on, -np.inf, -g), axis=1, kind="stable")
        cols = np.sort(order[:, :k], axis=1)
        # One pattern design with per-row weights, from the last full
        # pass. A row that stalls on it, or whose set was capped, finishes
        # on the full design unless the next full pass certifies it.
        table = pattern_table([designs[d] for d in of[live]], rows[live],
                              cols)
        start, start_grad = np.zeros((2, live.size, k + 1))
        start[:, 1:] = x[live[:, None], cols]
        start_grad[:, 1:] = grad[live[:, None], cols]
        sol, _, res, saturated[live], run = _newton(
            lambda i: (table, np.zeros(len(i), dtype=np.int64), i),
            start, value[live], start_grad, saturated[live], lam, tol,
            cap - counts[0, live])
        x[live] = 0.0
        x[live[:, None], cols] = sol[:, 1:]
        counts[:4, live] += run
        to_full[live] = capped | ((res > tol) & (counts[0, live] < cap))

    solutions = x[np.arange(p) != rows[:, None]].reshape(r, p - 1)
    return [SolveReport(*fields) for fields in zip(
        solutions, counts[0].tolist(), residual.tolist(), obj.tolist(),
        (residual <= tol).tolist(), saturated.tolist(),
        *counts[[1, 2, 4, 3]].tolist())]


def minimize(view: NodeView, config: SolverConfig,
             x0: np.ndarray | None = None) -> SolveReport:
    """Minimize one view's penalized loss: the one-row case of
    minimize_rows on the view's design. x0, when given, is indexed like
    view.others."""
    start = None if x0 is None else focal_row(view, x0)
    return minimize_rows(view.design, [view.u], config, start)[0]
