"""The interaction-screening loss.

For focal vertex u the loss is the empirical average

    S_u(theta) = (1/n) sum_k exp(-sigma_u^(k) sum_{i != u} theta_i sigma_i^(k)),

a smooth convex function whose gradient components are
-(1/n) sum_k sigma_u^(k) sigma_l^(k) exp(...). A term does not change
when its configuration flips every spin, and the loss is an average, so
the data enter only through the distinct configurations up to the
global flip and their counts: the sample set's one tally
(SampleSet.tally). Evaluation cost is then independent of n once n
exceeds the number of distinct configurations.

With C those configurations as rows, w their frequencies and Theta a
p x p coupling matrix with a zero diagonal, vertex u's linear forms are
z_u = C[:, u] * (C @ Theta[u]), its loss w @ exp(-z_u), its gradient
-(w exp(-z_u) C[:, u]) @ C with entry u masked, and its Hessian
(C.T * w exp(-z_u)) @ C with row and column u masked (C[:, u]^2 = 1, so
the focal spin drops out, and the diagonal is the loss). A
sampler.Design holds C as int8 with w; SampleSet.tally is the sample
set's one design, and multinomial counts or exact probabilities over
configuration indices give designs of the same kind, so evaluate_rows,
which computes any set of rows of Theta in one pass over a design, a
block of configurations at a time, is the one evaluator for all of
them. face_hessians gives the Hessians the same way, each row's only on
the columns its solver step moves, so memory stays flat there too. A
NodeView is a design plus its focal vertex, so one vertex's loss is the
one-row evaluate_rows call.

A design may also carry one row of weights per focal vertex. A row
supported on a set W reads the data only through the weight of each
sign pattern of sigma_u * sigma_W, so pattern_table turns the design
into such a design: the 2^|W| patterns, shared, with each row's weights
on them, one bincount each. The solver fits wide rows on these tables.

Linear forms are clamped to +/-LINEAR_FORM_LIMIT before
exponentiation (exp overflows near 710); evaluations report whether
the clamp fired so callers can flag saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .sampler import Design, SampleSet

LINEAR_FORM_LIMIT = 700.0

# Entries in each float64 array of one evaluate_rows block (the block's
# spins, its linear forms): memory stays flat whatever the tally size.
_BLOCK_ENTRIES = 1 << 15


@dataclass
class NodeView:
    """Focal vertex u's view of weighted configurations: the design its
    loss reads (a sample set's tally, or a design built from counts over
    configuration indices) and the underlying sample count n.

    others (the ascending vertices != u), basis (the product rows
    sigma_u * sigma_others of the design's configurations, float64, in
    design order) and weights (their empirical frequencies, summing to
    1) are read off the design when asked for.
    """

    design: Design
    u: int
    n: int

    @property
    def others(self) -> np.ndarray:
        return np.delete(np.arange(self.design.spins.shape[0]), self.u)

    @property
    def basis(self) -> np.ndarray:
        spins = self.design.spins
        return (spins[self.others] * spins[self.u]).T.astype(np.float64)

    @property
    def weights(self) -> np.ndarray:
        return self.design.weights / self.design.total


def node_view(samples: SampleSet, u: int) -> NodeView:
    """Vertex u's view of the sample set's tally."""
    if not 0 <= u < samples.p:
        raise InputError(f"vertex {u} out of range for p={samples.p}")
    if samples.p < 2:
        raise InputError("need p >= 2 for a nonempty view")
    return NodeView(samples.tally, u, samples.n)


def evaluate_rows(design: Design, rows: np.ndarray, theta: np.ndarray):
    """Losses of the focal vertices rows[i] at the coupling rows
    theta[i] (len(rows) x p, zero at each focal vertex), in one pass
    over the design in blocks of configurations.

    Returns (values, gradients, saturated): the focal entries of
    gradients are 0; saturated[i] tells whether row i's linear forms
    hit the clamp. The design's weights are one row shared by every
    focal vertex, or len(rows) rows, row i for rows[i] (pattern_table).
    """
    spins, weights, total = design
    values = grads = 0.0
    saturated = np.zeros(len(rows), dtype=bool)
    # |z| <= ||theta[i]||_1 on +/-1 configurations, so rows below half
    # the limit cannot reach it and skip the check.
    risky = np.abs(theta).sum(axis=1) > LINEAR_FORM_LIMIT / 2
    check = risky.any()
    negated = -theta
    block = max(1, _BLOCK_ENTRIES // max(len(rows), spins.shape[0]))
    for lo in range(0, spins.shape[1], block):
        c = spins[:, lo:lo + block].astype(np.float64)
        focal = c[rows]
        e = negated @ c
        e *= focal
        if check:
            saturated |= risky & (np.abs(e).max(axis=1) > LINEAR_FORM_LIMIT)
            np.clip(e, -LINEAR_FORM_LIMIT, LINEAR_FORM_LIMIT, out=e)
        np.exp(e, out=e)
        e *= weights[..., lo:lo + block]
        # Along the contiguous axis numpy sums pairwise, which keeps the
        # rounding far below the solver's 1e-15 slack.
        values = values + e.sum(axis=1)
        e *= focal
        grads = grads + e @ c.T
    values /= total
    grads /= -total
    grads[np.arange(len(rows)), rows] = 0.0
    return values, grads, saturated


def face_hessians(design: Design, rows: np.ndarray, theta: np.ndarray,
                  faces: np.ndarray) -> np.ndarray:
    """The Hessians of the losses of evaluate_rows(design, rows, theta)
    on the columns faces[i] of row i (len(rows) x k; a focal column's
    entries are not masked): len(rows) x k x k, one batched product a
    block with each row's weighted copy of its k columns of the block."""
    spins, weights, total = design
    hess = 0.0
    block = max(1, _BLOCK_ENTRIES // faces.size)
    for lo in range(0, spins.shape[1], block):
        c = spins[:, lo:lo + block].astype(np.float64)
        e = (theta @ c) * -c[rows]
        np.clip(e, -LINEAR_FORM_LIMIT, LINEAR_FORM_LIMIT, out=e)
        np.exp(e, out=e)
        e *= weights[..., lo:lo + block]
        f = c[faces]
        hess = hess + (f * e[:, None]) @ f.transpose(0, 2, 1)
    return hess / total


def pattern_table(design: Design, rows, cols) -> Design:
    """The design's sign-pattern tables of the focal vertices rows[i] on
    the columns cols[i] (len(rows) x k): the 2^k patterns of
    sigma_u * sigma_cols as a (k + 1) x 2^k design, where vertex 0 stands
    for the focal vertex (+1 throughout) and pattern c has -1 at vertex
    i + 1 exactly where bit i of c is set, with one row of weights per
    focal vertex: its design's weight on each pattern. At a theta row
    supported on cols[i], evaluate_rows of row i's table at focal vertex
    0 gives the loss, and the gradient on cols[i], of the design's."""
    k = cols.shape[1]
    bits = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1
    patterns = np.vstack([np.ones((1, 1 << k)), 1 - 2 * bits]).astype(np.int8)
    spins, powers = design.spins, (1 << np.arange(k))[:, None]
    # One row at a time keeps the k x m codes the only temporary.
    weights = np.array([
        np.bincount(((spins[c] != spins[u]) * powers).sum(axis=0),
                    weights=design.weights, minlength=1 << k)
        for u, c in zip(rows, cols)])
    return Design(patterns, weights, design.total)


class Evaluation(NamedTuple):
    value: float
    gradient: np.ndarray
    saturated: bool


def focal_row(view: NodeView, theta) -> np.ndarray:
    """theta, one coupling per vertex in view.others, as the 1 x p
    coupling row of the view's focal vertex (0 at u)."""
    arr = np.asarray(theta, dtype=np.float64)
    k = view.design.spins.shape[0] - 1
    if arr.shape != (k,):
        raise InputError(f"theta has shape {arr.shape}, expected ({k},)")
    return np.insert(arr, view.u, 0.0)[None, :]


def evaluate(view: NodeView, theta) -> Evaluation:
    """Loss value and gradient in one pass (they share the exp weights)."""
    values, grads, saturated = evaluate_rows(view.design, [view.u],
                                             focal_row(view, theta))
    return Evaluation(float(values[0]), np.delete(grads[0], view.u),
                      bool(saturated[0]))


def screening_value(view: NodeView, theta) -> float:
    return evaluate(view, theta).value


def screening_gradient(view: NodeView, theta) -> np.ndarray:
    return evaluate(view, theta).gradient


def remainder_kernel(z):
    """The convex kernel exp(-z) - 1 + z (>= 0 everywhere); computed
    via expm1 so the quadratic behavior near 0 survives cancellation."""
    z = np.asarray(z, dtype=np.float64)
    z = np.clip(z, -LINEAR_FORM_LIMIT, LINEAR_FORM_LIMIT)
    return np.maximum(np.expm1(-z) + z, 0.0)


def remainder_kernel_floor(z):
    """Quadratic-over-linear lower bound z**2 / (2 + |z|)."""
    z = np.asarray(z, dtype=np.float64)
    return z * z / (2.0 + np.abs(z))


def taylor_remainder(view: NodeView, theta_star, delta) -> float:
    """Second-order remainder S(theta*+delta) - S(theta*) -
    <grad S(theta*), delta>, accumulated term by term as
    w_k exp(-z*_k) kernel(dz_k) over the design's configurations; every
    term is nonnegative, so the result is too, and small deltas do not
    cancel."""
    spins, weights, total = view.design
    z_star, dz = (np.vstack([focal_row(view, theta_star),
                             focal_row(view, delta)]) @ spins) * spins[view.u]
    z_star = np.clip(z_star, -LINEAR_FORM_LIMIT, LINEAR_FORM_LIMIT)
    terms = weights * np.exp(-z_star) * remainder_kernel(dz)
    return float(np.sum(terms, dtype=np.longdouble) / total)
