"""The interaction-screening loss for one focal vertex.

For focal vertex u the data enter only through the product rows
g_k = sigma_u^(k) * (sigma_i^(k))_{i != u} in {-1,+1}^(p-1), and the
loss is the empirical average

    S(theta) = (1/n) sum_k exp(-<theta, g_k>),

a smooth convex function whose gradient components are
-(1/n) sum_k g_kl exp(-<theta, g_k>). Because the rows take at most
2^(p-1) values, a NodeView collapses them to distinct rows with
weights; the loss is an average, so this regrouping is exact and makes
evaluation cost independent of n once n exceeds the number of distinct
rows. A product row fixes its configuration up to the global flip, so
every vertex's distinct rows are read off the sample set's one
configuration tally (SampleSet.tally) rather than deduplicated anew.

Linear forms are clamped to +/-LINEAR_FORM_LIMIT before
exponentiation (exp overflows near 710); evaluations report whether
the clamp fired so callers can flag saturation.

All p losses at once: with C the tally's distinct configurations
(spin 0 at +1) as rows, w their frequencies and Theta a p x p coupling
matrix with a zero diagonal, vertex u's linear forms are
z_u = C[:, u] * (C @ Theta[u]), its loss w @ exp(-z_u) and its gradient
-(w exp(-z_u) C[:, u]) @ C with entry u masked. A Design holds C as
int8 with w, built once per sample set (tally_design), and
evaluate_rows computes any set of rows of Theta in one pass over it,
a block of configurations at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .sampler import SampleSet

LINEAR_FORM_LIMIT = 700.0

# Entries in each float64 array of one evaluate_rows block (the block's
# spins, its linear forms): memory stays flat whatever the tally size.
_BLOCK_ENTRIES = 1 << 15


@dataclass
class NodeView:
    """Per-vertex view of a sample set.

    others holds the ascending vertices != u; basis and weights are the
    distinct product rows and their empirical frequencies (weights sum
    to 1); n is the underlying sample count.
    """

    u: int
    others: np.ndarray
    basis: np.ndarray
    weights: np.ndarray
    n: int


def _code_rows(codes: np.ndarray, u: int, p: int):
    """Vertex u's product rows from tally codes (p <= 64), ordered by
    product code; returns (order into the tally, rows as float64)."""
    one = np.uint64(1)
    # Bit i of full: spin i is +1 (spin 0 always is, in the tally). Bit i
    # of agree: sigma_u * sigma_i = +1; dropping bit u leaves the product
    # code over the others in ascending order.
    full = (codes.astype(np.uint64) << one) | one
    agree = np.where((full >> np.uint64(u)) & one, full, ~full)
    k = p - 1
    product = ((agree & np.uint64((1 << u) - 1))
               | ((agree >> np.uint64(u + 1)) << np.uint64(u)))
    product &= np.uint64((1 << k) - 1)
    order = np.argsort(product)
    shifts = np.arange(k, dtype=np.uint64)
    bits = (product[order][:, None] >> shifts[None, :]) & one
    return order, 2.0 * bits.astype(np.float64) - 1.0


def _config_rows(configs: np.ndarray, u: int, others: np.ndarray):
    """Vertex u's product rows from tally configurations (p > 64), in
    lexicographic order (-1 before +1); returns (order, rows)."""
    products = configs[:, others] * configs[:, [u]]
    # Packed big-endian into 64-bit words, rows compare as their words do.
    bits = np.zeros((len(products), -(-others.size // 64) * 64), dtype=bool)
    bits[:, :others.size] = products > 0
    words = np.packbits(bits).view(">u8").reshape(len(products), -1)
    order = np.lexsort(words.T[::-1])
    return order, products[order].astype(np.float64)


def node_view(samples: SampleSet, u: int) -> NodeView:
    """Slice the focal-vertex view out of the sample set's tally."""
    if not 0 <= u < samples.p:
        raise InputError(f"vertex {u} out of range for p={samples.p}")
    if samples.p < 2:
        raise InputError("need p >= 2 for a nonempty view")
    others = np.delete(np.arange(samples.p), u)
    tally = samples.tally
    if tally.codes is not None:
        order, rows = _code_rows(tally.codes, u, samples.p)
    else:
        order, rows = _config_rows(tally.configs, u, others)
    weights = tally.counts[order] / float(samples.n)
    return NodeView(u, others, rows, weights, samples.n)


def node_view_from_counts(u: int, others, rows, counts) -> NodeView:
    """Build a view from distinct product rows and their counts, for
    callers that tally configurations instead of materializing samples."""
    others = np.asarray(others, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != counts.shape[0]:
        raise InputError("rows and counts must align")
    if rows.shape[1] != others.size:
        raise InputError("row width must match len(others)")
    if np.any(counts < 0) or counts.sum() < 1:
        raise InputError("counts must be nonnegative with positive total")
    if not np.all(np.abs(rows) == 1.0):
        raise InputError("product rows must be -1/+1")
    keep = counts > 0
    rows, counts = rows[keep], counts[keep]
    n = int(counts.sum())
    return NodeView(int(u), others, rows, counts / float(n), n)


class Design(NamedTuple):
    """Distinct configurations and their weights, the data every
    vertex's loss reads: spins is p x m int8 (+/-1), one configuration
    per column; weights are their counts scaled by a power of two, and
    total is the sample count scaled the same way (their sum)."""

    spins: np.ndarray
    weights: np.ndarray
    total: float


def _design(spins: np.ndarray, counts: np.ndarray, n: int) -> Design:
    # Scaling by the power of two above n is exact, so the value at
    # theta = 0 comes out exactly 1, and keeps the weights' sum below 1,
    # so terms clamped at exp(LINEAR_FORM_LIMIT) cannot overflow it.
    scale = 0.5 ** math.frexp(n)[1]
    return Design(spins, counts * scale, n * scale)


def tally_design(samples: SampleSet) -> Design:
    """The sample set's tally as a design: each distinct configuration
    up to the global flip, spin 0 at +1, with its count."""
    tally = samples.tally
    if tally.codes is None:
        spins = np.ascontiguousarray(tally.configs.T)
    else:
        spins = np.ones((samples.p, tally.codes.size), dtype=np.int8)
        for i in range(1, samples.p):
            spins[i] = ((tally.codes >> (i - 1)) & 1) * 2 - 1
    return _design(spins, tally.counts.astype(np.float64), samples.n)


def view_design(view: NodeView) -> Design:
    """One view as a design whose vertex 0 is the focal vertex: the
    configurations are [1 | basis], since a product row is the
    configuration multiplied by sigma_u, so row 0 of Theta is the view's
    coupling vector. The view's weights are counts / n, so rounding
    weights * n gives the counts back."""
    spins = np.ones((view.others.size + 1, view.basis.shape[0]), dtype=np.int8)
    spins[1:] = view.basis.T
    return _design(spins, np.rint(view.weights * view.n), view.n)


def evaluate_rows(design: Design, rows: np.ndarray, theta: np.ndarray,
                  gradient: bool = True):
    """Losses of the focal vertices rows[i] at the coupling rows
    theta[i] (len(rows) x p, zero at each focal vertex), in one pass
    over the design in blocks of configurations.

    Returns (values, gradients, saturated): gradients is None unless
    asked for, and its focal entries are 0; saturated[i] tells whether
    row i's linear forms hit the clamp.
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
        e *= weights[lo:lo + block]
        # Along the contiguous axis numpy sums pairwise, which keeps the
        # rounding far below the solver's 1e-15 slack.
        values = values + e.sum(axis=1)
        if gradient:
            e *= focal
            grads = grads + e @ c.T
    values /= total
    if not gradient:
        return values, None, saturated
    grads /= -total
    grads[np.arange(len(rows)), rows] = 0.0
    return values, grads, saturated


class Evaluation(NamedTuple):
    value: float
    gradient: np.ndarray
    saturated: bool


def _check_theta(view: NodeView, theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=np.float64)
    if arr.shape != (view.others.size,):
        raise InputError(
            f"theta has shape {arr.shape}, expected ({view.others.size},)"
        )
    return arr


def _clamped_forms(view: NodeView, theta: np.ndarray):
    z = view.basis @ theta
    saturated = bool(z.size) and bool(np.max(np.abs(z)) > LINEAR_FORM_LIMIT)
    if saturated:
        z = np.clip(z, -LINEAR_FORM_LIMIT, LINEAR_FORM_LIMIT)
    return z, saturated


def evaluate(view: NodeView, theta) -> Evaluation:
    """Loss value and gradient in one pass (they share the exp weights)."""
    theta = _check_theta(view, theta)
    z, saturated = _clamped_forms(view, theta)
    w = view.weights * np.exp(-z)
    value = float(np.sum(w, dtype=np.longdouble))
    gradient = -(w @ view.basis)
    return Evaluation(value, gradient, saturated)


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
    w_k exp(-z*_k) kernel(dz_k); every term is nonnegative, so the
    result is too, and small deltas do not cancel."""
    theta_star = _check_theta(view, theta_star)
    delta = _check_theta(view, delta)
    z_star, _ = _clamped_forms(view, theta_star)
    dz = view.basis @ delta
    terms = view.weights * np.exp(-z_star) * remainder_kernel(dz)
    return float(np.sum(terms, dtype=np.longdouble))
