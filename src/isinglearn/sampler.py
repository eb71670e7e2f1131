"""Configuration sampling and sample-set I/O.

Two samplers are provided: exact inverse-CDF sampling over the
enumerated distribution (p <= ENUMERATION_LIMIT) and a heat-bath
Glauber chain for larger graphs. The chain updates one colour class of
a greedy colouring at a time, in one numpy step; sites of a class share
no edge, so this is exactly the single-site scan taken class by class
(chromatic Gibbs sampling, Gonzalez et al. 2011). Both are
deterministic given a seed; all randomness comes from numpy's PCG64
generator (RNG_ALGORITHM below names it for output metadata).

A sample set is read through its tally (SampleSet.tally): a Design,
the distinct configurations up to the global flip as int8 columns with
their counts. Designs built from weights over configuration indices
(multinomial counts, exact probabilities) have the same form, so every
loss and second moment reads one kind of data.

Sample sets travel either as text ("p n" header then one row of
+1/-1 tokens per sample) or as a packed binary stream (magic "ISNG",
little-endian u32 p and u64 n, then row-major bits, bit value 1
meaning spin +1, LSB-first within each byte).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .model import IsingModel, configurations_from_indices, exact_distribution

RNG_ALGORITHM = "numpy-pcg64"

_MAGIC = b"ISNG"

class Design(NamedTuple):
    """Weighted configurations, the data every loss and moment reads:
    spins is p x m int8 (+/-1), one configuration per column; weights
    are their counts (or probabilities) scaled by a power of two, and
    total is the sample count (or 1) scaled the same way."""

    spins: np.ndarray
    weights: np.ndarray
    total: float


def _design(spins: np.ndarray, weights: np.ndarray, total: float) -> Design:
    # Scaling by the power of two above total is exact, so a loss at
    # theta = 0 comes out exactly 1, and keeps the weights' sum below 1,
    # so terms clamped at exp(LINEAR_FORM_LIMIT) cannot overflow it.
    scale = 0.5 ** math.frexp(total)[1]
    return Design(spins, weights * scale, total * scale)


def _indexed_design(indices, weights, p: int, total: float) -> Design:
    """The configurations with the given indices, one column each, with
    their weights: tally codes, multinomial counts or exact
    probabilities over the 2^p indices."""
    spins = np.ascontiguousarray(configurations_from_indices(indices, p).T)
    return _design(spins, weights, total)


def tally_configurations(data: np.ndarray) -> Design:
    """The distinct rows of an n x p -1/+1 matrix up to the global flip,
    each taken with spin 0 at +1 (ascending by index for p <= 64,
    lexicographically above), weighted by their counts. Up to p = 64
    nothing wider than one code per row is materialized."""
    n, p = data.shape
    if p > 64:
        configs, counts = np.unique(data * data[:, :1], axis=0,
                                    return_counts=True)
        return _design(np.ascontiguousarray(configs.T), counts, n)
    # Bit i-1 of a code is set iff spin i equals spin 0.
    codes = np.zeros(n, dtype=np.int64)
    for i in range(1, p):
        codes |= (data[:, i] == data[:, 0]).astype(np.int64) << (i - 1)
    if p - 1 <= 20:
        full = np.bincount(codes, minlength=1 << (p - 1))
        codes = np.flatnonzero(full)
        counts = full[codes]
    else:
        codes, counts = np.unique(codes, return_counts=True)
    # As an index, with spin 0 at +1 in bit 0.
    indices = (codes.astype(np.uint64) << np.uint64(1)) | np.uint64(1)
    return _indexed_design(indices, counts, p, n)


def _second_moments(designs, exclude: int) -> np.ndarray:
    """sum_k w_k sigma_i sigma_j / total over the vertices != exclude,
    added up over the designs. Integer weights sum exactly, so a
    tally's moments are the correctly rounded sample averages."""
    acc = 0.0
    for spins, weights, total in designs:
        others = np.delete(spins, exclude, axis=0)
        part = 0.0
        step = max(1, (1 << 22) // max(others.shape[0], 1))
        for lo in range(0, others.shape[1], step):
            block = others[:, lo:lo + step].astype(np.float64)
            part = part + (block * weights[lo:lo + step]) @ block.T
        acc = acc + part / total
    return acc


@dataclass
class SampleSet:
    """n configurations of p spins, one row each, entries -1/+1 (int8).
    Treat instances as immutable: tally is computed once and kept."""

    p: int
    n: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int8)
        if self.data.shape != (self.n, self.p):
            raise InputError(
                f"data shape {self.data.shape} does not match (n, p)=({self.n}, {self.p})"
            )
        if self.n < 1 or self.p < 1:
            raise InputError("need n >= 1 and p >= 1")
        if not np.all(np.abs(self.data) == 1):
            raise InputError("sample entries must be -1 or +1")

    @cached_property
    def tally(self) -> Design:
        """Distinct configurations up to the global flip, with counts;
        every loss and moment of this sample set reads it."""
        return tally_configurations(self.data)


@dataclass
class GlauberConfig:
    """Chain controls: warm-up sweeps, sweeps between recorded samples,
    and the seed. Its stream gives the initial state, then one uniform
    per (sweep, site), sweep-major: uniform (s, i) drives site i in
    sweep s, wherever the class order visits i."""

    seed: int
    burn_in_sweeps: int = 1000
    thinning_sweeps: int = 10

    def __post_init__(self):
        if self.burn_in_sweeps < 0:
            raise InputError("burn_in_sweeps must be >= 0")
        if self.thinning_sweeps < 1:
            raise InputError("thinning_sweeps must be >= 1")


def sample_exact(model: IsingModel, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. configurations by inverse-CDF lookup on the full
    enumerated distribution."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    probs = exact_distribution(model)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="right")
    data = configurations_from_indices(idx, model.p)
    return SampleSet(model.p, n, data)


def _colour_classes(model: IsingModel) -> list[np.ndarray]:
    """Greedy proper colouring: each vertex, in order 0..p-1, takes the
    smallest colour that none of its lower-numbered neighbours holds.
    Returns the vertices of each colour class, ascending."""
    lower = [[] for _ in range(model.p)]
    for i, j in model.couplings:
        lower[j].append(i)
    colour = []
    for i in range(model.p):
        taken = {colour[j] for j in lower[i]}
        c = 0
        while c in taken:
            c += 1
        colour.append(c)
    colour = np.asarray(colour)
    return [np.flatnonzero(colour == c) for c in range(colour.max() + 1)]


def sample_glauber(model: IsingModel, n: int, config: GlauberConfig) -> SampleSet:
    """Run one heat-bath chain and record a sample every thinning_sweeps
    sweeps after the warm-up. A sweep updates the classes of
    _colour_classes in order, one step each: site i goes up iff
    2 h_i - logit(u) >= 0 for its uniform u, h_i = sum_j theta_ij sigma_j,
    that is with probability 1 / (1 + exp(-2 h_i))."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    p = model.p
    rng = np.random.default_rng(config.seed)
    spins = rng.integers(0, 2, size=p) * 2 - 1
    classes = _colour_classes(model)
    # Spins are held class by class, so each class is a slice written in
    # place: order[k] is the site at place k, at[i] the place of site i.
    order = np.concatenate(classes)
    at = np.argsort(order)
    state = spins[order].astype(np.float64)
    nbrs = [[] for _ in range(p)]
    for (i, j), theta in sorted(model.couplings.items()):
        nbrs[i].append((at[j], 2.0 * theta))
        nbrs[j].append((at[i], 2.0 * theta))
    # Per class: its slice, its neighbours' places padded to the class's
    # largest degree, and 2 * theta on them (0 on the padding).
    steps, lo = [], 0
    for sites in classes:
        width = max(len(nbrs[i]) for i in sites)
        rows = [nbrs[i] + [(0, 0.0)] * (width - len(nbrs[i])) for i in sites]
        steps.append((slice(lo, lo + sites.size),
                      np.array([[j for j, _ in r] for r in rows], dtype=np.intp),
                      np.array([[w for _, w in r] for r in rows])))
        lo += sites.size
    burn_in, thin = config.burn_in_sweeps, config.thinning_sweeps
    total = burn_in + n * thin
    out = np.empty((n, p), dtype=np.int8)
    # 2^15 uniforms a chunk: more would raise the peak memory, not speed.
    chunk = max(1, (1 << 15) // p)
    for start in range(0, total, chunk):
        u = rng.random((min(chunk, total - start), p))
        with np.errstate(divide="ignore"):  # logit(0) = -inf
            logits = (np.log(u) - np.log1p(-u))[:, order]
        # copysign never gives 0 (np.sign would, at a tie), and takes an
        # array of ones faster than the scalar 1.
        blocks = [(state[c], where, weight, logits[:, c],
                   np.ones(c.stop - c.start)) for c, where, weight in steps]
        for s in range(len(u)):
            for view, where, weight, logit, one in blocks:
                np.copysign(one, np.vecdot(weight, state[where]) - logit[s],
                            out=view)
            after = start + s + 1 - burn_in
            if after > 0 and after % thin == 0:
                out[after // thin - 1] = state[at]
    return SampleSet(p, n, out)


def empirical_covariance(samples: SampleSet, exclude: int) -> np.ndarray:
    """Empirical second-moment matrix (1/n) sum_k sigma_i sigma_j over
    the vertices != exclude, read off the tally. Symmetric, unit
    diagonal, entries in [-1, 1]."""
    if not 0 <= exclude < samples.p:
        raise InputError(f"vertex {exclude} out of range for p={samples.p}")
    return _second_moments([samples.tally], exclude)


def write_samples_text(samples: SampleSet, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{samples.p} {samples.n}\n")
        for row in samples.data:
            fh.write(" ".join("+1" if s > 0 else "-1" for s in row))
            fh.write("\n")


def read_samples_text(path) -> SampleSet:
    try:
        return _read_samples_text(path)
    except UnicodeDecodeError as exc:
        raise InputError(f"sample text is not ASCII: {exc}") from exc


def _read_samples_text(path) -> SampleSet:
    with open(path, "r", encoding="ascii") as fh:
        header_line = fh.readline()
        header = header_line.split()
        if len(header) != 2:
            raise InputError("sample text header must be 'p n'")
        try:
            p, n = int(header[0]), int(header[1])
        except ValueError as exc:
            raise InputError("sample text header must be 'p n'") from exc
        if p < 1 or n < 1:
            raise InputError(f"sample text header needs p >= 1 and n >= 1, "
                             f"got p={p}, n={n}")
        # The shortest row is p one-character tokens ("1"), each followed
        # by a separator or the newline, which the last row may omit.
        body = os.fstat(fh.fileno()).st_size - len(header_line)
        if body < 2 * p * n - 1:
            raise InputError(f"sample text header declares {n} rows of {p} "
                             f"spins, but only {body} bytes follow it")
        data = np.empty((n, p), dtype=np.int8)
        for k in range(n):
            tokens = fh.readline().split()
            if len(tokens) != p:
                raise InputError(f"sample row {k} has {len(tokens)} tokens, expected {p}")
            try:
                row = [int(t) for t in tokens]
            except ValueError as exc:
                raise InputError(f"sample row {k} has a non-integer token") from exc
            if any(abs(v) != 1 for v in row):
                raise InputError(f"sample row {k} has entries other than -1/+1")
            data[k] = row
        if any(line.strip() for line in fh):
            raise InputError(f"sample text has rows after the {n} its header declares")
    return SampleSet(p, n, data)


def write_samples_binary(samples: SampleSet, path):
    bits = (samples.data.reshape(-1) > 0).astype(np.uint8)
    packed = np.packbits(bits, bitorder="little")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", samples.p, samples.n))
        fh.write(packed.tobytes())


def read_samples_binary(path) -> SampleSet:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise InputError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise InputError("truncated sample binary header")
        p, n = struct.unpack("<IQ", header)
        expected = (n * p + 7) // 8
        payload = fh.read()
        if len(payload) != expected:
            raise InputError(
                f"sample binary payload has {len(payload)} bytes, expected {expected}"
            )
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                         count=n * p, bitorder="little")
    data = (bits.astype(np.int8) * 2 - 1).reshape(n, p)
    return SampleSet(p, n, data)
