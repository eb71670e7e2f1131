"""Configuration sampling and sample-set I/O.

Two samplers are provided: exact inverse-CDF sampling over the
enumerated distribution (p <= ENUMERATION_LIMIT) and a single-site
heat-bath Glauber chain for larger graphs. Both are deterministic
given a seed; all randomness comes from numpy's PCG64 generator
(RNG_ALGORITHM below names it for output metadata).

Sample sets travel either as text ("p n" header then one row of
+1/-1 tokens per sample) or as a packed binary stream (magic "ISNG",
little-endian u32 p and u64 n, then row-major bits, bit value 1
meaning spin +1, LSB-first within each byte).
"""

from __future__ import annotations

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

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap if not (args and callable(args[0])) else args[0]


class ConfigurationTally(NamedTuple):
    """The distinct configurations of a sample set up to the global spin
    flip, each taken with spin 0 at +1, and how often each occurs.

    For p <= 64 the configurations are int64 codes, ascending, with bit
    i-1 set iff spin i is +1 (spin 0 is implied), and configs is None.
    Above that, configs holds them as distinct int8 rows and codes is
    None. counts aligns with whichever is present.
    """

    codes: np.ndarray | None
    configs: np.ndarray | None
    counts: np.ndarray


def tally_configurations(data: np.ndarray) -> ConfigurationTally:
    """Count the distinct rows of an n x p -1/+1 matrix up to the global
    flip, without materializing anything wider than one code per row
    for p <= 64."""
    p = data.shape[1]
    if p <= 64:
        codes = np.zeros(data.shape[0], dtype=np.int64)
        for i in range(1, p):
            codes |= (data[:, i] == data[:, 0]).astype(np.int64) << (i - 1)
        if p - 1 <= 20:
            full = np.bincount(codes, minlength=1 << (p - 1))
            codes = np.flatnonzero(full)
            counts = full[codes]
        else:
            codes, counts = np.unique(codes, return_counts=True)
        return ConfigurationTally(codes, None, counts)
    configs, counts = np.unique(data * data[:, :1], axis=0,
                                return_counts=True)
    return ConfigurationTally(None, configs, counts)


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
    def tally(self) -> ConfigurationTally:
        """Distinct configurations up to the global flip, with counts;
        every node view of this sample set is read from it."""
        return tally_configurations(self.data)


@dataclass
class GlauberConfig:
    """Chain controls: warm-up sweeps, sweeps between recorded samples,
    and the seed for the uniform stream (one uniform per site update,
    consumed sweep-major, site-minor, after the initial state draw)."""

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


def _adjacency_csr(model: IsingModel):
    rows = [[] for _ in range(model.p)]
    for (i, j), theta in model.couplings.items():
        rows[i].append((j, theta))
        rows[j].append((i, theta))
    indptr = np.zeros(model.p + 1, dtype=np.int64)
    indices = []
    thetas = []
    for i, row in enumerate(rows):
        row.sort()
        indptr[i + 1] = indptr[i] + len(row)
        indices.extend(v for v, _ in row)
        thetas.extend(t for _, t in row)
    return indptr, np.asarray(indices, dtype=np.int64), np.asarray(thetas)


def _glauber_chunk_py(spins, indptr, indices, thetas, uniforms, out,
                      sweep_offset, burn_in, thin, cursor):
    p = spins.shape[0]
    for s in range(uniforms.shape[0]):
        for i in range(p):
            h = 0.0
            for t in range(indptr[i], indptr[i + 1]):
                h += thetas[t] * spins[indices[t]]
            prob_up = 1.0 / (1.0 + np.exp(-2.0 * h))
            spins[i] = 1 if uniforms[s, i] < prob_up else -1
        done = sweep_offset + s + 1
        if done > burn_in and (done - burn_in) % thin == 0 and cursor < out.shape[0]:
            out[cursor] = spins
            cursor += 1
    return cursor


if _HAVE_NUMBA:
    _glauber_chunk = njit(cache=True)(_glauber_chunk_py)
else:  # pragma: no cover
    _glauber_chunk = _glauber_chunk_py


def sample_glauber(model: IsingModel, n: int, config: GlauberConfig) -> SampleSet:
    """Run one heat-bath chain (sequential site order 0..p-1 within a
    sweep, flip law logistic in 2 * sum_j theta_ij sigma_j) and record a
    sample every thinning_sweeps sweeps after the warm-up."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    p = model.p
    rng = np.random.default_rng(config.seed)
    spins = (rng.integers(0, 2, size=p) * 2 - 1).astype(np.int8)
    indptr, indices, thetas = _adjacency_csr(model)
    total = config.burn_in_sweeps + n * config.thinning_sweeps
    out = np.empty((n, p), dtype=np.int8)
    cursor = 0
    done = 0
    chunk = max(1, (1 << 18) // p)
    while done < total:
        k = min(chunk, total - done)
        uniforms = rng.random((k, p))
        cursor = _glauber_chunk(spins, indptr, indices, thetas, uniforms, out,
                                done, config.burn_in_sweeps,
                                config.thinning_sweeps, cursor)
        done += k
    return SampleSet(p, n, out)


def empirical_covariance(samples: SampleSet, exclude: int) -> np.ndarray:
    """Empirical second-moment matrix (1/n) sum_k sigma_i sigma_j over
    the vertices != exclude. Symmetric, unit diagonal, entries in
    [-1, 1]."""
    if not 0 <= exclude < samples.p:
        raise InputError(f"vertex {exclude} out of range for p={samples.p}")
    others = np.delete(np.arange(samples.p), exclude)
    k = others.size
    acc = np.zeros((k, k))
    step = max(1, (1 << 22) // max(k, 1))
    for start in range(0, samples.n, step):
        block = samples.data[start:start + step][:, others].astype(np.float64)
        acc += block.T @ block
    return acc / samples.n


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
