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
their counts, ascending by configuration index for p <= 64 and by their
words, word 0 first, above (tally_configurations gives the layout). An
exact draw keeps its uniforms, counts its tally from them against the
CDF its model keeps and decodes its rows only when data is first read.
Designs built from weights over configuration indices (multinomial
counts, exact probabilities) have the same form, so every loss and
second moment reads one kind of data.

Sample sets travel either as text ("p n" header then one row of
+1/-1 tokens per sample) or as a packed binary stream (magic "ISNG",
little-endian u32 p and u64 n, then row-major bits, bit value 1
meaning spin +1, LSB-first within each byte), so a packed row is its
configuration index. A set read with p <= 57 keeps its packed rows and
is tallied from their indices; it and an exact draw write their files
from their rows' indices, never decoding data.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, InputError
from .model import IsingModel, configurations_from_indices

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
    their weights: tally words, multinomial counts or exact
    probabilities over the 2^p indices."""
    spins = np.ascontiguousarray(configurations_from_indices(indices, p).T)
    return _design(spins, weights, total)


def tally_configurations(data: np.ndarray) -> Design:
    """The distinct rows of an n x p -1/+1 matrix up to the global flip,
    each taken with spin 0 at +1, weighted by their counts. The rows are
    packed at once into words, spin i in bit i % 64 of word i // 64 (for
    p <= 64 one word, the configuration index), and the columns ascend
    by index for p <= 64 and by their words, word 0 first, above."""
    n, p = data.shape
    words = np.zeros((n, -(-p // 64) * 8), dtype=np.uint8)
    words[:, :-(-p // 8)] = np.packbits(data > 0, axis=1, bitorder="little")
    return _tally_words(words.view("<u8"), p)


def _tally_words(words: np.ndarray, p: int) -> Design:
    """tally_configurations of n rows given as n x W words, bits past p
    clear; the words are flipped in place."""
    # Rows with spin 0 at -1 are flipped: XOR with the p-bit mask.
    mask = np.full(words.shape[1], ~np.uint64(0))
    mask[-1] >>= np.uint64(-p % 64)
    words ^= ((words[:, :1] & 1) - 1) & mask
    if p - 1 <= 20:
        full = np.bincount(words[:, 0].view(np.int64), minlength=1 << p)
        distinct = np.flatnonzero(full)
        counts = full[distinct]
    elif words.shape[1] == 1:
        distinct, counts = np.unique(words[:, 0], return_counts=True)
    else:
        # As big-endian bytes a row sorts by its words, word 0 first.
        w = words.shape[1]
        rows = words.astype(">u8").view(f"V{8 * w}")[:, 0]
        distinct, counts = np.unique(rows, return_counts=True)
        distinct = distinct.view(">u8").reshape(-1, w).astype(np.uint64)
    return _indexed_design(distinct, counts, p, words.shape[0])


def _drawn_tally(cdf: np.ndarray, u: np.ndarray, p: int) -> Design:
    """tally_configurations of the rows sample_exact decodes, without
    decoding them: index k takes the uniforms in [cdf[k-1], cdf[k]),
    and each odd index k is folded with its flip 2^p - 1 - k."""
    counts = np.diff(np.searchsorted(np.sort(u), cdf), prepend=0)
    folded = counts[1::2] + counts[-2::-2]
    codes = np.flatnonzero(folded)
    return _indexed_design(codes.astype(np.uint64) * 2 + 1, folded[codes],
                           p, u.size)


_WORD_LIMIT = 57


def _row_words(packed: np.ndarray, p: int, n: int) -> np.ndarray:
    """The n rows of a packed payload as uint64 configuration indices:
    the p bits from stream bit k p on have bit i set iff spin i is +1.
    Eight rows fill exactly p bytes, so row j of each group of eight
    starts at byte j p // 8 of the group, bit j p % 8, and for
    p <= _WORD_LIMIT the 8 bytes from there hold it."""
    groups = -(-n // 8)
    buf = np.zeros(groups * p + 8, dtype=np.uint8)
    buf[:packed.size] = packed
    words = np.empty(groups * 8, dtype=np.uint64)
    for j in range(8):
        at = np.ndarray(groups, "<u8", buf, j * p // 8, (p,))
        words[j::8] = at >> (j * p % 8)
    return words[:n] & ((1 << p) - 1)


def _pack_words(words: np.ndarray, p: int) -> np.ndarray:
    """The packed payload of rows given as configuration indices, with
    zero padding: the inverse of _row_words. Each group of eight rows
    gets p bytes and 8 spare, so the word of its last row fits."""
    n = words.size
    out = np.zeros((-(-n // 8), p + 8), dtype=np.uint8)
    for j in range(8):
        row = words[j::8]
        at = np.ndarray(row.size, "<u8", out, j * p // 8, (p + 8,))
        at |= row << (j * p % 8)
    return out[:, :p].reshape(-1)[:(n * p + 7) // 8]


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
    Treat instances as immutable: tally is computed once and kept. A set
    drawn by sample_exact (holding the CDF and its uniforms) or read from
    a binary file with p <= 57 (holding its packed rows) is tallied and
    written without decoding its rows, and decodes data on first access."""

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

    def __getattr__(self, name):
        # Reached only while data is unset, that is on a drawn or read set.
        if name != "data" or not self.__dict__.keys() & {"_draw", "_packed"}:
            raise AttributeError(name)
        self.data = configurations_from_indices(self._words(), self.p)
        return self.data

    def _words(self) -> np.ndarray:
        """The rows of a drawn or read set as configuration indices."""
        if "_draw" in self.__dict__:
            cdf, u = self._draw
            return np.searchsorted(cdf, u, side="right").astype(np.uint64)
        return _row_words(self._packed, self.p, self.n)

    @cached_property
    def tally(self) -> Design:
        """Distinct configurations up to the global flip, with counts;
        every loss and moment of this sample set reads it."""
        if "_draw" in self.__dict__:
            return _drawn_tally(*self._draw, self.p)
        if "_packed" in self.__dict__:
            return _tally_words(self._words()[:, None], self.p)
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


def _check_memory(nbytes: int, what: str):
    """Refuse a draw whose arrays would not fit in physical memory,
    before any of them is allocated."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # not reported on this platform
    if physical > 0 and nbytes > physical:
        raise CapabilityError(f"{what} need {nbytes} bytes, more than the "
                              f"{physical} bytes of physical memory")


def sample_exact(model: IsingModel, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. configurations by inverse-CDF lookup on the full
    enumerated distribution, through the CDF the model keeps."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    # The rows, once decoded, and the uniforms.
    _check_memory(n * (model.p + 8), f"{n} exact samples of p={model.p}")
    samples = SampleSet.__new__(SampleSet)
    samples.p, samples.n = model.p, n
    samples._draw = (model._cdf, np.random.default_rng(seed).random(n))
    return samples


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
    # The samples, then the chain's state, initial spins and site order.
    _check_memory(n * p + 32 * p, f"{n} Glauber samples of p={p}")
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
    p = samples.p
    with open(path, "wb") as fh:
        fh.write(f"{p} {samples.n}\n".encode("ascii"))
        # 2^16 rows a chunk keep memory flat; each spin takes three bytes.
        for lo in range(0, samples.n, 1 << 16):
            rows = samples.data[lo:lo + (1 << 16)]
            text = np.empty((rows.shape[0], p, 3), dtype=np.uint8)
            text[:, :, 0] = ord(",") - rows  # "+" for +1, "-" for -1
            text[:, :, 1] = ord("1")
            text[:, :, 2] = ord(" ")
            text[:, -1, 2] = ord("\n")
            fh.write(text)


# str.split()'s whitespace among the ASCII characters.
_BLANK = np.zeros(256, dtype=bool)
_BLANK[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True

# Tokens in each numpy pass of _parse_rows, for rows of p tokens.
_TEXT_ENTRIES = 1 << 18


def _parse_rows(chars, ends, p: int, n: int) -> np.ndarray:
    """The first n lines of chars (ASCII codes, with "\n" at ends) as
    n rows of p spins, a block of rows per numpy pass. Lines split on
    whitespace and tokens read as int() reads them ("+1", "-1" and "1"
    in bulk, any other through int()); the first bad row raises with
    its first failing check: token count, integer, +/-1."""
    # Row k is chars[bounds[k] + 1:bounds[k + 1]]; rows past the last
    # line are empty.
    bounds = np.r_[-1, ends[:n], np.full(max(0, n - ends.size), chars.size)]
    data = np.empty((n, p), dtype=np.int8)
    block = max(1, _TEXT_ENTRIES // p)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        seg = chars[bounds[lo] + 1:bounds[hi]]
        edges = np.flatnonzero(np.diff(~_BLANK[seg], prepend=False,
                                       append=False))
        first, stop = edges[::2], edges[1::2]
        row = np.searchsorted(bounds[lo + 1:hi + 1] - bounds[lo] - 1, first)
        sign, size = seg[first], stop - first
        plain = (seg[stop - 1] == ord("1")) & (
            (size == 1) | (size == 2) & ((sign == ord("+"))
                                         | (sign == ord("-"))))
        # Per row: a wrong token count, a non-integer token, an integer
        # other than +/-1.
        faults = np.zeros((3, hi - lo), dtype=bool)
        faults[0] = np.bincount(row, minlength=hi - lo) != p
        for t in np.flatnonzero(~plain):
            try:
                value = int(seg[first[t]:stop[t]].tobytes())
            except ValueError:
                faults[1, row[t]] = True
            else:
                faults[2, row[t]] |= abs(value) != 1
        if faults.any():
            k = int(np.argmax(faults.any(axis=0)))
            raise InputError(f"sample row {lo + k} " + [
                f"has {np.sum(row == k)} tokens, expected {p}",
                "has a non-integer token",
                "has entries other than -1/+1"][np.argmax(faults[:, k])])
        data[lo:hi] = np.where(sign == ord("-"), -1, 1).reshape(hi - lo, p)
    return data


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
        # Text mode has turned every line end into "\n".
        chars = np.frombuffer(fh.read().encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(chars == ord("\n"))
    data = _parse_rows(chars, ends, p, n)
    if ends.size >= n and not _BLANK[chars[ends[n - 1]:]].all():
        raise InputError(f"sample text has rows after the {n} its header declares")
    return SampleSet(p, n, data)


def write_samples_binary(samples: SampleSet, path):
    if "data" in vars(samples):
        packed = np.packbits(samples.data.reshape(-1) > 0, bitorder="little")
    else:
        packed = _pack_words(samples._words(), samples.p)
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
    if n < 1 or p < 1:
        raise InputError("need n >= 1 and p >= 1")
    packed = np.frombuffer(payload, dtype=np.uint8)
    if p > _WORD_LIMIT:
        bits = np.unpackbits(packed, count=n * p, bitorder="little")
        return SampleSet(p, n, (bits.astype(np.int8) * 2 - 1).reshape(n, p))
    samples = SampleSet.__new__(SampleSet)
    samples.p, samples.n, samples._packed = p, n, packed
    return samples
