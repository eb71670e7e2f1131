"""Configuration sampling and sample-set I/O.

Two samplers are provided: exact inverse-CDF sampling over the
enumerated distribution (p <= ENUMERATION_LIMIT) and a heat-bath
Glauber chain for larger graphs. The chain updates one colour class of
a greedy colouring at a time, in one numpy step; sites of a class share
no edge, so this is exactly the single-site scan taken class by class
(chromatic Gibbs sampling, Gonzalez et al. 2011). Both are
deterministic given a seed; all randomness comes from numpy's PCG64
generator (RNG_ALGORITHM below names it for output metadata).

A sample set holds its rows as configuration words, spin i in bit
i % 64 of word i // 64 (for p <= 64 one word, the configuration
index); each source builds them once: an exact draw by a guide-table
lookup of _DRAW_CHUNK uniforms at a time (those in cut buckets searched
in ascending order) and a binary file straight from its payload, up to
2^22 bits at a time, each beside the words, and rows by packing. It is
read through its tally (SampleSet.tally): a Design, the distinct
configurations up to the global flip as int8 columns with their counts,
ascending by configuration index for p <= 64 and by their words, word
0 first, above. Designs built from weights over configuration indices
(multinomial counts, exact probabilities) have the same form, so every
loss and second moment reads one kind of data.

Sample sets travel either as text ("p n" header then one row of
+1/-1 tokens per sample) or as a packed binary stream (magic "ISNG",
little-endian u32 p and u64 n, then row-major bits, bit value 1
meaning spin +1, LSB-first within each byte): row k's spin i is
stream bit k p + i. Binary files are read and written from the words,
a chunk at a time, never decoding rows.
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

# Rows in one pass of file I/O (at most) and of a draw: a draw's chunk
# stays in a 2 MB L2 cache beside a p = 16 model's 1 MB guide table.
_CHUNK, _DRAW_CHUNK = 1 << 16, 1 << 14


def _io_chunks(words: np.ndarray, bits: int) -> list[np.ndarray]:
    """words cut into I/O chunks of rows of the given bits, at most _CHUNK
    rows and 2^22 bits each; all but the last pack to whole bytes."""
    chunk = min(_CHUNK, max(8, (1 << 22) // bits)) & -8
    return np.split(words, range(chunk, len(words), chunk))


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


def _tally_words(words: np.ndarray, p: int) -> Design:
    """The distinct rows of n x W configuration words up to the global
    flip, each taken with spin 0 at +1, weighted by their counts; the
    columns ascend by index for p <= 64 and by their words, word 0
    first, above."""
    if _dense(words.shape[0], p):
        return _tally_indices(words[:, 0].view(np.int64), p)
    # Rows with spin 0 at -1 are flipped: XOR with the p-bit mask.
    mask = np.full(words.shape[1], ~np.uint64(0))
    mask[-1] >>= np.uint64(-p % 64)
    words = words ^ (((words[:, :1] & 1) - 1) & mask)
    if words.shape[1] == 1:
        distinct, counts = np.unique(words[:, 0], return_counts=True)
    else:
        # As big-endian bytes a row sorts by its words, word 0 first.
        w = words.shape[1]
        rows = words.astype(">u8").view(f"V{8 * w}")[:, 0]
        distinct, counts = np.unique(rows, return_counts=True)
        distinct = distinct.view(">u8").reshape(-1, w).astype(np.uint64)
    return _indexed_design(distinct, counts, p, words.shape[0])


def _dense(n: int, p: int) -> bool:
    """Whether a tally of n rows bincounts the 2^p indices, not sorts:
    from n = 2^p / 4 on, where that is faster, up to 24 MB of counts."""
    return p <= 21 and 1 << p <= 4 * n


def _tally_indices(k: np.ndarray, p: int) -> Design:
    """_tally_words of the rows with configuration indices k, each
    counted with its flip 2^p - 1 - k at the odd one of the two."""
    full = np.bincount(k, minlength=1 << p)
    full = full[1::2] + full[-2::-2]
    odd = np.flatnonzero(full)
    return _indexed_design(odd.astype(np.uint64) * 2 + 1, full[odd], p, k.size)


def _row_words(buf: np.ndarray, p: int, out: np.ndarray):
    """Write the rows of a packed payload into out, r x W configuration
    words, r a multiple of 8: the p bits from stream bit k p on have bit
    i % 64 of word i // 64 set iff spin i is +1. Row j of each group of
    q = 8 / gcd(p, 8) rows starts at byte j p // 8 of the group, bit
    s = j p % 8. Its word w is the 8 bytes from 8 w further on, shifted
    down by s, with the low s bits of the ninth byte on top where the
    row reaches them; buf holds 8 W bytes past the payload."""
    q = 8 // math.gcd(p, 8)
    groups, step = out.shape[0] // q, q * p // 8
    for j in range(q):
        at, s = j * p // 8, j * p % 8
        view = np.ndarray((groups, out.shape[1]), "<u8", buf, at, (step, 8))
        np.right_shift(view, s, out=out[j::q])
        if s and s + p > 64:
            ninth = np.ndarray(view.shape, np.uint8, buf, at + 8, (step, 8))
            out[j::q] |= ninth.astype(np.uint64) << (64 - s)
    out[:, -1] &= ~np.uint64(0) >> np.uint64(-p % 64)


def _pack_words(words: np.ndarray, p: int) -> np.ndarray:
    """The packed payload of n x W configuration words, with zero
    padding: the inverse of _row_words. Each group of eight rows gets p
    bytes and 8 spare, so the last word of its last row fits."""
    n, w = words.shape
    out = np.zeros((-(-n // 8), p + 8), dtype=np.uint8)
    for j in range(8):
        row, at, s = words[j::8], j * p // 8, j * p % 8
        low = np.ndarray(row.shape, "<u8", out, at, (p + 8, 8))
        low |= row << s
        if s and s + p > 64:
            ninth = np.ndarray(row.shape, np.uint8, out, at + 8, (p + 8, 8))
            ninth |= (row >> (64 - s)).astype(np.uint8)
    return out[:, :p].reshape(-1)[:(n * p + 7) // 8]


class SampleSet:
    """n configurations of p spins, held as words: n x W uint64
    configuration words, W = ceil(p / 64), spin i +1 iff bit i % 64 of
    word i // 64 is set, the bits past p clear. SampleSet(p, n, data)
    checks and packs n x p -1/+1 rows; draws and binary files build
    their words directly (_of_words). Treat instances as immutable: the
    tally and data (the int8 rows: decoded on first read, or the rows
    the set was built from) are computed once and kept."""

    def __init__(self, p: int, n: int, data):
        data = np.asarray(data, dtype=np.int8)
        if data.shape != (n, p):
            raise InputError(
                f"data shape {data.shape} does not match (n, p)=({n}, {p})")
        if n < 1 or p < 1:
            raise InputError("need n >= 1 and p >= 1")
        words = np.zeros((n, -(-p // 64) * 8), dtype=np.uint8)
        # 2^18 spins a pass keep the check's and packing's arrays small.
        block = max(1, (1 << 18) // p)
        for lo in range(0, n, block):
            rows = data[lo:lo + block]
            if not np.all(np.abs(rows) == 1):
                raise InputError("sample entries must be -1 or +1")
            words[lo:lo + block, :-(-p // 8)] = np.packbits(
                rows > 0, axis=1, bitorder="little")
        self.p, self.n, self.words, self.data = p, n, words.view("<u8"), data

    @classmethod
    def _of_words(cls, p: int, words: np.ndarray) -> SampleSet:
        """The set of n x W words, bits past p clear, kept as given."""
        samples = cls.__new__(cls)
        samples.p, samples.n, samples.words = p, words.shape[0], words
        return samples

    @cached_property
    def data(self) -> np.ndarray:
        """The rows as an n x p int8 array of -1/+1."""
        return configurations_from_indices(self.words, self.p)

    @cached_property
    def tally(self) -> Design:
        """Distinct configurations up to the global flip, with counts;
        every loss and moment of this sample set reads it."""
        return _tally_words(self.words, self.p)


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
    """Refuse a draw whose arrays exceed physical memory, before allocating them."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # not reported on this platform
    if physical > 0 and nbytes > physical:
        raise CapabilityError(f"{what} need {nbytes} bytes, more than the "
                              f"{physical} bytes of physical memory")


def sample_exact(model: IsingModel, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. configurations by inverse-CDF lookup on the full
    enumerated distribution, through the model's CDF and guide table."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    # It holds its words and rows (8 + p bytes a row) and one chunk's
    # lookup (36 a row, all searched). Its tally bincounts (12 bytes a
    # configuration) or flips and sorts (17 a row), then decodes each
    # distinct row twice beside its word and count (24 + 2 p).
    p = model.p
    _check_memory(n * (8 + p) + 36 * min(n, _DRAW_CHUNK)
                  + (24 + 2 * p) * min(n, 1 << (p - 1))
                  + (12 << p if _dense(n, p) else 17 * n),
                  f"{n} exact samples of p={p}")
    # One generator's chunks of uniforms are the stream of one call.
    rng, words = np.random.default_rng(seed), np.empty((n, 1), np.uint64)
    for lo in range(0, n, _DRAW_CHUNK):
        u = rng.random(min(_DRAW_CHUNK, n - lo))
        words[lo:lo + u.size, 0] = _lookup(model._cdf, model._guide, u)
    return SampleSet._of_words(p, words)


def _lookup(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") as int32 configuration
    indices, through the guide table: searched only in cut buckets."""
    indices = guide.take((u * guide.size).astype(np.intp))
    cut = np.flatnonzero(indices < 0)
    # numpy starts each of ascending searches at the last one's answer.
    cut = cut[np.argsort(u[cut])]
    indices[cut] = np.searchsorted(cdf, u[cut], side="right")
    return indices


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
    # The rows and words, the chain's state, spins and site order, and 4
    # arrays of a chunk's 2^15 uniforms (or one row), for logits or packing.
    _check_memory(n * (p + 8 * -(-p // 64)) + 32 * (p + max(p, 1 << 15)),
                  f"{n} Glauber samples of p={p}")
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
            logits = np.log(u)
            logits -= np.log1p(np.negative(u, out=u), out=u)
        logits = logits[:, order]
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
        del u, logits, blocks, logit  # before the next chunk's, the words
    return SampleSet(p, n, out)


def write_samples_text(samples: SampleSet, path):
    p = samples.p
    with open(path, "wb") as fh:
        fh.write(f"{p} {samples.n}\n".encode("ascii"))
        # Each spin takes a decoded byte and three of text.
        for words in _io_chunks(samples.words, 32 * p):
            rows = configurations_from_indices(words, p)
            text = np.empty((rows.shape[0], p, 3), dtype=np.uint8)
            text[:, :, 0] = ord(",") - rows  # "+" for +1, "-" for -1
            text[:, :, 1] = ord("1")
            text[:, :, 2] = ord(" ")
            text[:, -1, 2] = ord("\n")
            fh.write(text)


# str.split()'s whitespace among the ASCII characters.
_BLANK = np.zeros(256, dtype=bool)
_BLANK[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True

# Tokens in each numpy pass of _parse_rows, for rows of p tokens, and
# bytes in each pass of the line-end search: about 2 MB of temporaries.
_TEXT_ENTRIES = 1 << 15


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
        # Row j's tokens start between ends_in[j] and ends_in[j + 1].
        ends_in = bounds[lo:hi + 1] - bounds[lo] - 1
        tokens = np.diff(np.searchsorted(first, ends_in))
        sign, size = seg[first], stop - first
        plain = (seg[stop - 1] == ord("1")) & (
            (size == 1) | (size == 2) & ((sign == ord("+"))
                                         | (sign == ord("-"))))
        # Per row: a wrong token count, a non-integer token, an integer
        # other than +/-1.
        faults = np.vstack([tokens != p, np.zeros((2, hi - lo), dtype=bool)])
        for t in np.flatnonzero(~plain):
            j = np.searchsorted(ends_in, first[t]) - 1
            try:
                faults[2, j] |= abs(int(seg[first[t]:stop[t]].tobytes())) != 1
            except ValueError:
                faults[1, j] = True
        if faults.any():
            k = int(np.argmax(faults.any(axis=0)))
            raise InputError(f"sample row {lo + k} " + [
                f"has {tokens[k]} tokens, expected {p}",
                "has a non-integer token",
                "has entries other than -1/+1"][np.argmax(faults[:, k])])
        data[lo:hi] = np.where(sign == ord("-"), -1, 1).reshape(hi - lo, p)
    return data


def read_samples_text(path) -> SampleSet:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        raise InputError("sample text is not ASCII")
    size, chars = len(raw), np.frombuffer(raw, dtype=np.uint8)
    # Text mode's line ends: each "\n", and each CR not before one.
    ends = np.concatenate([lo + np.flatnonzero((seg == 10) | (seg == 13))
                           for lo in range(0, size, _TEXT_ENTRIES)
                           for seg in [chars[lo:lo + _TEXT_ENTRIES]]]
                          or [np.empty(0, dtype=np.intp)])
    lone = chars[np.minimum(ends + 1, size - 1)] != 10
    ends = ends[(chars[ends] == 10) | lone]
    start = int(ends[0]) + 1 if ends.size else size
    header = raw[:start].decode("ascii").split()
    if len(header) != 2:
        raise InputError("sample text header must be 'p n'")
    try:
        p, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InputError("sample text header must be 'p n'") from exc
    if p < 1 or n < 1:
        raise InputError(f"sample text header needs p >= 1 and n >= 1, "
                         f"got p={p}, n={n}")
    # The shortest row is p one-character tokens ("1"), each followed by
    # a separator or the newline, which the last row may omit.
    if size - start < 2 * p * n - 1:
        raise InputError(f"sample text header declares {n} rows of {p} "
                         f"spins, but only {size - start} bytes follow it")
    chars, ends = chars[start:], ends[1:] - start
    data = _parse_rows(chars, ends, p, n)
    if ends.size >= n and not _BLANK[chars[ends[n - 1]:]].all():
        raise InputError(f"sample text has rows after the {n} its header declares")
    del raw, chars  # the file goes before the words are packed
    return SampleSet(p, n, data)


def write_samples_binary(samples: SampleSet, path):
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<IQ", samples.p, samples.n))
        for rows in _io_chunks(samples.words, samples.p):
            fh.write(_pack_words(rows, samples.p).tobytes())


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
        size = os.fstat(fh.fileno()).st_size - 16
        if size != expected:
            raise InputError(
                f"sample binary payload has {size} bytes, expected {expected}")
        if n < 1 or p < 1:
            raise InputError("need n >= 1 and p >= 1")
        # Whole groups of 8 rows, so every chunk decodes whole bytes.
        words = np.empty((-(-n // 8) * 8, -(-p // 64)), dtype=np.uint64)
        chunks = _io_chunks(words, p)
        buf = np.zeros(len(chunks[0]) * p // 8 + 8 * words.shape[1],
                       dtype=np.uint8)
        for rows in chunks:
            fh.readinto(buf[:len(rows) * p // 8])
            _row_words(buf, p, rows)
    return SampleSet._of_words(p, words[:n])
