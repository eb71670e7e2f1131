"""Zero-field Ising models on sparse graphs.

A model on p spins assigns a coupling theta_ij to each edge of an
undirected graph on vertices 0..p-1; the probability of a configuration
sigma in {-1,+1}^p is proportional to exp(sum_{(i,j)} theta_ij sigma_i
sigma_j). Edges are stored canonically with i < j and a missing edge
means a zero coupling.

Graph facts and the Glauber chain read one adjacency (each vertex's
neighbours, ascending, with their couplings); exact quantities (partition
function, probabilities, the full distribution, the exact sampler's tables)
read one enumeration of all 2**p configurations. Each is made on first use
and kept, read only, on the model: a model is enumerated at most once, and
an equal model built afresh enumerates again. Enumeration is guarded by
ENUMERATION_LIMIT. Configuration index k encodes spins little-endian: spin i
of configuration k is +1 iff bit i of k is set.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapabilityError, InputError

ENUMERATION_LIMIT = 25

_ENUM_CHUNK = 1 << 20


def _integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not (
        isinstance(v, bool))


def _check_integer(v, name: str, least: int):
    if not _integer(v) or v < least:
        raise InputError(f"{name} must be an integer >= {least}, got {v!r}")


class _Couplings(dict):
    """A model's couplings: a dict that refuses writes, so the model's
    hash and cached adjacency cannot go stale."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a model's couplings are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = _refuse
    setdefault = update = _refuse

    def __reduce__(self):  # unpickling sets no items one at a time
        return _Couplings, (dict(self),)


def _canonical_couplings(couplings, p: int) -> dict[tuple[int, int], float]:
    """The couplings as {(i, j): theta}, i < j, checked in one pass: keys
    pairs of integers in range(p), no loops or repeats; couplings nonzero
    reals, finite in sum. A dict, or model_from_json's (key, theta) list."""
    if isinstance(couplings, dict):
        couplings = couplings.items()
    elif not (isinstance(couplings, list)
              and all(type(e) is tuple and len(e) == 2 for e in couplings)):
        raise InputError("couplings must be a dict from edges to values")
    out, total = {}, 0.0
    for key, theta in couplings:
        # Python ints and floats, the usual case, skip the general tests.
        i, j = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        if type(i) is not int or type(j) is not int:
            if not (_integer(i) and _integer(j)):
                raise InputError(f"edge {key!r} is not a pair of integers")
            i, j = int(i), int(j)
        i, j = (i, j) if i < j else (j, i)
        if i == j or i < 0 or j >= p:
            raise InputError(f"self-loop {key!r}" if i == j else
                             f"edge {key!r} out of range for p={p}")
        if type(theta) is not float:
            if not _real(theta) or (isinstance(theta, int)
                                    and abs(theta) > sys.float_info.max):
                raise InputError(f"coupling of edge {key!r} must be a finite "
                                 f"real number, got {theta!r}")
            theta = float(theta)
        if theta == 0.0:
            raise InputError(f"coupling of edge {key!r} must be nonzero")
        if (i, j) in out:
            raise InputError(f"duplicate edge ({i}, {j})")
        out[(i, j)] = theta
        total += abs(theta)
    # It bounds every energy; finite only if every coupling is.
    if not math.isfinite(total):
        raise InputError("couplings must be finite, with a finite sum")
    return _Couplings(out)


@dataclass(frozen=True)
class IsingModel:
    """Vertex count plus a read-only dict from canonical edges (i, j),
    i < j, to nonzero coupling values. Instances are immutable; equal
    models hash alike."""

    p: int
    couplings: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        _check_integer(self.p, "p", 1)
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "couplings",
                           _canonical_couplings(self.couplings, self.p))

    def __hash__(self):
        return hash((self.p, frozenset(self.couplings.items())))

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Canonical edges in lexicographic order."""
        return sorted(self.couplings)

    def neighbors(self, u: int) -> list[int]:
        _check_vertex(u, self.p)
        return list(self._adjacency.get(u, ()))

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    @property
    def max_degree(self) -> int:
        return max(map(len, self._adjacency.values()), default=0)

    @property
    def min_coupling(self) -> float:
        """Smallest coupling magnitude over present edges."""
        if not self.couplings:
            raise InputError("model has no edges")
        return min(abs(t) for t in self.couplings.values())

    @property
    def max_coupling(self) -> float:
        """Largest coupling magnitude over present edges."""
        if not self.couplings:
            raise InputError("model has no edges")
        return max(abs(t) for t in self.couplings.values())

    def coupling_row(self, u: int) -> np.ndarray:
        """Couplings of u to every other vertex, indexed by the ascending
        list of vertices != u (zeros where no edge)."""
        _check_vertex(u, self.p)
        row = np.zeros(self.p - 1)
        for j, theta in self._adjacency.get(u, {}).items():
            row[j - (j > u)] = theta
        return row

    # Derived from the frozen fields, these live and die with the model;
    # cached_property writes the instance dict, so neither equality nor
    # the frozen fields see them.
    @cached_property
    def _adjacency(self) -> dict[int, dict[int, float]]:
        """Each vertex with an edge: {neighbour: coupling}, ascending."""
        adjacency = defaultdict(dict)
        for (i, j), theta in sorted(self.couplings.items()):
            adjacency[i][j] = adjacency[j][i] = theta
        return dict(adjacency)

    @cached_property
    def _enumeration(self) -> tuple[np.ndarray, float]:
        """The probabilities of all 2**p configurations (read-only) and
        log Z, from one enumeration shifted by its largest exponent."""
        weights = enumerate_exponents(self)
        shift = float(weights.max())
        weights -= shift
        np.exp(weights, out=weights)
        total = float(weights.sum())
        weights /= total
        weights.flags.writeable = False
        return weights, shift + math.log(total)

    @cached_property
    def _cdf(self) -> np.ndarray:
        """The cumulative probabilities (read-only), cut at and ending at 1."""
        cdf = np.cumsum(self._enumeration[0])
        np.minimum(cdf, 1.0, out=cdf)
        cdf[-1] = 1.0
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def _guide(self) -> np.ndarray:
        """The CDF's guide table (read-only int32): of B = 2^min(p+2, 22)
        buckets, b holds #(cdf <= b/B), or -1 if cdf cuts (b/B, (b+1)/B)."""
        size, done = 1 << min(self.p + 2, 22), 0
        guide = np.empty(size, dtype=np.int32)
        # cdf <= b/B iff ceil(cdf * B) <= b, exact for B a power of two.
        for lo in range(0, 1 << self.p, 1 << 14):  # no B-long temporaries
            scaled = self._cdf[lo:lo + (1 << 14)] * size
            ends = np.ceil(scaled).astype(np.int64)
            guide[done:ends[-1]] = np.repeat(
                np.arange(lo, lo + ends.size, dtype=np.int32),
                np.diff(ends, prepend=done))
            cut, done = np.floor(scaled), ends[-1]
            guide[cut[cut != scaled].astype(np.int64)] = -1
        guide.flags.writeable = False
        return guide


def _check_vertex(u: int, p: int):
    if not _integer(u) or not 0 <= u < p:
        raise InputError(f"vertex {u!r} is not an integer in range({p})")


def beta_d(model: IsingModel) -> float:
    """Width parameter times max degree; 0 for edgeless models."""
    if not model.couplings:
        return 0.0
    return model.max_coupling * model.max_degree


def _spin_array(spins, shape: tuple, what: str) -> np.ndarray:
    """spins as an int or float array of the given shape, each entry +/-1."""
    try:
        arr = np.asarray(spins)
    except ValueError as exc:  # ragged rows
        raise InputError(f"{what} rows are ragged: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise InputError(f"{what} entries are {arr.dtype}, not numbers")
    if arr.shape != shape or arr.size == 0:
        raise InputError(f"{what} shape {arr.shape}, expected a nonempty {shape}")
    # 2^18 entries a pass keep the check's temporaries small.
    block = max(1, (1 << 18) // math.prod(shape[1:]))
    for lo in range(0, len(arr), block):
        if not np.all(np.abs(arr[lo:lo + block]) == 1):
            raise InputError(f"{what} entries must be -1 or +1")
    return arr


def energy_exponent(model: IsingModel, spins) -> float:
    """The exponent sum_{(i,j) in E} theta_ij sigma_i sigma_j."""
    arr = _spin_array(spins, (model.p,), "configuration")
    total = 0.0
    for (i, j), theta in model.couplings.items():
        total += theta * float(arr[i]) * float(arr[j])
    return total


def configurations_from_indices(indices, p: int) -> np.ndarray:
    """Decode m configuration words, or an m x W array of them, to an
    (m, p) int8 array of spins: spin i is +1 iff bit i % 64 of word
    i // 64 is set, so for p <= 64 a word is the configuration index."""
    words = np.asarray(indices, dtype="<u8")
    if words.ndim == 1:
        words = words[:, None]
    spins = np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=1,
                          count=p, bitorder="little").view(np.int8)
    spins *= 2
    spins -= 1
    return spins


def enumerate_exponents(model: IsingModel) -> np.ndarray:
    """Energy exponent of every configuration, indexed 0..2**p-1."""
    if model.p > ENUMERATION_LIMIT:
        raise CapabilityError(f"exact enumeration supports p <= "
                              f"{ENUMERATION_LIMIT}, got p={model.p}")
    total = 1 << model.p
    out = np.zeros(total)
    for start in range(0, total, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, total)
        idx = np.arange(start, stop, dtype=np.uint64)
        bits = [(idx >> np.uint64(i) & np.uint64(1)).astype(bool)
                for i in range(model.p)]
        acc = out[start:stop]
        for (i, j), theta in model.couplings.items():
            acc += np.where(bits[i] != bits[j], -theta, theta)
    return out


def log_partition(model: IsingModel) -> float:
    """Log of the normalizing constant."""
    return model._enumeration[1]


def exact_probability(model: IsingModel, spins) -> float:
    """Probability of one configuration."""
    return math.exp(energy_exponent(model, spins) - model._enumeration[1])


def exact_distribution(model: IsingModel) -> np.ndarray:
    """Probabilities of all 2**p configurations (index = bit encoding).
    The array is the model's own, shared by every call and read-only."""
    return model._enumeration[0]


def make_grid_model(side: int, beta: float, kind: str = "ferromagnet",
                    seed: int | None = None) -> IsingModel:
    """Two-dimensional periodic grid (torus) with p = side**2 spins.

    Vertex (r, c) gets index r*side + c; each vertex is bonded to its
    right and down neighbors modulo side. For side = 2 the wraparound
    duplicates collapse, leaving degree 2; side >= 3 gives degree 4.

    kind "ferromagnet" sets every coupling to +beta; "spin_glass" draws
    an independent uniform sign per canonical edge (reproducible per
    seed, signs assigned in lexicographic edge order).
    """
    _check_integer(side, "grid side", 2)
    if not _real(beta) or beta <= 0:
        raise InputError(f"coupling magnitude must be positive, got {beta}")
    if kind not in ("ferromagnet", "spin_glass"):
        raise InputError(f"unknown coupling kind {kind!r}")
    p = side * side
    edges = set()
    for r in range(side):
        for c in range(side):
            u = r * side + c
            for v in (r * side + (c + 1) % side, ((r + 1) % side) * side + c):
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    ordered = sorted(edges)
    if kind == "ferromagnet":
        couplings = {e: beta for e in ordered}
    else:
        if seed is None:
            raise InputError("spin_glass grids need a seed for the sign draw")
        _check_integer(seed, "seed", 0)
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=len(ordered)) * 2 - 1
        couplings = {e: float(s) * beta for e, s in zip(ordered, signs)}
    return IsingModel(p, couplings)


def make_random_model(p: int, edge_probability: float, alpha: float,
                      beta: float, seed: int) -> IsingModel:
    """Random test model: each pair i < j (lexicographic order) is an
    edge with the given probability, coupling magnitude uniform on
    [alpha, beta], sign uniform."""
    _check_integer(p, "p", 2)
    _check_integer(seed, "seed", 0)
    if not _real(edge_probability) or not 0.0 <= edge_probability <= 1.0:
        raise InputError("edge_probability must lie in [0, 1]")
    if not (_real(alpha) and _real(beta) and 0.0 < alpha <= beta < math.inf):
        raise InputError("need 0 < alpha <= beta < inf")
    rng = np.random.default_rng(seed)
    couplings = {}
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < edge_probability:
                magnitude = rng.uniform(alpha, beta)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                couplings[(i, j)] = sign * magnitude
    return IsingModel(p, couplings)


def model_to_json(model: IsingModel) -> str:
    """Serialize to the interchange schema; couplings are written with
    17 significant digits so reloading is bit-exact."""
    parts = []
    for i, j in model.edges:
        theta = format(model.couplings[(i, j)], ".17g")
        parts.append('{"i": %d, "j": %d, "theta": %s}' % (i, j, theta))
    return '{"p": %d, "edges": [%s]}' % (model.p, ", ".join(parts))


def model_from_json(text: str) -> IsingModel:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integer literals past Python's digit
        # limit; RecursionError is nesting deeper than the parser goes.
        raise InputError(f"malformed model JSON: {exc}") from exc
    if not (isinstance(obj, dict) and "p" in obj
            and isinstance(obj.get("edges"), list)):
        raise InputError('model JSON needs "p" and an "edges" list')
    pairs = []
    for entry in obj["edges"]:
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "theta"}:
            raise InputError(f"bad edge entry {entry!r}")
        pairs.append(((entry["i"], entry["j"]), entry["theta"]))
    return IsingModel(obj["p"], pairs)


def save_model(model: IsingModel, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path) -> IsingModel:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"model file is not ASCII: {exc}") from exc
    return model_from_json(text)
