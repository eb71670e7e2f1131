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
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapabilityError, InputError

ENUMERATION_LIMIT = 25

_ENUM_CHUNK = 1 << 20


def _canonical_couplings(couplings):
    out = {}
    for key, theta in couplings.items():
        i, j = key
        if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
            raise InputError(f"edge endpoints must be integers, got {key!r}")
        i, j = int(i), int(j)
        if i == j:
            raise InputError(f"self-loop ({i}, {j}) is not allowed")
        if i > j:
            i, j = j, i
        try:
            theta = float(theta)
        except OverflowError as exc:
            raise InputError(f"coupling for edge ({i}, {j}) is too large "
                             f"for a float") from exc
        if not math.isfinite(theta):
            raise InputError(f"coupling for edge ({i}, {j}) must be finite")
        if theta == 0.0:
            raise InputError(f"coupling for edge ({i}, {j}) must be nonzero")
        if (i, j) in out:
            raise InputError(f"duplicate edge ({i}, {j})")
        out[(i, j)] = theta
    return out


@dataclass(frozen=True)
class IsingModel:
    """Vertex count plus a map from canonical edges (i, j), i < j, to
    nonzero coupling values. Treat instances as immutable."""

    p: int
    couplings: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise InputError(f"p must be a positive integer, got {self.p!r}")
        object.__setattr__(self, "p", int(self.p))
        canon = _canonical_couplings(self.couplings)
        for i, j in canon:
            if j >= self.p or i < 0:
                raise InputError(f"edge ({i}, {j}) out of range for p={self.p}")
        # The sum bounds every energy; past float64 they turn to inf/NaN.
        if not math.isfinite(sum(abs(t) for t in canon.values())):
            raise InputError("coupling magnitudes must have a finite sum")
        object.__setattr__(self, "couplings", canon)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Canonical edges in lexicographic order."""
        return sorted(self.couplings)

    def neighbors(self, u: int) -> list[int]:
        self._check_vertex(u)
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
        self._check_vertex(u)
        row = np.zeros(self.p - 1)
        for j, theta in self._adjacency.get(u, {}).items():
            row[j - (j > u)] = theta
        return row

    def _check_vertex(self, u):
        if not (0 <= u < self.p):
            raise InputError(f"vertex {u} out of range for p={self.p}")

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


def beta_d(model: IsingModel) -> float:
    """Width parameter times max degree; 0 for edgeless models."""
    if not model.couplings:
        return 0.0
    return model.max_coupling * model.max_degree


def validate_configuration(spins, p: int) -> np.ndarray:
    """Check a length-p array of -1/+1 entries and return it as int8."""
    arr = np.asarray(spins)
    if arr.shape != (p,):
        raise InputError(f"expected configuration of shape ({p},), got {arr.shape}")
    if not np.all(np.abs(arr) == 1):
        raise InputError("configuration entries must be -1 or +1")
    return arr.astype(np.int8)


def energy_exponent(model: IsingModel, spins) -> float:
    """The exponent sum_{(i,j) in E} theta_ij sigma_i sigma_j."""
    arr = validate_configuration(spins, model.p)
    total = 0.0
    for (i, j), theta in model.couplings.items():
        total += theta * float(arr[i]) * float(arr[j])
    return total


def _check_enumeration(p: int):
    if p > ENUMERATION_LIMIT:
        raise CapabilityError(
            f"exact enumeration supports p <= {ENUMERATION_LIMIT}, got p={p}"
        )


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
    _check_enumeration(model.p)
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
    if side < 2:
        raise InputError(f"grid side must be >= 2, got {side}")
    if beta <= 0:
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
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=len(ordered)) * 2 - 1
        couplings = {e: float(s) * beta for e, s in zip(ordered, signs)}
    return IsingModel(p, couplings)


def make_random_model(p: int, edge_probability: float, alpha: float,
                      beta: float, seed: int) -> IsingModel:
    """Random test model: each pair i < j (lexicographic order) is an
    edge with the given probability, coupling magnitude uniform on
    [alpha, beta], sign uniform."""
    if p < 2:
        raise InputError(f"p must be >= 2, got {p}")
    if not 0.0 <= edge_probability <= 1.0:
        raise InputError("edge_probability must lie in [0, 1]")
    if not 0.0 < alpha <= beta < math.inf:
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
    if not isinstance(obj, dict) or "p" not in obj or "edges" not in obj:
        raise InputError('model JSON must be an object with "p" and "edges"')
    if not isinstance(obj["edges"], list):
        raise InputError('"edges" must be a list')
    # JSON true/false load as Python bools, which pass as the ints 1/0.
    if isinstance(obj["p"], bool):
        raise InputError(f'"p" must be an integer, got {obj["p"]!r}')
    couplings = {}
    for entry in obj["edges"]:
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "theta"}:
            raise InputError(f"bad edge entry {entry!r}")
        i, j, theta = entry["i"], entry["j"], entry["theta"]
        # Bools would pass as the ints 1/0, and float() would also take
        # strings such as "0.5".
        if (any(isinstance(v, bool) for v in (i, j, theta))
                or not (isinstance(i, int) and isinstance(j, int))
                or not isinstance(theta, (int, float))):
            raise InputError(f"edge entry {entry!r} needs integer endpoints "
                             f"and a numeric coupling")
        if (i, j) in couplings:
            raise InputError(f"duplicate edge {(i, j)} in model JSON")
        couplings[(i, j)] = theta
    return IsingModel(obj["p"], couplings)


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
