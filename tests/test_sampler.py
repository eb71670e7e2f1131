import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from isinglearn import (CapabilityError, GlauberConfig, InputError,
                        IsingModel, SampleSet, empirical_covariance,
                        exact_distribution, make_grid_model, make_random_model,
                        read_samples_binary, read_samples_text, sample_exact,
                        sample_glauber, write_samples_binary,
                        write_samples_text)
from isinglearn import sampler as sampler_module
from isinglearn.cli import main
from isinglearn.sampler import _CHUNK, _DRAW_CHUNK, _colour_classes, _lookup


def _config_counts(samples: SampleSet) -> np.ndarray:
    shifts = np.arange(samples.p, dtype=np.uint64)
    codes = (samples.data > 0).astype(np.uint64) @ (np.uint64(1) << shifts)
    return np.bincount(codes.astype(np.int64), minlength=1 << samples.p)


def _tv_from_exact(samples: SampleSet, model: IsingModel) -> float:
    counts = _config_counts(samples)
    return 0.5 * float(np.abs(counts / samples.n - exact_distribution(model)).sum())


def test_sample_set_validation():
    with pytest.raises(InputError):
        SampleSet(2, 3, np.ones((2, 2), dtype=np.int8))
    with pytest.raises(InputError):
        SampleSet(2, 1, np.array([[1, 2]], dtype=np.int8))
    with pytest.raises(InputError):
        SampleSet(3, 0, np.ones((0, 3), dtype=np.int8))
    # Entries are checked as given, not as their int8 cast; non-numeric
    # and ragged rows are refused too.
    for rows in [[[1.9, -1.2]], [[1.5, -1]], np.array([[257, -1]], np.int16),
                 np.array([[1, 255]], np.uint8), [[None, 1]], [[1 + 0j, -1]],
                 [["1", "-1"]], [[1, -1], [1]], [[True, True]]]:
        with pytest.raises(InputError):
            SampleSet(2, len(rows), rows)
    for rows in [[[1.0, -1.0]], np.array([[1, 1]], np.uint8)]:
        s = SampleSet(2, 1, rows)
        assert "data" not in vars(s)
        assert np.array_equal(s.data, rows) and s.data.dtype == np.int8


def test_exact_sampler_deterministic_and_valid():
    m = make_grid_model(3, 0.7)
    a = sample_exact(m, 500, seed=42)
    b = sample_exact(m, 500, seed=42)
    c = sample_exact(m, 500, seed=43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.data.dtype == np.int8
    assert np.all(np.abs(a.data) == 1)
    with pytest.raises(InputError):
        sample_exact(m, 0, seed=42)


def test_exact_sampler_two_spin_correlation():
    # P(sigma_0 = sigma_1) = 0.73106 for theta = 0.5; 3 sigma band at n = 1e5.
    m = IsingModel(2, {(0, 1): 0.5})
    s = sample_exact(m, 100000, seed=11)
    p_hat = float(np.mean(s.data[:, 0] == s.data[:, 1]))
    p_true = 0.73105857863000488
    assert abs(p_hat - p_true) <= 3.0 * np.sqrt(p_true * (1 - p_true) / s.n)


def test_exact_sampler_chi_square():
    # Frequencies over all 16 cells of a p=4 model stay in distribution.
    m = IsingModel(4, {(0, 1): 0.6, (1, 2): -0.4, (2, 3): 0.5, (0, 3): 0.3})
    n = 100000
    s = sample_exact(m, n, seed=5)
    expected = exact_distribution(m) * n
    assert expected.min() >= 5
    observed = _config_counts(s)
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat <= stats.chi2.ppf(1 - 1e-6, df=15)


def test_glauber_deterministic_per_seed():
    m = make_grid_model(3, 0.5)
    cfg = GlauberConfig(seed=3, burn_in_sweeps=50, thinning_sweeps=2)
    a = sample_glauber(m, 200, cfg)
    b = sample_glauber(m, 200, cfg)
    c = sample_glauber(m, 200, GlauberConfig(seed=4, burn_in_sweeps=50,
                                             thinning_sweeps=2))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_glauber_uniform_on_edgeless_model():
    # No couplings: the chain must sample the uniform distribution.
    m = IsingModel(3, {})
    s = sample_glauber(m, 80000, GlauberConfig(seed=9, burn_in_sweeps=10,
                                               thinning_sweeps=1))
    observed = _config_counts(s)
    expected = np.full(8, s.n / 8.0)
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat <= stats.chi2.ppf(1 - 1e-6, df=7)


def test_glauber_matches_exact_distribution():
    # Chain equilibrium vs enumeration, p=4 path, default burn-in/thinning.
    m = IsingModel(4, {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5})
    s = sample_glauber(m, 1_000_000, GlauberConfig(seed=21))
    assert _tv_from_exact(s, m) <= 0.01


def test_glauber_one_sweep_preserves_equilibrium():
    # Start rows at exact equilibrium, apply one sequential heat-bath
    # sweep to each row independently; the empirical law must not move.
    m = IsingModel(4, {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5})
    n = 1_000_000
    s = sample_exact(m, n, seed=31)
    rows = s.data.astype(np.float64)
    rng = np.random.default_rng(77)
    theta = np.zeros((4, 4))
    for (i, j), t in m.couplings.items():
        theta[i, j] = theta[j, i] = t
    for site in range(4):
        h = rows @ theta[site]
        prob_up = 1.0 / (1.0 + np.exp(-2.0 * h))
        rows[:, site] = np.where(rng.random(n) < prob_up, 1.0, -1.0)
    swept = SampleSet(4, n, rows.astype(np.int8))
    assert _tv_from_exact(swept, m) <= 0.01


def test_glauber_config_validation():
    with pytest.raises(InputError):
        GlauberConfig(seed=1, burn_in_sweeps=-1)
    with pytest.raises(InputError):
        GlauberConfig(seed=1, thinning_sweeps=0)
    with pytest.raises(InputError):
        sample_glauber(make_grid_model(2, 0.5), 0, GlauberConfig(seed=1))


@pytest.mark.parametrize("call", [
    lambda m: GlauberConfig(seed=1, burn_in_sweeps="3"),
    lambda m: GlauberConfig(seed=1, thinning_sweeps=1.5),
    lambda m: GlauberConfig(seed=1, thinning_sweeps=2.0),
    lambda m: GlauberConfig(seed="1"),
    lambda m: GlauberConfig(seed=True),
    lambda m: GlauberConfig(seed=-1),
    lambda m: sample_glauber(m, 10.5, GlauberConfig(seed=1)),
    lambda m: sample_glauber(m, "10", GlauberConfig(seed=1)),
    lambda m: sample_exact(m, "10", seed=1),
    lambda m: sample_exact(m, 10.5, seed=1),
    lambda m: sample_exact(m, True, seed=1),
    lambda m: sample_exact(m, 10, seed="1"),
    lambda m: sample_exact(m, 10, seed=-1),
], ids=["burn-in-str", "thinning-float", "thinning-integral-float",
        "seed-str", "seed-bool", "seed-negative", "glauber-n-float",
        "glauber-n-str", "exact-n-str", "exact-n-float", "exact-n-bool",
        "exact-seed-str", "exact-seed-negative"])
def test_samplers_refuse_bad_scalars(call):
    # Each of these used to be accepted, failing later or never, or to
    # end in a bare TypeError or ValueError.
    with pytest.raises(InputError):
        call(make_grid_model(2, 0.5))


def test_empirical_covariance_properties():
    m = make_grid_model(3, 0.6)
    s = sample_exact(m, 20000, seed=13)
    h = empirical_covariance(s, exclude=4)
    assert h.shape == (8, 8)
    assert np.array_equal(h, h.T)
    assert np.all(np.diag(h) == 1.0)
    assert np.all(np.abs(h) <= 1.0 + 1e-15)
    # Read off the tally, it is the per-sample average bit for bit: both
    # are the correctly rounded integer sums over n.
    block = np.delete(s.data, 4, axis=1).astype(np.float64)
    assert np.array_equal(h, block.T @ block / s.n)
    with pytest.raises(InputError):
        empirical_covariance(s, exclude=9)


def test_text_round_trip(tmp_path):
    m = make_grid_model(3, 0.7)
    s = sample_exact(m, 257, seed=1)
    path = tmp_path / "s.txt"
    write_samples_text(s, path)
    back = read_samples_text(path)
    assert back.p == s.p and back.n == s.n
    assert np.array_equal(back.data, s.data)
    first = path.read_text().splitlines()
    assert first[0] == "9 257"
    assert set(first[1].split()) <= {"+1", "-1"}


def test_binary_round_trip_bit_exact(tmp_path):
    m = make_grid_model(3, 0.7)
    # Deliberately n*p not divisible by 8 to exercise final-byte padding.
    s = sample_exact(m, 1001, seed=2)
    path = tmp_path / "s.bin"
    write_samples_binary(s, path)
    raw = path.read_bytes()
    assert raw[:4] == b"ISNG"
    assert len(raw) == 4 + 12 + (s.n * s.p + 7) // 8
    back = read_samples_binary(path)
    assert np.array_equal(back.data, s.data)
    # Writing the reread set reproduces the file byte for byte.
    path2 = tmp_path / "s2.bin"
    write_samples_binary(back, path2)
    assert path2.read_bytes() == raw


def test_text_binary_cross_format(tmp_path):
    m = IsingModel(2, {(0, 1): 0.5})
    s = sample_exact(m, 64, seed=3)
    t_path, b_path = tmp_path / "s.txt", tmp_path / "s.bin"
    write_samples_text(s, t_path)
    write_samples_binary(s, b_path)
    assert np.array_equal(read_samples_text(t_path).data,
                          read_samples_binary(b_path).data)


def test_readers_reject_malformed(tmp_path):
    bad_text = tmp_path / "bad.txt"
    bad_text.write_text("2 2\n+1 -1\n+1\n")
    with pytest.raises(InputError):
        read_samples_text(bad_text)
    bad_header = tmp_path / "bad2.txt"
    bad_header.write_text("oops\n")
    with pytest.raises(InputError):
        read_samples_text(bad_header)
    bad_header.write_text("3 x\n+1 -1 +1\n")
    with pytest.raises(InputError):
        read_samples_text(bad_header)
    bad_values = tmp_path / "bad3.txt"
    bad_values.write_text("2 1\n+1 +2\n")
    with pytest.raises(InputError):
        read_samples_text(bad_values)
    bad_bin = tmp_path / "bad.bin"
    bad_bin.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(InputError):
        read_samples_binary(bad_bin)
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(b"ISNG" + (2).to_bytes(4, "little")
                          + (100).to_bytes(8, "little") + b"\x00")
    with pytest.raises(InputError):
        read_samples_binary(truncated)


def _sequential_glauber(model: IsingModel, n: int,
                        config: GlauberConfig) -> np.ndarray:
    """The heat-bath chain one site at a time: the same random stream
    (initial state, then one uniform per sweep and site) and the same
    comparison as sample_glauber, visiting the sites class by class in
    the order of its colouring."""
    p = model.p
    rng = np.random.default_rng(config.seed)
    spins = [int(v) for v in rng.integers(0, 2, size=p) * 2 - 1]
    total = config.burn_in_sweeps + n * config.thinning_sweeps
    uniforms = rng.random((total, p))
    neighbours = [[] for _ in range(p)]
    for (i, j), theta in model.couplings.items():
        neighbours[i].append((j, theta))
        neighbours[j].append((i, theta))
    visit = [int(i) for sites in _colour_classes(model) for i in sites]
    rows = []
    for sweep in range(total):
        for i in visit:
            field = sum(2.0 * theta * spins[j] for j, theta in neighbours[i])
            u = uniforms[sweep, i]
            logit = math.log(u) - math.log1p(-u)
            spins[i] = int(math.copysign(1.0, field - logit))
        after = sweep + 1 - config.burn_in_sweeps
        if after > 0 and after % config.thinning_sweeps == 0:
            rows.append(list(spins))
    return np.array(rows, dtype=np.int8)


@pytest.mark.parametrize("model, colours", [
    (make_grid_model(3, 0.5), 4),  # odd torus: greedy needs 4 here
    (make_random_model(12, 0.3, 0.2, 0.9, seed=5), None),
    (make_grid_model(4, 0.5, "spin_glass", seed=2), 2),
    (IsingModel(5, {}), 1),
    (IsingModel(1, {}), 1),
], ids=["torus-3x3", "random-12", "glass-4x4", "edgeless", "one-spin"])
def test_glauber_matches_sequential_scan(model, colours):
    # A colour class is updated in one step from the spins before it;
    # that equals one site at a time only if no two of its sites are
    # adjacent, so an improper colouring fails here.
    if colours is not None:
        assert len(_colour_classes(model)) == colours
    config = GlauberConfig(seed=7, burn_in_sweeps=20, thinning_sweeps=3)
    s = sample_glauber(model, 120, config)
    assert np.array_equal(s.data, _sequential_glauber(model, 120, config))


@pytest.fixture
def chain_runs(monkeypatch):
    """The lanes (h, K) of each lockstep run, and whether it recorded
    rows, and the number of whole-chain kernel runs that sample_glauber
    makes, in call order."""
    runs = {"lockstep": [], "kernel": 0}
    lockstep, kernel = sampler_module._Chain.lockstep, sampler_module._Chain.run

    def counting_lockstep(self, state, gens, sweeps, first=None):
        runs["lockstep"].append((state.shape[1:], first is not None))
        return lockstep(self, state, gens, sweeps, first)

    def counting_kernel(self, state, rng):
        runs["kernel"] += 1
        return kernel(self, state, rng)

    monkeypatch.setattr(sampler_module._Chain, "lockstep", counting_lockstep)
    monkeypatch.setattr(sampler_module._Chain, "run", counting_kernel)
    return runs


@pytest.mark.parametrize("model, colours, n, config", [
    (make_grid_model(10, 0.4), 2, 500,
     GlauberConfig(seed=3, burn_in_sweeps=24, thinning_sweeps=2)),
    (make_grid_model(3, 0.5), 4, 400,
     GlauberConfig(seed=7, burn_in_sweeps=30, thinning_sweeps=3)),
    (IsingModel(4, {(0, 1): -0.7, (1, 2): 0.5, (2, 3): -0.9}), 2, 1100,
     GlauberConfig(seed=5, burn_in_sweeps=0, thinning_sweeps=1)),
    (IsingModel(5, {}), 1, 600,
     GlauberConfig(seed=9, burn_in_sweeps=7, thinning_sweeps=2)),
], ids=["torus-10x10", "torus-3x3", "mixed-sign-tree", "edgeless"])
def test_segmented_chain_matches_sequential_scan(chain_runs, model, colours,
                                                 n, config):
    # Long enough for 4 segments of _SEGMENT_SWEEPS: the bounds of every
    # segment, then the pieces of the chain from the points where they
    # met, run in lockstep and give the one-site-at-a-time chain's rows.
    assert len(_colour_classes(model)) == colours
    s = sample_glauber(model, n, config)
    total = config.burn_in_sweeps + n * config.thinning_sweeps
    assert total >= 4 * sampler_module._SEGMENT_SWEEPS
    runs = chain_runs["lockstep"]
    assert runs[0] == ((2, 4), False) and ((1, 5), True) in runs
    assert chain_runs["kernel"] == 0
    assert np.array_equal(s.data, _sequential_glauber(model, n, config))


def test_chain_whose_bounds_never_meet_runs_on_the_kernel(chain_runs):
    # At beta = 0.6 the 6x6 torus is ordered: its bounding chains stay
    # apart, the pass stops an eighth of the way in, and the whole chain
    # runs on the kernel.
    model = make_grid_model(6, 0.6)
    config = GlauberConfig(seed=1, burn_in_sweeps=200, thinning_sweeps=2)
    s = sample_glauber(model, 500, config)
    assert chain_runs["lockstep"] and chain_runs["kernel"] == 1
    assert not any(recorded for _, recorded in chain_runs["lockstep"])
    assert np.array_equal(s.data, _sequential_glauber(model, 500, config))


def test_segments_that_never_meet_run_in_the_piece_before(chain_runs,
                                                          monkeypatch):
    # With 16-sweep segments the bounds of some of the 3x3 torus's 75
    # segments meet and some do not; a piece of the chain then runs on
    # through every segment up to the next point where bounds met.
    monkeypatch.setattr(sampler_module, "_SEGMENT_SWEEPS", 16)
    model = make_grid_model(3, 0.4)
    config = GlauberConfig(seed=7, burn_in_sweeps=0, thinning_sweeps=4)
    s = sample_glauber(model, 300, config)
    runs = chain_runs["lockstep"]
    pieces = next(lanes[1] for lanes, recorded in runs if recorded)
    assert runs[0] == ((2, 75), False) and 1 < pieces < 76
    assert chain_runs["kernel"] == 0
    assert np.array_equal(s.data, _sequential_glauber(model, 300, config))


def test_eligible_chain_stays_within_its_charge(chain_runs, monkeypatch):
    # The lockstep runs hold a chunk of at most _CHAIN_ENTRIES uniforms
    # for all segments at once, and their states, within the charge.
    charges = []
    monkeypatch.setattr(sampler_module, "_check_memory",
                        lambda nbytes, what: charges.append(nbytes))
    config = GlauberConfig(seed=2, burn_in_sweeps=200, thinning_sweeps=2)
    for model, n in [(make_grid_model(10, 0.4), 5000),
                     (make_grid_model(3, 0.5), 2000),
                     (IsingModel(4, {(0, 1): 0.5, (1, 2): 0.5}), 500)]:
        sample_glauber(model, 8, config)  # imports, on the kernel
        kernel_runs = chain_runs["kernel"]
        peak = _traced_peak(lambda: sample_glauber(model, n, config).data)
        assert peak <= charges[-1], (model.p, peak, charges[-1])
        assert chain_runs["kernel"] == kernel_runs


def test_colour_classes_are_proper_and_cover_every_site():
    for model in (make_grid_model(9, 0.4), make_grid_model(10, 0.4),
                  make_random_model(30, 0.2, 0.1, 0.5, seed=3)):
        classes = _colour_classes(model)
        colour = np.empty(model.p, dtype=int)
        for c, sites in enumerate(classes):
            colour[sites] = c
        assert sorted(np.concatenate(classes).tolist()) == list(range(model.p))
        assert all(colour[i] != colour[j] for i, j in model.couplings)


def test_glauber_matches_exact_distribution_off_bipartite():
    # A 5-cycle needs 3 colours and has classes of two sites; mixed
    # signs and strong couplings make a wrong update order visible.
    m = IsingModel(5, {(0, 1): 0.8, (1, 2): -0.6, (2, 3): 0.7, (3, 4): 0.5,
                       (0, 4): -0.9})
    assert [len(c) for c in _colour_classes(m)] == [2, 2, 1]
    s = sample_glauber(m, 60_000, GlauberConfig(seed=12, burn_in_sweeps=100,
                                                thinning_sweeps=2))
    assert _tv_from_exact(s, m) <= 0.02


def _old_exact_rows(model: IsingModel, n: int, seed: int) -> np.ndarray:
    """The rows an exact draw decodes to: inverse-CDF lookup of n
    uniforms, then index k read as spin i = +1 iff bit i of k is set."""
    cdf = np.cumsum(exact_distribution(model))
    cdf[-1] = 1.0
    u = np.random.default_rng(seed).random(n)
    idx = np.searchsorted(cdf, u, side="right").astype(np.uint64)
    bits = (idx[:, None] >> np.arange(model.p, dtype=np.uint64)) & np.uint64(1)
    return (bits.astype(np.int8) * 2 - 1).astype(np.int8)


# Couplings of 30 leave steps of about 1e-26 that the CDF cannot hold:
# configurations no draw ever reaches, so the counts have gaps.
_GAPPED = IsingModel(3, {(0, 1): 30.0, (1, 2): 30.0})
_DRAWN_MODELS = [
    make_grid_model(3, 0.6, "spin_glass", seed=1),
    make_grid_model(4, 1.2, "spin_glass", seed=7),
    make_random_model(9, 0.4, 0.3, 0.9, seed=2),
    _GAPPED,
    IsingModel(1, {}),
]


def _ascends_by_words(design) -> bool:
    """Whether a tally's columns strictly ascend by their configuration
    words, word 0 first: by configuration index for p <= 64."""
    bits = (design.spins > 0).astype(np.uint64)
    words = []
    for lo in range(0, bits.shape[0], 64):
        block = bits[lo:lo + 64]
        shifts = np.arange(block.shape[0], dtype=np.uint64)[:, None]
        words.append((block << shifts).sum(axis=0).tolist())
    keys = list(zip(*words))
    return all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("model", _DRAWN_MODELS,
                         ids=["glass-3x3", "glass-4x4", "random-9", "gapped",
                              "one-spin"])
@pytest.mark.parametrize("n", [1, 7, 28000, 80000])
def test_drawn_tally_is_the_tally_of_its_rows(model, n):
    s = sample_exact(model, n, seed=n + 3)
    got = s.tally
    assert "data" not in vars(s)  # counted, not decoded
    want = SampleSet(s.p, s.n, s.data).tally
    assert got.spins.dtype == want.spins.dtype == np.int8
    assert got.weights.dtype == want.weights.dtype
    assert np.array_equal(got.spins, want.spins)
    assert np.array_equal(got.weights, want.weights)
    assert got.total == want.total and type(got.total) is type(want.total)
    assert _ascends_by_words(got)


@pytest.mark.parametrize("p, n", [(4, 3), (16, 1000), (16, 1 << 14),
                                  (21, 1000), (21, 1 << 19)])
def test_tally_by_sort_is_the_tally_by_bincount(monkeypatch, p, n):
    # Up to p = 21 a tally counts by a bincount over the 2^p indices
    # once n reaches 2^p / 4, and sorts below; either gives one design.
    # Rows repeat: they come from 300 configurations.
    rng = np.random.default_rng(p + n)
    pool = rng.integers(0, 1 << p, 300, dtype=np.uint64)
    words = pool[rng.integers(0, pool.size, n)][:, None]
    assert sampler_module._dense(n, p) == (n >= 1 << (p - 2))
    tallies = []
    for dense in (True, False):
        monkeypatch.setattr(sampler_module, "_dense", lambda *_: dense)
        tallies.append(SampleSet._of_words(p, words).tally)
    counted, sorted_ = tallies
    assert np.array_equal(counted.spins, sorted_.spins)
    assert counted.weights.dtype == sorted_.weights.dtype
    assert np.array_equal(counted.weights, sorted_.weights)
    assert counted.total == sorted_.total


def test_gapped_model_has_unreachable_configurations():
    assert np.any(np.diff(np.cumsum(exact_distribution(_GAPPED))) == 0.0)
    s = sample_exact(_GAPPED, 80000, seed=83)
    assert s.tally.spins.shape[1] < 1 << (_GAPPED.p - 1)


@pytest.mark.parametrize("model", _DRAWN_MODELS,
                         ids=["glass-3x3", "glass-4x4", "random-9", "gapped",
                              "one-spin"])
@pytest.mark.parametrize("seed", [0, 5, 424242])
def test_drawn_rows_are_the_inverse_cdf_rows(model, seed):
    # A draw takes its uniforms a chunk at a time from one generator;
    # they are the uniforms of one call on either side of every chunk
    # edge, of a draw's chunk and of the I/O chunk.
    for n in [1000, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1,
              2 * _DRAW_CHUNK + 7, _CHUNK - 1, _CHUNK, _CHUNK + 1,
              2 * _CHUNK + 7]:
        s = sample_exact(model, n, seed)
        assert s.data.dtype == np.int8
        assert np.array_equal(s.data, _old_exact_rows(model, n, seed)), n
        # Decoded once, then kept.
        assert s.data is s.data


def _edge_uniforms(model: IsingModel) -> np.ndarray:
    """0, the largest double below 1, every CDF value below 1 and the
    double just under it, and the edges of the guide buckets that hold
    those values."""
    cdf, size = model._cdf, model._guide.size
    inner = cdf[cdf < 1.0]
    bucket = np.floor(inner * size)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], inner,
                        np.nextafter(inner, 0.0), bucket / size,
                        (bucket + 1) / size])
    return u[u < 1.0]


# Its probabilities' running sum rounds past 1 before the last
# configuration, so the model's CDF is cut at 1.
_PAST_ONE = make_grid_model(3, 1.92, "spin_glass", seed=81)


def test_cdf_is_cut_at_one():
    assert np.cumsum(exact_distribution(_PAST_ONE))[:-1].max() > 1.0
    cdf = _PAST_ONE._cdf
    assert np.all(np.diff(cdf) >= 0) and cdf.max() == 1.0


@pytest.mark.parametrize("model", _DRAWN_MODELS + [_PAST_ONE],
                         ids=["glass-3x3", "glass-4x4", "random-9", "gapped",
                              "one-spin", "past-one"])
def test_guide_lookup_is_the_cdf_search_at_its_edges(model):
    u = _edge_uniforms(model)
    words = _lookup(model._cdf, model._guide, u).astype(np.uint64)[:, None]
    s = SampleSet._of_words(model.p, words)
    # The table answers some of these uniforms; where a CDF value cuts a
    # bucket (on all but the gapped and one-spin models) the search
    # answers others.
    answered = model._guide[(u * model._guide.size).astype(np.int32)]
    assert (answered >= 0).any()
    assert (answered < 0).any() == (model.p > 3)
    # The search over the uncut running sum, as draws were looked up.
    cdf = np.cumsum(exact_distribution(model))
    cdf[-1] = 1.0
    want = np.searchsorted(cdf, u, side="right").astype(np.uint64)
    assert np.array_equal(words, want[:, None])
    got, rows = s.tally, SampleSet(s.p, s.n, s.data).tally
    assert np.array_equal(got.spins, rows.spins)
    assert np.array_equal(got.weights, rows.weights)
    assert got.total == rows.total
    # Both tallies count by one fold; count the searched indices apart,
    # each at the odd one of it and its flip.
    k = want.astype(np.int64)
    odd, counts = np.unique(np.where(k & 1, k, (1 << model.p) - 1 - k),
                            return_counts=True)
    assert got.spins.shape[1] == odd.size
    assert np.all((got.spins > 0) == ((odd[None, :] >> np.arange(
        model.p)[:, None]) & 1).astype(bool))
    assert np.array_equal(got.weights, counts * (got.total / u.size))


@pytest.mark.parametrize("model", _DRAWN_MODELS + [_PAST_ONE],
                         ids=["glass-3x3", "glass-4x4", "random-9", "gapped",
                              "one-spin", "past-one"])
def test_guide_lookup_answers_shuffled_uniforms_in_their_order(model):
    # The lookup searches cut buckets' uniforms in ascending order, and
    # answers each uniform in its own place.
    u = np.random.default_rng(model.p).permutation(
        np.tile(_edge_uniforms(model), 3))
    got = _lookup(model._cdf, model._guide, u)
    assert np.array_equal(got, np.searchsorted(model._cdf, u, side="right"))


def test_exact_refusal_counts_the_lookup(monkeypatch):
    # Beside each row's word and its decoded row, n (p + 8) bytes, the
    # refusal counts 36 bytes a row for the lookup of a chunk (here all
    # n rows), and the tally: at p = 4 its 12 bytes a configuration and
    # its 8 distinct rows, 24 + 2 p bytes each; from p = 21 on, n is far
    # below 2^p, so the tally sorts, 17 bytes a row, and every row may
    # be distinct.
    n = 1000
    pages = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    for p, extra, counts in [(4, 36, (12 << 4) + 32 * 8),
                             (21, 36 + 17 + 24 + 42, 0),
                             (22, 36 + 17 + 24 + 44, 0),
                             (23, 36 + 17 + 24 + 46, 0)]:
        pages["SC_PHYS_PAGES"] = n * (p + 8 + extra) + counts - 1
        with pytest.raises(CapabilityError, match="physical memory"):
            sample_exact(IsingModel(p, {}), n, seed=0)
    pages["SC_PHYS_PAGES"] = n * (4 + 8 + 36) + (12 << 4) + 32 * 8
    assert sample_exact(IsingModel(4, {}), n, seed=0).n == n


def _traced_peak(run) -> int:
    """The tracemalloc peak of run(), in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_refusal_bounds_what_a_draw_holds(tmp_path, monkeypatch):
    # The charge bounds the peak of a draw with its tally and rows, and
    # of the file read back with both; edgeless models draw nearly every
    # row distinct once 2^p is far above n, so each peak is at least a
    # third of the charge. A write packs one chunk at a time, so its
    # peak stays under 1 MB. The grid takes the bincount tally (p = 4,
    # 16 and 21 at 2^19 rows) and the sort (p = 21 at 2^17, p = 22).
    charges = []
    monkeypatch.setattr(sampler_module, "_check_memory",
                        lambda nbytes, what: charges.append(nbytes))
    path = tmp_path / "s.bin"

    def with_tally_and_rows(make):
        def run():
            s = make()
            return s.tally, s.data
        return run

    for p, sizes in [(4, [1 << 18]), (16, [1 << 18]), (21, [1 << 17, 1 << 19]),
                     (22, [1 << 18])]:
        model = IsingModel(p, {})
        model._guide  # enumerated before tracing
        for n in sizes:
            drawn = _traced_peak(with_tally_and_rows(
                lambda: sample_exact(model, n, seed=p)))
            charge, s = charges[-1], sample_exact(model, n, seed=p)
            written = _traced_peak(lambda: write_samples_binary(s, path))
            read = _traced_peak(with_tally_and_rows(
                lambda: read_samples_binary(path)))
            for peak in (drawn, read):
                assert charge / 3 <= peak <= charge, (p, n, peak, charge)
            assert written < 1 << 20, (p, n, written)


def test_wide_row_io_holds_its_words_and_one_chunk(tmp_path):
    # At p = 4000 a chunk of 2^16 rows would be 32 MB packed and 786 MB
    # of text; each pass holds at most 2^22 bits of rows, so a write or
    # a read peaks within the set's 2 MB of words and 1 MB.
    p, n = 4000, 4096
    words = np.random.default_rng(p).integers(
        0, 1 << 63, (n, -(-p // 64)), dtype=np.uint64) << np.uint64(1) | 1
    words[:, -1] &= ~np.uint64(0) >> np.uint64(-p % 64)
    s = SampleSet._of_words(p, words)
    text, binary = tmp_path / "s.txt", tmp_path / "s.bin"
    peaks = [_traced_peak(lambda: write_samples_text(s, text)),
             _traced_peak(lambda: write_samples_binary(s, binary)),
             _traced_peak(lambda: read_samples_binary(binary))]
    assert max(peaks) <= words.nbytes + (1 << 20), peaks
    assert "data" not in vars(s)
    assert np.array_equal(read_samples_binary(binary).words, words)
    # The text reader holds the 49 MB file once, beside the rows it
    # parses into and their words, with CRLF and lone-CR line ends too.
    lf = text.read_bytes()
    for end in [b"\n", b"\r\n", b"\r"]:
        text.write_bytes(lf.replace(b"\n", end))
        read = _traced_peak(lambda: read_samples_text(text))
        assert read <= text.stat().st_size + n * p + words.nbytes + (1 << 20)
        assert np.array_equal(read_samples_text(text).words, words)


def test_binary_read_refuses_words_past_physical_memory(tmp_path,
                                                        monkeypatch):
    # 1000 rows of p = 70 take two words each, 16000 bytes: their file is
    # refused, before any is allocated, by a memory one byte smaller.
    path, out = tmp_path / "s.bin", tmp_path / "result.json"
    write_samples_binary(SampleSet(70, 1000, np.ones((1000, 70))), path)
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1000 * 2 * 8 - 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="physical memory"):
            read_samples_binary(path)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert main(["learn", "--samples", str(path), "--threshold", "0.5",
                 "--out", str(out)]) == 3
    pages["SC_PHYS_PAGES"] += 1
    assert read_samples_binary(path).words.shape == (1000, 2)


def test_binary_header_past_its_payload_allocates_nothing(tmp_path):
    # 2^22 rows of 8 spins, 4 MB, under a header that declares one row
    # more, and under the largest n a header can hold.
    path = tmp_path / "short.bin"
    payload = bytes(1 << 22)
    for n in [(1 << 22) + 1, 2 ** 64 - 1]:
        path.write_bytes(b"ISNG" + struct.pack("<IQ", 8, n) + payload)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="payload has"):
                read_samples_binary(path)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


def test_glauber_refusal_counts_the_words(monkeypatch):
    # Each row's p spins and its W words, 32 bytes a site for the chain,
    # and 4 arrays of a chunk's 2^15 uniforms.
    n = 1000
    pages = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    config = GlauberConfig(seed=0, burn_in_sweeps=0, thinning_sweeps=1)
    for p, w in [(9, 1), (64, 1), (65, 2), (130, 3)]:
        pages["SC_PHYS_PAGES"] = n * (p + 8 * w) + 32 * p + (1 << 20) - 1
        with pytest.raises(CapabilityError, match="physical memory"):
            sample_glauber(IsingModel(p, {}), n, config)
    pages["SC_PHYS_PAGES"] = n * (65 + 8 * 2) + 32 * 65 + (1 << 20)
    assert sample_glauber(IsingModel(65, {}), n, config).words.shape == (n, 2)


def test_glauber_refusal_bounds_what_a_chain_holds(monkeypatch):
    # The charge bounds the peak of a chain with its rows and words, and
    # is within 3 times it: a 2^11-row chain fills its 2^15-uniform
    # chunks from p = 65 on, and at p = 9 holds 2^11 sweeps' uniforms.
    charges = []
    monkeypatch.setattr(sampler_module, "_check_memory",
                        lambda nbytes, what: charges.append(nbytes))
    config = GlauberConfig(seed=0, burn_in_sweeps=0, thinning_sweeps=1)
    n = 1 << 11
    sample_glauber(IsingModel(9, {}), 8, config)  # imports before tracing
    for p in [9, 65, 130]:
        model = IsingModel(p, {})
        peak = _traced_peak(lambda: sample_glauber(model, n, config).data)
        assert peak <= charges[-1] <= 3 * peak, (p, peak, charges[-1])


def test_exact_draws_enumerate_a_model_once(enumerations):
    m = make_grid_model(3, 0.6)
    first = sample_exact(m, 100, seed=1)
    second = sample_exact(m, 100, seed=1)
    assert len(enumerations) == 1 and enumerations[0] is m
    assert np.array_equal(first.data, second.data)
    fresh = make_grid_model(3, 0.6)  # an equal model enumerates again
    sample_exact(fresh, 100, seed=1)
    assert len(enumerations) == 2 and enumerations[1] is fresh


def _old_unpack(path) -> np.ndarray:
    """The rows of a binary sample file as the reader used to decode
    them: every bit unpacked, then mapped to -1/+1."""
    raw = path.read_bytes()
    p, n = struct.unpack("<IQ", raw[4:16])
    bits = np.unpackbits(np.frombuffer(raw[16:], dtype=np.uint8),
                         count=n * p, bitorder="little")
    return (bits.astype(np.int8) * 2 - 1).reshape(n, p)


def _set_to_write(p: int, n: int) -> SampleSet:
    """Up to p = 16 an exact draw; above, rows drawn from a few base
    configurations and their flips, so the tally folds and repeats."""
    if p <= 16:
        model = IsingModel(1, {}) if p == 1 else make_random_model(
            p, 0.4, 0.3, 0.9, seed=p)
        return sample_exact(model, n, seed=n)
    rng = np.random.default_rng(p * 1000 + n)
    base = rng.choice(np.array([-1, 1], dtype=np.int8), size=(5, p))
    rows = base[rng.integers(0, 5, n)] * rng.choice(
        np.array([-1, 1], dtype=np.int8), size=(n, 1))
    return SampleSet(p, n, rows)


@pytest.mark.parametrize("p", [1, 2, 7, 8, 9, 16, 25, 57, 58, 64, 65, 100,
                               130])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 1001])
def test_read_set_counts_the_tally_of_its_rows(tmp_path, p, n):
    path = tmp_path / "s.bin"
    write_samples_binary(_set_to_write(p, n), path)
    s = read_samples_binary(path)
    got = s.tally
    # The rows are counted from the file's words, not decoded.
    assert "data" not in vars(s)
    assert s.data.dtype == np.int8
    assert np.array_equal(s.data, _old_unpack(path))
    want = SampleSet(s.p, s.n, s.data).tally
    assert got.spins.dtype == want.spins.dtype == np.int8
    assert got.weights.dtype == want.weights.dtype
    assert np.array_equal(got.spins, want.spins)
    assert np.array_equal(got.weights, want.weights)
    assert got.total == want.total and type(got.total) is type(want.total)
    assert _ascends_by_words(got)


@pytest.mark.parametrize("p", [1, 16, 65])
@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7])
def test_binary_round_trip_across_chunks(tmp_path, p, n):
    # Written and read a chunk of rows at a time, the file is still the
    # packed stream of all its rows, and reads back to the same words.
    s = _set_to_write(p, n)
    path = tmp_path / "s.bin"
    write_samples_binary(s, path)
    bits = np.packbits(s.data.reshape(-1) > 0, bitorder="little")
    assert path.read_bytes() == (b"ISNG" + struct.pack("<IQ", p, n)
                                 + bits.tobytes())
    assert np.array_equal(read_samples_binary(path).words, s.words)


# Every n makes 64 n bits whole bytes, so p = 64 has no padding; the
# round trip below reads and writes it.
@pytest.mark.parametrize("p, n", [(3, 5), (9, 7), (13, 1), (57, 9), (58, 3),
                                  (65, 3), (100, 5), (130, 7)])
def test_padding_bits_are_ignored_and_written_as_zero(tmp_path, p, n):
    assert n * p % 8  # the last byte has padding bits
    clean, dirty, again = (tmp_path / f"{k}.bin"
                           for k in ("clean", "dirty", "again"))
    s = _set_to_write(p, n)
    write_samples_binary(s, clean)
    raw = clean.read_bytes()
    dirty.write_bytes(raw[:-1] + bytes([raw[-1] | (0xFF << n * p % 8) & 0xFF]))
    back = read_samples_binary(dirty)
    write_samples_binary(back, again)
    assert again.read_bytes() == raw
    assert np.array_equal(back.tally.spins, s.tally.spins)
    assert np.array_equal(back.tally.weights, s.tally.weights)
    assert np.array_equal(back.data, s.data)


@pytest.mark.parametrize("n", [1, 7, 9, 1001])
def test_wide_file_round_trips_byte_for_byte(tmp_path, n):
    rng = np.random.default_rng(n)
    path, again = tmp_path / "s.bin", tmp_path / "again.bin"
    for p in range(58, 131):
        payload = rng.integers(0, 256, (n * p + 7) // 8, dtype=np.uint8)
        if n * p % 8:
            payload[-1] &= (1 << n * p % 8) - 1  # padding bits are zero
        raw = b"ISNG" + struct.pack("<IQ", p, n) + payload.tobytes()
        path.write_bytes(raw)
        s = read_samples_binary(path)
        assert s.words.shape == (n, -(-p // 64))
        write_samples_binary(s, again)
        assert again.read_bytes() == raw
        assert np.array_equal(s.data, _old_unpack(path))


@pytest.mark.parametrize("p, n", [(0, 4), (4, 0), (0, 0)])
def test_binary_header_without_rows_or_spins_is_refused(tmp_path, p, n):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"ISNG" + struct.pack("<IQ", p, n))
    with pytest.raises(InputError, match="n >= 1 and p >= 1"):
        read_samples_binary(path)


@pytest.mark.parametrize("side", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 7, 1001])
def test_drawn_set_writes_the_file_of_its_rows(tmp_path, side, n):
    s = sample_exact(make_grid_model(side, 0.6, "spin_glass", seed=side),
                     n, seed=n)
    drawn, rows = tmp_path / "drawn.bin", tmp_path / "rows.bin"
    write_samples_binary(s, drawn)
    assert "data" not in vars(s)  # packed from the draw, not decoded
    write_samples_binary(SampleSet(s.p, s.n, s.data), rows)
    assert drawn.read_bytes() == rows.read_bytes()
    write_samples_binary(s, again := tmp_path / "again.bin")  # decoded now
    assert again.read_bytes() == rows.read_bytes()


def _old_write_text(samples: SampleSet, path):
    """The text writer as it was: one formatted row at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{samples.p} {samples.n}\n")
        for row in samples.data:
            fh.write(" ".join("+1" if s > 0 else "-1" for s in row))
            fh.write("\n")


@pytest.mark.parametrize("p", [1, 2, 9, 4000])
@pytest.mark.parametrize("n", [1, 257])
def test_text_writer_matches_the_row_loop(tmp_path, p, n):
    rng = np.random.default_rng(p + n)
    s = SampleSet(p, n, rng.choice(np.array([-1, 1], dtype=np.int8),
                                   size=(n, p)))
    bulk, loop = tmp_path / "bulk.txt", tmp_path / "loop.txt"
    write_samples_text(s, bulk)
    _old_write_text(s, loop)
    assert bulk.read_bytes() == loop.read_bytes()


def _old_read_text(path) -> SampleSet:
    """The text reader as it was: one row at a time."""
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


# Spellings int() reads as +1 and -1, and the separators str.split()
# splits on.
_PLUS = ["1", "+1", "01", "+0_1"]
_MINUS = ["-1", "-01", "-0_1"]
_SEPARATORS = [" ", "\t", "  ", "\x0b", " \x1f"]


def _text_rows(rng, spins) -> list[list[str]]:
    return [[rng.choice(_PLUS) if s > 0 else rng.choice(_MINUS) for s in row]
            for row in spins]


def _text_file(rng, p, n, rows, tail="\n") -> bytes:
    lines = [rng.choice(["", " "]) + "".join(
                 tok + (rng.choice(_SEPARATORS) if i < len(row) - 1 else "")
                 for i, tok in enumerate(row))
             for row in rows]
    ends = [rng.choice(["\n", "\r\n", "\r", " \n"]) for _ in lines[:-1]]
    body = "".join(line + end for line, end in zip(lines, ends)) + lines[-1]
    return f"{p} {n}\n{body}{tail}".encode("ascii")


def _outcome(read, path):
    try:
        return read(path).data.tolist()
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("p", [1, 2, 9])
@pytest.mark.parametrize("n", [1, 257])
def test_text_reader_matches_the_row_loop(tmp_path, p, n):
    rng = np.random.default_rng(10 * p + n)
    spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, p))
    path = tmp_path / "s.txt"
    for tail in ["\n", "", "\n\n \t\n"]:
        path.write_bytes(_text_file(rng, p, n, _text_rows(rng, spins), tail))
        assert read_samples_text(path).data.tolist() == spins.tolist()
        assert _old_read_text(path).data.tolist() == spins.tolist()
    write_samples_text(SampleSet(p, n, spins), path)
    assert np.array_equal(read_samples_text(path).data, spins)

    # Each kind of bad file fails with the row loop's message: the
    # first bad row, and in it the first failing check.
    def spoiled(edit, k):
        rows = _text_rows(rng, spins)
        edit(rows, k)
        return _text_file(rng, p, n, rows)

    def put(token):
        def edit(rows, k):
            rows[k][rng.integers(p)] = token
        return edit

    edits = [put(t) for t in ["2", "0", "-3", "x", "1_", "+-1", "1.0", "\x00"]]
    edits += [
        lambda rows, k: rows[k].pop(),
        lambda rows, k: rows[k].append("1"),
        lambda rows, k: rows.insert(k, []),
        lambda rows, k: rows.append(["1"] * p),
        lambda rows, k: rows.__setitem__(k, ["x"] * (p + 1)),
        lambda rows, k: rows[k].__setitem__(0, "y") or rows[-1].append("5"),
    ]
    for edit in edits:
        for k in {0, n // 2, n - 1}:
            path.write_bytes(spoiled(edit, k))
            expected = _outcome(_old_read_text, path)
            assert _outcome(read_samples_text, path) == expected
    for more in [1, n]:
        path.write_bytes(_text_file(rng, p, n + more, _text_rows(rng, spins)))
        assert _outcome(read_samples_text, path) == _outcome(_old_read_text,
                                                             path)
