import math

import numpy as np
import pytest
from scipy import stats

from isinglearn import (GlauberConfig, InputError, IsingModel, SampleSet,
                        empirical_covariance, exact_distribution,
                        make_grid_model, make_random_model,
                        read_samples_binary, read_samples_text, sample_exact,
                        sample_glauber, write_samples_binary,
                        write_samples_text)
from isinglearn.sampler import _colour_classes


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


def test_exact_sampler_deterministic_and_valid():
    m = make_grid_model(3, 0.7)
    a = sample_exact(m, 500, seed=42)
    b = sample_exact(m, 500, seed=42)
    c = sample_exact(m, 500, seed=43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.data.dtype == np.int8
    assert np.all(np.abs(a.data) == 1)


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
