import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from isinglearn import (CapabilityError, InputError, IsingModel, beta_d,
                        covariance_floor_check, empirical_covariance,
                        energy_exponent,
                        exact_distribution, exact_pair_covariance,
                        exact_probability, log_partition, make_grid_model,
                        make_random_model, model_from_json, model_to_json,
                        node_view, population_gradient_moments, sample_exact,
                        verification_report)
from isinglearn import model as model_module
from isinglearn import sampler as sampler_module
from isinglearn.model import (configurations_from_indices, load_model,
                              save_model)


def test_canonicalizes_and_validates_edges():
    m = IsingModel(3, {(2, 0): 1.5})
    assert m.couplings == {(0, 2): 1.5}
    with pytest.raises(InputError):
        IsingModel(3, {(1, 1): 0.5})
    with pytest.raises(InputError):
        IsingModel(3, {(0, 1): 0.0})
    with pytest.raises(InputError):
        IsingModel(3, {(0, 5): 0.5})
    with pytest.raises(InputError):
        IsingModel(3, {(0, 1): math.inf})
    with pytest.raises(InputError):
        IsingModel(0, {})


@pytest.mark.parametrize("p, couplings", [
    (3, {(0, 1): "0.5"}), (3, {(0, 1): True}), (3, {(0, 1): b"1"}),
    (3, {(0, 1): np.True_}), (3, {(0, 1): None}), (3, {(0, 1): 1 + 0j}),
    (3, {(0, 1): 10 ** 400}), (3, {(0, 1): 1e308, (1, 2): -1e308}),
    (True, {}), (3.0, {}), (3, {(True, 2): 0.5}), (3, {(0, 1.0): 0.5}),
    (3, {5: 0.5}), (3, {(0, 1, 2): 0.5}), (3, {"01": 0.5}), (3, {b"\0\1": 0.5}),
    (3, {(0, 1): 0.5, (1, 0): 0.2}), (3, {(-1, 1): 0.5}), (3, 5), (3, [(0, 1)])])
def test_model_refuses_malformed_keys_and_couplings(p, couplings):
    # Bools, strings and bytes are not numbers here, though float() and
    # int arithmetic take them; every refusal is an InputError.
    with pytest.raises(InputError):
        IsingModel(p, couplings)


def test_model_takes_numpy_endpoints_and_couplings():
    m = IsingModel(np.int64(3), {(np.int64(2), np.uint8(0)): np.float32(0.5),
                                 (np.int32(1), 2): np.int64(-2),
                                 (0, 1): np.float64(0.25)})
    assert m.p == 3 and type(m.p) is int
    assert m.couplings == {(0, 2): 0.5, (1, 2): -2.0, (0, 1): 0.25}
    assert all(type(i) is int and type(j) is int and type(t) is float
               for (i, j), t in m.couplings.items())


def test_equal_models_hash_alike():
    a = make_grid_model(3, 0.5, "spin_glass", seed=3)
    b = IsingModel(9, {(j, i): t for (i, j), t in reversed(a.couplings.items())})
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1 and len({IsingModel(2, {}), IsingModel(2)}) == 1
    assert hash(a) != hash(IsingModel(9, {}))


def test_couplings_are_read_only():
    # A write used to get past every check and leave the cached
    # adjacency and the hash stale: neighbors(2) == [], max_degree == 1,
    # and the model no longer found in a dict it keyed.
    m = IsingModel(3, {(0, 1): 0.5})
    d = {m: 1}
    assert m.neighbors(0) == [1]
    for write in (lambda c: c.__setitem__((1, 2), 0.0),
                  lambda c: c.__delitem__((0, 1)), lambda c: c.clear(),
                  lambda c: c.pop((0, 1)), lambda c: c.popitem(),
                  lambda c: c.setdefault((0, 2), "x"),
                  lambda c: c.update({(0, 2): 1.0}),
                  lambda c: c.__ior__({(0, 2): 1.0})):
        with pytest.raises(TypeError, match="read-only"):
            write(m.couplings)
    assert m.couplings == {(0, 1): 0.5} and dict(m.couplings) == {(0, 1): 0.5}
    assert m.neighbors(2) == [] and m.neighbors(1) == [0]
    assert m.max_degree == 1 and m in d
    for other in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert other == m and hash(other) == hash(m) and d[other] == 1
        assert other.couplings == {(0, 1): 0.5}
        with pytest.raises(TypeError):
            other.couplings[(1, 2)] = 1.0
    assert m.couplings | {(1, 2): 1.0} == {(0, 1): 0.5, (1, 2): 1.0}
    assert dataclasses.asdict(m) == {"p": 3, "couplings": {(0, 1): 0.5}}
    assert repr(m) == "IsingModel(p=3, couplings={(0, 1): 0.5})"


def test_degree_and_coupling_scales():
    m = IsingModel(4, {(0, 1): 0.5, (1, 2): -0.25, (2, 3): 1.0})
    assert m.max_degree == 2
    assert m.neighbors(1) == [0, 2]
    assert m.degree(3) == 1
    assert m.min_coupling == 0.25
    assert m.max_coupling == 1.0
    assert beta_d(m) == 2.0
    empty = IsingModel(3, {})
    assert empty.max_degree == 0
    assert beta_d(empty) == 0.0
    with pytest.raises(InputError):
        _ = empty.min_coupling


def test_adjacency_matches_a_scan_of_the_couplings():
    # Keys unsorted, some given as (j, i); vertices 0, 5 and 8 isolated.
    m = IsingModel(9, {(7, 2): 0.5, (1, 3): -1.0, (4, 2): 0.25,
                       (6, 1): -0.75, (2, 1): 2.0, (3, 7): 1.5})
    assert "_adjacency" not in vars(m)
    for u in range(m.p):
        pairs = sorted((j if i == u else i, theta)
                       for (i, j), theta in m.couplings.items() if u in (i, j))
        assert m.neighbors(u) == [v for v, _ in pairs]
        assert m.degree(u) == len(pairs)
        row = np.zeros(m.p - 1)
        for v, theta in pairs:
            row[v - (v > u)] = theta
        assert np.array_equal(m.coupling_row(u), row)
    assert m.max_degree == 3 == max(m.degree(u) for u in range(m.p))
    assert "_adjacency" in vars(m)
    grid = make_grid_model(4, 0.5)
    assert "_adjacency" not in vars(grid)
    assert grid.neighbors(5) == [1, 4, 6, 9] and "_adjacency" in vars(grid)


@pytest.mark.parametrize("u", [1.5, "1", True, -1, 4])
def test_vertex_must_be_an_integer_in_range(u):
    # One check serves the model's and the sample set's vertex queries.
    m = make_grid_model(2, 0.5)
    samples = sample_exact(m, 100, seed=1)
    for query in (m.neighbors, m.coupling_row, m.degree,
                  lambda v: node_view(samples, v),
                  lambda v: empirical_covariance(samples, v),
                  lambda v: exact_pair_covariance(m, v)):
        with pytest.raises(InputError):
            query(u)


def test_energy_exponent_hand_value():
    m = IsingModel(3, {(0, 1): 0.5, (1, 2): -0.3})
    assert energy_exponent(m, [1, 1, 1]) == pytest.approx(0.2, abs=1e-15)
    assert energy_exponent(m, [1, -1, 1]) == pytest.approx(-0.2, abs=1e-15)
    with pytest.raises(InputError):
        energy_exponent(m, [1, 2, 1])
    with pytest.raises(InputError):
        energy_exponent(m, [1, 1])


@pytest.mark.parametrize("spins", [["1", "-1"], [None, 1], [1 + 0j, -1],
                                   [True, True], [1.0, -1.5], [[1, -1]]])
def test_energy_exponent_refuses_non_spins(spins):
    m = IsingModel(2, {(0, 1): 0.5})
    with pytest.raises(InputError):
        energy_exponent(m, spins)
    with pytest.raises(InputError):
        exact_probability(m, spins)


def test_two_spin_closed_forms():
    # Z = 2 e^{0.5} + 2 e^{-0.5}; P(sigma_0 = sigma_1) = 1/(1 + e^{-1}).
    m = IsingModel(2, {(0, 1): 0.5})
    assert log_partition(m) == pytest.approx(1.5064088680781681, abs=1e-14)
    p_equal = exact_probability(m, [1, 1]) + exact_probability(m, [-1, -1])
    assert p_equal == pytest.approx(0.73105857863000488, abs=1e-14)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    for p in (2, 5, 10):
        edges = {}
        for i in range(p):
            for j in range(i + 1, p):
                if rng.random() < 0.4:
                    edges[(i, j)] = float(rng.normal())
        m = IsingModel(p, edges)
        total = 0.0
        for idx in range(1 << p):
            spins = [1 if (idx >> b) & 1 else -1 for b in range(p)]
            total += exact_probability(m, spins)
        assert total == pytest.approx(1.0, abs=1e-12)
        dist = exact_distribution(m)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist > 0)


def test_log_partition_extreme_couplings_no_overflow():
    # Couplings near 700 would overflow a naive exp sum.
    m = IsingModel(2, {(0, 1): 690.0})
    assert log_partition(m) == pytest.approx(690.0 + math.log(2.0), rel=1e-13)


def test_sign_flip_symmetry():
    # Global spin flip preserves the exponent, so probabilities pair up.
    m = make_random_model(5, 0.5, 0.3, 0.9, seed=12)
    dist = exact_distribution(m)
    flipped = (1 << 5) - 1 - np.arange(1 << 5)
    assert np.allclose(dist, dist[flipped], rtol=0, atol=1e-15)


@pytest.mark.parametrize("model", [
    make_grid_model(3, 0.7, "spin_glass", seed=4),
    make_random_model(10, 0.4, 0.2, 0.9, seed=8)])
def test_enumerated_exponents_are_the_energy_exponents(model):
    # Bit for bit: both add the same +/-theta terms in edge order.
    exponents = model_module.enumerate_exponents(model)
    spins = configurations_from_indices(np.arange(1 << model.p), model.p)
    assert exponents.tolist() == [energy_exponent(model, row)
                                  for row in spins]


def test_enumeration_guard():
    big = IsingModel(26, {(0, 1): 0.5})
    with pytest.raises(CapabilityError):
        log_partition(big)
    with pytest.raises(CapabilityError):
        exact_distribution(big)


def test_one_enumeration_per_model(enumerations, monkeypatch):
    lookups = []
    lookup = sampler_module._lookup

    def spying(cdf, guide, u):
        lookups.append((cdf, guide))
        return lookup(cdf, guide, u)

    monkeypatch.setattr(sampler_module, "_lookup", spying)
    m = make_grid_model(3, 0.4, "spin_glass", seed=2)
    sample_exact(m, 500, seed=1)
    sample_exact(m, 500, seed=2)
    log_z = log_partition(m)
    spins = [1, -1, 1, 1, -1, -1, 1, 1, 1]
    assert exact_probability(m, spins) == math.exp(
        energy_exponent(m, spins) - log_z)
    population_gradient_moments(m, 0)
    covariance_floor_check(m, 1)
    exact_pair_covariance(m, 2)
    verification_report(m, seed=5, n=2000, sets=5, rsc_trials=5)
    assert len(enumerations) == 1 and enumerations[0] is m
    # Both draws read one CDF, which ends at exactly 1.
    (cdf, guide), second = lookups[:2]
    assert second[0] is cdf and cdf[-1] == 1.0
    assert not cdf.flags.writeable
    # And one guide table over it, built from that one enumeration.
    assert second[1] is guide and guide is m._guide
    assert guide.dtype == np.int32 and guide.size == 1 << (m.p + 2)
    assert not guide.flags.writeable
    # One shared, read-only distribution.
    dist = exact_distribution(m)
    assert exact_distribution(m) is dist and not dist.flags.writeable
    with pytest.raises(ValueError):
        dist[0] = 0.5
    # The cache is not part of the model's value; an equal model built
    # afresh enumerates again.
    fresh = IsingModel(m.p, m.couplings)
    assert m == fresh
    exact_distribution(fresh)
    assert len(enumerations) == 2 and enumerations[1] is fresh


def test_grid_model_shapes():
    g2 = make_grid_model(2, 1.0)
    assert g2.p == 4
    assert len(g2.couplings) == 4  # wraparound duplicates collapse
    assert g2.max_degree == 2
    g3 = make_grid_model(3, 0.7)
    assert g3.p == 9
    assert len(g3.couplings) == 18
    assert g3.max_degree == 4
    assert all(v == 0.7 for v in g3.couplings.values())
    g4 = make_grid_model(4, 0.5)
    assert g4.p == 16
    assert len(g4.couplings) == 32
    assert all(g4.degree(u) == 4 for u in range(16))
    with pytest.raises(InputError):
        make_grid_model(1, 0.5)


@pytest.mark.parametrize("call", [
    lambda: make_grid_model(3, "0.5"),
    lambda: make_grid_model(2.5, 0.5),
    lambda: make_grid_model(3.0, 0.5),
    lambda: make_grid_model(True, 0.5),
    lambda: make_grid_model(3, True),
    lambda: make_grid_model(3, 0.5, "spin_glass", seed="1"),
    lambda: make_random_model(5, 0.5, 0.1, 0.5, seed="x"),
    lambda: make_random_model(5, 0.5, 0.1, 0.5, seed=1.5),
    lambda: make_random_model(5.0, 0.5, 0.1, 0.5, seed=1),
    lambda: make_random_model(5, "0.5", 0.1, 0.5, seed=1),
], ids=["beta-str", "side-float", "side-integral-float", "side-bool",
        "beta-bool", "glass-seed-str", "random-seed-str", "random-seed-float",
        "random-p-float", "random-probability-str"])
def test_generators_refuse_bad_scalars(call):
    # Each of these used to end in a bare TypeError or be accepted.
    with pytest.raises(InputError):
        call()


def test_spin_glass_signs_reproducible():
    a = make_grid_model(4, 0.9, "spin_glass", seed=5)
    b = make_grid_model(4, 0.9, "spin_glass", seed=5)
    c = make_grid_model(4, 0.9, "spin_glass", seed=6)
    assert a.couplings == b.couplings
    assert a.couplings != c.couplings
    assert all(abs(v) == 0.9 for v in a.couplings.values())
    signs = {v > 0 for v in a.couplings.values()}
    assert signs == {True, False}
    with pytest.raises(InputError):
        make_grid_model(4, 0.9, "spin_glass")


def test_ferromagnet_grid_checks_a_given_seed():
    # A ferromagnet draws nothing, but a seed given to it is checked as
    # the sign draw checks it; it used to be ignored.
    assert make_grid_model(3, 0.4, seed=np.uint8(1)) == make_grid_model(3, 0.4)
    for seed in (-1, "1", 1.5, True):
        with pytest.raises(InputError, match="seed"):
            make_grid_model(3, 0.4, seed=seed)


def test_random_model_respects_ranges():
    m = make_random_model(8, 0.4, 0.3, 0.8, seed=2)
    assert m.p == 8
    for (i, j), theta in m.couplings.items():
        assert 0 <= i < j < 8
        assert 0.3 <= abs(theta) <= 0.8
    assert make_random_model(8, 0.4, 0.3, 0.8, seed=2).couplings == m.couplings
    assert make_random_model(6, 0.0, 0.3, 0.8, seed=2).couplings == {}


@pytest.mark.parametrize("alpha, beta", [(0.1, math.inf), (math.inf, math.inf),
                                         (0.6, 0.5), (0.1, math.nan)])
def test_random_model_refuses_bad_widths(alpha, beta):
    with pytest.raises(InputError):
        make_random_model(5, 0.5, alpha, beta, seed=1)


def test_json_round_trip_bit_exact():
    m = make_random_model(7, 0.5, 0.2, 1.3, seed=9)
    text = model_to_json(m)
    back = model_from_json(text)
    assert back.p == m.p
    assert back.couplings == m.couplings  # dict equality is bit-exact on floats
    # 17 significant digits appear verbatim in the serialization
    obj = json.loads(text)
    assert [tuple((e["i"], e["j"])) for e in obj["edges"]] == m.edges


def test_json_file_round_trip(tmp_path):
    m = make_grid_model(3, 0.7)
    path = tmp_path / "m.json"
    save_model(m, path)
    assert load_model(path).couplings == m.couplings


@pytest.mark.parametrize("text", [
    "not json",
    '{"p": 3}',
    '{"p": 3, "edges": [{"i": 0, "j": 1}]}',
    '{"p": 3, "edges": [{"i": 0, "j": 1, "theta": 0.5}, {"i": 1, "j": 0, "theta": 0.2}]}',
    '{"p": 3, "edges": [{"i": 0, "j": 4, "theta": 0.5}]}',
    '{"p": true, "edges": []}',
    '{"p": 3, "edges": [{"i": true, "j": 2, "theta": 0.5}]}',
    '{"p": 3, "edges": [{"i": 0, "j": true, "theta": 0.5}]}',
    '{"p": 3, "edges": [{"i": 0, "j": 1, "theta": true}]}',
    '{"p": 3, "edges": [{"i": 0, "j": 1, "theta": "0.5"}]}',  # would load as 0.5
    '{"p": 3, "edges": [{"i": 0, "j": 1, "theta": null}]}',
    '{"p": 3, "edges": [{"i": [0], "j": 1, "theta": 0.5}]}',  # unhashable
    '{"p": 3, "edges": [{"i": 0, "j": {"k": 1}, "theta": 0.5}]}',
    pytest.param('{"p": 3, "edges": [{"i": 0, "j": 1, "theta": 1%s}]}'
                 % ("0" * 399), id="400-digit-theta"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-past-recursion"),
])
def test_json_rejects_malformed(text):
    with pytest.raises(InputError):
        model_from_json(text)


def _decode_reference(words, p):
    """A decode through an n x p uint64 bit matrix, of n words or of an
    n x W word array: spin i is bit i % 64 of word i // 64."""
    words = np.asarray(words, dtype=np.uint64).reshape(len(words), -1)
    i = np.arange(p)
    bits = (words[:, i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


@pytest.mark.parametrize("p, n", [(1, 28000), (16, 28000), (16, 80000),
                                  (16, 832000), (25, 80000), (64, 5000),
                                  (65, 5000), (100, 5000), (128, 5000)])
def test_configuration_decode_matches_bit_matrix(p, n):
    # p = 16 at the criterion-9 n_min sizes, and the enumeration extremes;
    # from p = 64 on, n x W words (W = 1 at 64), whose bits past p the
    # decode ignores.
    rng = np.random.default_rng(p + n)
    if p <= 25:
        idx = rng.integers(0, 1 << p, size=n, dtype=np.uint64)
        idx[:2] = [0, (1 << p) - 1]
    else:
        idx = rng.integers(0, 1 << 64, size=(n, -(-p // 64)), dtype=np.uint64)
        idx[:2] = [[0], [(1 << 64) - 1]]
    out = configurations_from_indices(idx, p)
    assert out.dtype == np.int8 and out.shape == (n, p)
    for lo in range(0, n, 100000):
        ref = _decode_reference(idx[lo:lo + 100000], p)
        assert np.array_equal(out[lo:lo + 100000], ref)
