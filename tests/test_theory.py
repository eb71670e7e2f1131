import json
import math

import numpy as np
import pytest

from isinglearn import (InputError, IsingModel, ModelParams,
                        covariance_concentration_bound, covariance_floor_check,
                        coupling_error_bound, coupling_error_sample_bound,
                        exact_distribution, exact_pair_covariance,
                        gradient_sup_bound, make_grid_model,
                        make_random_model, node_view, params_from_model,
                        population_gradient_moments, restricted_convexity_check,
                        rsc_sample_bound, sample_exact, sample_lower_bound,
                        sample_upper_bound_existence,
                        sample_upper_bound_existence_log2, structure_lnp_coefficient,
                        structure_sample_bound, support_bound,
                        verification_report)
from isinglearn.model import configurations_from_indices

# Reference values below were computed independently with 50-digit
# arithmetic (mpmath) and frozen to 17 significant digits.
P16 = ModelParams(p=16, d=4, alpha=0.7, beta=0.7)


def test_params_validation_and_derivation():
    with pytest.raises(InputError):
        ModelParams(p=1, d=1, alpha=0.5, beta=0.5)
    with pytest.raises(InputError):
        ModelParams(p=4, d=0, alpha=0.5, beta=0.5)
    with pytest.raises(InputError):
        ModelParams(p=4, d=2, alpha=0.9, beta=0.5)  # alpha > beta
    m = make_grid_model(3, 0.7)
    got = params_from_model(m)
    assert (got.p, got.d) == (9, 4)
    assert got.alpha == got.beta == pytest.approx(0.7)
    assert got.beta_d == pytest.approx(2.8)


def test_sample_lower_bound_frozen():
    assert sample_lower_bound(P16) == pytest.approx(3.2768466335716492,
                                                    rel=1e-12)


def test_sample_lower_bound_branch_guard():
    # With p*d/4 - 1 <= 1 the log in the degree branch is nonpositive,
    # so only the coupling-strength branch contributes.
    small = ModelParams(p=2, d=1, alpha=0.5, beta=0.5)
    expected = math.log(2.0) / (2.0 * 0.5 * math.tanh(0.5))
    assert sample_lower_bound(small) == pytest.approx(expected, rel=1e-12)


def test_existence_bounds_frozen():
    assert sample_upper_bound_existence(P16, 0.05) == pytest.approx(
        319468962775.93438, rel=1e-12)
    assert sample_upper_bound_existence_log2(P16, 0.05) == pytest.approx(
        425596194729.41527, rel=1e-12)
    assert (sample_upper_bound_existence_log2(P16, 0.05)
            > sample_upper_bound_existence(P16, 0.05))


def test_coupling_error_bounds_frozen():
    assert coupling_error_sample_bound(P16, 0.05) == pytest.approx(
        1249345985838989.9, rel=1e-12)
    assert coupling_error_bound(P16, 0.05, 1000000) == pytest.approx(
        29832.869428624285, rel=1e-12)
    # Quadrupling n halves the error bound exactly.
    assert coupling_error_bound(P16, 0.05, 4000000) == pytest.approx(
        coupling_error_bound(P16, 0.05, 1000000) / 2.0, rel=1e-15)


def test_structure_bounds_frozen():
    assert structure_sample_bound(P16, 0.05) == pytest.approx(
        13132178557817422.0, rel=1e-12)
    assert structure_lnp_coefficient(P16) == pytest.approx(
        3174039978679127.1, rel=1e-12)


def test_gradient_sup_bound_frozen_and_warning():
    assert gradient_sup_bound(4, 10000, 0.1) == pytest.approx(
        0.041866581588058424, rel=1e-12)
    # Outside the validity regime the calculator still answers but warns.
    with pytest.warns(UserWarning, match="validity"):
        gradient_sup_bound(4, 10, 0.1, beta_d_value=2.8)
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("error")
        gradient_sup_bound(4, 10 ** 9, 0.1, beta_d_value=2.8)


def test_rsc_and_covariance_sample_bounds_frozen():
    p9 = ModelParams(p=9, d=4, alpha=0.2, beta=0.2)
    assert rsc_sample_bound(p9, 0.05) == pytest.approx(148520836.34182683,
                                                       rel=1e-12)
    expected = 2.0 / 0.01 * math.log(16.0 ** 2 / 0.05)
    assert covariance_concentration_bound(16, 0.1, 0.05) == pytest.approx(
        expected, rel=1e-12)


def test_support_bound_matches_width():
    m = make_grid_model(3, 0.7)
    assert support_bound(m) == pytest.approx(math.exp(2.8), rel=1e-12)
    assert support_bound(IsingModel(4, {})) == 1.0


def test_population_gradient_identities():
    # At the true couplings the enumerated gradient-term mean vanishes
    # and every second moment equals one, to enumeration accuracy.
    for m in (make_grid_model(2, 0.9), IsingModel(5, {(0, 1): 1.2, (2, 3): -0.7})):
        for u in range(m.p):
            mean, second = population_gradient_moments(m, u)
            assert float(np.abs(mean).max()) <= 1e-12
            np.testing.assert_allclose(second, 1.0, rtol=1e-12)


def _enumerated_moments(model, u):
    """Reference: the per-sample gradient terms' mean and second moment
    and the pair covariance excluding u, summed over every
    configuration with its probability."""
    configs = configurations_from_indices(np.arange(1 << model.p), model.p)
    probs = exact_distribution(model)
    others = np.delete(np.arange(model.p), u)
    g = (configs[:, others] * configs[:, [u]]).astype(np.float64)
    x = np.exp(-(g @ model.coupling_row(u)))
    block = configs[:, others].astype(np.float64)
    return (-((probs * x) @ g), float((probs * x) @ x),
            (block * probs[:, None]).T @ block)


@pytest.mark.parametrize("model", [
    make_grid_model(2, 0.9),
    IsingModel(5, {(0, 1): 1.2, (2, 3): -0.7}),
    make_random_model(17, 0.3, 0.2, 0.5, seed=3),  # two enumeration chunks
], ids=["grid2", "p5", "random17"])
def test_population_moments_match_enumeration_formula(model):
    for u in (0, model.p - 1):
        mean_ref, second_ref, h_ref = _enumerated_moments(model, u)
        mean, second = population_gradient_moments(model, u)
        np.testing.assert_allclose(mean, mean_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(second, second_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(exact_pair_covariance(model, u), h_ref,
                                   rtol=0, atol=1e-15)


def test_exact_pair_covariance_structure():
    m = make_grid_model(2, 0.8)
    h = exact_pair_covariance(m, 0)
    assert h.shape == (3, 3)
    np.testing.assert_allclose(h, h.T, atol=1e-15)
    np.testing.assert_allclose(np.diag(h), 1.0, atol=1e-14)
    # Spin-flip symmetry kills first moments, so entries are the pair
    # correlations; all must sit strictly inside (-1, 1) here.
    off = h[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 1.0)


def test_covariance_floor_checks():
    edgeless = IsingModel(5, {})
    got = covariance_floor_check(edgeless, 0)
    assert got.min_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert got.floor == 1.0

    m = make_grid_model(3, 0.7)
    got = covariance_floor_check(m, 4)
    assert got.floor == pytest.approx(0.00073957274329658616, rel=1e-12)
    assert got.min_eigenvalue >= got.floor


def test_restricted_convexity_on_fresh_samples():
    m = make_grid_model(2, 0.4)
    s = sample_exact(m, 200000, seed=19)
    view = node_view(s, 0)
    report = restricted_convexity_check(view, m, 0, trials=150, seed=7)
    assert report.passed
    assert report.worst_ratio >= report.floor
    assert report.radius == pytest.approx(2.0 / math.sqrt(2.0))
    assert report.n == s.n
    with pytest.raises(InputError):
        restricted_convexity_check(view, m, 0, trials=0, seed=7)


def test_verification_report_passes_and_is_deterministic():
    m = make_grid_model(2, 0.4)
    a = verification_report(m, seed=123, n=5000, sets=60, rsc_trials=60)
    b = verification_report(m, seed=123, n=5000, sets=60, rsc_trials=60)
    assert a["all_passed"]
    assert a == b
    names = [e["oracle"] for e in a["oracles"]]
    assert names == [
        "screening_mean_zero", "screening_unit_second_moment", "support_bound",
        "kernel_floor", "remainder_quadratic_floor",
        "covariance_eigenvalue_floor", "gradient_sup_concentration",
        "penalty_dominates_gradient", "covariance_concentration",
        "restricted_convexity",
    ]
    for e in a["oracles"]:
        assert {"oracle", "passed", "statistic", "bound"} <= set(e)
    # The whole report must be plain-JSON serializable.
    doc = json.loads(json.dumps(a))
    assert doc["metadata"]["seed"] == 123
    assert doc["metadata"]["rng"] == "numpy-pcg64"
