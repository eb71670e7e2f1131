from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isinglearn import (InputError, IsingModel, SampleSet, SolverConfig,
                        kkt_residual, make_grid_model, minimize, node_view,
                        sample_exact, screening_gradient, screening_value,
                        soft_threshold)
from isinglearn.solver import minimize_rows


def test_soft_threshold_basic():
    x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    out = soft_threshold(x, 1.0)
    np.testing.assert_array_equal(out, [-2.0, 0.0, 0.0, 0.0, 2.0])
    np.testing.assert_array_equal(soft_threshold(x, 0.0), x)


@given(st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
def test_soft_threshold_hypothesis(x, t):
    y = float(soft_threshold(np.array([x]), t)[0])
    assert abs(y) == pytest.approx(max(abs(x) - t, 0.0), abs=1e-9)
    assert y == 0.0 or np.sign(y) == np.sign(x)
    assert abs(y) <= abs(x)


def test_large_penalty_gives_exact_zero_without_iterating():
    # The gradient at the origin is an average of +/-1 vectors, so any
    # penalty above 1 certifies the origin immediately.
    s = sample_exact(make_grid_model(3, 0.7), 2000, seed=4)
    view = node_view(s, 0)
    report = minimize(view, SolverConfig(lam=1.5))
    assert report.iterations == 0
    assert report.converged
    assert np.all(report.solution == 0.0)
    assert report.objective_value == 1.0


def test_unpenalized_two_spin_matches_arctanh():
    # With two spins and no penalty the minimizer has the closed form
    # atanh of the empirical spin product mean.
    m = IsingModel(2, {(0, 1): 0.6})
    s = sample_exact(m, 50000, seed=8)
    mean_product = float(np.mean(s.data[:, 0] * s.data[:, 1]))
    view = node_view(s, 0)
    report = minimize(view, SolverConfig(lam=0.0, kkt_tolerance=1e-10))
    assert report.converged
    assert report.solution[0] == pytest.approx(np.arctanh(mean_product),
                                               abs=1e-8)


def test_kkt_certificate_recomputed_independently():
    s = sample_exact(make_grid_model(3, 0.7), 5000, seed=15)
    for u in (0, 4):
        view = node_view(s, u)
        cfg = SolverConfig(lam=0.05, kkt_tolerance=1e-8)
        report = minimize(view, cfg)
        assert report.converged
        grad = screening_gradient(view, report.solution)
        assert kkt_residual(grad, report.solution, cfg.lam) <= cfg.kkt_tolerance
        assert report.final_kkt_residual <= cfg.kkt_tolerance


def test_accepted_objectives_never_increase():
    # The solver is deterministic, so the run capped at k iterations
    # ends at the k-th accepted objective (a restart round repeats the
    # one before it).
    s = sample_exact(make_grid_model(3, 0.8), 3000, seed=23)
    view = node_view(s, 4)
    cfg = SolverConfig(lam=0.02, kkt_tolerance=1e-9)
    runs = [minimize(view, replace(cfg, max_iterations=k))
            for k in range(1, 61)]
    hist = np.array([screening_value(view, np.zeros(8))]
                    + [r.objective_value for r in runs])
    # Non-increasing up to float rounding of the composite objective.
    assert np.all(np.diff(hist) <= 1e-14 * (1.0 + np.abs(hist[:-1])))
    assert hist[-1] <= hist[0]
    last = runs[-1]
    assert last.restarts >= 1
    assert hist[-1] == pytest.approx(
        screening_value(view, last.solution)
        + cfg.lam * float(np.abs(last.solution).sum()), rel=1e-12)


def test_solution_independent_of_start():
    s = sample_exact(make_grid_model(3, 0.7), 4000, seed=31)
    view = node_view(s, 2)
    cfg = SolverConfig(lam=0.03, kkt_tolerance=1e-10)
    a = minimize(view, cfg)
    rng = np.random.default_rng(0)
    b = minimize(view, cfg, x0=rng.normal(scale=0.5, size=8))
    assert a.converged and b.converged
    obj = lambda r: r.objective_value
    assert obj(a) == pytest.approx(obj(b), rel=1e-8)
    np.testing.assert_allclose(a.solution, b.solution, atol=1e-4)


def test_iteration_cap_reports_nonconvergence():
    s = sample_exact(make_grid_model(3, 0.7), 2000, seed=5)
    view = node_view(s, 0)
    report = minimize(view, SolverConfig(lam=1e-4, kkt_tolerance=1e-14,
                                         max_iterations=3))
    assert not report.converged
    assert report.iterations == 3


def test_config_validation():
    with pytest.raises(InputError):
        SolverConfig(lam=-0.1)
    with pytest.raises(InputError):
        SolverConfig(lam=float("inf"))
    with pytest.raises(InputError):
        SolverConfig(kkt_tolerance=0.0)
    with pytest.raises(InputError):
        SolverConfig(max_iterations=0)


def test_bad_start_shape_rejected():
    s = sample_exact(make_grid_model(2, 0.5), 200, seed=1)
    view = node_view(s, 0)
    with pytest.raises(InputError):
        minimize(view, SolverConfig(), x0=np.zeros(5))


def test_saturation_is_flagged_per_row():
    # Spin 1 copies spin 0, so row 0 started at theta_01 = 800 has every
    # linear form at +800, past the clamp; the other rows start at 0.
    data = sample_exact(make_grid_model(3, 0.7), 2000, seed=6).data.copy()
    data[:, 1] = data[:, 0]
    x0 = np.zeros((9, 9))
    x0[0, 1] = 800.0
    reports = minimize_rows(SampleSet(9, 2000, data).tally, range(9),
                            SolverConfig(lam=0.05, max_iterations=1), x0)
    assert [r.saturated for r in reports] == [u == 0 for u in range(9)]
    assert all(np.isfinite(r.objective_value) for r in reports)


def test_restart_from_own_solution_takes_no_iterations():
    s = sample_exact(make_grid_model(3, 0.7), 4000, seed=31)
    cfg = SolverConfig(lam=0.03, kkt_tolerance=1e-8)
    cold = minimize_rows(s.tally, range(9), cfg)
    assert all(r.converged for r in cold)
    x0 = np.array([np.insert(r.solution, u, 0.0) for u, r in enumerate(cold)])
    warm = minimize_rows(s.tally, range(9), cfg, x0)
    assert [r.iterations for r in warm] == [0] * 9
    assert [r.evaluations for r in warm] == [1] * 9
    for a, b in zip(cold, warm):
        assert b.converged
        assert np.array_equal(a.solution, b.solution)


def test_rows_finish_at_start_under_the_cap_and_at_it():
    # Rows 0-1 start at their solutions, the others from 0; a cap at
    # the others' median iteration count leaves rows that finish under
    # it untouched and stops the rest at it.
    s = sample_exact(make_grid_model(3, 0.7), 4000, seed=31)
    cfg = SolverConfig(lam=0.03, kkt_tolerance=1e-8)
    cold = minimize_rows(s.tally, range(9), cfg)
    x0 = np.zeros((9, 9))
    for u in (0, 1):
        x0[u] = np.insert(cold[u].solution, u, 0.0)
    free = minimize_rows(s.tally, range(9), cfg, x0)
    cap = int(np.median([r.iterations for r in free[2:]]))
    capped = minimize_rows(s.tally, range(9),
                           replace(cfg, max_iterations=cap), x0)
    assert [(r.iterations, r.evaluations) for r in capped[:2]] == [(0, 1)] * 2
    over = 0
    for a, b in zip(free, capped):
        if a.iterations <= cap:
            assert b.solution.tobytes() == a.solution.tobytes()
            assert (b.iterations, b.final_kkt_residual, b.converged,
                    b.evaluations, b.backtracks, b.restarts, b.stalls) == (
                a.iterations, a.final_kkt_residual, a.converged,
                a.evaluations, a.backtracks, a.restarts, a.stalls)
        else:
            over += 1
            assert b.iterations == cap and not b.converged
            assert b.final_kkt_residual > cfg.kkt_tolerance
    assert over >= 1


def test_far_start_stalls_and_restarts():
    # From a far start on 20 samples one row rejects a plain step from
    # its iterate (a stall) and shrinks its step; others restart.
    s = sample_exact(make_grid_model(3, 0.7), 20, seed=1)
    x0 = np.random.default_rng(1).normal(scale=30, size=(9, 9))
    reports = minimize_rows(s.tally, range(9),
                            SolverConfig(lam=0.05, kkt_tolerance=1e-7,
                                         max_iterations=1000), x0)
    assert sum(r.stalls for r in reports) >= 1
    assert sum(r.restarts for r in reports) >= 1
    for r in reports:
        assert 1 + r.iterations + r.backtracks <= r.evaluations
        assert r.evaluations <= 2 * r.iterations + r.backtracks + 1
        assert r.restarts + r.stalls <= r.iterations
