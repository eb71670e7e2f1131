from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isinglearn import (InputError, IsingModel, SampleSet, SolverConfig,
                        kkt_residual, lambda_schedule, make_grid_model,
                        minimize, node_view, sample_exact, screening_gradient,
                        screening_value, soft_threshold, solver)
from isinglearn.sampler import GlauberConfig, sample_glauber
from isinglearn.screening import evaluate_rows
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
    # ends at the k-th accepted objective (a stalled row keeps its last).
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
    # Rows 0-1 start at their solutions, the others from 0; a cap one
    # below the others' largest iteration count leaves rows that finish
    # under it untouched and stops the rest at it.
    s = sample_exact(make_grid_model(3, 0.7), 4000, seed=31)
    cfg = SolverConfig(lam=0.03, kkt_tolerance=1e-8)
    cold = minimize_rows(s.tally, range(9), cfg)
    x0 = np.zeros((9, 9))
    for u in (0, 1):
        x0[u] = np.insert(cold[u].solution, u, 0.0)
    free = minimize_rows(s.tally, range(9), cfg, x0)
    cap = max(r.iterations for r in free[2:]) - 1
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
    # A far start on 20 samples is worse than the origin, so every row
    # restarts there. The 20 samples hold 2 distinct configurations, so
    # every Hessian is singular and the rows take gradient steps. With
    # the total 2^-64 of the weights' sum the loss at the origin is
    # 2^64, and the row whose 8 columns are equal reaches float
    # resolution at that scale far above the tolerance: its line search
    # runs out, a stall.
    s = sample_exact(make_grid_model(3, 0.7), 20, seed=1)
    cfg = SolverConfig(lam=0.05, kkt_tolerance=1e-7, max_iterations=1000)
    x0 = np.random.default_rng(1).normal(scale=30, size=(9, 9))
    far = minimize_rows(s.tally, range(9), cfg, x0)
    steep = s.tally._replace(total=s.tally.total * 2.0 ** -64)
    reports = far + minimize_rows(steep, range(9), cfg)
    assert all(r.converged and r.restarts >= 1 for r in far)
    assert sum(r.stalls for r in reports) >= 1
    assert sum(r.restarts for r in reports) >= 1
    for r in reports:
        assert 1 + r.iterations + r.backtracks <= r.evaluations
        assert r.evaluations <= 2 * r.iterations + r.backtracks + 1
        assert r.restarts + r.stalls <= r.iterations


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_start_overflow_raises_no_warning():
    # From x0 entries drawn N(0, 50^2) the starts' objectives are 1e64 to
    # 3e179, near overflow. Every row restarts from the origin, whose
    # objective is 1, and is certified; numpy stays silent.
    x0 = np.random.default_rng(1).normal(scale=50, size=(9, 9))
    cfg = SolverConfig(lam=0.05, kkt_tolerance=1e-7, max_iterations=5000)
    for beta in (0.3, 0.5):
        s = sample_exact(make_grid_model(3, beta, "spin_glass", seed=1),
                         2000, 1)
        reports = minimize_rows(s.tally, range(9), cfg, x0)
        assert all(np.isfinite(r.objective_value) for r in reports)
        assert all(r.restarts >= 1 for r in reports)
        _certified_on_a_full_pass(s, reports, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [0.0, 0.05, 0.2])
def test_copied_spin_solves_without_a_warning(lam):
    # Spin 1 copies spin 0, so the rows of the other vertices see two
    # equal columns and singular Hessians once both are on the face;
    # at lam = 0 rows 0 and 1 see a loss whose infimum 0 is approached
    # as their coupling grows. The damped Newton step keeps every row
    # within a few dozen rounds (plain gradient steps took up to 1469),
    # each is certified on a full pass, and numpy stays silent.
    data = sample_exact(make_grid_model(3, 0.7), 2000, seed=6).data.copy()
    data[:, 1] = data[:, 0]
    s = SampleSet(9, 2000, data)
    cfg = SolverConfig(lam=lam, kkt_tolerance=1e-8)
    reports = minimize_rows(s.tally, range(9), cfg)
    assert all(np.isfinite(r.objective_value) for r in reports)
    assert all(r.iterations <= 30 and r.stalls == 0 for r in reports)
    _certified_on_a_full_pass(s, reports, cfg)


def test_newton_search_that_runs_out_takes_a_gradient_step(monkeypatch):
    # With every Newton step zeroed, no Newton trial is accepted: each
    # round's search runs out and starts over from the gradient step in
    # the same round, so the rows converge on gradient steps alone,
    # without a stall.
    monkeypatch.setattr(solver, "_newton_steps",
                        lambda system, rhs, damping: np.zeros_like(rhs))
    s = sample_exact(make_grid_model(2, 0.5), 2000, seed=3)
    cfg = SolverConfig(lam=0.05, kkt_tolerance=1e-6)
    reports = minimize_rows(s.tally, range(4), cfg)
    _certified_on_a_full_pass(s, reports, cfg)
    for r in reports:
        assert r.iterations > 0 and r.stalls == 0
        assert r.backtracks >= (solver._LINE_SEARCH + 1) * r.iterations


def _torus_samples():
    # p = 36: rows are 35 wide, past twice the working set and the cap.
    return sample_glauber(make_grid_model(6, 0.4), 4000,
                          GlauberConfig(seed=7, burn_in_sweeps=100,
                                        thinning_sweeps=2))


def _certified_on_a_full_pass(s, reports, cfg):
    theta = np.array([np.insert(r.solution, u, 0.0)
                      for u, r in enumerate(reports)])
    _, grads, _ = evaluate_rows(s.tally, np.arange(s.p), theta)
    for u, r in enumerate(reports):
        assert r.converged
        assert kkt_residual(np.delete(grads[u], u), r.solution,
                            cfg.lam) <= cfg.kkt_tolerance


def _full_design_solve(monkeypatch, s, cfg):
    # A working set of half the row or more sends every row to the full
    # design.
    with monkeypatch.context() as m:
        m.setattr(solver, "_WORKING_SET", s.p)
        return minimize_rows(s.tally, range(s.p), cfg)


def test_working_set_solve_matches_the_full_design(monkeypatch, full_passes):
    s = _torus_samples()
    cfg = SolverConfig(lam=lambda_schedule(s.p, s.n, 0.05),
                       kkt_tolerance=1e-8)
    builds = []
    pattern_table = solver.pattern_table

    def counting(design, rows, cols):
        builds.append(cols.shape)
        return pattern_table(design, rows, cols)

    monkeypatch.setattr(solver, "pattern_table", counting)
    reports = minimize_rows(s.tally, range(s.p), cfg)
    _certified_on_a_full_pass(s, reports, cfg)
    # One full pass at the start and one per outer round: every Newton
    # iteration ran on the tables, so no Hessian was taken on the full
    # design, and each pass after the first evaluates only rows the one
    # before left uncertified.
    assert builds and all(k == solver._WORKING_SET for _, k in builds)
    assert not any(c.hessian for c in full_passes)
    assert len(full_passes) <= 1 + len(builds)
    assert full_passes[0].rows.tolist() == list(range(s.p))
    for before, after in zip(full_passes, full_passes[1:]):
        assert set(after.rows.tolist()) <= set(before.rows.tolist())
    assert sum(r.iterations for r in reports) >= 10 * len(full_passes)
    full = _full_design_solve(monkeypatch, s, cfg)
    for a, b in zip(reports, full):
        assert b.converged
        np.testing.assert_array_equal(a.solution != 0, b.solution != 0)
        np.testing.assert_allclose(a.solution, b.solution, atol=1e-5)


def test_row_past_the_working_set_cap_falls_back(monkeypatch, full_passes):
    # At this small penalty some rows end with more nonzeros than a
    # table may hold: they finish on the full design, where their Newton
    # rounds take their Hessians, and are certified as the table rows
    # are.
    s = _torus_samples()
    cfg = SolverConfig(lam=0.02, kkt_tolerance=1e-8)
    reports = minimize_rows(s.tally, range(s.p), cfg)
    _certified_on_a_full_pass(s, reports, cfg)
    wide = [u for u, r in enumerate(reports)
            if np.count_nonzero(r.solution) > solver._WORKING_SET_CAP]
    narrow = [u for u, r in enumerate(reports)
              if np.count_nonzero(r.solution) <= solver._WORKING_SET]
    assert wide and narrow
    # Each wide row's full-design solve takes at least two rounds.
    for u in wide:
        assert sum(u in c.rows for c in full_passes if c.hessian) >= 2
    full = _full_design_solve(monkeypatch, s, cfg)
    for a, b in zip(reports, full):
        np.testing.assert_array_equal(a.solution != 0, b.solution != 0)
        np.testing.assert_allclose(a.solution, b.solution, atol=1e-5)


def test_many_wide_rows_batch_their_newton_systems(monkeypatch):
    # At this penalty all 36 rows end wider than a table may hold and
    # finish on the full design. Each round takes their Hessians only
    # on their faces, in batches of rows whose systems hold at most
    # _HESSIAN_ENTRIES entries (shrunk here to 8192, under 8 rows of 35
    # columns), so memory does not grow with the number of rows.
    s = _torus_samples()
    cfg = SolverConfig(lam=0.005, kkt_tolerance=1e-8)
    batches = []
    face_hessians = solver.face_hessians

    def recording(design, rows, theta, faces):
        if design.weights.ndim == 1:
            batches.append(faces.shape)
        return face_hessians(design, rows, theta, faces)

    monkeypatch.setattr(solver, "face_hessians", recording)
    monkeypatch.setattr(solver, "_HESSIAN_ENTRIES", 1 << 13)
    reports = minimize_rows(s.tally, range(s.p), cfg)
    _certified_on_a_full_pass(s, reports, cfg)
    assert all(np.count_nonzero(r.solution) > solver._WORKING_SET_CAP
               for r in reports)
    assert sum(rows for rows, _ in batches) >= 2 * s.p
    assert all(rows * k * k <= 1 << 13 and k < s.p for rows, k in batches)
