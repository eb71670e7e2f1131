from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import FullPass

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


@pytest.mark.parametrize("field, value", [
    ("max_iterations", 2.5), ("max_iterations", "5"),
    ("max_iterations", None), ("lam", True), ("lam", "0.1"), ("lam", None),
    ("kkt_tolerance", "1e-7"), ("kkt_tolerance", None),
], ids=["iterations-float", "iterations-str", "iterations-none", "lam-bool",
        "lam-str", "lam-none", "tolerance-str", "tolerance-none"])
def test_config_refuses_non_numbers(field, value):
    # Each of these used to be accepted or to end in a bare TypeError.
    with pytest.raises(InputError):
        SolverConfig(**{field: value})


def test_config_takes_numpy_numbers_but_not_bools():
    cfg = SolverConfig(lam=np.float64(0.1), kkt_tolerance=np.float32(1e-6),
                       max_iterations=np.int64(50))
    view = node_view(sample_exact(make_grid_model(2, 0.5), 200, seed=1), 0)
    assert minimize(view, cfg).converged
    for field in ("lam", "kkt_tolerance", "max_iterations"):
        with pytest.raises(InputError):
            SolverConfig(**{field: np.True_})


def test_bad_start_shape_rejected():
    s = sample_exact(make_grid_model(2, 0.5), 200, seed=1)
    view = node_view(s, 0)
    with pytest.raises(InputError):
        minimize(view, SolverConfig(), x0=np.zeros(5))
    with pytest.raises(InputError):
        minimize_rows(s.tally, range(4), SolverConfig(), np.zeros((3, 4)))


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


def test_unsorted_rows_report_their_own_couplings():
    # Rows 3 and 0, in that order: row 3 starts at its solution and
    # keeps it bit for bit, row 0 starts from 0 and finds its own; each
    # report leaves out its own focal entry.
    s = sample_exact(make_grid_model(3, 0.7), 4000, seed=31)
    cfg = SolverConfig(lam=0.03, kkt_tolerance=1e-8)
    cold = minimize_rows(s.tally, range(9), cfg)
    x0 = np.zeros((2, 9))
    x0[0] = np.insert(cold[3].solution, 3, 0.0)
    three, zero = minimize_rows(s.tally, [3, 0], cfg, x0)
    assert three.iterations == 0
    assert three.solution.tobytes() == cold[3].solution.tobytes()
    assert zero.converged and zero.solution.shape == (8,)
    np.testing.assert_allclose(zero.solution, cold[0].solution, atol=1e-6)


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
    # p = 36: rows are 35 wide, past the cap; 2990 distinct rows, so
    # tables of up to 11 coordinates are smaller than the tally.
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
    # A working set of the whole row, past _WORKING_SET_CAP, sends every
    # row to the full design.
    with monkeypatch.context() as m:
        m.setattr(solver, "_WORKING_SET", s.p)
        return minimize_rows(s.tally, range(s.p), cfg)


def test_working_set_solve_matches_the_full_design(monkeypatch, full_passes,
                                                   table_builds):
    s = _torus_samples()
    cfg = SolverConfig(lam=lambda_schedule(s.p, s.n, 0.05),
                       kkt_tolerance=1e-8)
    reports = minimize_rows(s.tally, range(s.p), cfg)
    _certified_on_a_full_pass(s, reports, cfg)
    # One full pass at the start and one per outer round: every Newton
    # iteration ran on the tables, so no Hessian was taken on the full
    # design, and each pass after the first evaluates only rows the one
    # before left uncertified.
    assert table_builds and all(k == solver._WORKING_SET
                                for _, k in table_builds)
    assert not any(c.hessian for c in full_passes)
    assert len(full_passes) <= 1 + len(table_builds)
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

    def recording(design, rows, theta, faces, stack):
        if design.weights.ndim == 1:
            batches.append(faces.shape)
        return face_hessians(design, rows, theta, faces, stack)

    monkeypatch.setattr(solver, "face_hessians", recording)
    monkeypatch.setattr(solver, "_HESSIAN_ENTRIES", 1 << 13)
    reports = minimize_rows(s.tally, range(s.p), cfg)
    _certified_on_a_full_pass(s, reports, cfg)
    assert all(np.count_nonzero(r.solution) > solver._WORKING_SET_CAP
               for r in reports)
    assert sum(rows for rows, _ in batches) >= 2 * s.p
    assert all(rows * k * k <= 1 << 13 and k < s.p for rows, k in batches)


def _glass_samples(beta):
    # At beta = 0.9 the p = 16 glass of test_estimator.py: 1145 distinct
    # rows, so a table holds at most 10 coordinates.
    return sample_exact(make_grid_model(4, beta, "spin_glass", seed=5), 30000,
                        seed=49)


def test_each_round_solves_its_table_rows_in_one_call(monkeypatch,
                                                      full_passes,
                                                      table_builds):
    # After the first round some rows need 10 or more coordinates. Their
    # sets are capped at the widest table, 10, and every table row of a
    # round shares that width: each outer round builds one table and
    # makes one Newton call on it, and full passes only certify.
    s = _glass_samples(0.9)
    cfg = SolverConfig(lam=lambda_schedule(16, 30000, 0.05),
                       kkt_tolerance=1e-8)
    tables = []
    newton = solver._newton

    def recording(design_of, *args):
        tables.append(design_of(np.arange(1))[0].weights.ndim == 2)
        return newton(design_of, *args)

    monkeypatch.setattr(solver, "_newton", recording)
    reports = minimize_rows(s.tally, range(16), cfg)
    _certified_on_a_full_pass(s, reports, cfg)
    rounds = len(full_passes) - 1
    assert rounds >= 2 and all(tables)
    assert len(tables) == len(table_builds) == rounds
    assert not any(c.hessian for c in full_passes)
    assert max(k for _, k in table_builds) > solver._WORKING_SET
    full = _full_design_solve(monkeypatch, s, cfg)
    for a, b in zip(reports, full):
        np.testing.assert_array_equal(a.solution != 0, b.solution != 0)
        np.testing.assert_allclose(a.solution, b.solution, atol=1e-5)


def test_designs_whose_widest_tables_differ_solve_together(monkeypatch):
    # Two tallies of 30000 draws with 1145 and 832 distinct rows, either
    # side of 2^10: solved in one call, no table is as wide as a design
    # it is built from (the 1145-row design's rows, which alone take
    # 10-wide tables, are capped at 9 with the other's), and each
    # design's reports agree with its solve alone.
    designs = [_glass_samples(beta).tally for beta in (0.9, 1.0)]
    assert [d.spins.shape[1] for d in designs] == [1145, 832]
    cfg = SolverConfig(lam=lambda_schedule(16, 30000, 0.05),
                       kkt_tolerance=1e-8)
    widths = []
    pattern_table = solver.pattern_table

    def recording(design, rows, cols):
        widths.extend((d.spins.shape[1], cols.shape[1]) for d in design)
        return pattern_table(design, rows, cols)

    monkeypatch.setattr(solver, "pattern_table", recording)
    both = minimize_rows(designs, range(16), cfg)
    assert {m for m, _ in widths} == {1145, 832}
    assert all(1 << k < m for m, k in widths)
    assert max(k for _, k in widths) == 9
    for d, together in zip(designs, (both[:16], both[16:])):
        for a, b in zip(together, minimize_rows(d, range(16), cfg)):
            assert a.converged and b.converged
            np.testing.assert_allclose(a.solution, b.solution, rtol=0,
                                       atol=cfg.kkt_tolerance)


def _coupling_rows(reports):
    return np.array([np.insert(r.solution, u, 0.0)
                     for u, r in enumerate(reports)])


def _glass_start():
    # The glass of _glass_samples(0.9) fitted at another n, 10000 draws:
    # every row holds 3-6 couplings.
    s = sample_exact(make_grid_model(4, 0.9, "spin_glass", seed=5), 10000,
                     seed=50)
    return _coupling_rows(minimize_rows(s.tally, range(16), SolverConfig(
        lam=lambda_schedule(16, s.n, 0.05), kkt_tolerance=1e-8)))


def _glass_config():
    return SolverConfig(lam=lambda_schedule(16, 30000, 0.05),
                        kkt_tolerance=1e-8)


def _opens_on_one_table(calls, rows, x0):
    # The solve's first call builds one table of the given rows, at the
    # widest start support, and a full pass over every row follows it.
    assert [isinstance(c, FullPass) for c in calls[:2]] == [False, True]
    assert calls[0] == (rows, np.count_nonzero(x0, axis=1).max())
    assert calls[1].rows.tolist() == list(range(len(x0)))


def test_warm_start_opens_on_its_support_table(full_passes, table_builds,
                                               solver_calls):
    # Started from the fit at another n, every row takes its first round
    # on the table of its own support, before any full-design
    # evaluation; the full passes after it certify the rows, which end
    # with the cold fit's edges.
    s, cfg, x0 = _glass_samples(0.9), _glass_config(), _glass_start()
    cold = minimize_rows(s.tally, range(16), cfg)
    del solver_calls[:]
    warm = minimize_rows(s.tally, range(16), cfg, x0)
    _opens_on_one_table(solver_calls, 16, x0)
    assert np.count_nonzero(x0, axis=1).max() < solver._WORKING_SET
    assert all(r.restarts == 0 for r in warm)
    _certified_on_a_full_pass(s, warm, cfg)
    for a, b in zip(cold, warm):
        np.testing.assert_array_equal(a.solution != 0, b.solution != 0)
        np.testing.assert_allclose(a.solution, b.solution, atol=1e-6)


def test_warm_start_at_its_own_solution_takes_two_evaluations(
        full_passes, table_builds, solver_calls):
    # Its support's table, where it meets the tolerance, then the full
    # pass that certifies it: 0 iterations, the solution bit for bit.
    s, cfg = _glass_samples(0.9), _glass_config()
    cold = minimize_rows(s.tally, range(16), cfg)
    x0 = _coupling_rows(cold)
    del solver_calls[:]
    warm = minimize_rows(s.tally, range(16), cfg, x0)
    _opens_on_one_table(solver_calls, 16, x0)
    assert len(solver_calls) == 2 and not solver_calls[1].hessian
    assert [(r.iterations, r.evaluations) for r in warm] == [(0, 2)] * 16
    for a, b in zip(cold, warm):
        assert b.converged
        assert b.solution.tobytes() == a.solution.tobytes()


def test_all_zero_start_row_opens_with_a_full_pass(full_passes,
                                                   table_builds,
                                                   solver_calls):
    # Row 3 starts at 0 and the others from the fit at another n: the
    # first table holds the 15 warm rows only, and row 3 is first read
    # by the full pass after it, as a cold row is.
    s, cfg, x0 = _glass_samples(0.9), _glass_config(), _glass_start()
    x0[3] = 0.0
    del solver_calls[:]
    reports = minimize_rows(s.tally, range(16), cfg, x0)
    _opens_on_one_table(solver_calls, 15, x0)
    _certified_on_a_full_pass(s, reports, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_table_start_restarts_at_the_origin(full_passes, table_builds,
                                                solver_calls):
    # The supports of the fit at another n at couplings drawn
    # N(0, 30^2): each start's table objective is far above the
    # origin's, 1, so every row leaves the first table round and
    # restarts at the origin, and numpy stays silent.
    s, cfg = _glass_samples(0.9), _glass_config()
    x0 = np.where(_glass_start() != 0.0, np.random.default_rng(1).normal(
        scale=30, size=(16, 16)), 0.0)
    del solver_calls[:]
    reports = minimize_rows(s.tally, range(16), cfg, x0)
    _opens_on_one_table(solver_calls, 16, x0)
    assert all(r.restarts >= 1 for r in reports)
    assert all(np.isfinite(r.objective_value) for r in reports)
    _certified_on_a_full_pass(s, reports, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_saturated_table_start_is_flagged(lam, full_passes, table_builds,
                                          solver_calls):
    # Spin 1 copies spin 0 in the glass's draws (973 distinct rows, so
    # tables of up to 9 coordinates), and row 0 starts at theta_01 = 800:
    # on its one-column table every linear form is +800, past the clamp.
    # At lam = 0.05 the start is far and restarts; at lam = 0 it is not.
    # Only row 0 is flagged, and numpy stays silent.
    data = _glass_samples(0.9).data.copy()
    data[:, 1] = data[:, 0]
    x0 = np.zeros((16, 16))
    x0[0, 1] = 800.0
    reports = minimize_rows(SampleSet(16, 30000, data).tally, range(16),
                            SolverConfig(lam=lam, max_iterations=1), x0)
    _opens_on_one_table(solver_calls, 1, x0)
    assert [r.saturated for r in reports] == [u == 0 for u in range(16)]
    assert reports[0].restarts == (lam > 0)
    assert all(np.isfinite(r.objective_value) for r in reports)


def _face_system(hess, inside):
    return np.where(inside[:, :, None] & inside[:, None, :], hess,
                    np.eye(inside.shape[1]))


def test_face_zero_stepping_against_its_sign_leaves_the_face():
    # Coordinate 0 is in the support, 1 a face zero signed +1, 2 off the
    # face. The one-shot step moves 1 to -1.9; the face step solves
    # again without it, d_0 = 1 / 1, and moves 1 by exactly 0.
    hess = np.array([[[1.0, 2.0, 7.0], [2.0, 5.0, 7.0], [7.0, 7.0, 7.0]]])
    inside = np.array([[True, True, False]])
    rhs, zeros = np.array([[1.0, 0.1, 0.0]]), np.array([[0.0, 1.0, 0.0]])
    damping = np.zeros(1)
    one_shot = solver._newton_steps(_face_system(hess, inside), rhs, damping)
    np.testing.assert_allclose(one_shot, [[4.8, -1.9, 0.0]])
    step = solver._face_steps(hess, inside, rhs, zeros, damping)
    assert step.tolist() == [[1.0, 0.0, 0.0]]
    assert inside.tolist() == [[True, True, False]]
    # Signed -1 it keeps its step, the one-shot one.
    assert np.array_equal(solver._face_steps(hess, inside, rhs, -zeros,
                                             damping), one_shot)


def test_face_steps_without_a_leaving_zero_are_the_newton_steps():
    # Random positive-definite faces whose zeros are signed as their
    # one-shot steps: nothing leaves, and the steps are bit-identical.
    rng = np.random.default_rng(11)
    a = rng.normal(size=(40, 6, 6))
    hess = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(6)
    inside = rng.random((40, 6)) < 0.7
    rhs = rng.normal(size=(40, 6)) * inside
    damping = rng.random(40)
    steps = solver._newton_steps(_face_system(hess, inside), rhs, damping)
    zeros = np.sign(steps) * (rng.random((40, 6)) < 0.5)
    assert np.array_equal(
        solver._face_steps(hess, inside, rhs, zeros, damping), steps)


def test_singular_and_non_finite_face_steps_pass_through():
    # A singular face undamped is NaN, one damped is solved with its
    # damping, and a face with a NaN Hessian entry is NaN: each is what
    # _newton_steps gives, the NaN ones however their zeros are signed.
    hess = np.zeros((3, 2, 2))
    hess[2] = [[1.0, np.nan], [np.nan, 1.0]]
    inside = np.ones((3, 2), dtype=bool)
    rhs, damping = np.ones((3, 2)), np.array([0.0, 0.5, 0.0])
    steps = solver._newton_steps(_face_system(hess, inside), rhs, damping)
    assert np.isnan(steps[[0, 2]]).all() and steps[1].tolist() == [2.0, 2.0]
    for sign in (1.0, -1.0):
        zeros = np.array([[sign] * 2, [1.0] * 2, [sign] * 2])
        np.testing.assert_array_equal(
            solver._face_steps(hess, inside, rhs, zeros, damping), steps)


def test_face_consistent_steps_do_not_backtrack_on_the_widest_glass():
    # The beta = 1.2 glass of criterion 9 (manifest seed 424242, width
    # index 2) at its n_min, 832000 draws, fitted as `learn` fits it.
    # Projected one-shot steps took rows 1 and 2 to 18 and 17
    # iterations with 63 backtracks in all.
    ss = np.random.SeedSequence(424242, spawn_key=(0, 2))
    model = make_grid_model(4, 1.2, "spin_glass",
                            seed=int(ss.generate_state(1, np.uint64)[0]))
    s = sample_exact(model, 832000, 424242)
    reports = minimize_rows(s.tally, range(16), SolverConfig(
        lam=lambda_schedule(16, s.n, 0.05), kkt_tolerance=1e-7))
    assert all(r.converged for r in reports)
    assert max(r.iterations for r in reports) <= 12
    assert sum(r.backtracks for r in reports) <= 5
