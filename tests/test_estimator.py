import json
from dataclasses import fields, replace

import numpy as np
import pytest

from isinglearn import (EdgeSet, GlauberConfig, InputError, IsingModel,
                        SampleSet, SolverConfig, edges_from_estimates,
                        fit_all_nodes, fit_node, kkt_residual,
                        lambda_schedule, learn_structure, make_grid_model,
                        make_random_model, perfect_recovery, result_to_json,
                        sample_exact, sample_glauber, square_error)
from isinglearn.estimator import coupling_matrix, fit_tallies, report_fields
from isinglearn.sampler import Design
from isinglearn.solver import minimize_rows


def test_lambda_schedule_frozen_values():
    # 4 sqrt(ln(3 p^2 / eps) / n) and the node variant with 3 p / eps.
    assert lambda_schedule(16, 10000, 0.05) == pytest.approx(
        0.12419031850640637, rel=1e-15)
    assert lambda_schedule(16, 10000, 0.05, mode="node") == pytest.approx(
        0.10481933626549546, rel=1e-15)
    assert lambda_schedule(9, 250000, 0.05) == pytest.approx(
        0.023308427614947571, rel=1e-15)


def test_lambda_schedule_orderings():
    for p, n in ((4, 1000), (20, 77), (100, 123456)):
        node = lambda_schedule(p, n, 0.1, mode="node")
        structure = lambda_schedule(p, n, 0.1)
        assert node < structure
        # Quadrupling n is an exact division by two in IEEE arithmetic.
        assert lambda_schedule(p, 4 * n, 0.1) == structure / 2.0
    with pytest.raises(InputError):
        lambda_schedule(1, 100, 0.1)
    with pytest.raises(InputError):
        lambda_schedule(4, 0, 0.1)
    # A one-spin set has no couplings to fit.
    with pytest.raises(InputError):
        fit_all_nodes(SampleSet(1, 3, np.ones((3, 1), dtype=np.int8)), 0.1)
    with pytest.raises(InputError):
        lambda_schedule(4, 100, 1.5)
    with pytest.raises(InputError):
        lambda_schedule(4, 100, 0.1, mode="both")


@pytest.mark.parametrize("p, n, epsilon", [
    (4, 10, "0.1"), (4, 10.5, 0.1), (4.0, 10, 0.1), (4, True, 0.1),
    (4, 10, True), (4, "10", 0.1)])
def test_lambda_schedule_refuses_bad_scalars(p, n, epsilon):
    # A string used to end in a bare TypeError, and floats were taken.
    with pytest.raises(InputError):
        lambda_schedule(p, n, epsilon)


def test_fit_node_on_edgeless_model_stays_small():
    # True couplings are all zero; the penalized estimate must stay
    # within a couple of penalty widths of the origin.
    m = IsingModel(6, {})
    s = sample_exact(m, 10000, seed=40)
    lam = lambda_schedule(6, s.n, 0.1)
    for u in (0, 3):
        est = fit_node(s, u, lam)
        assert est.report.converged
        assert np.all(np.abs(est.theta_hat) <= 2.0 * lam)


def test_chain_recovery_small():
    m = IsingModel(5, {(0, 1): 0.8, (1, 2): 0.8, (2, 3): 0.8, (3, 4): 0.8})
    s = sample_exact(m, 60000, seed=41)
    lam = lambda_schedule(5, s.n, 0.05)
    result = learn_structure(s, lam, alpha_threshold=0.8)
    assert perfect_recovery(result, m)
    for e, w in result.weights.items():
        assert w == pytest.approx(0.8, abs=0.25)


def test_threshold_monotonicity():
    m = make_grid_model(3, 0.7)
    s = sample_exact(m, 40000, seed=42)
    lam = lambda_schedule(9, s.n, 0.05)
    estimates = fit_all_nodes(s, lam)
    loose = edges_from_estimates(estimates, 0.3, 9)
    tight = edges_from_estimates(estimates, 0.7, 9)
    assert tight.edges <= loose.edges
    for e in tight.edges:
        assert tight.weights[e] == loose.weights[e]


def test_l1_norm_shrinks_with_penalty():
    s = sample_exact(make_grid_model(3, 0.7), 30000, seed=43)
    cfg = SolverConfig(kkt_tolerance=1e-10)
    norms = []
    for lam in (0.005, 0.02, 0.08, 0.32):
        est = fit_node(s, 0, lam, cfg)
        assert est.report.converged
        norms.append(float(np.abs(est.theta_hat).sum()))
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-8


def test_symmetric_fits_agree_across_vertex_pairs():
    m = make_grid_model(3, 0.7)
    s = sample_exact(m, 100000, seed=44)
    lam = lambda_schedule(9, s.n, 0.05)
    estimates = fit_all_nodes(s, lam)
    worst = 0.0
    for i, j in m.couplings:
        t_ij = estimates[i].theta_hat[j - (j > i)]
        t_ji = estimates[j].theta_hat[i - (i > j)]
        worst = max(worst, abs(float(t_ij) - float(t_ji)))
    assert worst <= 0.1


def test_estimates_invariant_to_row_duplication_and_order():
    m = make_grid_model(2, 0.8)
    s = sample_exact(m, 4000, seed=45)
    lam = 0.05
    base = [e.theta_hat for e in fit_all_nodes(s, lam)]
    doubled = SampleSet(s.p, 2 * s.n, np.vstack([s.data, s.data]))
    perm = np.random.default_rng(7).permutation(s.n)
    shuffled = SampleSet(s.p, s.n, s.data[perm])
    for variant in (doubled, shuffled):
        other = [e.theta_hat for e in fit_all_nodes(variant, lam)]
        for a, b in zip(base, other):
            assert np.array_equal(a, b)


def _samples(p: int) -> SampleSet:
    if p == 9:
        return sample_exact(make_grid_model(3, 0.7), 20000, seed=48)
    if p == 16:
        return sample_exact(make_grid_model(4, 0.9, "spin_glass", seed=5),
                            30000, seed=49)
    # Above 64 spins the tally keeps configurations as rows.
    model = make_random_model(p, 0.05, 0.3, 0.6, seed=50)
    return sample_glauber(model, 1500, GlauberConfig(seed=51, burn_in_sweeps=50,
                                                     thinning_sweeps=2))


@pytest.mark.parametrize("p", [9, 16, 70])
def test_all_node_fit_matches_one_row_fits(p):
    s = _samples(p)
    lam = lambda_schedule(p, s.n, 0.05)
    cfg = SolverConfig(kkt_tolerance=1e-8)
    estimates = fit_all_nodes(s, lam, cfg)
    assert [e.u for e in estimates] == list(range(p))
    for est in estimates:
        one = fit_node(s, est.u, lam, cfg)
        assert est.report.converged and one.report.converged
        np.testing.assert_allclose(est.theta_hat, one.theta_hat, atol=1e-6)
        # Certified again, independently, on a per-sample gradient.
        others = np.delete(np.arange(p), est.u)
        g = (s.data[:, others] * s.data[:, [est.u]]).astype(np.float64)
        grad = -(np.exp(-(g @ est.theta_hat)) @ g) / s.n
        assert kkt_residual(grad, est.theta_hat, lam) <= 1.01e-8


def test_tallies_fitted_together_match_each_fitted_alone(table_builds):
    # One lockstep solve over several sample sets of one size, from one
    # start, finds what a solve of each set alone finds; its rows run on
    # every set's pattern tables, stacked.
    model = make_grid_model(4, 0.6, "spin_glass", seed=21)
    n, tol = 4000, 1e-6
    lam = lambda_schedule(model.p, n, 0.05)
    cfg = SolverConfig(kkt_tolerance=tol)
    start = coupling_matrix(fit_all_nodes(sample_exact(model, n // 2, 1),
                                          lam, cfg), model.p)
    sets = [sample_exact(model, n, seed) for seed in range(2, 7)]
    table_builds.clear()
    together = fit_tallies([s.tally for s in sets], lam, cfg, start)
    assert len(together) == len(sets)
    assert max(rows for rows, _ in table_builds) > model.p
    for s, fit in zip(sets, together):
        alone = fit_all_nodes(s, lam, cfg, start)
        assert all(e.report.converged for e in fit + alone)
        assert (edges_from_estimates(fit, model.min_coupling, model.p).edges
                == edges_from_estimates(alone, model.min_coupling,
                                        model.p).edges)
        np.testing.assert_allclose(coupling_matrix(fit, model.p),
                                   coupling_matrix(alone, model.p),
                                   rtol=0, atol=tol)
    with pytest.raises(InputError):
        fit_tallies([sets[0].tally, sample_exact(model, n + 1, 9).tally],
                    lam, cfg)


@pytest.mark.parametrize("p", [9, 16, 70])
def test_solver_counters_add_up(p):
    # The start is one evaluation, each table solve's start may be a
    # full pass, and each iteration evaluates its trial, again for each
    # backtrack. At p = 16 the glass is the beta = 1.2 one, whose fit
    # still backtracks; the beta = 0.9 one of _samples no longer does.
    s = _samples(p) if p != 16 else sample_exact(
        make_grid_model(4, 1.2, "spin_glass", seed=5), 30000, seed=49)
    estimates = fit_all_nodes(s, lambda_schedule(p, s.n, 0.05),
                              SolverConfig(kkt_tolerance=1e-8))
    for est in estimates:
        r = est.report
        assert 1 + r.iterations + r.backtracks <= r.evaluations
        assert r.evaluations <= 2 * r.iterations + r.backtracks + 1
        assert r.restarts + r.stalls <= r.iterations
    assert sum(e.report.backtracks for e in estimates) > 0


def test_sixteen_vertex_fit_solves_on_tables(full_passes, table_builds):
    # The tally holds 3996 distinct rows, more than the 2^8 columns of a
    # table at the least working set: every row solves on tables of 8
    # coordinates, no Hessian is taken on the full design, and full
    # passes only certify.
    s = sample_exact(make_grid_model(4, 0.4), 30000, seed=49)
    assert s.tally.spins.shape[1] > 1 << 8
    estimates = fit_all_nodes(s, lambda_schedule(16, s.n, 0.05),
                              SolverConfig(kkt_tolerance=1e-8))
    assert all(e.report.converged for e in estimates)
    assert table_builds[0] == (16, 8)
    assert all(k == 8 for _, k in table_builds)
    assert not any(c.hessian for c in full_passes)
    assert len(full_passes) <= 1 + len(table_builds)


@pytest.mark.parametrize("m", [256, 257])
def test_sixteen_vertex_fit_on_a_table_wide_design_stays_on_it(
        full_passes, table_builds, m):
    # A table of 8 coordinates has 2^8 = 256 columns: a design of 256
    # configurations is solved on itself, so every evaluation is a row
    # of a full-design pass, and one more column sends every row to the
    # tables first.
    spins, weights, _ = _samples(16).tally
    design = Design(spins[:, :m], weights[:m], weights[:m].sum())
    cfg = SolverConfig(lam=0.05, kkt_tolerance=1e-8)
    reports = minimize_rows(design, range(16), cfg)
    assert all(r.converged for r in reports)
    if m == 256:
        assert not table_builds
        assert (sum(len(c.rows) for c in full_passes if not c.hessian)
                == sum(r.evaluations for r in reports))
    else:
        assert table_builds[0] == (16, 8)


def test_capped_row_stops_while_the_others_converge():
    s = _samples(9)
    lam = lambda_schedule(9, s.n, 0.05)
    full = fit_all_nodes(s, lam, SolverConfig(kkt_tolerance=1e-8))
    counts = sorted(e.report.iterations for e in full)
    assert counts[0] < counts[-1]
    cap = counts[-1] - 1
    capped = fit_all_nodes(s, lam, SolverConfig(kkt_tolerance=1e-8,
                                                max_iterations=cap))
    for before, after in zip(full, capped):
        if before.report.iterations <= cap:
            # Up to the cap both runs do the same arithmetic.
            assert after.report.converged
            assert after.report.iterations == before.report.iterations
            assert np.array_equal(after.theta_hat, before.theta_hat)
        else:
            assert not after.report.converged
            assert after.report.iterations == cap
            assert after.report.final_kkt_residual > 1e-8


def test_square_error():
    m = IsingModel(3, {(0, 1): 0.5})
    assert square_error(np.array([0.5, 0.0]), m, 0) == 0.0
    assert square_error(np.array([0.5, 0.3]), m, 0) == pytest.approx(0.3)
    assert square_error(np.array([0.0, 0.0]), m, 2) == 0.0
    with pytest.raises(InputError):
        square_error(np.zeros(3), m, 0)


def test_edges_from_estimates_validates_ordering():
    s = sample_exact(IsingModel(3, {(0, 1): 0.5}), 500, seed=3)
    estimates = fit_all_nodes(s, 0.1)
    with pytest.raises(InputError):
        edges_from_estimates(estimates[::-1], 0.3, 3)
    with pytest.raises(InputError):
        edges_from_estimates(estimates, 0.0, 3)


def test_coupling_matrix_refuses_a_malformed_estimate():
    # Row u holds vertex u's p - 1 couplings around a zero diagonal; an
    # estimate of any other shape is refused, neither broadcast nor left
    # to numpy.
    s = sample_exact(IsingModel(3, {(0, 1): 0.5}), 500, seed=3)
    estimates = fit_all_nodes(s, 0.1)
    theta = coupling_matrix(estimates, 3)
    for est in estimates:
        assert theta[est.u, est.u] == 0.0
        assert np.array_equal(np.delete(theta[est.u], est.u), est.theta_hat)
    for bad in [np.zeros(5), np.zeros((1, 2)), np.zeros(1), np.float64(0.0)]:
        spoiled = list(estimates)
        spoiled[1] = replace(spoiled[1], theta_hat=bad)
        with pytest.raises(InputError, match="theta_hat"):
            coupling_matrix(spoiled, 3)
        with pytest.raises(InputError, match="theta_hat"):
            edges_from_estimates(spoiled, 0.3, 3)


def test_solve_reports_hold_python_scalars():
    # Reports of two designs, their rows solved on pattern tables and
    # certified on the full design, and the one-row case: every field
    # but the solution is a Python int, float or bool, so a report
    # serializes as it is.
    m = make_grid_model(4, 0.7, "spin_glass", seed=1)
    sets = [sample_exact(m, 5000, seed) for seed in (2, 3)]
    reports = minimize_rows([s.tally for s in sets], range(m.p),
                            SolverConfig(lam=0.05))
    reports.append(fit_node(sets[0], 4, 0.05).report)
    for r in reports:
        for f in fields(r):
            if f.name != "solution":
                value = getattr(r, f.name)
                assert type(value) is {"int": int, "float": float,
                                       "bool": bool}[f.type], f.name
        json.dumps(report_fields(r))


def test_result_json_schema():
    m = IsingModel(3, {(0, 1): 0.9, (1, 2): 0.9})
    s = sample_exact(m, 30000, seed=47)
    lam = lambda_schedule(3, s.n, 0.05)
    estimates = fit_all_nodes(s, lam)
    edge_set = edges_from_estimates(estimates, 0.5, 3)
    doc = json.loads(result_to_json(lam, 0.5, edge_set, estimates))
    assert set(doc) == {"lambda", "threshold", "edges", "node_reports"}
    assert doc["lambda"] == lam and doc["threshold"] == 0.5
    assert [(e["i"], e["j"]) for e in doc["edges"]] == edge_set.sorted_edges()
    for e in doc["edges"]:
        assert e["i"] < e["j"]
        assert e["weight"] == edge_set.weights[(e["i"], e["j"])]
    assert [r["u"] for r in doc["node_reports"]] == [0, 1, 2]
    for r in doc["node_reports"]:
        assert set(r) == {"u", "iterations", "kkt", "converged", "saturated",
                          "evaluations", "backtracks", "restarts", "stalls"}
        assert list(r)[4:] == ["saturated", "evaluations", "backtracks",
                               "restarts", "stalls"]
        assert r["converged"] is True
        assert r["saturated"] is False
