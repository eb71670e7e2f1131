import numpy as np
import pytest

from isinglearn import (InputError, IsingModel, SampleSet, empirical_covariance,
                        evaluate, exact_distribution, fit_all_nodes,
                        lambda_schedule, make_grid_model, make_random_model,
                        node_view, remainder_kernel, remainder_kernel_floor,
                        sample_exact, sampler, screening, screening_gradient,
                        screening_value, taylor_remainder)
from isinglearn.model import configurations_from_indices
from isinglearn.screening import (LINEAR_FORM_LIMIT, evaluate_rows,
                                  face_hessians, pattern_table)


def _brute_force(samples: SampleSet, u: int, theta: np.ndarray):
    others = np.delete(np.arange(samples.p), u)
    g = (samples.data[:, others] * samples.data[:, [u]]).astype(np.float64)
    z = g @ theta
    w = np.exp(-z)
    return float(np.mean(w)), -(w @ g) / samples.n


def test_value_is_one_at_origin():
    s = sample_exact(make_grid_model(3, 0.5), 300, seed=0)
    view = node_view(s, 2)
    theta = np.zeros(8)
    assert screening_value(view, theta) == 1.0
    grad = screening_gradient(view, theta)
    assert np.all(np.abs(grad) <= 1.0)


def test_hand_computed_two_column_case():
    data = np.array([[1, 1], [1, -1], [1, 1], [-1, 1]], dtype=np.int8)
    view = node_view(SampleSet(2, 4, data), 0)
    theta = np.array([0.3])
    # Products sigma_0 sigma_1 are [+1, -1, +1, -1], so the average of
    # exp(-z) is cosh(theta) and the gradient collapses to sinh(theta).
    assert screening_value(view, theta) == pytest.approx(np.cosh(0.3), rel=1e-15)
    assert screening_gradient(view, theta)[0] == pytest.approx(np.sinh(0.3),
                                                               rel=1e-14)


def test_matches_brute_force_per_sample_formula():
    s = sample_exact(make_grid_model(3, 0.7), 3000, seed=7)
    rng = np.random.default_rng(1)
    for u in (0, 4, 8):
        view = node_view(s, u)
        theta = rng.normal(scale=0.4, size=8)
        val_ref, grad_ref = _brute_force(s, u, theta)
        assert screening_value(view, theta) == pytest.approx(val_ref, rel=1e-12)
        np.testing.assert_allclose(screening_gradient(view, theta), grad_ref,
                                   rtol=1e-12, atol=1e-15)


def test_gradient_matches_finite_differences():
    s = sample_exact(make_grid_model(3, 0.6), 800, seed=3)
    view = node_view(s, 1)
    rng = np.random.default_rng(2)
    theta = rng.normal(scale=0.3, size=8)
    grad = screening_gradient(view, theta)
    h = 1e-6
    for l in range(8):
        e = np.zeros(8)
        e[l] = h
        fd = (screening_value(view, theta + e)
              - screening_value(view, theta - e)) / (2 * h)
        assert grad[l] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_row_deduplication_is_lossless():
    # Small p forces heavy row collisions; the compressed view must give
    # bit-identical results to duplicating or reordering the sample rows.
    s = sample_exact(make_grid_model(2, 0.8), 5000, seed=9)
    view = node_view(s, 0)
    assert view.basis.shape[0] <= 8
    assert float(view.weights.sum()) == pytest.approx(1.0, abs=1e-15)

    doubled = SampleSet(s.p, 2 * s.n, np.vstack([s.data, s.data]))
    view2 = node_view(doubled, 0)
    perm = np.random.default_rng(4).permutation(s.n)
    view3 = node_view(SampleSet(s.p, s.n, s.data[perm]), 0)
    theta = np.linspace(-0.5, 0.5, 3)
    for other in (view2, view3):
        assert screening_value(other, theta) == screening_value(view, theta)
        assert np.array_equal(screening_gradient(other, theta),
                              screening_gradient(view, theta))


@pytest.mark.parametrize("p", [4, 9])
def test_count_design_matches_tally_of_the_same_samples(p):
    # Multinomial counts over the 2^p indices, as one design, against
    # the tally of the samples they stand for: the same losses up to
    # summation order, and second moments bit for bit (integer counts
    # sum exactly).
    rng = np.random.default_rng(p)
    probs = exact_distribution(make_random_model(p, 0.5, 0.2, 0.6, seed=p))
    n = 3000
    counts = rng.multinomial(n, probs)
    nz = np.flatnonzero(counts)
    design = sampler._indexed_design(nz, counts[nz], p, n)
    data = configurations_from_indices(np.repeat(np.arange(1 << p), counts), p)
    tally = SampleSet(p, n, data).tally
    theta = rng.normal(scale=0.4, size=(p, p))
    np.fill_diagonal(theta, 0.0)
    rows = np.arange(p)
    got_v, got_g, _ = evaluate_rows(design, rows, theta)
    want_v, want_g, _ = evaluate_rows(tally, rows, theta)
    np.testing.assert_allclose(got_v, want_v, rtol=1e-14, atol=0)
    np.testing.assert_allclose(got_g, want_g, rtol=1e-14,
                               atol=1e-14 * np.abs(want_g).max())
    for u in range(p):
        assert np.array_equal(screening._second_moments([design], u),
                              screening._second_moments([tally], u))


def test_views_share_the_sample_sets_design():
    s = sample_exact(make_grid_model(2, 0.5), 200, seed=3)
    assert node_view(s, 0).design is node_view(s, 1).design
    assert node_view(s, 0).design is s.tally


def test_objective_is_convex_along_segments():
    s = sample_exact(make_grid_model(3, 0.7), 1500, seed=21)
    view = node_view(s, 4)
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.normal(scale=0.6, size=8)
        b = rng.normal(scale=0.6, size=8)
        mid = screening_value(view, (a + b) / 2.0)
        avg = (screening_value(view, a) + screening_value(view, b)) / 2.0
        assert mid <= avg * (1 + 1e-12)


def test_taylor_remainder_is_definitional_difference():
    s = sample_exact(make_grid_model(3, 0.6), 2500, seed=6)
    view = node_view(s, 3)
    rng = np.random.default_rng(10)
    theta = rng.normal(scale=0.3, size=8)
    for scale in (0.5, 1e-3):
        delta = rng.normal(scale=scale, size=8)
        direct = (screening_value(view, theta + delta)
                  - screening_value(view, theta)
                  - float(screening_gradient(view, theta) @ delta))
        rem = taylor_remainder(view, theta, delta)
        assert rem >= 0.0
        assert rem == pytest.approx(direct, rel=1e-9)
    # For tiny displacements the direct float64 difference is dominated
    # by cancellation noise; the remainder must stay nonnegative and
    # within that noise band of the direct value.
    tiny = rng.normal(scale=1e-8, size=8)
    direct = (screening_value(view, theta + tiny)
              - screening_value(view, theta)
              - float(screening_gradient(view, theta) @ tiny))
    rem = taylor_remainder(view, theta, tiny)
    assert rem >= 0.0
    assert rem == pytest.approx(direct, abs=5e-16)


def test_remainder_kernel_values():
    # f(z) = exp(-z) - 1 + z; at z = -5 this is e^5 - 6.
    assert remainder_kernel(np.array([-5.0]))[0] == pytest.approx(
        142.4131591025766, rel=1e-13)
    assert remainder_kernel(np.array([0.0]))[0] == 0.0
    z = np.linspace(-30.0, 30.0, 10001)
    f = remainder_kernel(z)
    assert np.all(f >= 0.0)
    floor = remainder_kernel_floor(z)
    assert np.all(f - floor >= -1e-10 * np.maximum(floor, 1.0))


def test_remainder_dominates_covariance_quadratic_form():
    # At the origin the weighted square of the linear form equals the
    # empirical pair covariance quadratic form, and the kernel floor
    # turns that into a lower bound on the remainder.
    m = make_grid_model(3, 0.6)
    s = sample_exact(m, 4000, seed=17)
    u = 0
    view = node_view(s, u)
    h = empirical_covariance(s, exclude=u)
    rng = np.random.default_rng(5)
    for _ in range(25):
        delta = rng.normal(scale=0.3, size=8)
        dz = view.basis @ delta
        quad = float(view.weights @ dz**2)
        assert quad == pytest.approx(float(delta @ h @ delta), rel=1e-10)
        dmax = float(np.max(np.abs(dz)))
        rem = taylor_remainder(view, np.zeros(8), delta)
        assert rem >= quad / (2.0 + dmax) * (1.0 - 1e-10)


def test_saturation_flag_and_clamping():
    s = sample_exact(make_grid_model(2, 0.5), 100, seed=2)
    view = node_view(s, 0)
    theta = np.array([800.0, 0.0, 0.0])
    out = evaluate(view, theta)
    assert out.saturated
    assert np.isfinite(out.value)
    assert np.all(np.isfinite(out.gradient))
    assert not evaluate(view, np.zeros(3)).saturated


@pytest.mark.parametrize("p", [5, 70])
def test_evaluate_rows_matches_per_sample_formula(p):
    # One pass over the tally's design gives every vertex the value and
    # gradient of the per-sample formula, and flags exactly the rows
    # whose per-sample linear forms pass the clamp; row 0 is pushed past
    # it, where the formula overflows. p = 70 takes the tally's row
    # branch.
    rng = np.random.default_rng(p)
    data = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3000, p))
    s = SampleSet(p, len(data), np.vstack([data[:2000], -data[:1000]]))
    theta = rng.normal(scale=0.2, size=(p, p))
    theta[0, 1] = 800.0
    np.fill_diagonal(theta, 0.0)
    values, grads, saturated = evaluate_rows(s.tally, np.arange(p),
                                             theta)
    for u in range(p):
        row = np.delete(theta[u], u)
        g = s.data[:, np.delete(np.arange(p), u)] * s.data[:, [u]]
        assert saturated[u] == (np.abs(g @ row).max() > LINEAR_FORM_LIMIT)
        assert grads[u, u] == 0.0
        if saturated[u]:
            assert np.isfinite(values[u]) and np.all(np.isfinite(grads[u]))
            continue
        val_ref, grad_ref = _brute_force(s, u, row)
        assert values[u] == pytest.approx(val_ref, rel=1e-12)
        np.testing.assert_allclose(np.delete(grads[u], u), grad_ref,
                                   rtol=1e-11, atol=1e-14 * val_ref)
    assert saturated[0] and not saturated[1:].any()


def test_pass_at_origin_reads_the_weights():
    # At theta = 0 every term is its weight: each value is exactly 1 and
    # each gradient -(C w) C^T / total, on a Glauber tally of two words
    # a row and on rows of a stacked pattern table picked by stack.
    s = sampler.sample_glauber(make_grid_model(9, 0.3), 2000,
                               sampler.GlauberConfig(seed=4))
    rows = np.arange(s.p)
    cols = np.array([np.delete(rows, u)[u % 7::11][:6] for u in rows])
    table = pattern_table(s.tally, rows, cols)
    pick = np.array([40, 3, 3, 77])
    for design, focal, stack in [(s.tally, rows, ...),
                                 (table, np.zeros(4, dtype=np.int64), pick)]:
        c = design.spins.astype(np.float64)
        w = np.broadcast_to(design.weights[stack], (len(focal), c.shape[1]))
        values, grads, saturated = evaluate_rows(
            design, focal, np.zeros((len(focal), len(c))), stack)
        want = -np.array([(c[f] * wf) @ c.T for f, wf in zip(focal, w)])
        want[np.arange(len(focal)), focal] = 0.0
        assert np.all(values == 1.0) and not saturated.any()
        np.testing.assert_allclose(grads, want / design.total, rtol=1e-13,
                                   atol=1e-13)


@pytest.mark.parametrize("p", [5, 16, 70])
def test_pattern_table_matches_the_tally(p):
    # At a theta supported on each row's columns W, the row's table of
    # sign-pattern weights gives the tally's loss, and its gradient on
    # W. Each W holds the row's support and two zero slots; p = 70 takes
    # the tally's row branch.
    rng = np.random.default_rng(p)
    data = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3000, p))
    s = SampleSet(p, len(data), data)
    k = min(8, p - 1)
    rows = np.arange(p)
    cols = np.array([np.sort(rng.choice(np.delete(rows, u), k, replace=False))
                     for u in rows])
    theta = np.zeros((p, p))
    support = cols[:, rng.permutation(k)[:k - 2]]
    theta[rows[:, None], support] = rng.normal(scale=0.4, size=support.shape)
    values, grads, saturated = evaluate_rows(s.tally, rows, theta)

    table = pattern_table(s.tally, rows, cols)
    assert table.spins.shape == (k + 1, 1 << k)
    assert table.weights.shape == (p, 1 << k)
    np.testing.assert_allclose(table.weights.sum(axis=1),
                               s.tally.weights.sum(), rtol=1e-14)
    restricted = np.zeros((p, k + 1))
    restricted[:, 1:] = theta[rows[:, None], cols]
    t_values, t_grads, t_saturated = evaluate_rows(
        table, np.zeros(p, dtype=np.int64), restricted)
    np.testing.assert_allclose(t_values, values, rtol=1e-12)
    assert np.all(t_grads[:, 0] == 0.0)
    np.testing.assert_allclose(t_grads[:, 1:], grads[rows[:, None], cols],
                               rtol=1e-12, atol=1e-12 * values.max())
    assert np.array_equal(t_saturated, saturated)


def _per_sample_hessian(samples: SampleSet, u: int, theta_row):
    """(1/n) sum_k exp(-z_k) sigma^(k) sigma^(k)^T, focal row and column
    0, straight from the samples."""
    c = samples.data.astype(np.float64)
    e = np.exp(-(c @ theta_row) * c[:, u])
    hess = (c * e[:, None]).T @ c / samples.n
    hess[u] = hess[:, u] = 0.0
    return hess


@pytest.mark.parametrize("p", [5, 16])
def test_hessian_matches_per_sample_formula(p):
    # Each row's Hessian on its face columns (any order), for all rows
    # at once and one row alone, on the tally and on each row's pattern
    # table (per-row weights), whose Hessian is the tally's on the row's
    # columns.
    rng = np.random.default_rng(p)
    data = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3000, p))
    s = SampleSet(p, len(data), data)
    rows = np.arange(p)
    k = min(6, p - 1)
    cols = np.array([rng.choice(np.delete(rows, u), k, replace=False)
                     for u in rows])
    theta = np.zeros((p, p))
    theta[rows[:, None], cols] = rng.normal(scale=0.4, size=cols.shape)
    values, _, _ = evaluate_rows(s.tally, rows, theta)
    hess = face_hessians(s.tally, rows, theta, cols)
    table = pattern_table(s.tally, rows, cols)
    restricted = np.zeros((p, k + 1))
    restricted[:, 1:] = theta[rows[:, None], cols]
    t_hess = face_hessians(table, np.zeros(p, dtype=np.int64), restricted,
                           np.tile(np.arange(1, k + 1), (p, 1)))
    for u in rows:
        want = _per_sample_hessian(s, u, theta[u])[cols[u][:, None], cols[u]]
        scale = 1e-12 * values[u]
        np.testing.assert_allclose(hess[u], want, rtol=1e-12, atol=scale)
        alone = face_hessians(s.tally, [u], theta[[u]], cols[[u]])
        np.testing.assert_allclose(alone[0], want, rtol=1e-12, atol=scale)
        np.testing.assert_allclose(t_hess[u], want, rtol=1e-12, atol=scale)


def test_stacked_weight_rows_read_as_their_copy():
    # Rows of a stacked table picked by stack, gathered a block at a
    # time (4096 columns make two blocks here), evaluate exactly as a
    # table of their copied weight rows.
    rng = np.random.default_rng(3)
    p, k = 16, 12
    data = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3000, p))
    s = SampleSet(p, len(data), data)
    rows = np.arange(p)
    cols = np.array([np.sort(rng.choice(np.delete(rows, u), k, replace=False))
                     for u in rows])
    table = pattern_table(s.tally, rows, cols)
    pick = np.array([13, 2, 2, 7])
    theta = np.zeros((pick.size, k + 1))
    theta[:, 1:] = rng.normal(scale=0.4, size=(pick.size, k))
    focal = np.zeros(pick.size, dtype=np.int64)
    faces = np.tile(np.arange(1, 4), (pick.size, 1))
    copy = table._replace(weights=table.weights[pick])
    for got, want in zip(evaluate_rows(table, focal, theta, pick),
                         evaluate_rows(copy, focal, theta)):
        assert np.array_equal(got, want)
    assert np.array_equal(face_hessians(table, focal, theta, faces, pick),
                          face_hessians(copy, focal, theta, faces))


def test_dimension_mismatch_rejected():
    s = sample_exact(make_grid_model(2, 0.5), 100, seed=2)
    view = node_view(s, 0)
    with pytest.raises(InputError):
        screening_value(view, np.zeros(4))
    with pytest.raises(InputError):
        node_view(s, 7)


def _per_vertex_dedup(samples: SampleSet, u: int):
    """Reference: vertex u's product rows built from every sample and
    deduplicated on their own, sorted by product code for p <= 64 and
    lexicographically above that."""
    others = np.delete(np.arange(samples.p), u)
    products = samples.data[:, others] * samples.data[:, [u]]
    k = others.size
    if k > 63:
        rows, counts = np.unique(products, axis=0, return_counts=True)
        return others, rows.astype(np.float64), counts / float(samples.n)
    shifts = np.arange(k, dtype=np.uint64)
    codes = (products > 0).astype(np.uint64) @ (np.uint64(1) << shifts)
    if k <= 20:
        counts_full = np.bincount(codes.astype(np.int64), minlength=1 << k)
        codes = np.nonzero(counts_full)[0].astype(np.uint64)
        counts = counts_full[codes]
    else:
        codes, counts = np.unique(codes, return_counts=True)
    bits = (codes[:, None] >> shifts[None, :]) & np.uint64(1)
    rows = 2.0 * bits.astype(np.float64) - 1.0
    return others, rows, counts / float(samples.n)


@pytest.mark.parametrize("p", [2, 9, 23, 64, 65, 70, 128, 129])
def test_tally_views_match_per_vertex_dedup(p):
    # p = 2 and 9 take the bincount branch, 23 and 64 the sorted one-word
    # rows (64 is the widest), 65 to 129 the rows of two or three words
    # (65 and 129 one bit into their last word, 128 filling it).
    rng = np.random.default_rng(p)
    pool = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, p))
    # Globally flipped copies give the same product rows as the originals.
    pool = np.vstack([pool, -pool[:20]])
    data = pool[rng.integers(0, len(pool), size=1500)]
    s = SampleSet(p, len(data), data)
    for u in range(p):
        view = node_view(s, u)
        others, rows, weights = _per_vertex_dedup(s, u)
        assert view.n == s.n
        assert np.array_equal(view.others, others)
        assert view.basis.dtype == rows.dtype
        assert view.weights.dtype == weights.dtype
        # The same rows and weights exactly, in whatever row order.
        got, want = np.lexsort(view.basis.T), np.lexsort(rows.T)
        assert np.array_equal(view.basis[got], rows[want])
        assert np.array_equal(view.weights[got], weights[want])


def test_configuration_and_its_flip_share_a_row():
    row = np.array([1, -1, -1, 1, 1], dtype=np.int8)
    view = node_view(SampleSet(5, 3, np.vstack([row, -row, row])), 2)
    assert view.basis.tolist() == [[-1.0, 1.0, -1.0, -1.0]]
    assert view.weights.tolist() == [1.0]


def test_fit_all_nodes_tallies_once(tallies):
    s = sample_exact(make_grid_model(3, 0.6), 2000, seed=4)
    # A set built from rows, as the text reader builds it.
    s = SampleSet(s.p, s.n, s.data)
    fit_all_nodes(s, lambda_schedule(s.p, s.n, 0.05))
    assert tallies == [(s.n, s.p)]


def test_fit_all_nodes_counts_a_drawn_set_once(tallies):
    s = sample_exact(make_grid_model(3, 0.6), 2000, seed=4)
    fit_all_nodes(s, lambda_schedule(s.p, s.n, 0.05))
    assert tallies == [(s.n, s.p)]
    # The rows were not decoded.
    assert "data" not in vars(s)
