import weakref

import numpy as np
import pytest

from isinglearn import estimator, experiments
from isinglearn import (ERROR_CSV_HEADER, ExperimentManifest, InputError,
                        NMIN_CSV_HEADER, loglog_slope, manifest_from_dict,
                        run_error_curve, run_nmin_search, semilog_slope,
                        write_rows_csv)


def test_manifest_validation():
    with pytest.raises(InputError):
        ExperimentManifest(kind="nope", seed=1)
    with pytest.raises(InputError):
        ExperimentManifest(kind="error_vs_n", seed=1, family="glassy")
    with pytest.raises(InputError):
        ExperimentManifest(kind="error_vs_n", seed=1, sampler="mcmc")
    with pytest.raises(InputError):
        ExperimentManifest(kind="error_vs_n", seed=1, trials=0)
    with pytest.raises(InputError):
        ExperimentManifest(kind="nmin_vs_beta", seed=1, rel_width=0.0)
    with pytest.raises(InputError):
        ExperimentManifest(kind="nmin_vs_beta", seed=1, n_start=100, n_max=10)
    with pytest.raises(InputError):
        manifest_from_dict({"kind": "error_vs_n", "seed": 1, "bogus": 2})
    for bad in ({"ns": ["x"]}, {"ns": [1.5]}, {"ns": 100}, {"sides": ["4"]},
                {"betas": ["x"]}, {"betas": [10 ** 400]}, {"seed": "abc"},
                {"seed": 1.0}, {"seed": -1}, {"seed": True}, {"ns": [True]},
                {"sides": [True]}, {"betas": ["0.6"]}):
        with pytest.raises(InputError):
            manifest_from_dict({"kind": "error_vs_n", "seed": 1, **bad})
    m = manifest_from_dict({"kind": "error_vs_n", "seed": 7,
                            "ns": [100, 200], "betas": [0.5]})
    assert m.ns == (100, 200) and m.betas == (0.5,)


def _tiny_nmin_manifest(out=None):
    return ExperimentManifest(kind="nmin_vs_beta", seed=2024, side=2,
                              betas=(0.8,), trials=3, n_start=250,
                              rel_width=0.25, out=out)


def test_nmin_search_is_deterministic():
    rows_a = run_nmin_search(_tiny_nmin_manifest())
    rows_b = run_nmin_search(_tiny_nmin_manifest())
    assert len(rows_a) == 1
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_seconds"}
                          for r in rows]
    assert strip(rows_a) == strip(rows_b)
    row = rows_a[0]
    assert row["param"] == 0.8
    assert row["success"] is True
    assert 1 <= row["n_min"] <= 10 ** 6
    assert row["trials"] == 3 and row["seed"] == 2024


def test_nmin_csv_reproducible_up_to_timing(tmp_path):
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_nmin_search(_tiny_nmin_manifest(out=str(path_a)))
    run_nmin_search(_tiny_nmin_manifest(out=str(path_b)))
    lines_a = path_a.read_text().splitlines()
    lines_b = path_b.read_text().splitlines()
    assert len(lines_a) == len(lines_b) == 3
    assert lines_a[0].startswith("# generated=")
    assert "rng=numpy-pcg64" in lines_a[0]
    assert lines_a[1] == NMIN_CSV_HEADER
    # Data rows agree except for the trailing wall-clock column.
    for a, b in zip(lines_a[2:], lines_b[2:]):
        assert a.split(",")[:-1] == b.split(",")[:-1]


def test_nmin_glass_pins_four_seeds():
    # The nmin-glass-4x4 benchmark manifest at width 0.6 alone: n_min at
    # manifest seeds 1-4, a pin that a pure-speed solver change keeps.
    fields = dict(kind="nmin_vs_beta", family="spin_glass", side=4,
                  betas=[0.6], trials=10, epsilon=0.05, n_start=1000,
                  n_max=32_000_000, rel_width=0.10, kkt_tolerance=1e-6)
    found = [run_nmin_search(manifest_from_dict(dict(fields, seed=seed)))
             [0]["n_min"] for seed in (1, 2, 3, 4)]
    assert found == [36000, 34000, 34000, 34000]


def test_nmin_glass_pins_width_09_at_five_seeds():
    # The nmin-glass-4x4 benchmark manifest at width 0.9, swept alone
    # and as the second width after 0.6: n_min at manifest seeds 1, 2,
    # 3, 5 and 6, a pin that batching a candidate's trials keeps.
    fields = dict(kind="nmin_vs_beta", family="spin_glass", side=4,
                  trials=10, epsilon=0.05, n_start=1000,
                  n_max=32_000_000, rel_width=0.10, kkt_tolerance=1e-6)
    seeds = (1, 2, 3, 5, 6)
    alone = [run_nmin_search(manifest_from_dict(
        dict(fields, betas=[0.9], seed=seed)))[0]["n_min"] for seed in seeds]
    second = [run_nmin_search(manifest_from_dict(
        dict(fields, betas=[0.6, 0.9], seed=seed)))[1]["n_min"]
        for seed in seeds]
    assert alone == [192000, 208000, 352000, 416000, 240000]
    assert second == [40000, 272000, 1408000, 80000, 96000]


def test_nmin_gives_up_at_n_max():
    # Penalties above 1 force the all-zero fit, so recovery can never
    # happen at these sizes and the search must report failure.
    m = ExperimentManifest(kind="nmin_vs_beta", seed=5, side=2, betas=(1.4,),
                           trials=2, n_start=4, n_max=8)
    rows = run_nmin_search(m)
    assert rows[0]["n_min"] == 8
    assert rows[0]["success"] is False


def test_nmin_vs_p_param_column():
    m = ExperimentManifest(kind="nmin_vs_p", seed=11, sides=(2,), beta=0.8,
                           trials=2, n_start=500, rel_width=0.3)
    rows = run_nmin_search(m)
    assert rows[0]["param"] == 4.0
    with pytest.raises(InputError):
        run_nmin_search(ExperimentManifest(kind="nmin_vs_p", seed=1, trials=1))
    with pytest.raises(InputError):
        run_nmin_search(ExperimentManifest(kind="error_vs_n", seed=1,
                                           ns=(10,)))


def test_error_curve_rows_and_csv(tmp_path):
    out = tmp_path / "err.csv"
    m = ExperimentManifest(kind="error_vs_n", seed=3, side=2, beta=0.8,
                           ns=(500, 8000), trials=2, out=str(out))
    rows = run_error_curve(m)
    assert [r["n"] for r in rows] == [500, 8000]
    assert rows[0]["mean_error"] > rows[1]["mean_error"] > 0.0
    lines = out.read_text().splitlines()
    assert lines[1] == ERROR_CSV_HEADER
    assert len(lines) == 4
    assert [ln.split(",")[0] for ln in lines[2:]] == ["500", "8000"]
    with pytest.raises(InputError):
        run_error_curve(ExperimentManifest(kind="nmin_vs_beta", seed=1,
                                           betas=(0.5,)))
    with pytest.raises(InputError):
        run_error_curve(ExperimentManifest(kind="error_vs_n", seed=1))


def test_error_curve_draws_past_the_enumeration_limit_with_glauber():
    # p = 36 is past what exact draws enumerate, so only the Glauber
    # branch of a manifest reaches it; its rows repeat run for run.
    m = manifest_from_dict({"kind": "error_vs_n", "seed": 5, "side": 6,
                            "sampler": "glauber", "burn_in_sweeps": 50,
                            "thinning_sweeps": 2, "ns": [500, 4000],
                            "trials": 1})
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_seconds"}
                          for r in rows]
    rows = strip(run_error_curve(m))
    assert rows == strip(run_error_curve(m))
    assert [r["n"] for r in rows] == [500, 4000]
    assert rows[0]["mean_error"] > rows[1]["mean_error"] > 0.0


def test_slope_helpers_exact_on_synthetic_laws():
    xs = np.array([1e3, 4e3, 1.6e4, 6.4e4])
    assert loglog_slope(xs, 3.5 * xs ** -0.5) == pytest.approx(-0.5, abs=1e-12)
    xs2 = np.array([0.5, 0.8, 1.1, 1.4])
    assert semilog_slope(xs2, 2.0 * np.exp(1.7 * xs2)) == pytest.approx(
        1.7, abs=1e-12)


def test_write_rows_csv_layout(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, "a,b", [[1, 2], [3, 4]])
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0].startswith("# generated=") and lines[1] == "a,b"
    assert lines[2:] == ["1,2", "3,4"]


def test_nmin_search_enumerates_each_model_once(monkeypatch, enumerations):
    drawn = []
    draw = experiments.sample_exact

    def drawing(model, n, seed):
        drawn.append(model)
        return draw(model, n, seed)

    monkeypatch.setattr(experiments, "sample_exact", drawing)
    rows = run_nmin_search(ExperimentManifest(
        kind="nmin_vs_beta", seed=424242, family="spin_glass", side=3,
        betas=(0.6, 0.9), trials=2, rel_width=0.25))
    assert all(r["success"] for r in rows)
    # One enumeration per swept model, however many sets it draws.
    assert len(enumerations) == 2 and enumerations[0] is not enumerations[1]
    assert {id(m) for m in drawn} == {id(m) for m in enumerations}
    assert len(drawn) > 2 * len(enumerations)


def _glass_nmin_manifest():
    return ExperimentManifest(kind="nmin_vs_beta", seed=7,
                              family="spin_glass", side=3,
                              betas=(0.6, 0.9), trials=3, n_start=1000,
                              rel_width=0.25, kkt_tolerance=1e-6)


def _candidate_starts(monkeypatch):
    """Per candidate n, in order: its penalty, the start all of its
    trials were fitted from, and the coupling matrices they found."""
    fits = []

    def recording(samples, lam, config=None, x0=None):
        estimates = estimator.fit_all_nodes(samples, lam, config, x0)
        fits.append((lam, x0, estimator.coupling_matrix(estimates,
                                                        samples.p)))
        return estimates

    def recording_all(tallies, lam, config=None, x0=None):
        together = estimator.fit_tallies(tallies, lam, config, x0)
        fits.extend((lam, x0, estimator.coupling_matrix(
            estimates, len(estimates))) for estimates in together)
        return together

    monkeypatch.setattr(experiments, "fit_all_nodes", recording)
    monkeypatch.setattr(experiments, "fit_tallies", recording_all)
    run_nmin_search(_glass_nmin_manifest())
    candidates = []
    for lam, x0, theta in fits:
        if (not candidates or lam != candidates[-1][0]
                or x0 is not candidates[-1][1]):
            candidates.append((lam, x0, []))
        candidates[-1][2].append(theta)
    return candidates


def test_nmin_trials_start_from_the_previous_candidates_first_trial(
        monkeypatch):
    # Every trial of a candidate starts from trial 0's coupling matrix
    # at the candidate before it; each width's first candidate from 0.
    candidates = _candidate_starts(monkeypatch)
    firsts = [i for i, (_, x0, _) in enumerate(candidates) if x0 is None]
    assert firsts[0] == 0 and len(firsts) == 2
    # Every trial is seen, trial 0's and the batched ones.
    trials = _glass_nmin_manifest().trials
    assert max(len(thetas) for _, _, thetas in candidates) == trials
    for i, (_, x0, _) in enumerate(candidates):
        if i not in firsts:
            assert np.array_equal(x0, candidates[i - 1][2][0])


def test_first_failing_trial_ends_a_candidate(monkeypatch):
    # Per candidate, in order: whether each of its trials recovered.
    candidates = []
    judge = experiments._all_trials_succeed
    recover = experiments.perfect_recovery

    def judging(*args):
        candidates.append([])
        ok, first = judge(*args)
        assert ok == all(candidates[-1])
        return ok, first

    def recording(edge_set, model):
        ok = recover(edge_set, model)
        candidates[-1].append(ok)
        return ok

    monkeypatch.setattr(experiments, "_all_trials_succeed", judging)
    monkeypatch.setattr(experiments, "perfect_recovery", recording)
    manifest = _glass_nmin_manifest()
    run_nmin_search(manifest)
    failed = [oks for oks in candidates if not all(oks)]
    assert failed and len(failed) < len(candidates)
    for oks in candidates:
        if all(oks):
            assert len(oks) == manifest.trials
        else:
            assert oks.index(False) == len(oks) - 1
    # Some candidate failed before its last trial and ran no further.
    assert any(len(oks) < manifest.trials for oks in failed)


@pytest.mark.parametrize("budget", [1, 8000])
def test_batches_of_trials_hold_at_most_the_budget(monkeypatch, budget):
    # A candidate's trials after the first are fitted in batches of
    # tallies up to the byte budget; a tally over it is fitted alone
    # before the next trial draws, and every fitted tally is freed
    # before the next draw. n_min is the same at every budget.
    manifest = ExperimentManifest(kind="nmin_vs_beta", seed=7,
                                  family="spin_glass", side=3, betas=(0.6,),
                                  trials=5, n_start=1000, rel_width=0.25,
                                  kkt_tolerance=1e-6)
    expected = run_nmin_search(manifest)[0]["n_min"]
    # Per call, in order: "draw", "first" (trial 0's fit) or the bytes
    # of each tally in a batch.
    events = []
    fitted = []  # weak references to the weights of each fitted tally
    sample, first = experiments._sample, experiments.fit_all_nodes
    fit = experiments.fit_tallies

    def drawing(*args):
        assert all(ref() is None for ref in fitted)
        events.append("draw")
        return sample(*args)

    def fitting_first(*args):
        events.append("first")
        return first(*args)

    def fitting(tallies, *args):
        events.append([t.spins.nbytes + t.weights.nbytes for t in tallies])
        fitted.extend(weakref.ref(t.weights) for t in tallies)
        return fit(tallies, *args)

    monkeypatch.setattr(experiments, "_sample", drawing)
    monkeypatch.setattr(experiments, "fit_all_nodes", fitting_first)
    monkeypatch.setattr(experiments, "fit_tallies", fitting)
    monkeypatch.setattr(experiments, "_BATCH_BYTES", budget)
    assert run_nmin_search(manifest)[0]["n_min"] == expected
    batches = [(i, sizes) for i, sizes in enumerate(events)
               if isinstance(sizes, list)]
    assert batches
    for i, sizes in batches:
        assert sum(sizes) <= budget or len(sizes) == 1
        if sum(sizes) > budget:
            assert events[i - 1] == "draw" and events[i - 2] != "draw"
    assert any(len(sizes) > 1 for _, sizes in batches) == (budget > 1)


@pytest.mark.parametrize("n_start, n_max, rel_width, succeeds, order, result", [
    (1000, 32_000_000, 0.1, lambda n: n >= 28000,
     [1000, 2000, 4000, 8000, 16000, 32000, 24000, 28000, 26000],
     (28000, True)),
    (1000, 32_000_000, 0.1, lambda n: n >= 300,
     [1000, 500, 250, 375, 312, 281], (312, True)),
    (8, 100, 0.1, lambda n: True, [8, 4, 2, 1], (1, True)),
    (4, 8, 0.25, lambda n: False, [4, 8], (8, False)),
    # Not monotone in n: the search trusts each outcome it sees.
    (900, 10 ** 6, 0.1, lambda n: n % 3 == 0,
     [900, 450, 225, 112, 168, 140, 154], (168, True)),
])
def test_nmin_search_order(monkeypatch, n_start, n_max, rel_width, succeeds,
                           order, result):
    # Doubling while nothing has succeeded, halving while nothing has
    # failed, then bisection; each candidate gets the next attempt id
    # and starts from the matrix the one before it returned.
    calls, returned = [], [None]

    def oracle(manifest, model, n, param_index, attempt, start):
        calls.append((n, attempt, start))
        returned.append(object())
        return succeeds(n), returned[-1]

    monkeypatch.setattr(experiments, "_all_trials_succeed", oracle)
    manifest = ExperimentManifest(kind="nmin_vs_beta", seed=1,
                                  n_start=n_start, n_max=n_max,
                                  rel_width=rel_width)
    assert experiments._search_nmin(manifest, None, 0) == result
    assert [n for n, _, _ in calls] == order
    assert [a for _, a, _ in calls] == list(range(1, len(order) + 1))
    assert all(s is r for (_, _, s), r in zip(calls, returned))
