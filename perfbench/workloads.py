"""The benchmark's workloads: inputs built from a seed, one timed op,
and the check of that op's output.

Every workload reaches the package only through its public functions
and the CLI entry point. The names imported below are the ones the
traced run replaces in this module, so the calls the ops make here are
timed like the calls the package makes between its own modules.

Sizes are the full ones unless smoke is set; the smoke sizes keep the
same code paths (p > 63 for the Glauber workload, the binary reader for
the CLI workload) at a scale that runs in seconds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from isinglearn.cli import main as cli_main
from isinglearn.estimator import (edges_from_estimates, fit_all_nodes,
                                  lambda_schedule)
from isinglearn.experiments import manifest_from_dict, run_nmin_search
from isinglearn.model import make_grid_model
from isinglearn.sampler import (GlauberConfig, sample_exact, sample_glauber,
                                write_samples_binary)

# Seed of the criterion-9 experiment in tests/test_acceptance.py.
CRITERION9_SEED = 424242


@dataclass
class Outcome:
    """Result of one op: ok is False when its output check failed."""

    ok: bool
    reason: str = ""


def criterion9_model(beta_index: int, beta: float):
    """The 4x4 spin glass that the criterion-9 sweep draws for its
    beta_index-th width (the same seed derivation as the experiments
    module: SeedSequence(entropy=424242, spawn_key=(0, beta_index)))."""
    ss = np.random.SeedSequence(entropy=CRITERION9_SEED,
                                spawn_key=(0, beta_index))
    model_seed = int(ss.generate_state(1, dtype=np.uint64)[0])
    return make_grid_model(4, beta, "spin_glass", seed=model_seed)


def _edge_check(found, model) -> Outcome:
    truth = set(model.couplings)
    if found == truth:
        return Outcome(True)
    return Outcome(False, f"edge set differs: {len(found - truth)} extra, "
                          f"{len(truth - found)} missing")


class LearnCli:
    """CLI `learn` on one large binary sample file: the largest single
    fit a user runs."""

    name = "learn-cli-832k"
    default_seed = CRITERION9_SEED

    def __init__(self, seed: int, smoke: bool, workdir: str):
        # Smoke: the criterion-9 beta=0.6 glass, which recovers from far
        # fewer samples than the beta=1.2 one.
        self.beta_index, self.beta = (0, 0.6) if smoke else (2, 1.2)
        self.n = 60_000 if smoke else 832_000
        self.seed = seed
        self.samples_path = os.path.join(workdir, "samples.isng")
        self.result_path = os.path.join(workdir, "result.json")
        self.model = None

    def setup(self):
        self.model = criterion9_model(self.beta_index, self.beta)
        samples = sample_exact(self.model, self.n, self.seed)
        write_samples_binary(samples, self.samples_path)

    def op(self) -> Outcome:
        code = cli_main(["learn", "--samples", self.samples_path,
                         "--threshold", str(self.model.min_coupling),
                         "--out", self.result_path])
        if code != 0:
            return Outcome(False, f"learn exited with code {code}")
        with open(self.result_path, "r", encoding="ascii") as fh:
            result = json.load(fh)
        if not all(r["converged"] for r in result["node_reports"]):
            return Outcome(False, "a vertex failed its KKT certificate")
        return _edge_check({(e["i"], e["j"]) for e in result["edges"]},
                           self.model)


class NminGlass:
    """The paper's experiment: the criterion-9 minimal-n search, cut to
    the two cheaper widths.

    The manifest is the same at every workload seed. Its seed picks the
    spin-glass signs and every trial's samples, and the search's cost
    follows the n_min it finds: at manifest seeds 1..6 one op took
    12 s to 120 s against 11 s at 424242 (n_min up to 1,408,000), so a
    seeded manifest would make wall time a property of the seed rather
    than of the code. The workload seed is recorded but moves nothing.
    """

    name = "nmin-glass-4x4"
    default_seed = CRITERION9_SEED
    # n_min per width that criterion 9 reports at manifest seed 424242.
    expected_full = [28000, 80000]

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.manifest = None

    def _manifest_fields(self) -> dict:
        fields = dict(kind="nmin_vs_beta", seed=CRITERION9_SEED,
                      family="spin_glass", side=4, betas=[0.6, 0.9],
                      trials=10, epsilon=0.05, n_start=1000,
                      n_max=32_000_000, rel_width=0.10, kkt_tolerance=1e-6)
        if self.smoke:
            fields.update(side=3, betas=[0.6], trials=2, rel_width=0.25)
        return fields

    def setup(self):
        self.manifest = manifest_from_dict(self._manifest_fields())

    def op(self) -> Outcome:
        rows = run_nmin_search(self.manifest)
        n_mins = [r["n_min"] for r in rows]
        if not all(r["success"] for r in rows):
            return Outcome(False, f"unresolved row in n_min={n_mins}")
        if not self.smoke and n_mins != self.expected_full:
            return Outcome(False, f"n_min={n_mins}, expected "
                                  f"{self.expected_full}")
        return Outcome(True)


class GlauberLearn:
    """Glauber sampling then a full fit on a 100-spin torus: the only
    workload on the Glauber sampler and on views with p > 63, where
    almost every row is distinct."""

    name = "glauber-learn-10x10"
    default_seed = 3
    threshold = 0.2

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.side = 9 if smoke else 10
        self.n = 3000 if smoke else 5000
        self.burn_in = 100 if smoke else 200
        self.thin = 2
        self.seed = seed
        self.model = None
        self.config = None

    def setup(self):
        self.model = make_grid_model(self.side, 0.4, "ferromagnet")
        self.config = GlauberConfig(seed=self.seed,
                                    burn_in_sweeps=self.burn_in,
                                    thinning_sweeps=self.thin)

    def op(self) -> Outcome:
        samples = sample_glauber(self.model, self.n, self.config)
        lam = lambda_schedule(samples.p, samples.n, 0.05, mode="structure")
        estimates = fit_all_nodes(samples, lam)
        edge_set = edges_from_estimates(estimates, self.threshold, samples.p)
        if not all(est.report.converged for est in estimates):
            return Outcome(False, "a vertex failed its KKT certificate")
        return _edge_check(edge_set.edges, self.model)


WORKLOADS = {w.name: w for w in (LearnCli, NminGlass, GlauberLearn)}
