"""Build Ising models, inspect their exact distributions, and draw
samples two ways.

Run: python3 demos/01_models_and_sampling.py
"""

import numpy as np

from isinglearn import (GlauberConfig, IsingModel, exact_distribution,
                        log_partition, make_grid_model, model_to_json,
                        sample_exact, sample_glauber)

# A model is just a vertex count plus a dict of upper-triangle couplings.
# Its exact quantities read one enumeration, made on first use and kept.
pair = IsingModel(2, {(0, 1): 0.5})
print("two-spin model:", model_to_json(pair))
print("log partition:", log_partition(pair))
print("P(sigma_0 = sigma_1) should be e^0.5 / (e^0.5 + e^-0.5):")
probs = exact_distribution(pair)
print("  enumerated:", probs[0] + probs[3], " closed form:",
      float(np.exp(0.5) / (2 * np.cosh(0.5))))

# Periodic grids are the workhorse benchmark family. side=3 gives the
# 9-vertex torus where every vertex has exactly four neighbors.
torus = make_grid_model(3, 0.7)
print(f"\n3x3 torus: p={torus.p}, edges={len(torus.couplings)}, "
      f"max degree={torus.max_degree}")

# Exact sampling inverts the CDF of the enumerated distribution, so it
# is limited to p <= 25 but has zero equilibration error.
samples = sample_exact(torus, 50000, seed=1)
print("exact sampler:", samples.n, "rows, mean spin",
      float(samples.data.mean()))

# Glauber dynamics trades exactness for scalability: a heat-bath chain
# with burn-in and thinning. Compare the two on pair correlations.
chain = sample_glauber(torus, 50000, GlauberConfig(seed=2))
for (i, j) in [(0, 1), (0, 3)]:
    exact_corr = float(np.mean(samples.data[:, i] * samples.data[:, j]))
    chain_corr = float(np.mean(chain.data[:, i] * chain.data[:, j]))
    print(f"corr({i},{j}): exact sampler {exact_corr:+.4f}, "
          f"glauber {chain_corr:+.4f}")

# Spin glasses randomize the coupling signs; frustration makes them
# much harder to learn at the same coupling magnitude.
glass = make_grid_model(3, 0.7, "spin_glass", seed=3)
signs = sorted({int(np.sign(v)) for v in glass.couplings.values()})
print("\nspin glass signs present:", signs)
