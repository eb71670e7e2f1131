"""The per-vertex screening loss and its l1-penalized minimizer.

The loss for focal vertex u is the empirical average of
exp(-sum_i theta_i sigma_u sigma_i). Its population minimum sits at
the true couplings, which is what makes the whole approach work: no
partition function ever has to be computed.

Run: python3 demos/02_screening_loss_and_solver.py
"""

import numpy as np

from isinglearn import (SolverConfig, kkt_residual, make_grid_model, minimize,
                        node_view, sample_exact, screening_gradient,
                        screening_value)

model = make_grid_model(3, 0.7)
samples = sample_exact(model, 100000, seed=11)
u = 4
view = node_view(samples, u)

# The view is the sample set's tally design (its distinct configurations
# up to the global flip, with counts, shared by every vertex) plus the
# focal vertex, so evaluations cost O(distinct configurations), not
# O(n). For p=9 there are at most 256 of them.
print(f"focal vertex {u}: {samples.n} samples collapsed to "
      f"{view.basis.shape[0]} distinct configurations")

truth = model.coupling_row(u)
print("loss at zero:     ", screening_value(view, np.zeros(8)))
print("loss at truth:    ", screening_value(view, truth))
print("gradient at truth:", np.abs(screening_gradient(view, truth)).max(),
      "(sup norm; concentrates around 0 as n grows)")

# Sweep the penalty and watch the fitted vector sparsify. The solver
# takes proximal Newton steps with backtracking; convergence is
# certified by the KKT residual of the composite objective, never by
# iterate drift.
print("\n lambda   nonzeros  l1 norm   iterations")
for lam in (0.0, 0.01, 0.05, 0.2, 1.0):
    report = minimize(view, SolverConfig(lam=lam, kkt_tolerance=1e-8))
    sol = report.solution
    print(f" {lam:5.2f}   {int(np.sum(sol != 0)):^8d}  {np.abs(sol).sum():7.4f}"
          f"   {report.iterations:^10d}")

# Independent certificate for the last fit: recompute the gradient and
# check first-order optimality from scratch.
report = minimize(view, SolverConfig(lam=0.05, kkt_tolerance=1e-8))
residual = kkt_residual(screening_gradient(view, report.solution),
                        report.solution, 0.05)
print("\nrecomputed KKT residual:", residual)
print("true neighbors of vertex", u, "->",
      [v for v in model.neighbors(u)])
print("fitted vector (others order):", np.round(report.solution, 3))
