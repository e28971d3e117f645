"""Monte Carlo statistics and common-random-number coupling.

Per-path seeds are base_seed + path index, so path sets are reproducible
and disjoint blocks are honestly independent.  The last section reuses a
single Brownian path across three time resolutions through increment
aggregation: the pathwise gaps it prints are observations, not a claimed
convergence rate.
"""

import numpy as np

from plapsim import (
    Grid1D,
    ModelParams,
    NoiseModel,
    OperatorContext,
    ReactionSpec,
    SourceSpec,
    make_initial,
    run_mc,
    run_pathwise_refinement,
)

grid = Grid1D(32, 1.0)
params = ModelParams(p=2.0, eps=0.1, T=0.5, M=50, L_beta=0.5)
ctx = OperatorContext(params, ReactionSpec("sine", 0.5), grid)
noise = NoiseModel(J=12, sigma=0.6)
initial = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
source = SourceSpec("zero")

a = run_mc(ctx, noise, initial, source, n_paths=200, base_seed=0)
b = run_mc(ctx, noise, initial, source, n_paths=200, base_seed=200)
print("two disjoint 200-path blocks, final-time L2 statistics:")
print(f"  block A: mean {a.mean_l2[-1]:.5f}  halfwidth {a.hw_l2[-1]:.2e}")
print(f"  block B: mean {b.mean_l2[-1]:.5f}  halfwidth {b.hw_l2[-1]:.2e}")
gap = abs(a.mean_l2[-1] - b.mean_l2[-1])
print(f"  |gap| = {gap:.2e}  <=  3 combined halfwidths = "
      f"{3*np.hypot(a.hw_l2[-1], b.hw_l2[-1]):.2e}")

half = run_mc(ctx, noise, initial, source, n_paths=100, base_seed=0)
print()
print(f"halfwidth at 100 paths {half.hw_l2[-1]:.2e} vs 200 paths "
      f"{a.hw_l2[-1]:.2e}  (ratio {a.hw_l2[-1]/half.hw_l2[-1]:.3f}, "
      "CLT predicts about 0.707)")

table = run_pathwise_refinement(ctx, noise, initial, source, levels=4, seed=3)
print()
print("one Brownian path, three tau levels against the finest (aggregated")
print("increments keep the path identical across levels):")
for tau, err in zip(table.values, table.errors):
    print(f"  tau = {tau:8.5f}:  final-time gap to finest = {err:.4e}")
