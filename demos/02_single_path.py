"""Simulate one noisy trajectory and look at the solver diagnostics.

One path of the semi-implicit scheme: multiplicative noise evaluated at
the previous state, everything else implicit, one strongly convex solve
per step.  The trajectory is exported as CSV next to this script.
"""

import os

import numpy as np

from plapsim import (
    Grid1D,
    ModelParams,
    NoiseModel,
    OperatorContext,
    ReactionSpec,
    SourceSpec,
    make_initial,
    run_path,
)

grid = Grid1D(64, 1.0)
params = ModelParams(p=3.0, eps=0.05, T=1.0, M=200, L_beta=1.0)
ctx = OperatorContext(params, ReactionSpec("sine", 1.0), grid)
noise = NoiseModel(J=16, sigma=0.8)
initial = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
source = SourceSpec("constant", {"value": 0.3})

traj = run_path(ctx, noise, initial, source, seed=42)

iters = np.array([r.iterations for r in traj.reports])
final_resids = np.array([r.residual_history[-1] for r in traj.reports])
print(f"steps: {params.M},  tau = {params.tau}")
print(f"Newton iterations per step: min {iters.min()}, "
      f"median {int(np.median(iters))}, max {iters.max()}")
print(f"final residuals: max {final_resids.max():.2e}")
print(f"L2 norm:  start {traj.l2_norms[0]:.4f}  end {traj.l2_norms[-1]:.4f}")
print(f"max box violation along the path: {traj.violations.max():.2e}")

os.makedirs("demo-output", exist_ok=True)
out = os.path.join("demo-output", "single_path.csv")
with open(out, "w", newline="\n") as stream:
    traj.to_csv(stream)
print(f"trajectory written to {out}")
