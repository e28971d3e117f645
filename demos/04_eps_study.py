"""How hard the penalization pins the state into [0, 1].

A constant source f = 5 pushes the state above 1; the penalization
resists with strength 1/eps.  Halving eps roughly halves the overshoot.
With no forcing and data confined to [1/4, 3/4] the dynamics never leave
the box at all, at any eps.
"""

from plapsim import (
    Grid1D,
    ModelParams,
    NoiseModel,
    OperatorContext,
    ReactionSpec,
    SourceSpec,
    make_initial,
    run_eps_study,
)

grid = Grid1D(32, 1.0)
ctx = OperatorContext(ModelParams(p=2.0, eps=0.1, T=0.3, M=30, L_beta=0.0),
                      ReactionSpec("zero"), grid)

forced = run_eps_study(
    ctx,
    NoiseModel(J=8, sigma=0.3),
    make_initial(grid, "constant", {"value": 0.5}),
    SourceSpec("constant", {"value": 5.0}),
    [0.1, 0.05, 0.025, 0.0125],
    n_paths=16,
    base_seed=1,
)
print("forcing f = 5 (state driven above 1), 16 paths, shared seeds:")
print(f"  {'eps':>8} {'mean max violation':>20} {'halfwidth':>12} {'ratio':>7}")
hw = forced.metadata["halfwidths"]
ratios = forced.ratios()
for i, (eps, v) in enumerate(zip(forced.values, forced.errors)):
    ratio = f"{ratios[i]:7.3f}" if i else "      -"
    print(f"  {eps:8.4f} {v:20.6f} {hw[i]:12.2e} {ratio}")

confined = run_eps_study(
    ctx,
    NoiseModel(J=8, sigma=0.0),
    make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25}),
    SourceSpec("zero"),
    [0.1, 0.05, 0.025],
    n_paths=1,
)
print()
print("no forcing, data in [1/4, 3/4]:")
for eps, v in zip(confined.values, confined.errors):
    print(f"  eps = {eps:6.4f}:  max violation = {v:.3e}")
