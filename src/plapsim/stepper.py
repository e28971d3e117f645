"""Semi-implicit Euler-Maruyama time loop.

Each step assembles the right-hand side from the previous state (noise
evaluated explicitly at the old state, source averaged over the step) and
hands it to the nonlinear solver:

    rhs   = u_n + sum_j g_j(u_n) dW_j + tau * f_n
    u_np1 = solve(apply(.) = rhs),  warm started at u_n.

The converged state satisfies the scheme identity

    u_np1 - u_n + tau (plap(u_np1) + penalty(u_np1))
        = noise + tau (reaction(u_np1) + f_n)

cellwise within the solver tolerance.  Trajectories store the increments
they consumed so that this identity can be re-verified from the output
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Grid1D, GridFunction, norm_l2, norm_w1p, open_target
from .model import InitialDatum, SourceSpec
from .noise import NoiseModel, PathIncrements
from .operators import OperatorContext
from .solver import SolveReport, SolverConfig, solve

__all__ = [
    "Trajectory",
    "step",
    "run_path",
    "constraint_violation",
    "constraint_violation_array",
]


def constraint_violation(u: GridFunction) -> float:
    """Integral distance of u to the box [0, 1]: h * sum((-u)^+ + (u-1)^+).

    Zero exactly when every cell value lies in [0, 1]; the quantity the
    penalization drives toward zero as eps shrinks.
    """
    return float(constraint_violation_array(u.values, u.grid.h))


def constraint_violation_array(values: np.ndarray, h: float):
    """:func:`constraint_violation` of cell arrays (last axis) on cells of width h."""
    return h * (
        np.sum(np.maximum(-values, 0.0), axis=-1)
        + np.sum(np.maximum(values - 1.0, 0.0), axis=-1)
    )


def step(
    ctx: OperatorContext,
    noise_model: NoiseModel,
    u_n: GridFunction,
    dw_row: np.ndarray,
    f_n: GridFunction,
    cfg: SolverConfig | None = None,
) -> tuple[GridFunction, SolveReport]:
    """One semi-implicit step: explicit noise at u_n, implicit everything else."""
    forcing = noise_model.apply_diffusion(u_n, dw_row)
    rhs = ctx.grid.function(
        u_n.values + forcing.values + ctx.params.tau * f_n.values
    )
    return solve(ctx, rhs, guess=u_n, cfg=cfg)


@dataclass(eq=False)
class Trajectory:
    """One simulated path: states (or their norms), reports, increments.

    mode "full" keeps every state, as row n of the (M+1, n_cells) array
    ``states``; mode "thin" keeps only the per-time summary (L2 norm,
    W^{1,p} power, constraint violation) and sets ``states`` to None, which
    is what Monte Carlo aggregation needs and keeps long runs cheap.
    """

    grid: Grid1D
    times: np.ndarray
    states: np.ndarray | None
    l2_norms: np.ndarray
    w1p_norms: np.ndarray
    violations: np.ndarray
    reports: list
    increments: PathIncrements
    seed: int
    mode: str

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def final_state(self) -> GridFunction:
        if self.states is None:
            raise ValueError("thin trajectory does not store states")
        return self.grid.function(self.states[-1])

    def to_csv(self, target, metadata: dict | None = None) -> None:
        """Write the trajectory as CSV with '# key: value' metadata lines.

        Full mode: columns t, c0..c{n-1} (cell values).  Thin mode:
        columns t, l2_norm, w1p_norm, constraint_violation.  LF endings,
        '.' decimals, ',' separators.
        """
        with open_target(target) as target:
            target.write(f"# seed: {self.seed}\n")
            target.write(f"# mode: {self.mode}\n")
            for key in sorted(metadata or {}):
                target.write(f"# {key}: {metadata[key]}\n")
            if self.mode == "full":
                n = self.grid.n_cells
                target.write("t," + ",".join(f"c{i}" for i in range(n)) + "\n")
                for t, state in zip(self.times, self.states):
                    target.write(
                        repr(float(t)) + "," + ",".join(repr(float(v)) for v in state) + "\n"
                    )
            else:
                target.write("t,l2_norm,v_norm_p,constraint_violation\n")
                for t, a, b, c in zip(
                    self.times, self.l2_norms, self.w1p_norms, self.violations
                ):
                    target.write(f"{float(t)!r},{float(a)!r},{float(b)!r},{float(c)!r}\n")


def run_path(
    ctx: OperatorContext,
    noise_model: NoiseModel,
    initial: InitialDatum,
    source: SourceSpec,
    seed: int,
    cfg: SolverConfig | None = None,
    mode: str = "full",
    increments: PathIncrements | None = None,
) -> Trajectory:
    """Run the full time loop for one path.

    The increments are drawn from ``seed`` unless an explicit matrix is
    passed (refinement studies pass coarsened copies of one fine path).
    The output is a deterministic function of all inputs.
    """
    if mode not in ("full", "thin"):
        raise ValueError(f"mode must be 'full' or 'thin', got {mode!r}")
    pr = ctx.params
    if increments is None:
        increments = noise_model.sample_path(pr.M, pr.tau, seed)
    if increments.n_steps != pr.M or increments.n_modes != noise_model.J:
        raise ValueError(
            f"increment matrix {increments.values.shape} does not match "
            f"M={pr.M}, J={noise_model.J}"
        )

    u = initial.u0
    times = np.arange(pr.M + 1) * pr.tau
    states = None
    if mode == "full":
        states = np.empty((pr.M + 1, ctx.grid.n_cells))
        states[0] = u.values
    l2_norms = [norm_l2(u)]
    w1p_norms = [norm_w1p(u, pr.p)]
    violations = [constraint_violation(u)]
    reports = []

    for n in range(pr.M):
        f_n = source.step_average(n, ctx.grid, pr.tau)
        u, report = step(ctx, noise_model, u, increments.values[n], f_n, cfg)
        reports.append(report)
        if states is not None:
            states[n + 1] = u.values
        l2_norms.append(norm_l2(u))
        w1p_norms.append(norm_w1p(u, pr.p))
        violations.append(constraint_violation(u))

    return Trajectory(
        ctx.grid,
        times,
        states,
        np.array(l2_norms),
        np.array(w1p_norms),
        np.array(violations),
        reports,
        increments,
        seed,
        mode,
    )
