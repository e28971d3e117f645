"""The exact-residual oracle of ``exact_residual.py``, and one check that uses it."""

from fractions import Fraction

import numpy as np
import pytest
from exact_residual import exact_squared_residual

from plapsim.mesh import Grid1D
from plapsim.model import ModelParams, ReactionSpec
from plapsim.operators import OperatorContext
from plapsim.solver import SolverConfig, solve_rows


def context(p, n, margin, kind="linear", eps=0.01):
    """A context with tau * L_beta = 1 - margin, the linear reaction at L_beta."""
    tau = 0.125
    L_beta = (1.0 - margin) / tau
    params = ModelParams(p=p, eps=eps, T=tau, M=1, L_beta=L_beta)
    return OperatorContext(params, ReactionSpec(kind, L_beta), Grid1D(n, 1.0))


@pytest.mark.parametrize("kind", ["zero", "linear"])
def test_exact_residual_equals_float64_where_float64_is_exact(kind):
    # p = 2, h = 1/8, tau = 1/8, eps = 1/2 and states in steps of 1/16 from
    # -1 to 2: every float64 operation of ctx.apply is exact, penalty included
    ctx = context(2.0, 8, 0.5, kind, eps=0.5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u, rhs = rng.integers(-16, 33, (2, 8)) / 16.0
        float64 = ctx.grid.h * sum(Fraction(r) ** 2 for r in (ctx.apply(u) - rhs).tolist())
        assert exact_squared_residual(ctx, u, rhs) == float64


@pytest.mark.parametrize("p, kind, reason", [
    (2.5, "linear", "p = 2.5 is not an integer"),
    (3.0, "sine", "the sine reaction"),
])
def test_exact_residual_refuses_what_is_not_rational(p, kind, reason):
    params = ModelParams(p=p, eps=0.1, T=0.1, M=1, L_beta=1.0)
    ctx = OperatorContext(params, ReactionSpec(kind, 1.0), Grid1D(4, 1.0))
    with pytest.raises(ValueError, match=reason):
        exact_squared_residual(ctx, np.zeros(4), np.zeros(4))


def test_solutions_from_two_guesses_agree_within_the_exact_residuals():
    # the paper's uniqueness, checked in exact arithmetic: strong monotonicity
    # gives ||u1 - u2|| <= (||r1|| + ||r2||) / (1 - tau L_beta) for the
    # exact residuals r1, r2 of any two states, so for the solutions of
    # solve_rows from the guesses 0 and rhs; every (p, n, margin) below
    cfg = SolverConfig()
    for p in (2.0, 3.0, 4.0):
        for n in (3, 16, 64):
            for margin in (0.5, 1e-6):
                ctx = context(p, n, margin)
                x = ctx.grid.cell_centers()
                rhs = 0.5 + 0.8 * np.cos(np.pi * x) + 0.1 * np.sin(7 * x)
                (u1, u2), _ = solve_rows(ctx, np.stack([rhs, rhs]),
                                         np.stack([np.zeros(n), rhs]), cfg)
                r1, r2 = (exact_squared_residual(ctx, u, rhs) for u in (u1, u2))
                m = 1 - Fraction(ctx.params.tau) * Fraction(ctx.params.L_beta)
                gap = Fraction(ctx.grid.h) * sum(
                    (Fraction(a) - Fraction(b)) ** 2 for a, b in zip(u1.tolist(), u2.tolist()))
                # gap m^2 <= (sqrt(r1) + sqrt(r2))^2 = r1 + r2 + 2 sqrt(r1 r2), squared out
                excess = gap * m**2 - r1 - r2
                assert excess <= 0 or excess**2 <= 4 * r1 * r2, (p, n, margin)
