"""The exact residual of the per-step operator, in rational arithmetic.

A double is a dyadic rational, so for an integer p and a zero or linear
reaction every term of

    A(u) - rhs = u + tau (plap(u) + penalty(u) - reaction(u)) - rhs

is a rational function of the doubles u, rhs, h, tau, eps and the reaction
scale: |d|^(p-2) d is a polynomial in the face gradient d (times |d| at odd
p), the penalty is piecewise linear and the reaction linear.
:func:`exact_squared_residual` evaluates it with ``fractions.Fraction`` from
the formulas of :mod:`plapsim.operators`, with no rounding, so a float64
residual can be checked against it.  The sine reaction and a non-integer p
are refused: their values are not rational.
"""

from __future__ import annotations

from fractions import Fraction


def exact_residual(ctx, u, rhs) -> list:
    """A(u) - rhs of the (n_cells,) arrays ``u`` and ``rhs``, cell by cell, as Fractions."""
    p, kind = ctx.params.p, ctx.reaction.kind
    if p != int(p):
        raise ValueError(f"p = {p} is not an integer: |d|^(p-2) d is not rational")
    if kind == "sine":
        raise ValueError("the sine reaction: sin u is not rational")
    h, tau, eps = (Fraction(x) for x in (ctx.grid.h, ctx.params.tau, ctx.params.eps))
    scale = Fraction(ctx.reaction.scale) if kind == "linear" else Fraction(0)
    u = [Fraction(x) for x in u.tolist()]
    flux = [abs(d) ** (int(p) - 2) * d for d in ((b - a) / h for a, b in zip(u, u[1:]))]
    out = []
    for i, (v, r) in enumerate(zip(u, rhs.tolist())):
        div = ((flux[i] if i < len(flux) else 0) - (flux[i - 1] if i else 0)) / h
        excess = v if v <= 0 else max(v - 1, Fraction(0))
        out.append(v + tau * (-div + abs(v) ** (int(p) - 2) * v + excess / eps - scale * v)
                   - Fraction(r))
    return out


def exact_squared_residual(ctx, u, rhs) -> Fraction:
    """h * sum_i (A(u) - rhs)_i^2, exactly: the square of the solver's L2 residual."""
    return Fraction(ctx.grid.h) * sum(r * r for r in exact_residual(ctx, u, rhs))
