"""The strongly monotone operator inverted at every time step.

One implicit step of the scheme solves, for the next state u,

    u + tau * (plap(u) + penalty(u) - reaction(u)) = rhs,

where plap is the zero-flux p-Laplace operator augmented with the
zeroth-order term |u|^{p-2} u (the augmentation is what makes the Neumann
operator coercive on W^{1,p}).  :class:`OperatorContext` bundles the data
and exposes the operator, its convex energy (whose stationarity condition
is exactly the equation above), and a generalized tridiagonal Jacobian.
All of them take and return plain cell arrays; validated GridFunctions
enter and leave only through the solver and the stepper.  Every method acts
on the last axis, so a ``(P, n_cells)`` stack of states is P independent
problems: each row gives the numbers it gives alone, and ``energy`` returns
one value per row.  They also take a :class:`Point`, which keeps the pieces
of u they share, so the solver computes each once per iterate; an array is
wrapped in a fresh point, so both forms give the same bits.

Under tau * L_beta < 1 the operator is strongly monotone:

    <A(u) - A(v), u - v>_h >= (1 - tau L_beta) ||u - v||_2^2
                              + tau * 2^{2-p} * ||u - v||_{W^{1,p}}^p,

with the constant 2^{2-p} coming from the scalar inequality
(|a|^{p-2}a - |b|^{p-2}b)(a - b) >= 2^{2-p} |a - b|^p, which the harness
certifies numerically (it is the exact infimum, attained at b = -a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dptsv

from .mesh import Grid1D, GridFunction, divergence_array, norm_w1p_array
from .model import (
    ModelParams,
    ReactionSpec,
    yosida_derivative,
    yosida_penalty,
    yosida_potential,
)

__all__ = ["OperatorContext", "Point", "TridiagonalMatrix"]


class _Piece(cached_property):
    """A cached_property without the lock: the instance dict holds it after first use."""

    def __get__(self, pt, owner=None):
        if pt is None:
            return self
        return vars(pt).setdefault(self.attrname, self.func(pt))


def _cells(u):
    """Return u if it is a plain cell array; name the expected input otherwise."""
    if not isinstance(u, np.ndarray):
        hint = "; pass its .values" if isinstance(u, GridFunction) else ""
        raise TypeError(
            f"expected a cell array of shape (..., n_cells), "
            f"got {type(u).__name__}{hint}"
        )
    return u


class Point:
    """A cell array ``u`` of an :class:`OperatorContext` and the pieces its formulas share.

    The pieces d = diff(u) / h, |d|, |u|, |d|^(p-2), |u|^(p-2) and cos u (sine
    reaction only) are made on first use and kept; only :meth:`put` changes them.
    """

    __slots__ = ("ctx", "u", "__dict__")  # the instance dict holds only pieces

    def __init__(self, ctx: OperatorContext, u: np.ndarray):
        self.ctx, self.u = ctx, _cells(u)

    d = _Piece(lambda pt: (pt.u[..., 1:] - pt.u[..., :-1]) / pt.ctx._h)
    abs_d = _Piece(lambda pt: np.abs(pt.d))
    abs_u = _Piece(lambda pt: np.abs(pt.u))
    pow_d = _Piece(lambda pt: pt.abs_d ** (pt.ctx.params.p - 2.0))
    pow_u = _Piece(lambda pt: pt.abs_u ** (pt.ctx.params.p - 2.0))
    cos_u = _Piece(lambda pt: np.cos(pt.u) if pt.ctx.reaction.kind == "sine" else None)

    def take(self, rows) -> Point:
        """The point of the given rows, with the pieces computed so far."""
        out = Point(self.ctx, self.u[rows])
        vars(out).update((k, v if v is None else v[rows]) for k, v in vars(self).items())
        return out

    def put(self, rows, other: Point, other_rows) -> None:
        """Overwrite ``rows`` by ``other_rows`` of ``other``, which holds all our pieces."""
        self.u[rows] = other.u[other_rows]
        for name, piece in vars(self).items():
            if piece is not None:
                piece[rows] = vars(other)[name][other_rows]


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrices: main diagonals and off-diagonals.

    ``diag`` has shape (..., n) and ``off`` shape (..., n-1); each row is
    one matrix.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        n = self.diag.shape[-1]
        if self.off.shape != self.diag.shape[:-1] + (n - 1,):
            raise ValueError(
                f"off-diagonal must have shape (..., n-1), got {self.off.shape} "
                f"for diagonal shape {self.diag.shape}"
            )

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[..., :-1] += self.off * v[..., 1:]
        out[..., 1:] += self.off * v[..., :-1]
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve every row with one LAPACK ``ptsv`` (L D L^T) call.

        The rows are laid end to end as one block-diagonal matrix, with a
        zero off-diagonal at each seam, so the factorization of one block
        never touches another and each row's solution is bit-identical to
        a solve of that row alone.  The matrices are SPD by construction;
        a LinAlgError reports one that is not.
        """
        off = np.zeros(self.diag.shape)
        off[..., :-1] = self.off
        _, _, x, info = dptsv(self.diag.ravel(), off.ravel()[:-1], b.ravel())
        if info != 0:
            raise np.linalg.LinAlgError(
                f"tridiagonal solve failed: LAPACK ptsv info={info}"
            )
        return x.reshape(b.shape)


@dataclass(frozen=True)
class OperatorContext:
    """Data bundle for the per-step operator on one grid.

    Requires tau * reaction.scale < 1 (the strong monotonicity margin) and
    a declared L_beta at least as large as the realized reaction scale, so
    every bound stated in terms of L_beta is valid for the realized data.
    """

    params: ModelParams
    reaction: ReactionSpec
    grid: Grid1D

    def __post_init__(self):
        if not self.params.tau * self.reaction.scale < 1.0:
            raise ValueError(
                f"tau * reaction scale = {self.params.tau * self.reaction.scale} "
                f">= 1; operator is not strongly monotone"
            )
        if self.reaction.scale > self.params.L_beta * (1.0 + 1e-12):
            raise ValueError(
                f"reaction scale {self.reaction.scale} exceeds declared "
                f"L_beta {self.params.L_beta}"
            )
        object.__setattr__(self, "_h", self.grid.h)  # read once: the solver's hot path
        object.__setattr__(self, "_tau", self.params.tau)

    def point(self, u) -> Point:
        """u as a :class:`Point` of this context (u if it is one; another's fails)."""
        return u if isinstance(u, Point) and u.ctx is self else Point(self, u)

    def face_flux(self, values) -> np.ndarray:
        """Nonlinear face flux |d|^{p-2} d of the cell array, interior faces."""
        pt = self.point(values)
        return pt.pow_d * pt.d

    def apply_plap(self, u) -> np.ndarray:
        """Augmented p-Laplace operator: -div(|grad u|^{p-2} grad u) + |u|^{p-2} u.

        Zero-flux boundary faces; in weak form, for all test fields v,

            h sum_i out_i v_i = h sum_f |d_f|^{p-2} d_f d_f(v)
                                + h sum_i |u_i|^{p-2} u_i v_i,

        exactly (discrete summation by parts).
        """
        pt = self.point(u)
        div = divergence_array(self.face_flux(pt), self._h)
        return -div + pt.pow_u * pt.u

    def apply(self, u) -> np.ndarray:
        """The full per-step operator u + tau (plap(u) + penalty(u) - reaction(u))."""
        pt = self.point(u)
        u, pr = pt.u, self.params
        return u + self._tau * (
            self.apply_plap(pt) + yosida_penalty(u, pr.eps) - self.reaction.evaluate(u)
        )

    def energy(self, u, rhs: np.ndarray):
        """Strongly convex energy whose critical point solves apply(u) = rhs.

        E(u) = 1/2 ||u||_2^2 + tau (||u||_{W^{1,p}}^p / p
               + h sum Psi(u_i) - h sum B(u_i)) - h sum rhs_i u_i,

        with Psi the penalization potential and B the reaction
        antiderivative.  Its cellwise gradient divided by h equals
        apply(u) - rhs, and the Hessian is bounded below by
        (1 - tau L_beta) > 0, which is what the line search leans on.
        One value per row of u.
        """
        pt = self.point(u)
        u, pr, h = pt.u, self.params, self._h
        w1p = norm_w1p_array(u, h, pr.p, pt.abs_d, pt.abs_u)
        quad = 0.5 * h * np.vecdot(u, u)
        pen = h * np.add.reduce(yosida_potential(u, pr.eps), -1)
        rea = h * np.add.reduce(self.reaction.antiderivative(u, pt.cos_u), -1)
        load = h * np.vecdot(_cells(rhs), u)
        return quad + self._tau * (w1p / pr.p + pen - rea) - load

    def jacobian(self, u) -> TridiagonalMatrix:
        """Generalized Jacobian of :meth:`apply` at u.

        Identity + tau * (stiffness with face weights (p-1)|d_f|^{p-2}/h^2
        + diagonal (p-1)|u_i|^{p-2} + penalty' - reaction').  Symmetric and
        positive definite: the diagonal dominates by at least
        1 - tau L_beta > 0.
        """
        pt = self.point(u)
        u, pr = pt.u, self.params
        w = (pr.p - 1.0) * pt.pow_d / self._h**2
        diag_flux = np.zeros(u.shape)
        diag_flux[..., :-1] += w
        diag_flux[..., 1:] += w
        diag_local = (
            (pr.p - 1.0) * pt.pow_u
            + yosida_derivative(u, pr.eps)
            - self.reaction.derivative(u, pt.cos_u)
        )
        return TridiagonalMatrix(
            1.0 + self._tau * (diag_flux + diag_local), -self._tau * w
        )
