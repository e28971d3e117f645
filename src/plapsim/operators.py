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
one value per row.

Under tau * L_beta < 1 the operator is strongly monotone:

    <A(u) - A(v), u - v>_h >= (1 - tau L_beta) ||u - v||_2^2
                              + tau * 2^{2-p} * ||u - v||_{W^{1,p}}^p,

with the constant 2^{2-p} coming from the scalar inequality
(|a|^{p-2}a - |b|^{p-2}b)(a - b) >= 2^{2-p} |a - b|^p, which the harness
certifies numerically (it is the exact infimum, attained at b = -a).
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["OperatorContext", "TridiagonalMatrix"]


def _cells(u):
    """Return u if it is a plain cell array; name the expected input otherwise."""
    if not isinstance(u, np.ndarray):
        hint = "; pass its .values" if isinstance(u, GridFunction) else ""
        raise TypeError(
            f"expected a cell array of shape (..., n_cells), "
            f"got {type(u).__name__}{hint}"
        )
    return u


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

    def face_flux(self, values: np.ndarray) -> np.ndarray:
        """Nonlinear face flux |d|^{p-2} d of the cell array, interior faces."""
        d = np.diff(_cells(values)) / self.grid.h
        return np.abs(d) ** (self.params.p - 2.0) * d

    def apply_plap(self, u: np.ndarray) -> np.ndarray:
        """Augmented p-Laplace operator: -div(|grad u|^{p-2} grad u) + |u|^{p-2} u.

        Zero-flux boundary faces; in weak form, for all test fields v,

            h sum_i out_i v_i = h sum_f |d_f|^{p-2} d_f d_f(v)
                                + h sum_i |u_i|^{p-2} u_i v_i,

        exactly (discrete summation by parts).
        """
        div = divergence_array(self.face_flux(u), self.grid.h)
        zeroth = np.abs(u) ** (self.params.p - 2.0) * u
        return -div + zeroth

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The full per-step operator u + tau (plap(u) + penalty(u) - reaction(u))."""
        pr = self.params
        return _cells(u) + pr.tau * (
            self.apply_plap(u) + yosida_penalty(u, pr.eps) - self.reaction.evaluate(u)
        )

    def energy(self, u: np.ndarray, rhs: np.ndarray):
        """Strongly convex energy whose critical point solves apply(u) = rhs.

        E(u) = 1/2 ||u||_2^2 + tau (||u||_{W^{1,p}}^p / p
               + h sum Psi(u_i) - h sum B(u_i)) - h sum rhs_i u_i,

        with Psi the penalization potential and B the reaction
        antiderivative.  Its cellwise gradient divided by h equals
        apply(u) - rhs, and the Hessian is bounded below by
        (1 - tau L_beta) > 0, which is what the line search leans on.
        One value per row of u.
        """
        pr = self.params
        h = self.grid.h
        w1p = norm_w1p_array(_cells(u), h, pr.p)
        quad = 0.5 * h * np.vecdot(u, u)
        pen = h * np.sum(yosida_potential(u, pr.eps), axis=-1)
        rea = h * np.sum(self.reaction.antiderivative(u), axis=-1)
        load = h * np.vecdot(_cells(rhs), u)
        return quad + pr.tau * (w1p / pr.p + pen - rea) - load

    def jacobian(self, u: np.ndarray) -> TridiagonalMatrix:
        """Generalized Jacobian of :meth:`apply` at u.

        Identity + tau * (stiffness with face weights (p-1)|d_f|^{p-2}/h^2
        + diagonal (p-1)|u_i|^{p-2} + penalty' - reaction').  Symmetric and
        positive definite: the diagonal dominates by at least
        1 - tau L_beta > 0.
        """
        pr = self.params
        g = self.grid
        d = np.diff(_cells(u)) / g.h
        w = (pr.p - 1.0) * np.abs(d) ** (pr.p - 2.0) / g.h**2
        diag_flux = np.zeros(u.shape)
        diag_flux[..., :-1] += w
        diag_flux[..., 1:] += w
        diag_local = (
            (pr.p - 1.0) * np.abs(u) ** (pr.p - 2.0)
            + yosida_derivative(u, pr.eps)
            - self.reaction.derivative(u)
        )
        return TridiagonalMatrix(
            1.0 + pr.tau * (diag_flux + diag_local), -pr.tau * w
        )
