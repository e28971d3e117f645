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
wrapped in a fresh point, so both forms give the same bits.  A point also
keeps the operator value A(u) and the rhs-free part E0(u) of the energy, so
a point carried from one solve to the next (the time loop hands each step's
solution to the next step as its guess) is not evaluated again.  The
Jacobian is a :class:`TridiagonalMatrix`: the buffer LAPACK solves in, as
:meth:`~OperatorContext.jacobian` fills it, and one solve.

The Newton systems are solved by LAPACK's ``dptsv`` from the OpenBLAS that
numpy's wheel ships (``libscipy_openblas64_*``, 64-bit integers), bound with
ctypes.  numpy has that library loaded already, so the binding adds almost
nothing to ``import plapsim``, where importing ``scipy.linalg`` for the same
routine would take about two thirds of it.  Where numpy ships no such
library (a numpy built from source, or one on Accelerate), the solve calls
``scipy.linalg.lapack.dptsv``, imported on first use.  Both run the same
LAPACK routine; the tests check that they give the same bits.

Under tau * L_beta < 1 the operator is strongly monotone:

    <A(u) - A(v), u - v>_h >= (1 - tau L_beta) ||u - v||_2^2
                              + tau * 2^{2-p} * ||u - v||_{W^{1,p}}^p,

with the constant 2^{2-p} coming from the scalar inequality
(|a|^{p-2}a - |b|^{p-2}b)(a - b) >= 2^{2-p} |a - b|^p, which the harness
certifies numerically (it is the exact infimum, attained at b = -a).
"""

from __future__ import annotations

import glob
import os
from ctypes import CDLL, byref, c_double, c_int, c_int64
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Grid1D, GridFunction, divergence_array, norm_w1p_array
from .model import (
    ModelParams,
    ReactionSpec,
    box_excess,
    yosida_derivative,
    yosida_penalty,
    yosida_potential,
)

__all__ = ["OperatorContext", "Point", "TridiagonalMatrix"]


def _bundled_openblas():
    """The OpenBLAS in numpy's wheel, with its ``dptsv``, or None where numpy ships none."""
    pkg = os.path.dirname(np.__file__)
    for path in sorted(
        glob.glob(os.path.join(pkg + ".libs", "libscipy_openblas64_*"))  # Linux, Windows
        + glob.glob(os.path.join(pkg, ".dylibs", "libscipy_openblas64_*"))  # macOS
    ):
        try:
            lib = CDLL(path)
            lib.scipy_dptsv_64_.restype = None
        except (OSError, AttributeError):
            continue
        return lib
    return None


_OPENBLAS = _bundled_openblas()
_BUNDLED_DPTSV = _OPENBLAS and _OPENBLAS.scipy_dptsv_64_
_ONE = byref(c_int64(1))


def pin_blas_threads():
    """Run numpy's bundled OpenBLAS, if any, on one thread: on more, its ``ddot``
    (``np.dot``, ``np.vecdot``) splits vectors of 16384 values or more between
    the threads and sums the parts in an order that depends on the cores."""
    pin = getattr(_OPENBLAS, "scipy_openblas_set_num_threads64_", None)
    if pin is not None:
        pin.argtypes, pin.restype = [c_int], None
        pin(1)


def _ptsv(work: np.ndarray) -> int:
    """Solve in place the SPD tridiagonal system held in ``work``; return LAPACK's info.

    ``work`` is a fresh C-contiguous float64 array of shape (3, ...): the
    diagonal, the off-diagonal (one longer, its last entry unused) and the
    right-hand side, each read flat.  The solution overwrites ``work[2]``, and
    the factorization the first two rows.  An empty stack has nothing to solve.
    """
    if not work.size:
        return 0
    if _BUNDLED_DPTSV is None:
        from scipy.linalg.lapack import dptsv

        flat = work.reshape(3, -1)  # a view: work is contiguous
        _, _, flat[2], info = dptsv(flat[0], flat[1, :-1], flat[2])
        return info
    # Every argument is a reference to a typed ctypes object, which ctypes
    # passes as the pointer it is; declaring argtypes would only add about
    # 2 us of conversion to each call.
    size = work.size // 3
    base = c_double.from_buffer(work)
    n, info = byref(c_int64(size)), c_int64()
    _BUNDLED_DPTSV(
        n, _ONE, byref(base), byref(base, 8 * size), byref(base, 16 * size), n, byref(info)
    )
    return info.value


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

    The pieces d = diff(u) / h, |d|, |u|, |d|^(p-2), |u|^(p-2), cos u (sine
    reaction only), the box excess g (:func:`~plapsim.model.box_excess`), the
    p-th power of the W^{1,p} norm, the operator value A(u) and the rhs-free
    part E0(u) of the energy are made on first use and kept; only
    :meth:`put` changes them.  Pieces known already are passed to the
    constructor by name.
    """

    __slots__ = ("ctx", "u", "__dict__")  # the instance dict holds only pieces

    def __init__(self, ctx: OperatorContext, u: np.ndarray, **pieces):
        self.ctx, self.u = ctx, _cells(u)
        vars(self).update(pieces)

    d = _Piece(lambda pt: (pt.u[..., 1:] - pt.u[..., :-1]) / pt.ctx._h)
    abs_d = _Piece(lambda pt: np.abs(pt.d))
    abs_u = _Piece(lambda pt: np.abs(pt.u))
    pow_d = _Piece(lambda pt: pt.abs_d ** (pt.ctx.params.p - 2.0))
    pow_u = _Piece(lambda pt: pt.abs_u ** (pt.ctx.params.p - 2.0))
    cos_u = _Piece(lambda pt: np.cos(pt.u) if pt.ctx.reaction.kind == "sine" else None)
    g = _Piece(lambda pt: box_excess(pt.u))
    w1p = _Piece(lambda pt: norm_w1p_array(pt.u, pt.ctx._h, pt.ctx.params.p, pt.abs_d, pt.abs_u))
    au = _Piece(lambda pt: pt.ctx._operator(pt))
    e0 = _Piece(lambda pt: pt.ctx._energy0(pt))

    def take(self, rows) -> Point:
        """The point of the given rows, with the pieces computed so far."""
        out = Point(self.ctx, self.u[rows])
        vars(out).update((k, v if v is None else v[rows]) for k, v in vars(self).items())
        return out

    def put(self, rows, other: Point, other_rows) -> None:
        """Overwrite ``rows`` by ``other_rows`` of ``other``, piece by piece."""
        self.u[rows] = other.u[other_rows]
        for name, piece in vars(self).items():
            if piece is not None:
                piece[rows] = getattr(other, name)[other_rows]


class TridiagonalMatrix:
    """SPD tridiagonal matrices held in the buffer LAPACK solves them in.

    ``work`` is a fresh C-contiguous (3, ..., n) float64 array: row 0 holds
    the diagonals, one matrix per row of ``work[0]``, and row 1 the
    off-diagonals, with a zero in the last column (the seam to the next
    matrix).  :meth:`solve` writes the right-hand side into row 2, and LAPACK
    overwrites rows 0 and 1 with the factorization, so a matrix is solved
    once: afterwards ``work`` is None.
    """

    __slots__ = ("work",)

    def __init__(self, work: np.ndarray):
        self.work = work

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve every row with one LAPACK ``dptsv`` (L D L^T) call.

        The rows are laid end to end as one block-diagonal matrix, with a
        zero off-diagonal at each seam, so the factorization of one block
        never touches another and each row's solution is bit-identical to
        a solve of that row alone.  Only ``b`` is copied, into the buffer,
        and the matrix is spent.  The call goes to numpy's bundled OpenBLAS,
        or to scipy's LAPACK where numpy ships none (see the module
        docstring).  The matrices are SPD by construction; a LinAlgError
        reports one that is not.
        """
        work = self.work
        if work is None:
            raise ValueError(
                "this matrix was factorized in place by its one solve; build it again"
            )
        if b.shape != work.shape[1:]:
            raise ValueError(
                f"right-hand side shape {b.shape} differs from diagonal shape {work.shape[1:]}"
            )
        self.work = None  # LAPACK overwrites the matrix with its factorization
        work[2] = b
        info = _ptsv(work)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"tridiagonal solve failed: LAPACK ptsv info={info}"
            )
        return work[2]


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
        """The full per-step operator u + tau (plap(u) + penalty(u) - reaction(u)).

        On a point, this is the array the point keeps: do not write to it.
        """
        return self.point(u).au

    def _operator(self, pt: Point) -> np.ndarray:
        """:meth:`apply` at a point, computed (the formula of ``Point.au``)."""
        u, pr = pt.u, self.params
        return u + self._tau * (
            self.apply_plap(pt) + yosida_penalty(u, pr.eps, pt.g) - self.reaction.evaluate(u)
        )

    def energy(self, u, rhs: np.ndarray):
        """Strongly convex energy whose critical point solves apply(u) = rhs.

        E(u) = 1/2 ||u||_2^2 + tau (||u||_{W^{1,p}}^p / p
               + h sum Psi(u_i) - h sum B(u_i)) - h sum rhs_i u_i,

        with Psi the penalization potential and B the reaction
        antiderivative.  Its cellwise gradient divided by h equals
        apply(u) - rhs, and the Hessian is bounded below by
        (1 - tau L_beta) > 0, which is what the line search leans on.
        One value per row of u.  A point keeps the rhs-free part E0(u), so
        at a point evaluated before this costs one dot product.
        """
        pt = self.point(u)
        return pt.e0 - self._h * np.vecdot(_cells(rhs), pt.u)

    def _energy0(self, pt: Point):
        """E0(u), the energy without its load term (the formula of ``Point.e0``)."""
        u, pr, h = pt.u, self.params, self._h
        quad = 0.5 * h * np.vecdot(u, u)
        pen = h * np.add.reduce(yosida_potential(u, pr.eps, pt.g), -1)
        rea = h * np.add.reduce(self.reaction.antiderivative(u, pt.cos_u), -1)
        return quad + self._tau * (pt.w1p / pr.p + pen - rea)

    def jacobian(self, u) -> TridiagonalMatrix:
        """Generalized Jacobian of :meth:`apply` at u.

        Identity + tau * (stiffness with face weights (p-1)|d_f|^{p-2}/h^2
        + diagonal (p-1)|u_i|^{p-2} + penalty' - reaction').  Symmetric and
        positive definite: the diagonal dominates by at least
        1 - tau L_beta > 0.  The matrix is built in its LAPACK buffer, so it
        can be solved once.
        """
        pt = self.point(u)
        u, pr = pt.u, self.params
        w = (pr.p - 1.0) * pt.pow_d / self._h**2
        work = np.empty((3,) + u.shape)
        diag = work[0]  # 1 + tau (flux part + local part), in that order
        diag.fill(0.0)
        diag[..., :-1] += w
        diag[..., 1:] += w
        diag += (
            (pr.p - 1.0) * pt.pow_u
            + yosida_derivative(u, pr.eps, pt.g)
            - self.reaction.derivative(u, pt.cos_u)
        )
        diag *= self._tau
        diag += 1.0
        np.multiply(-self._tau, w, out=work[1, ..., :-1])
        work[1, ..., -1] = 0.0
        return TridiagonalMatrix(work)
