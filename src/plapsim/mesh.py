"""Cell-centered 1-D meshes and discrete norms with zero-flux boundaries.

The interval (0, length) is split into ``n_cells`` uniform cells of width
``h``.  Scalar fields live at cell centers; the two-point gradient
diff(u) / h lives at the ``n_cells - 1`` interior faces.  Boundary faces
carry no flux, so the homogeneous Neumann condition is structural rather
than an equation modification, and the discrete summation-by-parts identity

    h * sum_f grad(u)_f grad(v)_f == -h * sum_i div(grad(u))_i v_i

holds exactly (up to round-off).  All quadratures are the plain weighted
sums h * sum(.).  ``norm_w1p`` returns the p-th *power* of the Sobolev-type
norm, because every estimate built on top of it is stated in powers.

The ``*_array`` functions are the one implementation of the divergence and
the two norms, on plain arrays; the numerical core calls them directly and
the GridFunction norms delegate to them.  They act on the last axis, so a
``(P, n_cells)`` stack of fields gives one result per row, bit-identical to
the result for that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "GridFunction",
    "inner",
    "norm_l2",
    "norm_w1p",
    "divergence_array",
    "norm_l2_array",
    "norm_w1p_array",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered mesh of the interval (0, length)."""

    n_cells: int
    length: float = 1.0

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")
        try:
            float(self.h) ** 2  # the Jacobian's face weights divide by h**2
        except OverflowError:
            raise ValueError(f"cell width length / n_cells = {self.h} is too large: "
                             "its square overflows") from None

    @property
    def h(self) -> float:
        """Cell width."""
        return self.length / self.n_cells

    def cell_centers(self) -> np.ndarray:
        """Coordinates of the cell centers, (i + 1/2) * h."""
        return (np.arange(self.n_cells) + 0.5) * self.h

    def function(self, values) -> "GridFunction":
        """Wrap an array of cell values as a GridFunction on this grid."""
        return GridFunction(self, values)

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.n_cells))


def _frozen_array(values, size: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"{what} must have shape ({size},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridFunction:
    """Real-valued field sampled at the cell centers of a Grid1D.

    The value array is copied and frozen on construction, so instances can
    be shared without defensive copies.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen_array(self.values, self.grid.n_cells, "values")
        )


def inner(u: GridFunction, v: GridFunction) -> float:
    """Discrete L2 pairing h * sum_i u_i v_i."""
    return float(u.grid.h * np.dot(u.values, v.values))


def norm_l2(u: GridFunction) -> float:
    """Discrete L2 norm sqrt(h * sum_i u_i^2)."""
    return float(norm_l2_array(u.values, u.grid.h))


def norm_w1p(u: GridFunction, p: float) -> float:
    """p-th power of the discrete W^{1,p} norm.

    Returns h * sum_f |grad(u)_f|^p + h * sum_i |u_i|^p.  Requires a finite
    p >= 2; for p = 2 and constant u this reduces to norm_l2(u)**2.
    """
    if not 2 <= p < np.inf:  # NaN fails both comparisons
        raise ValueError(f"p must be finite and >= 2, got {p}")
    return float(norm_w1p_array(u.values, u.grid.h, p))


def divergence_array(flux: np.ndarray, h: float) -> np.ndarray:
    """Divergence of interior-face arrays (last axis) on cells of width h.

    The boundary flux is zero.
    """
    div = np.zeros(flux.shape[:-1] + (flux.shape[-1] + 1,))
    div[..., :-1] += flux
    div[..., 1:] -= flux
    return div / h


def norm_l2_array(values: np.ndarray, h: float):
    """Discrete L2 norm of cell arrays (last axis) on cells of width h."""
    return np.sqrt(h * np.vecdot(values, values))


def norm_w1p_array(values: np.ndarray, h: float, p: float, abs_grad=None, abs_values=None):
    """p-th power of the discrete W^{1,p} norm of cell arrays (last axis, p unchecked).

    A caller that holds |diff(values) / h| and |values| passes them in.
    """
    abs_grad = np.abs(np.diff(values) / h) if abs_grad is None else abs_grad
    abs_values = np.abs(values) if abs_values is None else abs_values
    return h * np.add.reduce(abs_grad**p, -1) + h * np.add.reduce(abs_values**p, -1)

