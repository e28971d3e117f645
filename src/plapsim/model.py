"""Problem data: parameters, box penalization, reaction presets, sources.

The penalization ``yosida_penalty`` is the Moreau-Yosida regularization of
the subdifferential of the indicator of [0, 1]: piecewise linear, zero on
the box, slope 1/eps outside it.  Its convex potential
``yosida_potential`` feeds the energy line search of the nonlinear solver.

Reactions are presets (zero, linear, sine) so that the advertised
Lipschitz constant is trustworthy by construction.  Sources are presets
too; the per-step value is always the time average over the step,
computed with a 4-point Gauss rule (exact for polynomials in t of degree
up to 7) and evaluated at cell centers in space.  The domain is the
grid's: ``ModelParams`` holds only the numbers of the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Grid1D, GridFunction

__all__ = [
    "ModelParams",
    "ReactionSpec",
    "SourceSpec",
    "InitialDatum",
    "box_excess",
    "yosida_penalty",
    "yosida_potential",
    "yosida_derivative",
    "make_initial",
]

REACTION_KINDS = ("zero", "linear", "sine")
#: source preset -> the params it requires
SOURCE_PARAMS = {"zero": (), "constant": ("value",),
                 "cosine": ("offset", "amp", "decay", "length"), "tabulated": ("times", "values")}
SOURCE_KINDS = tuple(SOURCE_PARAMS)
#: initial-datum preset -> its params, with their defaults
INITIAL_PARAMS = {"constant": {"value": 0.5}, "cosine": {"offset": 0.5, "amp": 0.25}}
INITIAL_KINDS = tuple(INITIAL_PARAMS)

# 4-point Gauss-Legendre nodes/weights on [-1, 1], the bits of
# np.polynomial.legendre.leggauss(4), written out so that importing the
# package does not load numpy.polynomial
_GAUSS_NODES = np.array(
    [-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526]
)
_GAUSS_WEIGHTS = np.array(
    [0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357]
)
#: at most this many Gauss-time values of a source are evaluated at once
_SOURCE_BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class ModelParams:
    """Scheme parameters with the time-step gate tau * L_beta < 1.

    tau is derived as T / M.  Construction fails for p < 2, infinite or NaN
    p, non-positive eps / T, M < 1, a tau that is not a positive normal
    double, or tau * L_beta >= 1; the time stepper never has to guess what
    to do outside the well-posed regime.
    """

    p: float
    eps: float
    T: float
    M: int
    L_beta: float = 0.0

    def __post_init__(self):
        if not 2 <= self.p < np.inf:  # NaN fails both comparisons
            raise ValueError(f"p must be finite and >= 2, got {self.p}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M}")
        if not np.finfo(float).tiny <= self.tau < np.inf:
            raise ValueError(f"tau = T / M = {self.T} / {self.M} = {self.tau} is not a "
                             f"positive normal double")
        if self.L_beta < 0:
            raise ValueError(f"L_beta must be nonnegative, got {self.L_beta}")
        if not self.tau * self.L_beta < 1.0:
            raise ValueError(
                f"tau * L_beta = {self.tau * self.L_beta} >= 1; the implicit "
                f"step is only well-posed for tau < 1 / L_beta"
            )

    @property
    def tau(self) -> float:
        """Time step T / M."""
        return self.T / self.M


def box_excess(v):
    """Excess of v over the box [0, 1]: v for v <= 0, zero on (0, 1], v - 1 above.

    The three penalization functions below are written on it; a caller that
    holds it passes it in as ``g``.  -0.0 keeps its sign.
    """
    v = np.asarray(v, dtype=float)
    return np.where(v <= 0.0, v, np.maximum(v - 1.0, 0.0))


def _excess(v, eps, g):
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return box_excess(v) if g is None else g


def yosida_penalty(v, eps: float, g=None):
    """Piecewise-linear penalization of the box [0, 1].

    v / eps for v <= 0, zero on [0, 1], (v - 1) / eps above.  Monotone
    nondecreasing and (1/eps)-Lipschitz.  Accepts scalars or arrays.
    """
    return _excess(v, eps, g) / eps


def yosida_potential(v, eps: float, g=None):
    """Convex C^1 antiderivative of :func:`yosida_penalty`, zero on [0, 1].

    (v^-)^2 / (2 eps) + ((v - 1)^+)^2 / (2 eps).
    """
    return _excess(v, eps, g) ** 2 / (2.0 * eps)


def yosida_derivative(v, eps: float, g=None):
    """Generalized derivative of the penalization: 1/eps off the box, else 0.

    At the kinks 0 and 1 the value 0 is used (a Clarke subgradient choice
    that keeps the Newton matrix contributions minimal), and at NaN too.
    """
    g = _excess(v, eps, g)
    return np.where((g < 0.0) | (g > 0.0), 1.0 / eps, 0.0)


@dataclass(frozen=True)
class ReactionSpec:
    """Lipschitz reaction preset with beta(0) = 0.

    kind is one of "zero", "linear" (scale * r) or "sine" (scale * sin r).
    For "linear" and "sine", ``scale`` is the Lipschitz constant of the
    realized reaction; "zero" ignores it in its values, but the operator's
    margin tau * scale < 1 and the config default of L_beta still read it.
    ``cos_v``, where a method takes it, is cos v computed by the caller.
    """

    kind: str = "zero"
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in REACTION_KINDS:
            raise ValueError(f"unknown reaction kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError(f"reaction scale must be nonnegative, got {self.scale}")

    def evaluate(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(v)
        if self.kind == "linear":
            return self.scale * v
        return self.scale * np.sin(v)

    def derivative(self, v, cos_v=None):
        v = np.asarray(v, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(v)
        if self.kind == "linear":
            return np.full_like(v, self.scale)
        return self.scale * (np.cos(v) if cos_v is None else cos_v)

    def antiderivative(self, v, cos_v=None):
        """Antiderivative with value 0 at 0 (enters the solver energy)."""
        v = np.asarray(v, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(v)
        if self.kind == "linear":
            return 0.5 * self.scale * v**2
        return self.scale * (1.0 - (np.cos(v) if cos_v is None else cos_v))


@dataclass(frozen=True)
class SourceSpec:
    """Time-and-space source f(t, x), preset + parameters.

    Presets:
      zero        f = 0
      constant    f = value
      cosine      f = offset + amp * exp(-decay * t) * cos(pi * x / length)
      tabulated   values on the grid at given times, linear in t

    ``step_table`` returns the (M, n_cells) table of the averages of f over
    the time steps, which is how the stepper consumes a source;
    ``step_average`` is one row of it as a GridFunction.
    """

    kind: str = "zero"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        # a null number is missing; a null table fails the shape check below
        given = {key for key, value in self.params.items()
                 if value is not None or self.kind == "tabulated"}
        missing = sorted(set(SOURCE_PARAMS[self.kind]) - given)
        if missing and self.kind == "constant":
            raise ValueError("constant source needs a 'value' parameter")
        if missing and self.kind == "cosine":
            raise ValueError(f"cosine source missing parameters {missing}")
        if self.kind in ("constant", "cosine"):  # as config checks them, for library callers
            for key in SOURCE_PARAMS[self.kind]:
                value, positive = float(self.params[key]), key == "length"
                if not (abs(value) < np.inf and (value > 0 or not positive)):  # NaN fails
                    need = "finite and > 0" if positive else "finite"
                    raise ValueError(f"{self.kind} source {key} must be {need}, got {value}")
        if self.kind == "tabulated":
            if missing:
                raise ValueError(f"tabulated source missing {missing}")
            times = np.asarray(self.params["times"], dtype=float)
            values = np.asarray(self.params["values"], dtype=float)
            if times.ndim != 1 or values.shape[0] != times.size:
                raise ValueError("tabulated source needs len(times) rows of values")
            if not np.all(np.isfinite(times)):
                raise ValueError("tabulated times must be finite")
            if np.any(np.diff(times) <= 0):
                raise ValueError("tabulated times must be strictly increasing")
            if not np.all(np.isfinite(values)):
                raise ValueError("tabulated values must be finite")

    def evaluate(self, t, x: np.ndarray) -> np.ndarray:
        """Pointwise f(t, x): shape np.shape(t) + x.shape, for times t and points x."""
        x = np.asarray(x, dtype=float)
        shape = np.shape(t) + x.shape
        if self.kind == "zero":
            return np.zeros(shape)
        if self.kind == "constant":
            return np.full(shape, float(self.params["value"]))
        if self.kind == "cosine":
            pr = self.params
            return float(pr["offset"]) + float(pr["amp"]) * np.exp(
                -float(pr["decay"]) * np.asarray(t)
            )[..., None] * np.cos(np.pi * x / float(pr["length"]))
        times = np.asarray(self.params["times"], dtype=float)
        values = np.asarray(self.params["values"], dtype=float)
        if values.shape[1] != x.size:
            raise ValueError(
                f"tabulated source has {values.shape[1]} columns, grid has {x.size}"
            )
        out = np.empty(shape)
        for i in range(x.size):  # one interpolation per cell, over all times
            out[..., i] = np.interp(t, times, values[:, i])
        return out

    def step_table(self, M: int, grid: Grid1D, tau: float) -> np.ndarray:
        """(M, n_cells) array whose row n is the average of f over step n.

        This table is how the stepper consumes a source.  A source that is
        constant in time gives one row broadcast to all M, without copies;
        any other is evaluated in blocks of steps, so its peak memory is the
        table and one block.
        """
        return self._averages(range(M), grid.cell_centers(), tau)

    def step_average(self, n: int, grid: Grid1D, tau: float) -> GridFunction:
        """Average of f over [n tau, (n+1) tau] at the cell centers.

        Row n of :meth:`step_table`, as a GridFunction.
        """
        if n < 0:
            raise ValueError(f"step index must be nonnegative, got {n}")
        (row,) = self._averages(range(n, n + 1), grid.cell_centers(), tau)
        return grid.function(row)

    def _averages(self, steps: range, x: np.ndarray, tau: float) -> np.ndarray:
        """(len(steps), x.size) averages of f over the given steps at the points x.

        4-point Gauss in time: exact for sources polynomial in t up to
        degree 7, so quadrature never pollutes a refinement table for
        smooth manufactured sources.  Each :meth:`evaluate` call takes every
        Gauss time of one block of steps, at most ``_SOURCE_BLOCK_VALUES``
        values; every entry is computed alone, so the block size does not
        change a bit.
        """
        if self.kind in ("zero", "constant"):
            return np.broadcast_to(self.evaluate(0.0, x), (len(steps), x.size))
        out = np.empty((len(steps), x.size))
        block = max(_SOURCE_BLOCK_VALUES // (_GAUSS_NODES.size * x.size), 1)
        offsets = 0.5 * tau * (_GAUSS_NODES + 1.0)
        for start in range(0, len(steps), block):
            rows = steps[start:start + block]
            f = self.evaluate(np.arange(rows.start, rows.stop)[:, None] * tau + offsets, x)
            acc = np.zeros((len(rows), x.size))
            for k, weight in enumerate(_GAUSS_WEIGHTS):
                acc += weight * f[:, k]
            np.multiply(acc, 0.5, out=out[start:start + block])
        return out


@dataclass(frozen=True)
class InitialDatum:
    """Deterministic initial state, constrained to the box [0, 1] cellwise."""

    u0: GridFunction

    def __post_init__(self):
        vals = self.u0.values
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValueError("initial datum must take values in [0, 1]")


def make_initial(grid: Grid1D, kind: str = "constant", params: dict | None = None) -> InitialDatum:
    """Build an initial datum preset.

    constant: {"value": c}; cosine: {"offset": a, "amp": b} giving
    a + b * cos(pi x / length); a param left out takes its default from
    ``INITIAL_PARAMS``.  The box constraint is validated either way.
    """
    if kind not in INITIAL_PARAMS:
        raise ValueError(f"unknown initial datum kind {kind!r}")
    params = {**INITIAL_PARAMS[kind], **(params or {})}
    if kind == "constant":
        return InitialDatum(grid.function(np.full(grid.n_cells, float(params["value"]))))
    x = grid.cell_centers()
    offset, amp = float(params["offset"]), float(params["amp"])
    return InitialDatum(grid.function(offset + amp * np.cos(np.pi * x / grid.length)))
