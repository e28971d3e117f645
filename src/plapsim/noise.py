"""Truncated Q-Wiener increments and the state-dependent diffusion.

The stochastic forcing applied at each step is

    sum_{j=1..J} g_j(u_i) * dW_j,    g_j(r) = sigma * 2^{-j/2} * phi(r),

where phi is a fixed C^1 bump supported on [1/4, 3/4]: the diffusion
switches off before the state reaches the box boundary.  Geometric mode
amplitudes make the squared sum of the g_j Lipschitz constants summable
with the closed-form bound L_g = sigma^2 * 4 pi^2 (phi' is
2 pi sin(4 pi (r - 1/4)) on the support, so |phi'| <= 2 pi, and
sum 2^{-j} <= 1).

Only the scalar increments dW_j ever enter the scheme, so no abstract
Hilbert-space objects are stored: a path is an (M, J) matrix of
independent N(0, tau) draws, reproducible from a 64-bit seed; the sums of
its consecutive rows are the same path on a coarser time grid.
:meth:`NoiseModel.draw` is the one formula of such a matrix: standard
normals drawn into a fresh array and scaled by sqrt(tau) in place, the
bits of ``np.sqrt(tau) * rng.standard_normal((M, J))`` without a second
copy, so a caller that reduces the draws (``verify_all``'s mean and
variance) can do so in their own buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import GridFunction

__all__ = [
    "NoiseModel",
    "PathIncrements",
    "bump_profile",
]

SUPPORT = (0.25, 0.75)


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator of every draw; a negative seed raises ValueError first."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def bump_profile(r):
    """C^1 bump sin^2(2 pi (r - 1/4)) on [1/4, 3/4], zero elsewhere."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mask = (r > SUPPORT[0]) & (r < SUPPORT[1])
    out[mask] = np.sin(2.0 * np.pi * (r[mask] - SUPPORT[0])) ** 2
    return out


@dataclass(frozen=True)
class PathIncrements:
    """Matrix of Wiener increments: rows are time steps, columns modes.

    Entry (n, j) is the increment of the j-th scalar Wiener process over
    step n, i.i.d. N(0, tau).  ``seed`` records provenance; the matrix is
    a deterministic function of (seed, M, J, tau).
    """

    values: np.ndarray
    tau: float = 0.0
    seed: int = 0

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"increments must be a 2-D matrix, got ndim={arr.ndim}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class NoiseModel:
    """Truncated diffusion: J modes, amplitudes sigma * 2^{-j/2}, common bump."""

    J: int = 16
    sigma: float = 0.0

    def __post_init__(self):
        if self.J < 1:
            raise ValueError(f"J must be a positive integer, got {self.J}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if not self.L_g < np.inf:
            raise ValueError(f"sigma = {self.sigma} makes L_g = 4 pi^2 sigma^2 not finite")

    @property
    def amplitudes(self) -> np.ndarray:
        """Mode amplitudes c_j = sigma * 2^{-j/2}, j = 1..J."""
        return self.sigma * 2.0 ** (-0.5 * np.arange(1, self.J + 1))

    @property
    def L_g(self) -> float:
        """Closed-form squared-sum Lipschitz bound sigma^2 * 4 pi^2, inf if it overflows."""
        with np.errstate(over="ignore"):
            return float(np.float64(self.sigma) ** 2 * 4.0 * np.pi**2)

    def draw(self, M: int, tau: float, seed: int) -> np.ndarray:
        """A fresh, writeable (M, J) array of i.i.d. N(0, tau) draws from ``seed``.

        Identical (M, tau, seed) give a bit-identical matrix, which is the
        whole reproducibility contract.  A shape numpy cannot address raises
        MemoryError, as one too large to allocate does.
        """
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        rng = seeded_rng(seed)
        try:
            out = rng.standard_normal((M, self.J))
        except ValueError as exc:  # numpy's "array is too big", before any allocation
            raise MemoryError(f"cannot draw a ({M}, {self.J}) increment matrix: {exc}") from None
        out *= np.sqrt(tau)  # the bits of sqrt(tau) * out, in place
        return out

    def sample_path(self, M: int, tau: float, seed: int) -> PathIncrements:
        """The (M, J) increment matrix of one path, :meth:`draw` as a PathIncrements."""
        return PathIncrements(self.draw(M, tau, seed), tau=tau, seed=seed)

    def coefs(self, dw) -> np.ndarray:
        """Noise coefficients sum_j c_j dW_j of increments ``dw``, modes on the last axis.

        The one formula of the coefficient: a (M, J) path gives (M,), one
        (J,) row a 0-d array, and a row of a stack equals that row alone.
        """
        return np.vecdot(dw, self.amplitudes)

    def apply_diffusion(self, u: GridFunction, dw_row: np.ndarray) -> GridFunction:
        """Forcing cell i: sum_j g_j(u_i) dW_j = phi(u_i) * sum_j c_j dW_j.

        Identically zero on cells where u_i is outside the bump support.
        """
        dw_row = np.asarray(dw_row, dtype=float)
        if dw_row.shape != (self.J,):
            raise ValueError(f"expected {self.J} increments, got shape {dw_row.shape}")
        return u.grid.function(bump_profile(u.values) * self.coefs(dw_row))

    def hs_lipschitz_estimate(self, samples: int, seed: int = 0) -> float:
        """Empirical sup of sum_j |g_j(r) - g_j(s)|^2 / |r - s|^2.

        Samples wide pairs over [-1/2, 3/2] plus tight pairs concentrated
        where the bump is steep; always bounded by :attr:`L_g`.
        """
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        rng = seeded_rng(seed)
        n_wide = samples // 2 + 1
        r = rng.uniform(-0.5, 1.5, n_wide)
        s = rng.uniform(-0.5, 1.5, n_wide)
        r2 = rng.uniform(SUPPORT[0], SUPPORT[1], samples - n_wide + 1)
        s2 = r2 + rng.uniform(-1e-4, 1e-4, r2.size)
        r = np.concatenate([r, r2])
        s = np.concatenate([s, s2])
        keep = r != s
        r, s = r[keep], s[keep]
        if r.size == 0:
            return 0.0
        sum_sq = float(self.coefs(self.amplitudes))  # sum_j c_j^2
        ratio = sum_sq * ((bump_profile(r) - bump_profile(s)) / (r - s)) ** 2
        return float(ratio.max())
