"""Inversion of the per-step operator and the slacks of its stability bounds.

Each time step needs one solve of apply(u) = rhs.  The operator is the
gradient (up to the cell weight h) of a strongly convex energy, so a
semismooth Newton method with backtracking on that energy converges
globally: the Newton direction comes from one SPD tridiagonal solve, so it
is a descent direction, and an Armijo test accepts or shrinks the step
along it.  A row whose search finds no step stops, named as such, at the
energy it had.  Near the minimum the energy decrease per step drops below
float resolution, so the accept test carries an absolute slack of a few
ulps; convergence is always declared on the residual norm, never on the
energy.

:func:`solve_rows` is the one Newton loop.  It runs on a ``(P, n_cells)``
stack of independent problems (Monte Carlo paths), each row following
exactly the iterates it follows alone: a row leaves the iteration once its
residual meets the tolerance, and the Armijo test and the backtracking act
per row.  One Jacobian solve per iteration covers every active row.  Each
trial step is one :class:`~plapsim.operators.Point`: once accepted, its
energy, its residual and the next Jacobian share its pieces.
The guess may be a point, and then the solutions come back as one, with
A(u) and E0(u) of every row, ready to be the next solve's guess.  Each row
gets one :class:`SolveReport`: its residuals and energies, and the message
that names why it failed, if it did.
:func:`solve` is the single-problem call: the right-hand side and guess come
in, and the solution goes out, as validated GridFunctions.

``stability_slacks`` and ``apriori_slack`` measure the two quantitative
consequences of strong monotonicity for the inverse map: a Lipschitz bound
in L2 with constant 1/(1 - tau L_beta), and an a priori bound of the
solution's W^{1,p} power by the data, one slack per row of stacked
problems; the verification report compares them with its tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import GridFunction, norm_l2_array, norm_w1p_array
from .operators import OperatorContext, Point

__all__ = [
    "SolverConfig",
    "SolveReport",
    "NonConvergence",
    "solve",
    "solve_rows",
    "stability_slacks",
    "apriori_slack",
]


class NonConvergence(RuntimeError):
    """Raised when a solve stops without meeting its residual tolerance.

    That is: the Newton cap is hit, the line search along the Newton
    direction finds no step, or the residual turns non-finite; the message
    opens with "no convergence", "line search failed" or "residual not
    finite", then "after k Newton steps (residual ...)".  Valid
    contexts do reach the cap today: p = 4 on 8192 cells for some noise
    seeds (the benchmark's ``run_large`` config at seeds 7004, 7015, 7035,
    7073 and 7090), every such config on 16384 cells, and eps = 1e-8 under
    strong forcing; see the known limits in ``perfbench/workloads.py``.
    """


@dataclass(frozen=True)
class SolverConfig:
    """Newton knobs.  Residuals are measured in discrete L2.

    The line search's constants are class attributes, not fields: the
    step shrinks by ``backtrack_factor`` per trial, at most
    ``max_backtracks`` trials, until the Armijo test with
    ``sufficient_decrease`` holds.
    """

    tol_residual: float = 1e-10
    max_newton: int = 50
    backtrack_factor = 0.5
    sufficient_decrease = 1e-4
    max_backtracks = 40

    def __post_init__(self):
        if not self.tol_residual > 0:
            raise ValueError(f"tol_residual must be positive, got {self.tol_residual}")
        if self.max_newton < 1:
            raise ValueError(f"max_newton must be >= 1, got {self.max_newton}")


@dataclass(slots=True)
class SolveReport:
    """One row's Newton run: the one record of a solve.

    The residual and the energy at each iterate, from the guess on, and
    ``failure``, the :class:`NonConvergence` message of a failed run (None
    if the row converged).
    """

    residual_history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)
    failure: str | None = None

    @property
    def iterations(self) -> int:
        """Newton steps taken."""
        return len(self.residual_history) - 1


# a few ulps of slack keep the Armijo test meaningful once the true decrease
# underflows the float resolution of the energy
_SLACK_ULPS = 16.0 * np.finfo(float).eps
_INF = float("inf")


def _armijo(e_trial, e, decrease):
    """Armijo test of one row; ``decrease`` is c * alpha * slope.

    A non-descent direction (``decrease`` >= 0 or NaN) fails every trial.
    """
    return decrease < 0.0 and e_trial <= e + decrease + _SLACK_ULPS * max(1.0, abs(e))


def _search(ctx, pt, rhs, d, slope, e, cfg):
    """Backtracking Armijo search along each row of d from the point pt.

    Returns (point, energies, ok).  The first trial step is taken on every
    row, later ones only on the rows still waiting, which all share one
    step length.  A row that finds no acceptable step keeps its point and
    energy and has ok False.
    """
    c = cfg.sufficient_decrease
    out = ctx.point(pt.u + d)  # the full step: 1.0 * d is d, bit for bit
    out_e = ctx.energy(out, rhs).tolist()
    ok = [_armijo(et, ei, c * si) for et, ei, si in zip(out_e, e, slope)]
    if all(ok):
        return out, out_e, ok
    wait = [i for i, good in enumerate(ok) if not good]
    uw, dw, rw = (pt.u, d, rhs) if len(wait) == len(ok) else (pt.u[wait], d[wait], rhs[wait])
    alpha = 1.0
    for _ in range(cfg.max_backtracks - 1):
        alpha *= cfg.backtrack_factor
        trial = ctx.point(uw + alpha * dw)
        e_trial = ctx.energy(trial, rw).tolist()
        accept = [
            _armijo(et, e[i], c * alpha * slope[i]) for et, i in zip(e_trial, wait)
        ]
        if any(accept):
            took = [j for j, a in enumerate(accept) if a]
            out.put([wait[j] for j in took], trial, took)
            for j in took:
                out_e[wait[j]], ok[wait[j]] = e_trial[j], True
            keep = [j for j, a in enumerate(accept) if not a]
            if not keep:
                return out, out_e, ok
            wait = [wait[j] for j in keep]
            uw, dw, rw = uw[keep], dw[keep], rw[keep]
    out.put(wait, pt, wait)
    for i in wait:
        out_e[i] = e[i]
    return out, out_e, ok


def _failure(what, report, tol):
    """NonConvergence message of a row, at its last iterate so far."""
    res = report.residual_history
    return (
        f"{what} after {report.iterations} Newton steps (residual {res[-1]:.3e}, "
        f"tol {tol:.3e}; residuals {res[-4:]})"
    )


def solve_rows(
    ctx: OperatorContext,
    rhs: np.ndarray,
    guess: np.ndarray | Point,
    cfg: SolverConfig,
):
    """Solve apply(u_k) = rhs_k for every row k of a (P, n_cells) stack.

    ``guess`` is a (P, n_cells) array or a :class:`~plapsim.operators.Point`
    of one; a point evaluated before (the previous time step's solution)
    gives the first residual and energy for one subtraction and one dot
    product.  Returns ``(u, reports)``: the solutions, as a point if
    ``guess`` is one and as an array otherwise (a failed row keeps its last
    iterate; u may be ``guess`` itself when no step was needed), and one
    :class:`SolveReport` per row.  Nothing is raised, so the caller decides
    which failure to report.  The returned point keeps A(u) and E0(u) of
    every row, and its other pieces too when every row stopped at the same
    iteration.  An empty stack returns at once, with no reports.

    Fields are (rows, n_cells) arrays; per-row numbers (residuals,
    energies, slopes) are lists of floats, tested row by row with the
    scalar arithmetic of a single solve, which at a few rows is cheaper
    than a numpy call.
    """
    h = ctx.grid.h
    tol = cfg.tol_residual
    pt = ctx.point(guess)
    reports = [SolveReport() for _ in range(len(pt.u))]
    if not reports:
        return guess, reports
    rows = list(range(len(reports)))  # the active rows, in increasing order
    r = ctx.apply(pt) - rhs
    res = norm_l2_array(r, h).tolist()
    e = ctx.energy(pt, rhs).tolist()
    finished = []
    newton = 0  # Newton steps taken by every row still searching
    while True:
        for k, res_k, e_k in zip(rows, res, e):
            if reports[k].failure is None:  # a failed search took no step
                reports[k].residual_history.append(res_k)
                reports[k].energy_history.append(e_k)
        if newton >= cfg.max_newton:
            stop = list(range(len(rows)))
        else:
            # a row goes on while tol < res < inf, so a NaN residual stops
            # it; a row whose line search failed stops too
            stop = [
                i for i, x in enumerate(res)
                if not tol < x < _INF or reports[rows[i]].failure is not None
            ]
        if stop:
            for i in stop:
                if reports[rows[i]].failure is None and not res[i] <= tol:
                    what = "no convergence" if res[i] < _INF else "residual not finite"
                    reports[rows[i]].failure = _failure(what, reports[rows[i]], tol)
            if len(stop) == len(rows):
                finished.append((rows, pt, slice(None)))
                break
            finished.append(([rows[i] for i in stop], pt, stop))
            stopped = set(stop)
            keep = [i for i in range(len(rows)) if i not in stopped]
            rows, res, e = ([a[i] for i in keep] for a in (rows, res, e))
            pt, r, rhs = pt.take(keep), r[keep], rhs[keep]
        d = ctx.jacobian(pt).solve(-r)
        # directional derivatives of the energies: negative for an SPD Jacobian
        slope = (h * np.vecdot(r, d)).tolist()
        pt, e, ok = _search(ctx, pt, rhs, d, slope, e, cfg)
        newton += 1
        for i in [i for i, good in enumerate(ok) if not good]:
            reports[rows[i]].failure = _failure("line search failed", reports[rows[i]], tol)
        r = ctx.apply(pt) - rhs
        res = norm_l2_array(r, h).tolist()

    carry = isinstance(guess, Point)
    if len(finished) == 1:  # every row stopped at the same iteration
        out = finished[0][1]
    else:
        shape = (len(reports), pt.u.shape[-1])
        pieces = {"au": np.empty(shape), "e0": np.empty(shape[0])} if carry else {}
        out = Point(ctx, np.empty(shape), **pieces)
        for rows, done, stop in finished:
            out.put(rows, done, stop)
    return (out if carry else out.u), reports


def solve(
    ctx: OperatorContext,
    rhs: GridFunction,
    guess: GridFunction | None = None,
    cfg: SolverConfig | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Solve apply(u) = rhs; returns the solution and its converged SolveReport.

    The result satisfies ||apply(u) - rhs||_{L2,h} <= cfg.tol_residual and,
    by strong monotonicity, is independent of the starting guess up to
    residual tolerance.  Raises :class:`NonConvergence` with the report's
    ``failure`` if the Newton cap is exhausted, the line search fails or the
    residual turns non-finite.  Valid contexts can hit the cap (see
    :class:`NonConvergence`), so callers must expect it.  This is
    :func:`solve_rows` on one row.
    """
    cfg = cfg or SolverConfig()
    g = ctx.grid
    u0 = np.zeros(g.n_cells) if guess is None else guess.values
    u, (report,) = solve_rows(ctx, rhs.values[None], u0[None], cfg)
    if report.failure is not None:
        raise NonConvergence(report.failure)
    return g.function(u[0]), report


def stability_slacks(ctx: OperatorContext, rhs1, rhs2, sol1, sol2):
    """Slacks (bound - left side) of the two inverse-map inequalities.

    L2 stability:  ||sol1 - sol2|| <= ||rhs1 - rhs2|| / (1 - tau L_beta)
    W^{1,p} input: tau 2^{2-p} ||sol1 - sol2||_{W^{1,p}}^p
                   <= ||rhs1 - rhs2|| * ||sol1 - sol2||

    The arguments are (..., n_cells) arrays, one pair of problems per row.
    Returns two (...) arrays: the slacks of each row, worked out in Python
    floats from the row's norms, the bits of that row alone.
    """
    pr, h = ctx.params, ctx.grid.h
    diff_sol = sol1 - sol2
    norms = (norm_l2_array(rhs1 - rhs2, h), norm_l2_array(diff_sol, h),
             norm_w1p_array(diff_sol, h, pr.p))
    cp = 2.0 ** (2.0 - pr.p)
    slack_l2, slack_v = [], []
    for drhs, dsol, w1p in zip(*(np.ravel(a).tolist() for a in norms)):
        slack_l2.append(drhs / (1.0 - pr.tau * pr.L_beta) - dsol)
        slack_v.append(drhs * dsol - pr.tau * cp * w1p)
    shape = norms[0].shape
    return np.reshape(slack_l2, shape), np.reshape(slack_v, shape)


def apriori_slack(ctx: OperatorContext, rhs, sol):
    """Slack (bound - left side) of the a priori bound of the solution.

    ||sol||_{W^{1,p}}^p <= ||rhs||^2 / (4 tau (1 - tau L_beta)) is the
    energy estimate of the solve tested with its own solution, with the free
    parameter chosen optimally at 2 (1 - tau L_beta).  The arguments are
    (..., n_cells) arrays; returns the (...) slacks, one per row, worked out
    in Python floats as in :func:`stability_slacks`.
    """
    pr, h = ctx.params, ctx.grid.h
    l2, w1p = norm_l2_array(rhs, h), norm_w1p_array(sol, h, pr.p)
    scale = 4.0 * pr.tau * (1.0 - pr.tau * pr.L_beta)
    rows = zip(np.ravel(l2).tolist(), np.ravel(w1p).tolist())
    return np.reshape([r ** 2 / scale - w for r, w in rows], l2.shape)
