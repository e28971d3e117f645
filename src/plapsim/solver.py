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
    direction finds no step, the residual turns non-finite, or LAPACK cannot
    factor the Newton system (at high p); the message opens with "no
    convergence", "line search failed", "residual not finite" or "Newton
    system not positive definite", then "after k Newton steps (residual
    ...)".  Valid contexts do reach the cap today: p = 4 on 8192 cells for
    some noise seeds (the benchmark's ``run_large`` at seeds 7004, 7015,
    7035, 7073 and 7090), every such config on 16384 cells, and eps = 1e-8
    under strong forcing; see the known limits in ``perfbench/workloads.py``.
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
_NO_ROWS = np.empty(0, dtype=np.intp)
#: the failure of a row, by its code in solve_rows (0: it converged)
_WHY = (None, "no convergence", "residual not finite", "line search failed",
        "Newton system not positive definite")


def _armijo(e_trial, e, decrease, slack):
    """Armijo test of each row: ``decrease`` is c * alpha * slope, ``slack``
    _SLACK_ULPS * max(1, |e|), added last.  A non-descent direction
    (``decrease`` >= 0 or NaN) fails every trial."""
    return (decrease < 0.0) & (e_trial <= e + decrease + slack)


def _search(ctx, pt, rhs, d, slope, e, cfg):
    """Backtracking Armijo search along each row of d from the point pt.

    Returns (point, energies, failed): the (rows,) energies and the indices
    of the rows that found no acceptable step, which keep their point (and
    the energy of their last trial, which no caller reads).  The first
    trial step is taken on every row, later ones only on the rows still
    waiting, which all share one step length.
    """
    c, slack = cfg.sufficient_decrease, _SLACK_ULPS * np.maximum(1.0, abs(e))
    out = ctx.point(pt.u + d)  # the full step: 1.0 * d is d, bit for bit
    out_e = ctx.energy(out, rhs)
    ok = _armijo(out_e, e, c * slope, slack)
    if ok.all():
        return out, out_e, _NO_ROWS
    wait = np.flatnonzero(~ok)
    waiting = tuple(a if wait.size == ok.size else a[wait]
                    for a in (pt.u, d, rhs, e, slope, slack))
    alpha = 1.0
    for _ in range(cfg.max_backtracks - 1):
        alpha *= cfg.backtrack_factor
        uw, dw, rw, ew, sw, slack_w = waiting
        trial = ctx.point(uw + alpha * dw)
        e_trial = ctx.energy(trial, rw)
        accept = _armijo(e_trial, ew, c * alpha * sw, slack_w)
        took = np.count_nonzero(accept)
        if took:
            rows = wait[accept]
            out.put(rows, trial, accept)
            out_e[rows] = e_trial[accept]
            if took == accept.size:
                return out, out_e, _NO_ROWS
            keep = ~accept
            wait, waiting = wait[keep], tuple(a[keep] for a in waiting)
    out.put(wait, pt, wait)
    return out, out_e, wait


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

    Per-row numbers are (rows,) arrays, each test one elementwise mask; the
    reports are built once every row has stopped.  A row whose Newton system
    LAPACK cannot factor fails so named, and the others are solved again.
    """
    h, tol = ctx.grid.h, cfg.tol_residual
    pt = ctx.point(guess)
    P = len(pt.u)
    if not P:
        return guess, []
    active = np.arange(P)  # the rows still iterating, in increasing order
    why = np.zeros(P, dtype=int)  # each row's failed step, as its index in _WHY
    ok = np.ones(P, dtype=bool)  # per active row: its last step did not fail
    r = ctx.apply(pt) - rhs
    res, e = norm_l2_array(r, h), ctx.energy(pt, rhs)
    history = [(active, res, e)]  # the active rows' residuals and energies, per iteration
    finished = []  # (rows, point, rows of the point) of the rows that stopped
    newton = 0  # Newton steps taken by every row still searching
    while True:
        # a row goes on while its steps succeed and tol < res < inf (so a
        # NaN residual stops it), up to the cap
        stop = ~(ok & (tol < res) & (res < np.inf)) | (newton >= cfg.max_newton)
        if np.count_nonzero(stop):
            finished.append((active[stop], pt, stop))
            if stop.all():
                break
            keep = np.flatnonzero(~stop)
            active, res, e, ok, r, rhs = (a[keep] for a in (active, res, e, ok, r, rhs))
            pt = pt.take(keep)
        try:
            d = ctx.jacobian(pt).solve(-r)
        except np.linalg.LinAlgError as err:
            # LAPACK stopped at the first block it could not factor: that
            # row fails, and the loop comes back to solve the others
            i = (err.info - 1) // r.shape[-1]
            ok[i], why[active[i]] = False, 4
            continue
        # directional derivatives of the energies: negative for an SPD Jacobian
        slope = h * np.vecdot(r, d)
        pt, e, failed = _search(ctx, pt, rhs, d, slope, e, cfg)
        ok[failed], why[active[failed]] = False, 3
        newton += 1
        r = ctx.apply(pt) - rhs
        res = norm_l2_array(r, h)
        history.append((active, res, e))

    reports = [SolveReport() for _ in range(P)]
    for rows, res, e in history:
        for k, res_k, e_k in zip(rows.tolist(), res.tolist(), e.tolist()):
            reports[k].residual_history.append(res_k)
            reports[k].energy_history.append(e_k)
    for report, w in zip(reports, why.tolist()):
        res_k = report.residual_history
        if w == 3:  # a failed search took no step: drop the point it kept
            del res_k[-1], report.energy_history[-1]
        if not (w or res_k[-1] <= tol):
            w = 1 if res_k[-1] < np.inf else 2
        if w:
            report.failure = (f"{_WHY[w]} after {report.iterations} Newton steps (residual "
                              f"{res_k[-1]:.3e}, tol {tol:.3e}; residuals {res_k[-4:]})")
    carry = isinstance(guess, Point)
    if len(finished) == 1:  # every row stopped at the same iteration
        out = finished[0][1]
    else:
        shape = (P, pt.u.shape[-1])
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
