import numpy as np
import pytest

from plapsim.mesh import Grid1D, norm_l2, norm_w1p
from plapsim.model import ModelParams, ReactionSpec
from plapsim.operators import OperatorContext, Point, TridiagonalMatrix
from plapsim.solver import (
    NonConvergence,
    SolverConfig,
    apriori_slack,
    solve,
    solve_rows,
    stability_slacks,
)
from plapsim.stepper import run_rows


def make_ctx(p=2.0, eps=0.1, tau=0.1, L_beta=0.0, reaction=None, n=16, length=1.0):
    params = ModelParams(p=p, eps=eps, T=tau * 10, M=10, L_beta=L_beta)
    return OperatorContext(params, reaction or ReactionSpec("zero"), Grid1D(n, length))


def bisect_root(fn, lo, hi, iters=200):
    """Independent scalar oracle: sign-change bisection."""
    flo = fn(lo)
    assert flo * fn(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return 0.5 * (lo + hi)


def test_constant_solution_p2():
    # u + tau u = c has the constant solution c / (1 + tau)
    ctx = make_ctx(p=2.0, tau=0.1)
    c = 0.55
    rhs = ctx.grid.function(np.full(16, c))
    sol, _ = solve(ctx, rhs)
    assert np.allclose(sol.values, c / 1.1, atol=1e-11)


def test_constant_solution_p4_against_bisection():
    # u + tau |u|^2 u = 0.5 with the penalization inactive inside the box
    ctx = make_ctx(p=4.0, tau=0.1)
    rhs = ctx.grid.function(np.full(16, 0.5))
    sol, _ = solve(ctx, rhs)
    root = bisect_root(lambda u: u + 0.1 * u**3 - 0.5, 0.0, 1.0)
    assert np.abs(sol.values - root).max() <= 1e-10
    # the root itself, frozen from the oracle
    assert root == pytest.approx(0.4883533127285652, abs=1e-12)


def test_round_trip_recovers_field():
    rng = np.random.default_rng(0)
    for p in (2.0, 3.0, 4.0):
        ctx = make_ctx(p=p, tau=0.05, L_beta=0.5, reaction=ReactionSpec("sine", 0.5))
        w = ctx.grid.function(rng.uniform(-0.5, 1.5, 16))
        rhs = ctx.grid.function(ctx.apply(w.values))
        sol, _ = solve(ctx, rhs)
        assert norm_l2(ctx.grid.function(sol.values - w.values)) <= 1e-8


def test_uniqueness_across_guesses():
    rng = np.random.default_rng(1)
    ctx = make_ctx(p=3.0, eps=0.05, tau=0.1, L_beta=2.0,
                   reaction=ReactionSpec("sine", 2.0))
    for _ in range(20):
        rhs = ctx.grid.function(rng.uniform(-1.0, 2.0, 16))
        s_zero, _ = solve(ctx, rhs)
        s_rand, _ = solve(ctx, rhs, guess=ctx.grid.function(rng.normal(size=16)))
        assert norm_l2(ctx.grid.function(s_zero.values - s_rand.values)) <= 1e-8


def test_energy_history_nonincreasing():
    rng = np.random.default_rng(2)
    ctx = make_ctx(p=4.0, eps=0.05, tau=0.1, n=24)
    for _ in range(10):
        rhs = ctx.grid.function(rng.uniform(-1.0, 2.0, 24))
        _, report = solve(ctx, rhs)
        hist = np.asarray(report.energy_history)
        scale = max(1.0, np.abs(hist).max())
        assert np.diff(hist).max() <= 1e-12 * scale
        assert report.residual_history[-1] <= SolverConfig().tol_residual


def test_superlinear_tail_recorded():
    # residuals collapse fast once near the solution; recorded, not asserted
    # as a rate: the contract is convergence within the iteration cap
    ctx = make_ctx(p=3.0, tau=0.1, n=24)
    rhs = ctx.grid.function(np.linspace(-0.5, 1.5, 24))
    _, report = solve(ctx, rhs)
    assert report.iterations <= SolverConfig().max_newton
    assert report.residual_history[-1] < report.residual_history[0]


def test_solve_rows_mixed_guesses_match_solo_solves():
    # zero and random guesses in one stack: every row's solution, residual
    # history and energy history equal those of its own one-row solve, bit
    # for bit, although the rows leave the stack at different iterations
    rng = np.random.default_rng(3)
    ctx = make_ctx(p=3.0, eps=0.05, tau=0.1, L_beta=2.0,
                   reaction=ReactionSpec("sine", 2.0))
    rhs = rng.uniform(-1.0, 2.0, (6, 16))
    guess = rng.normal(size=(6, 16))
    guess[::2] = 0.0
    u, reports = solve_rows(ctx, rhs, guess, SolverConfig())
    assert all(rep.failure is None for rep in reports)
    iterations = set()
    for k in range(6):
        ref, report = solve(ctx, ctx.grid.function(rhs[k]),
                            guess=ctx.grid.function(guess[k]))
        assert np.array_equal(u[k], ref.values), k
        assert reports[k].residual_history == report.residual_history
        assert reports[k].energy_history == report.energy_history
        iterations.add(report.iterations)
    assert len(iterations) > 1


def test_failed_row_report_matches_its_solo_solve():
    # rows 1 and 2 need 15 and 14 Newton steps, the others at most 13: at a
    # cap of 13 the two fail inside the stack with the message that solve
    # raises on the row alone, and each row's report equals its one-row
    # report, residuals and energies bit for bit
    rng = np.random.default_rng(3)
    ctx = make_ctx(p=3.0, eps=0.05, tau=0.1, L_beta=2.0,
                   reaction=ReactionSpec("sine", 2.0))
    rhs = rng.uniform(-1.0, 2.0, (6, 16))
    guess = rng.normal(size=(6, 16))
    cfg = SolverConfig(max_newton=13)
    _, reports = solve_rows(ctx, rhs, guess, cfg)
    assert [k for k, rep in enumerate(reports) if rep.failure is not None] == [1, 2]
    for k, report in enumerate(reports):
        _, (alone,) = solve_rows(ctx, rhs[k:k + 1], guess[k:k + 1], cfg)
        assert report == alone, k
        b, g = ctx.grid.function(rhs[k]), ctx.grid.function(guess[k])
        if report.failure is None:
            assert solve(ctx, b, guess=g, cfg=cfg)[1] == report, k
            continue
        assert report.iterations == 13
        with pytest.raises(NonConvergence) as info:
            solve(ctx, b, guess=g, cfg=cfg)
        assert str(info.value) == report.failure
        assert report.failure.startswith("no convergence after 13 Newton steps")
        assert str(report.residual_history[-4:]) in report.failure


def force_first_direction(monkeypatch, row, scale):
    """Scale ``row`` of the first Newton direction solved by ``scale``."""
    original, calls = TridiagonalMatrix.solve, []

    def solve(self, b):
        d = original(self, b)
        if not calls:
            d[row] *= scale
        calls.append(len(d))
        return d

    monkeypatch.setattr(TridiagonalMatrix, "solve", solve)
    return calls


@pytest.mark.parametrize("scale", [-1.0, 1e20], ids=["ascent", "too-long"])
def test_failed_line_search_stops_only_its_row(monkeypatch, scale):
    # row 1's first Newton direction is turned uphill, or made so long that
    # every Armijo trial fails: the row stops at its guess with a named
    # failure, its energy never rises, and rows 0 and 2 follow the iterates
    # of an unforced stack bit for bit
    rng = np.random.default_rng(4)
    ctx = make_ctx(p=3.0, eps=0.05, tau=0.1, L_beta=2.0,
                   reaction=ReactionSpec("sine", 2.0))
    rhs = rng.uniform(-1.0, 2.0, (3, 16))
    guess = np.zeros((3, 16))
    u_ref, reports_ref = solve_rows(ctx, rhs, guess, SolverConfig())
    assert all(rep.failure is None for rep in reports_ref)
    calls = force_first_direction(monkeypatch, 1, scale)
    u, reports = solve_rows(ctx, rhs, guess, SolverConfig())
    assert calls[0] == 3
    failed = reports[1]
    assert failed.failure.startswith("line search failed after 0 Newton steps (residual ")
    energies = failed.energy_history
    assert all(b <= a for a, b in zip(energies, energies[1:])), energies
    assert np.array_equal(u[1], guess[1])
    for k in (0, 2):
        assert np.array_equal(u[k], u_ref[k]), k
        assert reports[k] == reports_ref[k], k


@pytest.mark.parametrize("scale", [-1.0, 1e20], ids=["ascent", "too-long"])
def test_failed_line_search_counts_no_newton_step(monkeypatch, scale):
    # the row stops in the iteration whose search failed: its report keeps
    # only the guess's residual and energy, so `iterations` agrees with the
    # "after 0 Newton steps" of its message
    rng = np.random.default_rng(4)
    ctx = make_ctx(p=3.0, eps=0.05, tau=0.1, L_beta=2.0,
                   reaction=ReactionSpec("sine", 2.0))
    rhs = rng.uniform(-1.0, 2.0, (3, 16))
    guess = np.zeros((3, 16))
    _, (first, *_) = solve_rows(ctx, rhs[1:2], guess[1:2], SolverConfig(max_newton=1))
    force_first_direction(monkeypatch, 1, scale)
    _, reports = solve_rows(ctx, rhs, guess, SolverConfig())
    failed = reports[1]
    assert failed.iterations == 0
    assert failed.residual_history == first.residual_history[:1]
    assert failed.energy_history == first.energy_history[:1]
    assert "after 0 Newton steps" in failed.failure


def test_failed_line_search_names_row_and_step_through_run_rows(monkeypatch):
    ctx = make_ctx(p=3.0, eps=0.05, tau=0.1)
    u0 = np.full(16, 0.5)
    coef, f = np.zeros((3, 4)), np.full((4, 16), 2.0)
    force_first_direction(monkeypatch, 1, -1.0)
    with pytest.raises(NonConvergence) as info:
        run_rows(ctx, u0, coef, f, SolverConfig(), lambda k: f"row {k}")
    assert str(info.value).startswith(
        "row 1 failed at step 0: line search failed after 0 Newton steps (residual ")


def test_solve_rows_forms_each_gradient_once(monkeypatch):
    # energy, residual and Jacobian of an iterate share one Point, so the
    # face gradient is formed once per evaluated point: the guess, each
    # full-step trial and each backtrack (one energy evaluation each)
    ctx = make_ctx(p=2.0, eps=1e-5, tau=0.02, L_beta=0.5,
                   reaction=ReactionSpec("sine", 0.5), n=32)
    x = ctx.grid.cell_centers()
    wave = np.cos(np.pi * x)
    rhs = 0.5 + 0.5 * wave + 0.02 * np.array([10.0, 50.0, 200.0])[:, None] * wave
    guess = np.tile(0.5 + 0.25 * wave, (3, 1))
    formed, energies = [], []
    diff, make, energy = np.diff, Point.d.func, OperatorContext.energy
    monkeypatch.setattr(np, "diff", lambda *a, **k: formed.append("diff") or diff(*a, **k))
    monkeypatch.setattr(Point.d, "func", lambda pt: formed.append(len(pt.u)) or make(pt))
    monkeypatch.setattr(OperatorContext, "energy",
                        lambda self, pt, b: energies.append(len(pt.u)) or energy(self, pt, b))
    u, reports = solve_rows(ctx, rhs, guess, SolverConfig())
    assert all(rep.failure is None for rep in reports)
    iterations = max(rep.iterations for rep in reports)
    # the rows still running at each iteration: they leave one by one
    running = [sum(rep.iterations >= it for rep in reports) for it in range(iterations + 1)]
    assert running[-3:] == [3, 2, 1]
    assert len(energies) > 1 + iterations  # some rows backtracked
    assert formed == energies  # one gradient per evaluated point, of its rows
    monkeypatch.undo()
    for k in range(3):
        ref, _ = solve(ctx, ctx.grid.function(rhs[k]), guess=ctx.grid.function(guess[k]))
        assert np.array_equal(u[k], ref.values)


def test_solve_rows_empty_stack_returns_at_once(lapack):
    # zero rows: the guess comes back with no reports, as an array or as a
    # point, whichever was passed
    ctx = make_ctx(p=3.0)
    empty = np.empty((0, 16))
    for guess in (empty, ctx.point(empty)):
        u, reports = solve_rows(ctx, empty, guess, SolverConfig())
        assert u is guess and reports == []


def test_solve_rows_point_guess_returns_the_converged_point(monkeypatch, lapack):
    # a Point guess gives the rows of an array guess, bit for bit, and a
    # point that keeps A(u) and E0(u) of every row, also when the rows
    # stop at different iterations; a point already evaluated is not
    # evaluated again
    ctx = make_ctx(p=3.0, eps=0.05, tau=0.1, L_beta=2.0,
                   reaction=ReactionSpec("sine", 2.0))
    rng = np.random.default_rng(3)
    rhs = rng.uniform(-1.0, 2.0, (6, 16))
    guess = rng.normal(size=(6, 16))
    u, reports = solve_rows(ctx, rhs, guess, SolverConfig())
    assert len({rep.iterations for rep in reports}) > 1
    pt, reports_pt = solve_rows(ctx, rhs, ctx.point(guess.copy()), SolverConfig())
    assert isinstance(pt, Point) and np.array_equal(pt.u, u) and reports_pt == reports
    assert set(vars(pt)) == {"au", "e0"}
    assert np.array_equal(pt.au, ctx.apply(u))
    assert np.array_equal(pt.e0, ctx.energy(u, np.zeros_like(u)))
    at_u, formed = ctx.apply(u), []
    for name in ("au", "e0"):
        make = getattr(Point, name).func
        monkeypatch.setattr(getattr(Point, name), "func",
                            lambda p, make=make: formed.append(len(p.u)) or make(p))
    again, reports_again = solve_rows(ctx, at_u, pt, SolverConfig())
    assert again is pt and formed == []
    assert [rep.iterations for rep in reports_again] == [0] * 6


def test_solver_determinism():
    ctx = make_ctx(p=3.0, tau=0.1)
    rhs = ctx.grid.function(np.linspace(-1.0, 2.0, 16))
    a, _ = solve(ctx, rhs)
    b, _ = solve(ctx, rhs)
    assert np.array_equal(a.values, b.values)


def test_nonconvergence_raises():
    ctx = make_ctx(p=6.0, tau=0.1)
    rhs = ctx.grid.function(np.linspace(-2.0, 3.0, 16))
    with pytest.raises(NonConvergence):
        solve(ctx, rhs, cfg=SolverConfig(max_newton=1))


def test_nonfinite_residual_raises_nonconvergence(monkeypatch):
    # nan > tol is False, so a NaN residual must not end the loop as converged
    ctx = make_ctx(p=3.0, tau=0.1)
    original = OperatorContext.apply
    calls = []

    def apply(self, pt):
        # the solver evaluates the residual on a Point, not on a bare array
        assert isinstance(pt, Point)
        calls.append(pt)
        return np.full_like(pt.u, np.nan) if len(calls) == 2 else original(self, pt)

    monkeypatch.setattr(OperatorContext, "apply", apply)
    with pytest.raises(NonConvergence, match=r"after 1 Newton steps \(residual nan"):
        solve(ctx, ctx.grid.function(np.full(16, 0.3)))
    assert len(calls) == 2


def test_infinite_residual_is_worded_as_not_finite(monkeypatch):
    # a residual that is inf before the first iteration is no Newton failure:
    # the message says so, in the form of every other failure message
    ctx = make_ctx(p=3.0, tau=0.1)
    monkeypatch.setattr(OperatorContext, "apply", lambda self, pt: np.full_like(pt.u, np.inf))
    with pytest.raises(NonConvergence) as caught:
        solve(ctx, ctx.grid.function(np.full(16, 0.3)))
    assert str(caught.value) == ("residual not finite after 0 Newton steps "
                                 "(residual inf, tol 1.000e-10; residuals [inf])")


# ---------------------------------------------------------------------------
# stability of the inverse map


def test_stability_bounds_trivial_equal_rhs():
    ctx = make_ctx(p=3.0, tau=0.1)
    rhs = ctx.grid.function(np.full(16, 0.4))
    sol, _ = solve(ctx, rhs)
    sl2, sv = stability_slacks(ctx, rhs.values, rhs.values, sol.values, sol.values)
    assert sl2 >= -1e-8 and sv >= -1e-8


def test_stability_bounds_random_trials():
    rng = np.random.default_rng(3)
    for p in (2.0, 3.0, 4.0):
        ctx = make_ctx(p=p, eps=0.1, tau=0.1, L_beta=2.0,
                       reaction=ReactionSpec("linear", 2.0))
        for _ in range(25):
            r1 = ctx.grid.function(rng.uniform(-1.0, 2.0, 16))
            r2 = ctx.grid.function(rng.uniform(-1.0, 2.0, 16))
            s1, _ = solve(ctx, r1)
            s2, _ = solve(ctx, r2)
            sl2, sv = stability_slacks(ctx, r1.values, r2.values, s1.values, s2.values)
            assert sl2 >= -1e-8
            assert sv >= -1e-8


def test_stacked_slacks_equal_per_row_calls():
    # one call on (P, n) stacks gives each row's slacks, bit for bit
    rng = np.random.default_rng(6)
    ctx = make_ctx(p=3.0, eps=0.1, tau=0.1, L_beta=2.0, reaction=ReactionSpec("sine", 2.0))
    rhs = rng.uniform(-1.0, 2.0, (2, 7, 16))
    sols = np.array([[solve(ctx, ctx.grid.function(r))[0].values for r in side]
                     for side in rhs])
    sl2, sv = stability_slacks(ctx, rhs[0], rhs[1], sols[0], sols[1])
    ap = apriori_slack(ctx, rhs[0], sols[0])
    assert sl2.shape == sv.shape == ap.shape == (7,)
    for k in range(7):
        one_l2, one_v = stability_slacks(ctx, rhs[0, k], rhs[1, k], sols[0, k], sols[1, k])
        assert one_l2.shape == () and float(one_l2) == sl2[k] and float(one_v) == sv[k]
        assert float(apriori_slack(ctx, rhs[0, k], sols[0, k])) == ap[k]


def test_inverse_map_perturbation_slope():
    # ||sol1 - sol2|| scales linearly in the rhs perturbation size
    rng = np.random.default_rng(4)
    ctx = make_ctx(p=3.0, tau=0.1, n=16)
    base = ctx.grid.function(rng.uniform(0.0, 1.0, 16))
    direction = rng.normal(size=16)
    direction /= np.linalg.norm(direction)
    sol0, _ = solve(ctx, base)
    deltas = [10.0**-k for k in range(1, 6)]
    dists = []
    for delta in deltas:
        shifted = ctx.grid.function(base.values + delta * direction)
        sol, _ = solve(ctx, shifted)
        dists.append(norm_l2(ctx.grid.function(sol.values - sol0.values)))
    slope = np.polyfit(np.log(deltas), np.log(dists), 1)[0]
    assert slope >= 0.99


def test_apriori_bound():
    rng = np.random.default_rng(5)
    # zero data gives the zero solution and a tight 0 <= 0 bound
    ctx = make_ctx(p=3.0, tau=0.1)
    zero = ctx.grid.zeros()
    sol, _ = solve(ctx, zero)
    assert norm_l2(sol) <= 1e-12
    assert apriori_slack(ctx, zero.values, sol.values) >= -1e-8
    ratios = []
    for p in (2.0, 3.0, 4.0):
        ctx = make_ctx(p=p, eps=0.1, tau=0.1, L_beta=2.0,
                       reaction=ReactionSpec("sine", 2.0))
        for _ in range(25):
            rhs = ctx.grid.function(rng.uniform(-1.0, 2.0, 16))
            sol, _ = solve(ctx, rhs)
            assert apriori_slack(ctx, rhs.values, sol.values) >= -1e-8
            bound = norm_l2(rhs) ** 2 / (4 * 0.1 * (1 - 0.1 * 2.0))
            ratios.append(norm_w1p(sol, p) / bound)
    # the bound is far from tight for smooth data: observed, not asserted
    print(f"a priori bound ratio: max {max(ratios):.3e}")
    assert max(ratios) < 1.0
