import io

import numpy as np
import pytest

from plapsim.mesh import Grid1D, norm_l2
from plapsim.model import (
    ModelParams,
    ReactionSpec,
    SourceSpec,
    make_initial,
    yosida_penalty,
)
from plapsim.noise import NoiseModel
from plapsim.operators import OperatorContext
from plapsim.solver import solve
from plapsim.stepper import constraint_violation, run_path, step


def bisect_root(fn, lo, hi, iters=200):
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


def make_setup(p=2.0, eps=0.1, T=1.0, M=10, L_beta=0.0, reaction=None, n=16,
               sigma=0.0, J=4):
    params = ModelParams(p=p, eps=eps, T=T, M=M, L_beta=L_beta)
    ctx = OperatorContext(params, reaction or ReactionSpec("zero"), Grid1D(n, 1.0))
    return ctx, NoiseModel(J=J, sigma=sigma)


# ---------------------------------------------------------------------------
# single steps


def test_step_constant_recursion_p2():
    ctx, nm = make_setup(p=2.0, T=1.0, M=10)  # tau = 0.1
    g = ctx.grid
    u = g.function(np.full(16, 0.5))
    out, report = step(ctx, nm, u, np.zeros(4), g.zeros())
    assert report.converged
    assert np.allclose(out.values, 0.5 / 1.1, atol=1e-11)


def test_step_constant_p4_against_bisection():
    ctx, nm = make_setup(p=4.0, T=1.0, M=10)
    g = ctx.grid
    u = g.function(np.full(16, 0.5))
    out, _ = step(ctx, nm, u, np.zeros(4), g.zeros())
    root = bisect_root(lambda r: r + 0.1 * r**3 - 0.5, 0.0, 1.0)
    assert np.abs(out.values - root).max() <= 1e-10
    assert root == pytest.approx(0.4883533127285652, abs=1e-12)


def test_step_noise_vanishes_at_zero_state():
    # the diffusion support excludes 0, so the rhs is exactly u_n + tau f_n
    ctx, nm = make_setup(p=2.0, T=1.0, M=10, sigma=2.0)
    g = ctx.grid
    u = g.zeros()
    out, _ = step(ctx, nm, u, np.full(4, 5.0), g.zeros())
    assert np.abs(out.values).max() <= 1e-12


# ---------------------------------------------------------------------------
# whole paths


def test_single_step_path_matches_step():
    ctx, nm = make_setup(p=3.0, T=0.1, M=1, sigma=0.5)
    initial = make_initial(ctx.grid, "constant", {"value": 0.5})
    traj = run_path(ctx, nm, initial, SourceSpec("zero"), seed=3)
    u1, _ = step(ctx, nm, initial.u0, traj.increments.values[0], ctx.grid.zeros())
    assert np.array_equal(traj.final_state.values, u1.values)


def test_trajectory_invariants():
    ctx, nm = make_setup(p=2.0, T=0.5, M=25, sigma=0.4)
    initial = make_initial(ctx.grid, "cosine", {"offset": 0.5, "amp": 0.25})
    traj = run_path(ctx, nm, initial, SourceSpec("zero"), seed=0)
    assert len(traj.states) == 26
    assert np.array_equal(traj.states[0], initial.u0.values)
    assert all(rep.converged for rep in traj.reports)
    assert traj.times[-1] == pytest.approx(0.5)


def test_scheme_identity_over_noisy_run():
    # the defining identity of each step, rebuilt from the stored output
    ctx, nm = make_setup(p=3.0, eps=0.05, T=0.5, M=100, L_beta=1.0,
                         reaction=ReactionSpec("sine", 1.0), sigma=0.6, J=6)
    source = SourceSpec("constant", {"value": 0.2})
    initial = make_initial(ctx.grid, "cosine", {"offset": 0.5, "amp": 0.2})
    traj = run_path(ctx, nm, initial, source, seed=21)
    tau = ctx.params.tau
    for n in range(100):
        u_n, u_np1 = traj.states[n], traj.states[n + 1]
        f_n = source.step_average(n, ctx.grid, tau)
        forcing = nm.apply_diffusion(ctx.grid.function(u_n), traj.increments.values[n])
        resid = (
            u_np1
            - u_n
            + tau * (ctx.apply_plap(u_np1)
                     + yosida_penalty(u_np1, ctx.params.eps))
            - forcing.values
            - tau * (ctx.reaction.evaluate(u_np1) + f_n.values)
        )
        assert norm_l2(ctx.grid.function(resid)) <= 1e-9


def test_noise_off_paths_are_seed_independent():
    ctx, nm = make_setup(p=2.0, T=0.3, M=10, sigma=0.0)
    initial = make_initial(ctx.grid, "constant", {"value": 0.5})
    a = run_path(ctx, nm, initial, SourceSpec("zero"), seed=1)
    b = run_path(ctx, nm, initial, SourceSpec("zero"), seed=99)
    for ua, ub in zip(a.states, b.states):
        assert np.array_equal(ua, ub)


def test_same_seed_bit_identical():
    ctx, nm = make_setup(p=3.0, T=0.3, M=15, sigma=0.7)
    initial = make_initial(ctx.grid, "cosine", {"offset": 0.5, "amp": 0.25})
    a = run_path(ctx, nm, initial, SourceSpec("zero"), seed=8)
    b = run_path(ctx, nm, initial, SourceSpec("zero"), seed=8)
    for ua, ub in zip(a.states, b.states):
        assert np.array_equal(ua, ub)


def test_warm_start_equivalence():
    # evolving with zero-start solves lands on the same final state
    ctx, nm = make_setup(p=3.0, eps=0.1, T=0.4, M=20, sigma=0.5)
    source = SourceSpec("zero")
    initial = make_initial(ctx.grid, "cosine", {"offset": 0.5, "amp": 0.25})
    warm = run_path(ctx, nm, initial, source, seed=4)
    cold = initial.u0
    tau = ctx.params.tau
    for n in range(20):
        f_n = source.step_average(n, ctx.grid, tau)
        forcing = nm.apply_diffusion(cold, warm.increments.values[n])
        rhs = ctx.grid.function(cold.values + forcing.values + tau * f_n.values)
        cold, _ = solve(ctx, rhs, guess=ctx.grid.zeros())
    assert norm_l2(ctx.grid.function(cold.values - warm.final_state.values)) <= 1e-8


# ---------------------------------------------------------------------------
# constraint violation


def test_constraint_violation_hand_values():
    g = Grid1D(4, 1.0)
    assert constraint_violation(g.function(np.full(4, 0.5))) == 0.0
    assert constraint_violation(g.function(np.full(4, 1.2))) == pytest.approx(0.2)
    g2 = Grid1D(2, 1.0)  # h = 0.5
    assert constraint_violation(g2.function([-0.1, 0.5])) == pytest.approx(0.05)


def test_constraint_violation_zero_iff_in_box():
    g = Grid1D(3, 1.0)
    assert constraint_violation(g.function([0.0, 0.5, 1.0])) == 0.0
    assert constraint_violation(g.function([0.0, 0.5, 1.0 + 1e-9])) > 0.0


# ---------------------------------------------------------------------------
# export


def test_full_csv_export():
    ctx, nm = make_setup(p=2.0, T=0.2, M=4, n=3, sigma=0.3)
    initial = make_initial(ctx.grid, "constant", {"value": 0.5})
    traj = run_path(ctx, nm, initial, SourceSpec("zero"), seed=5)
    buf = io.StringIO()
    traj.to_csv(buf, metadata={"note": "test"})
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "# seed: 5"
    assert lines[1] == "# mode: full"
    assert lines[2] == "# note: test"
    assert lines[3] == "t,c0,c1,c2"
    assert len(lines) == 4 + 5
    first = [float(tok) for tok in lines[4].split(",")]
    assert first == [0.0, 0.5, 0.5, 0.5]


def test_thin_csv_export_and_mode():
    ctx, nm = make_setup(p=2.0, T=0.2, M=4, n=8, sigma=0.3)
    initial = make_initial(ctx.grid, "constant", {"value": 0.5})
    traj = run_path(ctx, nm, initial, SourceSpec("zero"), seed=5, mode="thin")
    assert traj.states is None
    with pytest.raises(ValueError):
        traj.final_state
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[2] == "t,l2_norm,v_norm_p,constraint_violation"
    assert len(lines) == 3 + 5
    # thin summaries agree with the full run
    full = run_path(ctx, nm, initial, SourceSpec("zero"), seed=5, mode="full")
    assert np.allclose(full.l2_norms, traj.l2_norms)
    assert np.allclose(full.violations, traj.violations)


def test_run_path_rejects_mismatched_increments():
    ctx, nm = make_setup(p=2.0, T=0.2, M=4, sigma=0.3)
    initial = make_initial(ctx.grid, "constant", {"value": 0.5})
    wrong = nm.sample_path(3, 0.05, seed=0)
    with pytest.raises(ValueError):
        run_path(ctx, nm, initial, SourceSpec("zero"), seed=0, increments=wrong)
    with pytest.raises(ValueError):
        run_path(ctx, nm, initial, SourceSpec("zero"), seed=0, mode="sparse")
