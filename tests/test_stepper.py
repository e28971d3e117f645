import io
import json
import os
import signal
import time

import numpy as np
import pytest

from plapsim import cli, stepper
from plapsim.mesh import Grid1D, GridFunction, norm_l2, norm_l2_array
from plapsim.model import (
    ModelParams,
    ReactionSpec,
    SourceSpec,
    make_initial,
    yosida_penalty,
)
from plapsim.noise import NoiseModel, bump_profile
from plapsim.operators import OperatorContext, Point
from plapsim.solver import NonConvergence, SolverConfig, solve, solve_rows
from plapsim.stepper import (
    Trajectory,
    constraint_violation_array,
    run_path,
    run_rows,
    step,
)


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
    out, _ = step(ctx, nm, u, np.zeros(4), g.zeros())
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


def test_run_path_reports_equal_chained_steps():
    # run_path and step are one time loop: every report of a path is the
    # report of the step that makes it, bit for bit
    ctx, nm = make_setup(p=3.0, eps=1e-3, T=0.4, M=20, L_beta=0.5,
                         reaction=ReactionSpec("sine", 0.5), sigma=0.6, J=6)
    source = SourceSpec("cosine", {"offset": 0.5, "amp": 20.0, "decay": 1.0, "length": 1.0})
    initial = make_initial(ctx.grid, "cosine", {"offset": 0.5, "amp": 0.25})
    traj = run_path(ctx, nm, initial, source, seed=11)
    assert len({rep.iterations for rep in traj.reports}) > 1
    u = initial.u0
    for n, report in enumerate(traj.reports):
        f_n = source.step_average(n, ctx.grid, ctx.params.tau)
        u, ref = step(ctx, nm, u, traj.increments.values[n], f_n)
        assert report == ref, n
        assert np.array_equal(u.values, traj.states[n + 1]), n


# ---------------------------------------------------------------------------
# the point carried from one step's solve to the next


def carry_setup(kind, n_paths=12, amp=50.0):
    """(ctx, u0, coef, f) of the Monte Carlo data ("mc") or the stiff data.

    The stiff data (p = 2, eps = 1e-5, a cosine source of amplitude ``amp``)
    make the line search backtrack and the rows stop at different iterations.
    """
    grid = Grid1D(24, 1.0)
    params = ModelParams(p=2.0, eps=0.1 if kind == "mc" else 1e-5, T=0.2, M=10, L_beta=0.5)
    ctx = OperatorContext(params, ReactionSpec("sine", 0.5), grid)
    noise = NoiseModel(J=6, sigma=0.5)
    u0 = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25}).u0.values
    source = SourceSpec("zero") if kind == "mc" else SourceSpec(
        "cosine", {"offset": 0.0, "amp": amp, "decay": 0.0, "length": 1.0})
    coef = np.array([noise.coefs(noise.sample_path(params.M, params.tau, s).values)
                     for s in range(n_paths)])
    return ctx, u0, coef, source.step_table(params.M, grid, params.tau)


def array_guess_rows(ctx, u0, coef, f, cfg):
    """The time loop with a plain-array guess at every step, evaluated afresh.

    Returns (states, l2, violations, failures, reports): the first four as
    run_rows returns them or :func:`fold_records` folds them, and reports
    as ``fold_records`` folds them, one list of step reports per row.
    """
    h, tau = ctx.grid.h, ctx.params.tau
    P, M = coef.shape
    u = np.tile(u0, (P, 1))
    states = np.empty((P, M + 1, u0.size))
    states[:, 0] = u
    alive, failures, reports = np.arange(P), {}, [[] for _ in range(P)]
    for n in range(M):
        u_n = u[alive]
        rhs = u_n + bump_profile(u_n) * coef[alive, n][:, None] + tau * f[n]
        u_np1, solved = solve_rows(ctx, rhs, u_n, cfg)
        assert isinstance(u_np1, np.ndarray)
        u[alive] = u_np1
        states[:, n + 1] = u
        failed = []
        for i, report in enumerate(solved):
            reports[alive[i]].append(report)
            if report.failure is not None:
                failures[int(alive[i])] = (n, report.failure)
                failed.append(i)
        alive = np.delete(alive, failed)
        if not alive.size:
            break
    return (states, norm_l2_array(states, h), constraint_violation_array(states, h),
            failures, reports)


def fold_records(P, M, n_cells):
    """A run_rows hook and the (P, M+1, n_cells) states and P report lists it folds.

    Entry (k, n) of the states is row k's state n, and a row that fails
    keeps its last state in the entries after it; each row's list holds
    the report of every step it solved, up to and including a failed one.
    """
    states, reports = np.empty((P, M + 1, n_cells)), [[] for _ in range(P)]

    def on_step(rows, n, pt, solved):
        states[rows, n:] = pt.u[:, None]  # later records overwrite all but a failed row's
        for k, report in zip(rows.tolist(), solved):
            reports[k].append(report)

    return on_step, states, reports


def assert_rows_match(ctx, u0, coef, f, cfg, ref, rows):
    """run_rows on ``rows`` of coef equals the array-guess loop ``ref`` of all rows.

    A failed row is compared up to its failed step; its later states stay
    frozen while other rows run, and run_rows raises, naming the smallest
    failed row, its step and its message, and returns no norms.  Returns
    run_rows' reports.
    """
    states_ref, l2_ref, viol_ref, failures_ref = ref[:4]
    M = coef.shape[1]
    on_step, states, reports = fold_records(len(rows), M, u0.size)
    failed = sorted(k for k in failures_ref if k in rows)
    l2 = viol = None
    try:
        l2, viol = run_rows(ctx, u0, coef[rows], f, cfg, lambda i: f"row {rows[i]}",
                            on_step=on_step)
    except NonConvergence as err:
        n, message = failures_ref[failed[0]]
        assert str(err) == f"row {failed[0]} failed at step {n}: {message}"
    assert (l2 is None) == bool(failed)
    for i, k in enumerate(rows):
        end = failures_ref[k][0] + 2 if k in failures_ref else M + 1
        assert np.array_equal(states[i, :end], states_ref[k, :end]), k
        if l2 is not None:
            assert np.array_equal(l2[i, :end], l2_ref[k, :end]), k
            assert np.array_equal(viol[i, :end], viol_ref[k, :end]), k
        if len(failed) < len(rows):
            assert (states[i, end:] == states[i, end - 1]).all(), k
    return reports


@pytest.mark.parametrize(
    "kind, amp, max_newton, failed",
    [
        ("mc", 50.0, 50, {}),
        # the rows backtrack and leave the first step's solve apart
        ("stiff", 50.0, 50, {}),
        # path 5 fails at step 6 of 10: it is dropped from the carried point
        # and frozen, and the other rows run to the end
        ("stiff", 5.0, 6, {5: 6}),
    ],
)
def test_run_rows_carry_is_bit_identical_to_array_guesses(lapack, kind, amp, max_newton,
                                                          failed):
    # each step starts from the point the last solve returned; states, norms,
    # violations and every step's solve report, row by row, equal those of
    # the loop that evaluates a fresh array guess at every step, whatever
    # the chunk size
    ctx, u0, coef, f = carry_setup(kind, amp=amp)
    cfg = SolverConfig(max_newton=max_newton)
    P = len(coef)
    ref = array_guess_rows(ctx, u0, coef, f, cfg)
    assert {k: n for k, (n, _) in ref[3].items()} == failed
    first = {steps[0].iterations for steps in ref[4]}
    assert (len(first) > 1) == (amp == 50.0 and kind == "stiff")
    for size in (1, 7, P):
        for start in range(0, P, size):
            rows = list(range(start, min(start + size, P)))
            reports = assert_rows_match(ctx, u0, coef, f, cfg, ref, rows)
            assert reports == [ref[4][k] for k in rows]
            assert reports == array_guess_rows(ctx, u0, coef[rows], f, cfg)[4]


def test_run_rows_records_fold_alike_in_every_chunk_size(monkeypatch):
    # of 20 rows, row 8 fails at step 6 and row 15 at step 3: in chunks of
    # 7, in the 2nd and the 3rd chunk.  Whatever the chunk size, the hook's
    # records fold to the same states and reports on the rows that ran, the
    # message names the smallest failed row, not the earliest failure, and
    # no chunk after the first failed one runs
    ctx, u0, coef, f = carry_setup("mc", n_paths=20)
    coef[8, 6] *= 100.0
    coef[15, 3] *= 100.0
    cfg = SolverConfig(max_newton=3)
    P, M = coef.shape
    folds, messages = {}, set()
    for size in (1, 7, P):
        monkeypatch.setattr(stepper, "_BATCH_CELLS", size * u0.size)
        on_step, states, reports = fold_records(P, M, u0.size)
        with pytest.raises(NonConvergence) as info:
            run_rows(ctx, u0, coef, f, cfg, lambda k: f"row {k}", on_step=on_step)
        messages.add(str(info.value))
        folds[size] = states, reports
    (message,) = messages
    assert message.startswith("row 8 failed at step 6: no convergence after 3 Newton steps")
    states_all, reports_all = folds[P]
    assert [len(steps) for steps in reports_all] == [M] * 8 + [7] + [M] * 6 + [4] + [M] * 4
    assert (states_all[15, 4:] == states_all[15, 4]).all()
    for size, ran in ((1, 9), (7, 14), (P, P)):
        states, reports = folds[size]
        assert np.array_equal(states[:ran], states_all[:ran]), size
        assert reports[:ran] == reports_all[:ran], size
        assert not any(reports[ran:]), size


def count_formed(monkeypatch):
    """Rows of every A(u), E0(u) and energy evaluation from now on, by name."""
    rows = {"au": [], "e0": [], "energy": []}
    for name in ("au", "e0"):
        make = getattr(Point, name).func
        monkeypatch.setattr(getattr(Point, name), "func",
                            lambda pt, make=make, name=name: rows[name].append(len(pt.u))
                            or make(pt))
    energy = OperatorContext.energy
    monkeypatch.setattr(OperatorContext, "energy",
                        lambda self, pt, b: rows["energy"].append(len(pt.u))
                        or energy(self, pt, b))
    return rows


@pytest.mark.parametrize("kind", ["mc", "stiff"])
def test_run_rows_forms_au_and_e0_once_per_accepted_point(monkeypatch, lapack, kind):
    # A(u) is formed at the initial state and once per accepted Newton
    # iterate, E0(u) once per evaluated point: M - 1 times P fewer rows than
    # the loop that evaluates every step's guess afresh
    ctx, u0, coef, f = carry_setup(kind)
    cfg = SolverConfig()
    (P, M), counts = coef.shape, []

    def carried(*args):
        on_step, _, reports = fold_records(P, M, len(args[1]))
        run_rows(*args, str, on_step=on_step)
        return reports

    for loop in (carried, lambda *args: array_guess_rows(*args)[-1]):
        rows = count_formed(monkeypatch)
        reports = loop(ctx, u0, coef, f, cfg)
        monkeypatch.undo()
        # a step's entries are its residuals: the guess's and one per iteration
        entries = sum(len(rep.residual_history) for steps in reports for rep in steps)
        counts.append((sum(rows["au"]), sum(rows["e0"]), sum(rows["energy"]), entries))
    (au, e0, energy, entries), (au_ref, e0_ref, energy_ref, entries_ref) = counts
    assert (entries, energy) == (entries_ref, energy_ref)
    iterations = entries - M * P  # a row's iterations are its entries minus one
    assert au == P + iterations and au_ref == M * P + iterations
    assert e0 == energy - (M - 1) * P and e0_ref == energy_ref


def count_gridfunctions(monkeypatch):
    """Record every GridFunction built from now on."""
    built = []
    original = GridFunction.__post_init__

    def counted(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(GridFunction, "__post_init__", counted)
    return built


def test_run_path_builds_no_gridfunction_per_step(monkeypatch):
    source = SourceSpec("cosine", {"offset": 0.5, "amp": 1.0, "decay": 1.0, "length": 1.0})
    built = count_gridfunctions(monkeypatch)
    counts = []
    for M in (10, 40):
        ctx, nm = make_setup(p=3.0, T=0.4, M=M, sigma=0.5)
        initial = make_initial(ctx.grid, "cosine", {"offset": 0.5, "amp": 0.25})
        del built[:]
        for mode in ("full", "thin"):
            run_path(ctx, nm, initial, source, seed=2, mode=mode)
        counts.append(len(built))
    assert counts[0] == counts[1], counts


def test_run_path_failure_names_seed_and_step():
    # the source pushes the state out of the box at step 6, where the
    # penalty needs a second Newton step
    ctx, nm = make_setup(p=2.0, eps=1e-5, T=0.5, M=20, sigma=0.5, J=4)
    initial = make_initial(ctx.grid, "constant", {"value": 0.5})
    source = SourceSpec("constant", {"value": 4.0})
    capped = SolverConfig(max_newton=1)
    with pytest.raises(NonConvergence) as info:
        run_path(ctx, nm, initial, source, seed=7, cfg=capped)
    message = str(info.value)
    prefix = "seed 7 failed at step 6: "
    assert message.startswith(prefix + "no convergence after 1 Newton steps"), message
    assert "residuals [" in message
    # step keeps the solve's own message
    tau = ctx.params.tau
    increments = nm.sample_path(20, tau, 7).values
    u = initial.u0
    for n in range(6):
        u, _ = step(ctx, nm, u, increments[n], source.step_average(n, ctx.grid, tau), capped)
    with pytest.raises(NonConvergence) as info:
        step(ctx, nm, u, increments[6], source.step_average(6, ctx.grid, tau), capped)
    assert str(info.value) == message[len(prefix):]


# ---------------------------------------------------------------------------
# constraint violation


def test_constraint_violation_hand_values():
    h = Grid1D(4, 1.0).h
    assert constraint_violation_array(np.full(4, 0.5), h) == 0.0
    assert constraint_violation_array(np.full(4, 1.2), h) == pytest.approx(0.2)
    h2 = Grid1D(2, 1.0).h  # 0.5
    assert constraint_violation_array(np.array([-0.1, 0.5]), h2) == pytest.approx(0.05)


def test_constraint_violation_zero_iff_in_box():
    h = Grid1D(3, 1.0).h
    assert constraint_violation_array(np.array([0.0, 0.5, 1.0]), h) == 0.0
    assert constraint_violation_array(np.array([0.0, 0.5, 1.0 + 1e-9]), h) > 0.0


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


def wide_trajectory(states):
    times = np.arange(len(states)) * 0.025
    return Trajectory(Grid1D(states.shape[1]), times, states, None, None, None, [], None,
                      9, "full")


def wide_states(rows=40, n=300):
    states = np.random.default_rng(11).uniform(-1.0, 2.0, (rows, n))
    states[rows // 2, :6] = [0.0, -0.0, 1e-300, 1 / 3, np.inf, np.nan]
    return states


def serial_csv(states):
    """The full-mode CSV of :func:`wide_trajectory`, one row at a time."""
    lines = ["# seed: 9", "# mode: full", "t," + ",".join(f"c{i}" for i in range(states.shape[1]))]
    for k, row in enumerate(states):
        lines.append(",".join(map(repr, [k * 0.025, *row.tolist()])))
    return "\n".join(lines) + "\n"


def csv_text(traj):
    buf = io.StringIO()
    traj.to_csv(buf)
    return buf.getvalue()


@pytest.mark.parametrize("cores", [1, 2, 3, 5])
def test_full_csv_bytes_do_not_depend_on_the_cores(monkeypatch, children, cores):
    # 12000 values: from two usable cores on, one child formats the rows its
    # pipe has room for, and this process the rest
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    states = wide_states()
    assert csv_text(wide_trajectory(states)) == serial_csv(states)
    assert len(children) == min(cores - 1, 1)
    assert all(child.code == 0 for child in children)


def test_full_csv_pushes_every_row_before_it_finishes(monkeypatch, children):
    # to_csv alone takes the path of the streamed run: one push per row, in
    # order, then finish, so the child starts and is fed the same way
    pushed, finished = [], []
    push, finish = stepper.RowWriter.push, stepper.RowWriter.finish

    def push_spy(self, t, state):
        pushed.append(float(t))
        push(self, t, state)

    def finish_spy(self):
        finished.append(len(pushed))
        finish(self)

    monkeypatch.setattr(stepper.RowWriter, "push", push_spy)
    monkeypatch.setattr(stepper.RowWriter, "finish", finish_spy)
    states = wide_states()
    assert csv_text(wide_trajectory(states)) == serial_csv(states)
    assert pushed == [k * 0.025 for k in range(len(states))]
    assert finished == [len(states)]
    assert len(children) == 1


def test_full_csv_through_one_page_pipes(monkeypatch, children):
    # each pipe holds one page, and a row (16 KB) and its line (about 40 KB)
    # are longer: this process must not block on a full pipe to the child
    # while the child waits for room in its pipe back
    fcntl = pytest.importorskip("fcntl")
    sizes, setpipe = [], fcntl.fcntl

    def one_page(fd, command, arg=0):
        sizes.append(setpipe(fd, command, 4096))

    def late(signum, frame):
        raise TimeoutError("the writer and its child wait on each other")

    monkeypatch.setattr(fcntl, "fcntl", one_page)
    previous = signal.signal(signal.SIGALRM, late)
    states = wide_states(n=2000)
    try:
        signal.alarm(20)
        text = csv_text(wide_trajectory(states))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert text == serial_csv(states)
    assert sizes == [4096, 4096]
    assert [child.code for child in children] == [0]


def test_full_csv_of_strided_states(children):
    states = wide_states(n=600)[:, ::2]
    assert not states.flags.c_contiguous
    assert csv_text(wide_trajectory(states)) == serial_csv(states)
    assert len(children) == 1


def test_full_csv_below_the_threshold_starts_no_child(monkeypatch, children):
    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 12001)
    states = wide_states()
    assert csv_text(wide_trajectory(states)) == serial_csv(states)
    assert children == []


@pytest.mark.parametrize("missing", ["process", "fork"])
def test_full_csv_without_a_child_formats_every_block_here(monkeypatch, children, missing):
    # a fork that fails, or a platform without os.fork: every row here
    def no_process():
        raise OSError("no process")

    if missing == "process":
        monkeypatch.setattr(os, "fork", no_process)
    else:
        monkeypatch.delattr(os, "fork")
    states = wide_states()
    assert csv_text(wide_trajectory(states)) == serial_csv(states)
    assert children == []


def exit_3(out, rows):
    os._exit(3)


def no_room(out, rows):
    raise SystemExit("no room\nfor the rows")


@pytest.mark.parametrize("work, ending", [(exit_3, "code 3"), (no_room, "code 1")],
                         ids=["exit", "raise"])
def test_full_csv_child_failure_is_an_oserror(monkeypatch, children, work, ending):
    # the message names the exit code, but no rows: the child streamed to
    # first takes rows as far as its pipe does.  A child that raises exits 1
    # and prints nothing, since it shares this process's stderr
    monkeypatch.setattr(stepper, "_write_lines", work)
    with pytest.raises(OSError) as info:
        csv_text(wide_trajectory(wide_states()))
    assert str(info.value) == f"CSV formatting child exited with {ending}"
    assert [child.code is not None for child in children] == [True]


def sleep(out, rows):
    time.sleep(60)


def test_full_csv_kills_its_children_when_interrupted(monkeypatch, children):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    monkeypatch.setattr(stepper, "_write_lines", sleep)

    def interrupted(t, state):
        raise KeyboardInterrupt

    monkeypatch.setattr(stepper, "_format_row", interrupted)
    with pytest.raises(KeyboardInterrupt):
        csv_text(wide_trajectory(wide_states()))
    assert len(children) == 1
    assert all(child.code is not None for child in children)


def echo(out, source):
    out.write(source.read())


def test_a_child_holds_no_other_childs_pipe():
    # the first child sees EOF once this process closes its feeding pipe,
    # while a second child, forked after it, still waits on its own
    def late(signum, frame):
        raise TimeoutError("the first child never saw EOF")

    previous = signal.signal(signal.SIGALRM, late)
    first = stepper.fork(echo, "first", feed=True)
    second = stepper.fork(echo, "second", feed=True)
    got = []
    try:
        os.write(first.fd, b"rows")
        signal.alarm(10)
        first.read(got.append)
        second.read(got.append)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        first.kill()
        second.kill()
    assert (got, first.code, second.code) == ([b"rows"], 0, 0)


@pytest.mark.parametrize("work, code", [(lambda out: None, 0), (lambda out: 1 / 0, 1)],
                         ids=["returns", "raises"])
def test_a_child_never_flushes_what_it_inherits(tmp_path, work, code):
    # a child leaves through os._exit, so the buffered line is written once
    with open(tmp_path / "file", "w") as stream:
        stream.write("once\n")
        child = stepper.fork(work, "idle")
        try:
            child.read(lambda block: None)
        except OSError as exc:
            assert str(exc) == "idle child exited with code 1"
    assert (child.code, (tmp_path / "file").read_text()) == (code, "once\n")


def test_cli_run_child_failure_exits_2(monkeypatch, capsys, tmp_path, children):
    # the streamed child's rows depend on the timing, so the message names none
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 100)
    monkeypatch.setattr(stepper, "_write_lines", exit_3)
    (tmp_path / "cfg.json").write_text(json.dumps({"model": {"n_cells": 40, "M": 10}}))
    assert cli.main(["run", "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err == (
        "runtime error: CSV formatting child exited with code 3\n")
    assert [child.code for child in children] == [3]
    assert os.listdir(tmp_path / "out") == []


def test_run_path_rejects_mismatched_increments():
    # run_path draws every path from its seed: it takes no increment matrix
    ctx, nm = make_setup(p=2.0, T=0.2, M=4, sigma=0.3)
    initial = make_initial(ctx.grid, "constant", {"value": 0.5})
    wrong = nm.sample_path(3, 0.05, seed=0)
    with pytest.raises(TypeError):
        run_path(ctx, nm, initial, SourceSpec("zero"), seed=0, increments=wrong)
    with pytest.raises(ValueError):
        run_path(ctx, nm, initial, SourceSpec("zero"), seed=0, mode="sparse")
    with pytest.raises(ValueError, match="writer needs mode 'full'"):
        run_path(ctx, nm, initial, SourceSpec("zero"), seed=0, mode="thin",
                 writer=stepper.RowWriter(io.StringIO(), (5, 16)))


# ---------------------------------------------------------------------------
# fork_map: independent parts on the usable cores


def part_and_pid(part):
    return part, os.getpid()


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_fork_map_returns_results_in_part_order(monkeypatch, children, cores):
    # five parts in contiguous groups, one per core: this process runs the
    # first ceil(5 / cores), and a child each other group
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    results = stepper.fork_map(part_and_pid, range(5), "map")
    assert [part for part, _ in results] == list(range(5))
    pids = [pid for _, pid in results]
    here = -(-5 // cores)
    assert pids[:here] == [os.getpid()] * here
    assert len(set(pids)) == cores
    assert len(children) == cores - 1
    assert all(child.code == 0 for child in children)


def fails_from(first):
    """Work that raises a ValueError naming each part from ``first`` on."""
    def work(part):
        if part >= first:
            raise ValueError(f"part {part} failed\non two lines")
        return part
    return work


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("first", [1, 2, 4])
def test_fork_map_raises_the_first_failed_parts_exception(monkeypatch, children, cores,
                                                           first):
    # on 3 cores the groups are [0, 1], [2, 3] and [4]: part 1 fails here,
    # part 2 in the first child and part 4 in the last; each time the
    # exception of the first failed part comes back with its message
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    with pytest.raises(ValueError) as info:
        stepper.fork_map(fails_from(first), range(5), "map")
    assert str(info.value) == f"part {first} failed\non two lines"
    assert len(children) == cores - 1
    assert all(child.code is not None for child in children)


@pytest.mark.parametrize("error", [KeyboardInterrupt, NonConvergence])
def test_fork_map_that_stops_here_kills_its_children(monkeypatch, children, error):
    # this process's part is interrupted, or fails, while the children's run
    parent = os.getpid()

    def work(part):
        if os.getpid() != parent:
            time.sleep(60)
        raise error("stopped here")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    with pytest.raises(error, match="stopped here"):
        stepper.fork_map(work, range(3), "map")
    assert [child.code for child in children] == [-signal.SIGKILL] * 2


@pytest.mark.parametrize("missing", ["process", "fork"])
def test_fork_map_without_a_fork_runs_every_part_here(monkeypatch, children, missing):
    def no_process():
        raise OSError("no process")

    if missing == "process":
        monkeypatch.setattr(os, "fork", no_process)
    else:
        monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert stepper.fork_map(part_and_pid, range(5), "map") == [
        (part, os.getpid()) for part in range(5)]
    assert children == []


def test_fork_map_child_that_dies_is_an_oserror(children):
    # the child of the second group is killed before it sends anything
    parent = os.getpid()

    def work(part):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return part

    with pytest.raises(OSError, match=r"^mapped child exited with code -9$"):
        stepper.fork_map(work, range(2), "mapped")
    assert [child.code for child in children] == [-signal.SIGKILL]
