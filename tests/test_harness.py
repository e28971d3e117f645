import importlib.util
import inspect
import io
import json
import os
import signal
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from plapsim import harness, mesh, operators, solver, stepper
from plapsim.harness import (
    CHECKLIST,
    McSummary,
    RefinementTable,
    estimate_cp,
    manufactured_problem,
    manufactured_state,
    run_deterministic_convergence,
    run_eps_study,
    run_mc,
    run_pathwise_refinement,
    verify_all,
)
from plapsim.mesh import Grid1D, norm_l2, norm_l2_array
from plapsim.model import ModelParams, ReactionSpec, SourceSpec, make_initial
from plapsim.noise import NoiseModel
from plapsim.operators import OperatorContext
from plapsim.solver import NonConvergence, SolverConfig, solve
from plapsim.stepper import run_path


# ---------------------------------------------------------------------------
# the monotonicity constant


def cp_grid_oracle(p, span=10.0, n=801, zooms=4):
    """Independent brute-force oracle: dense scalar grid search with zoom.

    Scans all pairs (a, b) on a grid, then refines around the minimizer.
    """
    lo_a, hi_a, lo_b, hi_b = -span, span, -span, span
    best = np.inf
    argmin = (0.0, 0.0)
    for _ in range(zooms):
        a = np.linspace(lo_a, hi_a, n)
        b = np.linspace(lo_b, hi_b, n)
        A, B = np.meshgrid(a, b, indexing="ij")
        D = A - B
        mask = np.abs(D) > 1e-9 * (np.abs(A) + np.abs(B) + 1)
        num = (np.abs(A) ** (p - 2) * A - np.abs(B) ** (p - 2) * B) * D
        ratio = np.where(mask, num / np.abs(np.where(mask, D, 1.0)) ** p, np.inf)
        idx = np.unravel_index(np.argmin(ratio), ratio.shape)
        if ratio[idx] < best:
            best = float(ratio[idx])
            argmin = (A[idx], B[idx])
        da, db = (hi_a - lo_a) / (n - 1), (hi_b - lo_b) / (n - 1)
        lo_a, hi_a = argmin[0] - 2 * da, argmin[0] + 2 * da
        lo_b, hi_b = argmin[1] - 2 * db, argmin[1] + 2 * db
    return best


def test_cp_oracle_confirms_formula():
    # dense grid search lands on 2^(2-p); confirms the constant before the
    # sampled estimator is trusted with it (p = 3 included on purpose)
    for p in (2.0, 3.0, 4.0):
        oracle = cp_grid_oracle(p)
        assert oracle == pytest.approx(2.0 ** (2.0 - p), rel=1e-6)


def test_p4_closed_form_reduction():
    # for p = 4 and the pair (1, t) the ratio is (1 + t + t^2)/(1 - t)^2,
    # minimized at the antipode t = -1 with value 1/4
    t = np.linspace(-0.999999, 0.999, 100001)
    vals = (1 + t + t**2) / (1 - t) ** 2
    assert vals.min() == pytest.approx(0.25, rel=1e-5)
    assert abs(t[np.argmin(vals)] + 1.0) < 1e-3


def test_estimate_cp_values():
    assert estimate_cp(2.0, 1, 100_000) == pytest.approx(1.0, abs=1e-12)
    for p in (2.5, 3.0, 4.0, 6.0):
        est = estimate_cp(p, 1, 100_000)
        ref = 2.0 ** (2.0 - p)
        assert est >= ref * (1 - 1e-9)
        assert est <= ref * (1 + 1e-9)  # the infimum really is attained


def test_estimate_cp_higher_dimensions():
    for d in (2, 3):
        for p in (2.0, 3.0, 4.0):
            est = estimate_cp(p, d, 50_000, seed=1)
            assert est >= 2.0 ** (2.0 - p) * (1 - 1e-9)


def estimate_cp_in_one_block(p, d, samples, seed):
    """estimate_cp's draws, reduced in one block: the formula before blocking."""
    rng = np.random.default_rng(seed)
    n_uni = max(samples // 3, 1)
    n_gau = max(samples // 3, 1)
    n_adv = max(samples - n_uni - n_gau, 2)
    a_uni = rng.uniform(-3.0, 3.0, (n_uni, d))
    b_uni = rng.uniform(-3.0, 3.0, (n_uni, d))
    a_gau = rng.standard_normal((n_gau, d))
    b_gau = rng.standard_normal((n_gau, d))
    a_adv = rng.uniform(-2.0, 2.0, (n_adv, d))
    wiggle = rng.uniform(-1e-3, 1e-3, (n_adv, 1))
    wiggle[: n_adv // 2] = 0.0
    b_adv = -a_adv * (1.0 + wiggle)
    a = np.concatenate([a_uni, a_gau, a_adv])
    b = np.concatenate([b_uni, b_gau, b_adv])
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    diff = a - b
    ndiff = np.linalg.norm(diff, axis=1)
    keep = ndiff > 1e-12 * (na + nb + 1.0)
    m = na[keep, None] ** (p - 2.0) * a[keep] - nb[keep, None] ** (p - 2.0) * b[keep]
    num = np.sum(m * diff[keep], axis=1)
    den = ndiff[keep] ** p
    return float(np.min(num / den))


@pytest.mark.parametrize("samples", [5, 3 * harness._CP_BLOCK, 3 * harness._CP_BLOCK + 3,
                                     200_000])
def test_estimate_cp_blocks_give_the_one_block_float(samples):
    # one block per draw kind, a full one, one more pair, or several blocks:
    # the same float as one reduction over all pairs
    for p, d in ((2.0, 1), (3.0, 1), (4.0, 2), (7.3, 3)):
        assert estimate_cp(p, d, samples, seed=3) == estimate_cp_in_one_block(p, d, samples, 3)


def test_estimate_cp_memory_is_its_draws_and_one_block():
    # the 200k-sample estimate of verify: its draws and one block's
    # temporaries peak near 5 MiB; a reduction over all pairs at once took 19
    estimate_cp(3.0, 1, 1000, 0)
    tracemalloc.start()
    try:
        estimate_cp(3.0, 1, 200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak / 2**20


def test_estimate_cp_validation():
    with pytest.raises(ValueError):
        estimate_cp(1.5, 1, 100)
    with pytest.raises(ValueError):
        estimate_cp(2.0, 4, 100)
    for p in (float("nan"), float("inf")):  # NaN slips past a plain `p < 2`
        with pytest.raises(ValueError, match="finite"):
            estimate_cp(p, 1, 100)


def test_estimate_cp_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        estimate_cp(3.0, 1, 100, seed=-1)


def test_verify_all_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        verify_all(seed=-1, cp_samples=1000, stat_draws=10_000)


def test_every_path_driver_takes_the_problem_first():
    # one problem description: (ctx, noise_model, initial, source) leads
    # every path driver, as RunConfig.problem() returns it
    for driver in (run_path, run_mc, run_pathwise_refinement, run_eps_study, verify_all):
        leading = list(inspect.signature(driver).parameters)[:4]
        assert leading == ["ctx", "noise_model", "initial", "source"], driver.__name__


# ---------------------------------------------------------------------------
# refinement tables


def test_refinement_table_ratios_and_csv():
    tab = RefinementTable("tau", [0.1, 0.05], [0.2, 0.1], {"note": "x"})
    assert tab.ratios()[1] == pytest.approx(2.0)
    assert tab.orders()[1] == pytest.approx(1.0)
    buf = io.StringIO()
    tab.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "# note: x"
    assert lines[1] == "tau,error,ratio"
    assert lines[2] == "0.1,0.2,"
    assert lines[3] == "0.05,0.1,2.0"
    with pytest.raises(ValueError):
        RefinementTable("tau", [0.1, 0.2, 0.15], [1, 2, 3])


def test_manufactured_source_consistency():
    # the chosen source really makes the reference state an exact solution:
    # d/dt u = -(-u_xx + u) - psi(u) + beta(u) + f with psi inactive
    ctx, initial, source = manufactured_problem(64, 10)
    x = ctx.grid.cell_centers()
    for t in (0.0, 0.17, 0.5):
        u = manufactured_state(t, x)
        dudt = -0.25 * np.exp(-t) * np.cos(np.pi * x)
        uxx = -0.25 * np.pi**2 * np.exp(-t) * np.cos(np.pi * x)
        f = source.evaluate(t, x)
        pde_resid = dudt - uxx + u - 0.5 * u - f
        assert np.abs(pde_resid).max() <= 1e-12


def test_coupled_convergence_first_order():
    tab = run_deterministic_convergence("coupled", levels=3)
    assert all(e > 0 for e in tab.errors)
    assert all(b < a for a, b in zip(tab.errors, tab.errors[1:]))
    orders = tab.orders()
    assert orders[-1] >= 0.9
    assert orders[-1] <= 1.5


def test_spatial_convergence_second_order():
    tab = run_deterministic_convergence("spatial", levels=3, n0=8, M0=32, T=1.0)
    assert all(b < a for a, b in zip(tab.errors, tab.errors[1:]))
    assert tab.orders()[-1] >= 1.9


def test_time_independent_reference_spatial_mode():
    # in spatial mode the reference is the frozen t = 0 profile
    tab = run_deterministic_convergence("spatial", levels=2, n0=16, M0=16, T=0.5)
    assert tab.parameter == "h"
    assert tab.values[0] == pytest.approx(1.0 / 16)


# ---------------------------------------------------------------------------
# eps study


def eps_study_setup(sigma):
    grid = Grid1D(32, 1.0)
    params = ModelParams(p=2.0, eps=0.1, T=0.3, M=30, L_beta=0.0)
    noise = NoiseModel(J=8, sigma=sigma)
    return grid, params, noise


def test_eps_study_zero_violation_without_forcing():
    grid, params, noise = eps_study_setup(0.0)
    tab = run_eps_study(
        OperatorContext(params, ReactionSpec("zero"), grid),
        noise,
        make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25}),
        SourceSpec("zero"),
        [0.1, 0.05, 0.025],
        n_paths=1,
    )
    assert all(v <= 1e-10 for v in tab.errors)


def test_eps_study_violation_decreases_under_forcing():
    grid, params, noise = eps_study_setup(0.3)
    tab = run_eps_study(
        OperatorContext(params, ReactionSpec("zero"), grid),
        noise,
        make_initial(grid, "constant", {"value": 0.5}),
        SourceSpec("constant", {"value": 5.0}),
        [0.1, 0.05, 0.025],
        n_paths=6,
        base_seed=11,
    )
    assert all(v > 0 for v in tab.errors)
    hw = tab.metadata["halfwidths"]
    inversions = sum(
        1
        for i in range(1, len(tab.errors))
        if tab.errors[i] > tab.errors[i - 1] + np.hypot(hw[i], hw[i - 1])
    )
    assert inversions == 0


def test_eps_study_validation():
    grid, params, noise = eps_study_setup(0.0)
    with pytest.raises(ValueError):
        run_eps_study(OperatorContext(params, ReactionSpec("zero"), grid), noise,
                      make_initial(grid, "constant", {"value": 0.5}),
                      SourceSpec("zero"), [0.1])
    with pytest.raises(ValueError, match="n_paths must be >= 1, got 0"):
        run_eps_study(OperatorContext(params, ReactionSpec("zero"), grid), noise,
                      make_initial(grid, "constant", {"value": 0.5}),
                      SourceSpec("zero"), [0.1, 0.05], n_paths=0)


@pytest.mark.parametrize("eps_list, message", [
    ([0.1, 0.2, 0.05], "eps levels must be strictly monotone"),
    ([0.1, 0.1], "eps levels must be strictly monotone"),
    ([0.05, 0.1, 0.1], "eps levels must be strictly monotone"),
    ([0.1, float("nan")], "need at least two positive finite eps levels"),
    ([0.1, float("inf")], "need at least two positive finite eps levels"),
])
def test_eps_study_rejects_bad_levels_before_the_first(monkeypatch, eps_list, message):
    # a level list that is not strictly monotone, repeats included, or that
    # holds a level that is not a finite positive number, is refused before
    # any path runs, not after one or every level has run
    grid, params, noise = eps_study_setup(0.0)
    calls, stacks = spy_time_loop(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_eps_study(OperatorContext(params, ReactionSpec("zero"), grid), noise,
                      make_initial(grid, "constant", {"value": 0.5}), SourceSpec("zero"),
                      eps_list, n_paths=2)
    assert calls == stacks == []


# ---------------------------------------------------------------------------
# Monte Carlo


def mc_setup():
    grid = Grid1D(24, 1.0)
    params = ModelParams(p=2.0, eps=0.1, T=0.2, M=10, L_beta=0.5)
    ctx = OperatorContext(params, ReactionSpec("sine", 0.5), grid)
    noise = NoiseModel(J=6, sigma=0.5)
    initial = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
    return ctx, noise, initial


def test_mc_names_a_negative_base_seed():
    ctx, noise, initial = mc_setup()
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        run_mc(ctx, noise, initial, SourceSpec("zero"), n_paths=2, base_seed=-1)


def test_mc_sigma_zero_has_zero_variance():
    # paths are bit-identical; the variance estimator only leaves the
    # rounding residue of averaging identical doubles
    ctx, _, initial = mc_setup()
    quiet = NoiseModel(J=6, sigma=0.0)
    out = run_mc(ctx, quiet, initial, SourceSpec("zero"), n_paths=5)
    assert np.all(out.var_l2 <= 1e-30)
    assert np.all(out.hw_l2 <= 1e-15)
    assert np.all(out.var_violation <= 1e-30)


def test_mc_block_consistency():
    # disjoint seed blocks agree within three combined half-widths
    ctx, noise, initial = mc_setup()
    a = run_mc(ctx, noise, initial, SourceSpec("zero"), n_paths=200, base_seed=0)
    b = run_mc(ctx, noise, initial, SourceSpec("zero"), n_paths=200, base_seed=200)
    gap = abs(a.mean_l2[-1] - b.mean_l2[-1])
    assert gap <= 3.0 * np.hypot(a.hw_l2[-1], b.hw_l2[-1])


def test_mc_halfwidth_clt_scaling():
    ctx, noise, initial = mc_setup()
    small = run_mc(ctx, noise, initial, SourceSpec("zero"), n_paths=100, base_seed=0)
    large = run_mc(ctx, noise, initial, SourceSpec("zero"), n_paths=200, base_seed=0)
    ratio = large.hw_l2[-1] / small.hw_l2[-1]
    assert 0.6 <= ratio <= 0.8


def stiff_mc_setup(amp=50.0):
    # eps = 1e-5 and a strong source make the line search backtrack and give
    # the paths different Newton iteration counts (12 to 15 at the first
    # step for amp 50), so a batch must keep rows apart
    grid = Grid1D(24, 1.0)
    params = ModelParams(p=2.0, eps=1e-5, T=0.2, M=10, L_beta=0.5)
    ctx = OperatorContext(params, ReactionSpec("sine", 0.5), grid)
    noise = NoiseModel(J=6, sigma=0.5)
    initial = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
    source = SourceSpec(
        "cosine", {"offset": 0.0, "amp": amp, "decay": 0.0, "length": 1.0}
    )
    return ctx, noise, initial, source


def mc_setups():
    ctx, noise, initial = mc_setup()
    return {"smooth": (ctx, noise, initial, SourceSpec("zero")), "stiff": stiff_mc_setup()}


def test_mc_memory_grows_only_with_its_path_tables():
    # run_mc keeps no per-step solve record: from M = 20 to M = 160, its
    # tracemalloc peak grows by about three (P, M) tables of doubles (the
    # noise coefficients, the norms and the violations), not by a record per
    # Newton iteration, which made it about 32 tables, nor by a second copy
    # of the norms and violations, which made it five
    P, Ms, peaks = 32, (20, 160), []
    grid = Grid1D(8, 1.0)
    noise = NoiseModel(J=6, sigma=0.5)
    initial = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
    for M in Ms:
        params = ModelParams(p=2.0, eps=0.1, T=0.02 * M, M=M, L_beta=0.5)
        ctx = OperatorContext(params, ReactionSpec("sine", 0.5), grid)
        run_mc(ctx, noise, initial, SourceSpec("zero"), n_paths=2)  # warm caches
        tracemalloc.start()
        try:
            run_mc(ctx, noise, initial, SourceSpec("zero"), n_paths=P)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    tables = (peaks[1] - peaks[0]) / (8 * P * (Ms[1] - Ms[0]))
    assert tables < 4, tables


def set_chunk(monkeypatch, ctx, paths_per_chunk):
    monkeypatch.setattr(stepper, "_BATCH_CELLS", paths_per_chunk * ctx.grid.n_cells)


def spy_time_loop(monkeypatch):
    """Record the (l2, violations) of every run_rows call and the rows of
    every solve_rows stack, each in order."""
    calls, stacks = [], []
    run_rows, solve_rows = stepper.run_rows, stepper.solve_rows
    monkeypatch.setattr(stepper, "run_rows",
                        lambda *a, **k: calls.append(run_rows(*a, **k)) or calls[-1])
    monkeypatch.setattr(stepper, "solve_rows",
                        lambda ctx, rhs, *a: stacks.append(len(rhs)) or solve_rows(ctx, rhs, *a))
    return calls, stacks


def chunk_stacks(n_rows, size, M):
    """The solve_rows stack sizes of M steps of n_rows rows in chunks of size."""
    return [min(size, n_rows - s) for s in range(0, n_rows, size) for _ in range(M)]


@pytest.mark.parametrize("name", ["smooth", "stiff"])
def test_mc_chunk_invariance_and_path_identity(monkeypatch, name):
    # determinism gate: the summary bytes must not depend on how the paths
    # are chunked, and every batched path must equal its own run_path, bit
    # for bit
    ctx, noise, initial, source = mc_setups()[name]
    n_paths, base_seed = 12, 3
    calls, stacks = spy_time_loop(monkeypatch)
    refs = [
        run_path(ctx, noise, initial, source, seed=base_seed + k, mode="thin")
        for k in range(n_paths)
    ]
    first_step_iterations = {ref.reports[0].iterations for ref in refs}
    assert (len(first_step_iterations) > 1) == (name == "stiff")
    outputs = []
    for size in (1, 7, n_paths):
        set_chunk(monkeypatch, ctx, size)
        del calls[:], stacks[:]
        out = run_mc(ctx, noise, initial, source, n_paths=n_paths, base_seed=base_seed)
        assert stacks == chunk_stacks(n_paths, size, ctx.params.M)
        buf = io.StringIO()
        out.to_csv(buf)
        outputs.append((json.dumps(out.to_dict()), buf.getvalue()))
        ((l2, viol),) = calls
        for k, ref in enumerate(refs):
            assert np.array_equal(l2[k], ref.l2_norms), (size, k)
            assert np.array_equal(viol[k], ref.violations), (size, k)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize(
    "amp, max_newton, base_seed, expected",
    [
        # every path fails at the first step: the first path is named
        (50.0, 1, 5, "path 0 (seed 5) failed at step 0: no convergence after 1"),
        # path 2 fails at step 0, path 1 later at step 1: a batch must run
        # on past the first failure to name the smallest failed index
        (20.0, 6, 0, "path 1 (seed 1) failed at step 1: no convergence after 6"),
    ],
)
def test_mc_nonconvergence_names_path_independent_of_chunks(
    monkeypatch, amp, max_newton, base_seed, expected
):
    ctx, noise, initial, source = stiff_mc_setup(amp)
    cfg = SolverConfig(max_newton=max_newton)
    n_paths = 12
    messages = []
    for size in (1, 7, n_paths):
        set_chunk(monkeypatch, ctx, size)
        with pytest.raises(NonConvergence) as info:
            run_mc(ctx, noise, initial, source, n_paths=n_paths,
                   base_seed=base_seed, solver_cfg=cfg)
        messages.append(str(info.value))
    assert messages[0].startswith(expected), messages[0]
    assert "residuals [" in messages[0]
    assert messages[1] == messages[0]
    assert messages[2] == messages[0]


STIFF_EPS = [1e-2, 1e-3, 1e-4, 1e-5]


def test_eps_study_chunk_invariance_and_path_identity(monkeypatch):
    # determinism gate of the batched eps study: the table bytes must not
    # depend on the chunking, and every path's peak violation must equal
    # that of its own run_path at the same eps, bit for bit.  One usable
    # core: the spies count the calls of this process, and no level forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ctx, noise, initial, source = stiff_mc_setup()
    n_paths, base_seed = 7, 5
    calls, stacks = spy_time_loop(monkeypatch)
    refs = []
    for eps in STIFF_EPS:
        level = OperatorContext(replace(ctx.params, eps=eps), ctx.reaction, ctx.grid)
        refs.append([
            run_path(level, noise, initial, source, seed=base_seed + k, mode="thin")
            for k in range(n_paths)
        ])
    first_step_iterations = {ref.reports[0].iterations for ref in refs[-1]}
    assert len(first_step_iterations) > 1
    ref_peaks = np.array([[ref.violations.max() for ref in level] for level in refs])
    # each seed's increments are drawn once per study, not once per level
    drawn = []
    sample_path = NoiseModel.sample_path
    monkeypatch.setattr(NoiseModel, "sample_path",
                        lambda self, M, tau, seed: drawn.append(seed)
                        or sample_path(self, M, tau, seed))
    outputs = []
    for size in (1, 3, n_paths):
        set_chunk(monkeypatch, ctx, size)
        del calls[:], stacks[:], drawn[:]
        tab = run_eps_study(ctx, noise, initial, source, STIFF_EPS,
                            n_paths=n_paths, base_seed=base_seed)
        assert drawn == list(range(base_seed, base_seed + n_paths))
        assert stacks == chunk_stacks(n_paths, size, ctx.params.M) * len(STIFF_EPS)
        peaks = np.concatenate([c[1] for c in calls]).max(axis=1)
        assert np.array_equal(peaks.reshape(ref_peaks.shape), ref_peaks), size
        buf = io.StringIO()
        tab.to_csv(buf)
        outputs.append((buf.getvalue(), json.dumps(tab.metadata["halfwidths"])))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.skipif(operators._BUNDLED_DPTSV is None, reason="numpy ships no OpenBLAS")
def test_mc_and_eps_study_bytes_equal_on_both_lapack_paths(monkeypatch):
    # numpy's bundled dptsv and scipy's give the same Monte Carlo and eps
    # study files, byte for byte
    ctx, noise, initial, source = stiff_mc_setup()
    outputs = []
    for path in ("bundled", "scipy"):
        if path == "scipy":
            monkeypatch.setattr(operators, "_BUNDLED_DPTSV", None)
        mc = run_mc(ctx, noise, initial, source, n_paths=6, base_seed=2)
        tab = run_eps_study(ctx, noise, initial, source, STIFF_EPS,
                            n_paths=4, base_seed=2)
        files = []
        for out in (mc, tab):
            buf = io.StringIO()
            out.to_csv(buf)
            files.append(buf.getvalue())
        outputs.append((files, json.dumps(mc.to_dict()), json.dumps(tab.metadata)))
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize(
    "max_newton, expected",
    [
        # every path fails at the first step of the first level
        (1, "eps 0.01: path 0 (seed 5) failed at step 0: no convergence after 1"),
        # eps 1e-2 passes; at 1e-3 paths 1, 2 and 6 need a fifth iteration
        (4, "eps 0.001: path 1 (seed 6) failed at step 0: no convergence after 4"),
    ],
)
def test_eps_study_nonconvergence_names_level_and_path(monkeypatch, max_newton, expected):
    ctx, noise, initial, source = stiff_mc_setup()
    n_paths = 7
    messages = []
    for size in (1, 3, n_paths):
        set_chunk(monkeypatch, ctx, size)
        with pytest.raises(NonConvergence) as info:
            run_eps_study(ctx, noise, initial, source, STIFF_EPS,
                          n_paths=n_paths, base_seed=5,
                          solver_cfg=SolverConfig(max_newton=max_newton))
        messages.append(str(info.value))
    assert messages[0].startswith(expected), messages[0]
    assert "residuals [" in messages[0]
    assert messages[1] == messages[0]
    assert messages[2] == messages[0]


STUDY_EPS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def eps_study_outcome(monkeypatch, cores, max_newton=50):
    """The CSV and halfwidths of the eps study of the stiff data on ``cores``
    usable cores, or the message of its NonConvergence."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    try:
        tab = run_eps_study(*stiff_mc_setup(), STUDY_EPS, n_paths=7, base_seed=5,
                            solver_cfg=SolverConfig(max_newton=max_newton))
    except NonConvergence as exc:
        return str(exc)
    buf = io.StringIO()
    tab.to_csv(buf)
    return buf.getvalue() + json.dumps(tab.metadata["halfwidths"])


@pytest.mark.parametrize("cores", [2, 3, 5])
@pytest.mark.parametrize("max_newton, first_failed", [
    (50, None),
    # levels 1e-2 to 1e-4 pass: only the groups of children fail
    (7, "eps 1e-05: path 0 (seed 5) failed at step 0: no convergence after 7"),
    # every level from 1e-3 fails: this process's group fails on 2 and 3 cores
    (4, "eps 0.001: path 1 (seed 6) failed at step 0: no convergence after 4"),
], ids=["passing", "children-fail", "all-groups-fail"])
def test_eps_study_bytes_do_not_depend_on_the_cores(monkeypatch, capfd, children, cores,
                                                    max_newton, first_failed):
    # the levels run in groups, this process's first and a forked child's
    # each other; the table, the message and stderr are those of one core
    serial = eps_study_outcome(monkeypatch, 1, max_newton)
    assert children == []
    calls, _ = spy_time_loop(monkeypatch)
    assert eps_study_outcome(monkeypatch, cores, max_newton) == serial
    if first_failed is None:  # this process ran the first ceil(L / cores) levels
        assert len(calls) == -(-len(STUDY_EPS) // cores)
    assert serial.startswith(first_failed) if first_failed else "eps,error,ratio" in serial
    assert len(children) == cores - 1
    assert all(child.code is not None for child in children)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("missing", ["process", "fork"])
def test_eps_study_without_a_fork_runs_every_level_here(monkeypatch, children, missing):
    # a fork that fails, or a platform without os.fork: the same bytes, and
    # every level runs in this process
    serial = eps_study_outcome(monkeypatch, 1)

    def no_process():
        raise OSError("no process")

    if missing == "process":
        monkeypatch.setattr(os, "fork", no_process)
    else:
        monkeypatch.delattr(os, "fork")
    calls, _ = spy_time_loop(monkeypatch)
    assert eps_study_outcome(monkeypatch, 5) == serial
    assert len(calls) == len(STUDY_EPS)
    assert children == []


@pytest.mark.parametrize("error", [KeyboardInterrupt, NonConvergence])
def test_eps_study_that_stops_here_kills_its_children(monkeypatch, children, error):
    # this process's group is interrupted, or fails, while the children's
    # groups run: each child is killed and reaped before the call returns
    parent = os.getpid()

    def stopped(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)
        raise error("stopped here")

    monkeypatch.setattr(stepper, "run_rows", stopped)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    with pytest.raises(error, match="stopped here"):
        run_eps_study(*stiff_mc_setup(), STUDY_EPS, n_paths=7)
    assert [child.code for child in children] == [-signal.SIGKILL] * 2


def test_mc_csv_round_trip():
    ctx, noise, initial = mc_setup()
    out = run_mc(ctx, noise, initial, SourceSpec("zero"), n_paths=4)
    buf = io.StringIO()
    out.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "# n_paths: 4"
    assert lines[2].startswith("t,mean_l2")
    assert len(lines) == 3 + 11
    with pytest.raises(ValueError):
        McSummary(1, 0, *(np.zeros(2),) * 7)


# ---------------------------------------------------------------------------
# pathwise refinement under common random numbers


def test_pathwise_refinement_uses_common_path():
    ctx, noise, initial = mc_setup()
    tab = run_pathwise_refinement(ctx, noise, initial, SourceSpec("zero"),
                                  levels=3, seed=9)
    assert len(tab.errors) == 2
    assert all(np.isfinite(e) and e >= 0 for e in tab.errors)
    # under one shared path the coarse-to-fine distances shrink with tau;
    # recorded as data, not asserted as a rate
    assert tab.errors[1] < tab.errors[0]


@pytest.mark.parametrize("levels", [2, 3])
@pytest.mark.parametrize("seed", [4, 11])
def test_pathwise_refinement_is_run_rows_on_summed_fine_increments(levels, seed):
    # each level is one row of run_rows on the fine path's increments summed
    # over its steps in time order (pairs at the next level, fours below),
    # and the table is the final-time distances, bit for bit
    ctx, noise, initial = mc_setup()
    source = SourceSpec("cosine", {"offset": 0.1, "amp": 0.5, "decay": 1.0, "length": 1.0})
    tab = run_pathwise_refinement(ctx, noise, initial, source, levels=levels, seed=seed)
    pr, h = ctx.params, ctx.grid.h
    M_fine = pr.M * 2 ** (levels - 1)
    fine = noise.sample_path(M_fine, pr.T / M_fine, seed).values
    finals, taus = [], []
    for level in range(levels):
        factor = 2 ** (levels - 1 - level)
        level_ctx = OperatorContext(replace(pr, M=M_fine // factor), ctx.reaction, ctx.grid)
        M, tau = level_ctx.params.M, level_ctx.params.tau
        summed = sum(fine[k::factor] for k in range(factor))
        states = []
        stepper.run_rows(level_ctx, initial.u0.values, noise.coefs(summed[None]),
                         source.step_table(M, ctx.grid, tau), SolverConfig(), str,
                         on_step=lambda rows, n, pt, solved: states.append(pt.u[0].copy()))
        assert len(states) == M + 1
        finals.append(states[-1])
        taus.append(tau)
    assert tab.values == taus[:-1]
    assert tab.errors == [float(norm_l2_array(u - finals[-1], h)) for u in finals[:-1]]
    assert tab.metadata["fine_steps"] == M_fine and tab.metadata["seed"] == seed


def test_pathwise_refinement_couples_levels():
    # with common random numbers the distances are far below independent-path
    # distances at the same tau
    ctx, noise, initial = mc_setup()
    tab = run_pathwise_refinement(ctx, noise, initial, SourceSpec("zero"),
                                  levels=2, seed=9)
    coupled_gap = tab.errors[0]
    a = run_path(ctx, noise, initial, SourceSpec("zero"), seed=1)
    b = run_path(ctx, noise, initial, SourceSpec("zero"), seed=2)
    independent_gap = norm_l2(
        ctx.grid.function(a.final_state.values - b.final_state.values)
    )
    assert coupled_gap < 0.5 * independent_gap


# ---------------------------------------------------------------------------
# verification report


def test_verify_all_default_passes():
    report = verify_all(cp_samples=50_000, stat_draws=200_000)
    failed = [p["property"] for p in report.properties if not p["passed"]]
    assert report.passed, failed


def test_verify_all_covers_checklist():
    report = verify_all(cp_samples=10_000, stat_draws=50_000)
    for module, invariants in CHECKLIST.items():
        for inv in invariants:
            assert report.coverage[module][inv], f"{module}.{inv} uncovered"


def test_verify_all_coverage_guard_catches_drift(monkeypatch):
    # an invariant declared in the table that no check records fails
    # coverage_complete; every record's module and coverage follow its row
    rows = dict(harness._PROPERTIES)
    monkeypatch.setitem(harness._PROPERTIES, "ghost", ("mesh", "ghost_invariant", "le"))
    report = verify_all(cp_samples=10_000, stat_draws=50_000)
    by_name = {r["property"]: r for r in report.properties}
    assert list(by_name) == list(rows)
    assert by_name["coverage_complete"]["measured"] == 1.0
    assert not by_name["coverage_complete"]["passed"] and not report.passed
    assert [r["module"] for r in report.properties] == [m for m, _, _ in rows.values()]
    expected = {}
    for name, (module, invariant, _) in rows.items():
        if invariant is not None:
            expected.setdefault(module, {})[invariant] = [name]
    assert report.coverage == expected


def test_verify_all_fault_injection():
    # corrupting the monotonicity constant must break exactly that check
    report = verify_all(
        ctx=OperatorContext(ModelParams(p=4.0, eps=0.1, T=0.5, M=50, L_beta=0.5),
                            ReactionSpec("sine", 0.5), Grid1D(32, 1.0)),
        cp_factor=1.5,
        cp_samples=10_000,
        stat_draws=50_000,
    )
    assert not report.passed
    by_name = {p["property"]: p["passed"] for p in report.properties}
    assert by_name["operator_strong_monotonicity"] is False
    assert by_name["operator_coercivity"] is True


def test_verify_all_rejects_non_finite_cp_factor():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="cp_factor must be finite"):
            verify_all(cp_factor=value, cp_samples=1000, stat_draws=10_000)


def nan_in_row(function, row):
    """``function`` with entry ``row`` of each stacked (2-D input) result set to NaN."""
    def patched(values, *args, **kwargs):
        out = function(values, *args, **kwargs)
        if np.ndim(values) == 2:
            out = np.array(out, dtype=float)
            out[row] = np.nan
        return out
    return patched


@pytest.mark.parametrize("module, failing", [
    # the homogeneity cases and the operator gaps reduce stacked norms
    (harness, {"mesh_norm_homogeneity", "operator_coercivity",
               "operator_strong_monotonicity"}),
    # the stability and a priori slacks of the solver
    (solver, {"solver_stability_w1p", "solver_apriori_bound"}),
])
def test_verify_all_nan_measurement_fails_its_check(monkeypatch, module, failing):
    # a NaN in one row (not the first) reaches the measured value and fails
    # the check; Python's min and max would drop it
    monkeypatch.setattr(module, "norm_w1p_array", nan_in_row(module.norm_w1p_array, 2))
    report = verify_all(cp_samples=1000, stat_draws=10_000)
    failed = {r["property"]: r["measured"] for r in report.properties if not r["passed"]}
    assert set(failed) == failing
    assert all(np.isnan(m) for m in failed.values())


def test_verify_all_nan_energy_fails_energy_check(monkeypatch):
    # a NaN energy at a later Newton iteration of one uniqueness row: the
    # last row still running at iteration 1
    original = harness.solve_rows

    def nan_energy(ctx, rhs, guess, cfg):
        u, reports = original(ctx, rhs, guess, cfg)
        if len(rhs) == 40:
            last = [rep for rep in reports if rep.iterations >= 1][-1]
            last.energy_history[1] = float("nan")
        return u, reports

    monkeypatch.setattr(harness, "solve_rows", nan_energy)
    report = verify_all(cp_samples=1000, stat_draws=10_000)
    failed = {r["property"]: r["measured"] for r in report.properties if not r["passed"]}
    assert list(failed) == ["solver_energy_nonincreasing"]
    assert np.isnan(failed["solver_energy_nonincreasing"])


def test_verify_all_json_deterministic():
    a = verify_all(cp_samples=10_000, stat_draws=50_000)
    b = verify_all(cp_samples=10_000, stat_draws=50_000)
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert set(payload) == {"passed", "seed", "properties", "coverage"}
    rec = payload["properties"][0]
    assert {"property", "module", "passed", "measured", "bound", "slack"} <= set(rec)


@pytest.mark.parametrize("J, stat_draws, seed", [
    (12, 1_000_000, 0), (12, 1_000_000, 5), (1, 1, 2), (16, 800, 9), (7, 7000, 123),
])
def test_verify_all_increment_statistics_are_those_of_ndarray(J, stat_draws, seed):
    # the mean and the variance are taken in the draws' own buffer, and give
    # the floats of ndarray.mean() and var() on sqrt(tau) * standard normals,
    # so the report keeps its bytes; (12, 10^6) is the default draw
    report = verify_all(noise_model=NoiseModel(J=J, sigma=0.5), seed=seed, cp_samples=1000,
                        stat_draws=stat_draws)
    tau = 0.5 / 50  # the default ctx's T / M
    draws = np.sqrt(tau) * np.random.default_rng(seed + 4).standard_normal(
        (max(stat_draws // J, 1), J))
    measured = {rec["property"]: rec["measured"] for rec in report.properties}
    assert measured["noise_increment_mean"] == abs(float(draws.mean()))
    assert measured["noise_increment_variance"] == abs(float(draws.var()) / tau - 1.0)


def test_verify_all_memory_is_one_draw():
    # the default 10^6 increments are held once: the scaled draws, a copy
    # wrapped in PathIncrements and var()'s draws - mean each held them, for
    # a peak of 16.2 MiB
    verify_all(cp_samples=1000, stat_draws=1000)  # warm caches
    tracemalloc.start()
    try:
        verify_all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_draw = 8 * 12 * (1_000_000 // 12)
    assert peak <= min(1.2 * one_draw, 9 * 2**20), peak / 2**20


def count_solve_rows(monkeypatch):
    """Record the row count of every solve_rows call, from solve or direct."""
    calls = []
    original = solver.solve_rows

    def spy(ctx, rhs, guess, cfg):
        calls.append(len(rhs))
        return original(ctx, rhs, guess, cfg)

    for module in (solver, harness, stepper):
        monkeypatch.setattr(module, "solve_rows", spy)
    return calls


def test_verify_all_stacks_its_solves(monkeypatch):
    # one solve_rows call per stepper step, one for the 40 uniqueness
    # problems and two determinism solves; one-row solves would be 242 calls
    calls = count_solve_rows(monkeypatch)
    report = verify_all(cp_samples=10_000, stat_draws=50_000)
    assert report.passed
    M = 50  # the default params
    assert len(calls) <= M + 3, len(calls)
    assert sorted(calls) == [1, 1] + [4] * M + [40]


def test_verify_all_stepper_rows_match_solo_runs(monkeypatch):
    # the batched stepper run of verify_all hands its hook every state of
    # its four rows: the noisy and the two noise-off rows equal their
    # run_path, and the cold-start row the chain of solves from a zero
    # guess, bit for bit
    kept = []
    original = stepper.run_rows

    def spy(ctx, u0, coef, *args, on_step, **kwargs):
        states = np.empty((len(coef), coef.shape[1] + 1, u0.size))

        def fold(rows, n, pt, solved):
            states[rows, n] = pt.u
            on_step(rows, n, pt, solved)

        out = original(ctx, u0, coef, *args, on_step=fold, **kwargs)
        kept.append(states)
        return out

    monkeypatch.setattr(stepper, "run_rows", spy)
    verify_all(cp_samples=10_000, stat_draws=50_000)
    (states,) = kept
    grid = Grid1D(32, 1.0)
    params = ModelParams(p=3.0, eps=0.1, T=0.5, M=50, L_beta=0.5)
    ctx = OperatorContext(params, ReactionSpec("sine", 0.5), grid)
    noise = NoiseModel(J=12, sigma=0.5)
    quiet = NoiseModel(J=12, sigma=0.0)
    source = SourceSpec("constant", {"value": 0.5})
    initial = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
    for row, (model, seed) in enumerate([(noise, 0), (quiet, 1), (quiet, 2)]):
        ref = run_path(ctx, model, initial, source, seed=seed)
        assert np.array_equal(states[row], ref.states), row
    increments = noise.sample_path(params.M, params.tau, 0).values
    cold = initial.u0
    assert np.array_equal(states[3, 0], cold.values)
    for n in range(params.M):
        forcing = noise.apply_diffusion(cold, increments[n])
        f_n = source.step_average(n, grid, params.tau)
        rhs = grid.function(cold.values + forcing.values + params.tau * f_n.values)
        cold, _ = solve(ctx, rhs, guess=grid.zeros())
        assert np.array_equal(states[3, n + 1], cold.values), n


STIFF_VERIFY = {
    "ctx": OperatorContext(ModelParams(p=2.0, eps=1e-5, T=0.5, M=20, L_beta=0.5),
                           ReactionSpec("sine", 0.5), Grid1D(32, 1.0)),
    "source": SourceSpec("constant", {"value": 2.0}),
}


@pytest.mark.parametrize(
    "data, max_newton, expected",
    [
        # every problem fails; the first in check order is named
        ({}, 1, "solver_uniqueness: rhs 0 (zero guess): no convergence after 1 Newton"),
        ({}, 3, "solver_uniqueness: rhs 0 (zero guess): no convergence after 3 Newton"),
        # every zero-guess solve passes; rhs 0 needs 14 steps from its guess
        ({}, 10, "solver_uniqueness: rhs 0 (random guess): no convergence after 10 "),
        # the uniqueness stack passes; the noisy run stalls at step 12
        (STIFF_VERIFY, 6,
         "stepper noisy run (seed 0) failed at step 12: no convergence after 6 Newton"),
    ],
)
def test_verify_all_nonconvergence_names_check_and_row(data, max_newton, expected):
    with pytest.raises(NonConvergence) as info:
        verify_all(**data, solver_cfg=SolverConfig(max_newton=max_newton),
                   cp_samples=1000, stat_draws=10_000)
    assert str(info.value).startswith(expected), str(info.value)
    assert "residuals [" in str(info.value)


def test_verify_all_names_a_failed_noise_off_row(monkeypatch):
    # a failure injected into row 2 (the noise-off run of seed 2) at step 7
    calls = []
    original = harness.solve_rows

    def failing(ctx, rhs, guess, cfg):
        u, reports = original(ctx, rhs, guess, cfg)
        calls.append(len(rhs))
        if calls == [40] + [4] * 8:  # the uniqueness stack, then steps 0..7
            reports[2].failure = "injected"
        return u, reports

    monkeypatch.setattr(harness, "solve_rows", failing)
    monkeypatch.setattr(stepper, "solve_rows", failing)
    expected = r"^stepper noise-off run \(seed 2\) failed at step 7: injected$"
    with pytest.raises(NonConvergence, match=expected):
        verify_all(cp_samples=1000, stat_draws=10_000)


# ---------------------------------------------------------------------------
# the benchmark's tracer


def load_by_path(relative, name):
    """A repo file loaded by path: neither the benchmark nor the tools is a package."""
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_hooks_resolve_and_round_trip():
    # every name the tracer wraps exists where it looks it up (a class's
    # own dict, or a module), and install then uninstall puts every binding
    # back; a missing name breaks every `perfbench/run.py --trace 1` run
    tracer_mod = load_by_path("perfbench/tracer.py", "perfbench_tracer")
    targets = tracer_mod._targets()
    for owner, attr, name, _ in targets:
        assert attr in (vars(owner) if isinstance(owner, type) else dir(owner)), name
    owners = {id(owner): owner for owner, *_ in targets}
    owners.update((id(m), m) for k, m in sys.modules.items() if k.split(".")[0] == "plapsim")
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for owner, attr, name, _ in targets:
            assert vars(owner)[attr] is not before[id(owner)][attr], name
        mesh.norm_l2(Grid1D(4, 1.0).zeros())  # looked up where the tracer patched it
        assert [span[tracer_mod.NAME] for span in tracer.take()] == [
            "mesh.gridfunction", "mesh.norms"
        ]
    finally:
        tracer.uninstall()
    for key, owner in owners.items():
        after = dict(vars(owner))
        assert after.keys() == before[key].keys()
        assert all(after[k] is v for k, v in before[key].items())


# ---------------------------------------------------------------------------
# the census of gated configurations


def test_census_subset_converges_or_names_its_failure():
    # 64 of the census's 480 gated configurations, every axis at its ends:
    # each converges with finite norms or raises a NonConvergence that names
    # the path and the step, and no line search fails; the floor and stall
    # counts are not pinned
    census = load_by_path("tools/census.py", "census")
    subset = {"p": (2.0, 16.0), "n_cells": (3, 64), "eps": (1.0, 1e-8),
              "margin": census.SWEEP["margin"], "sigma": (0.0, 5.0), "amp": (0.5, 500.0)}
    classes = []
    for config, outcome in census.sweep(subset):
        if isinstance(outcome, NonConvergence):
            assert str(outcome).startswith("seed 1 failed at step "), (config, outcome)
        else:
            for norms in (outcome.l2_norms, outcome.w1p_norms, outcome.violations):
                assert np.isfinite(norms).all(), config
        classes.append(census.classify(outcome))
    assert len(classes) == 64
    assert "line_search" not in classes
    assert set(classes) <= set(census.CLASSES)
