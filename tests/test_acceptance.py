"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Sample counts and tolerances are fixed here, not configurable: they are the
exit criteria of the project.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import plapsim
from plapsim.harness import (
    estimate_cp,
    run_deterministic_convergence,
    run_eps_study,
)
from plapsim.mesh import Grid1D, inner, norm_l2, norm_w1p
from plapsim.model import (
    ModelParams,
    ReactionSpec,
    SourceSpec,
    make_initial,
    yosida_penalty,
)
from plapsim.noise import NoiseModel, bump_profile
from plapsim.operators import OperatorContext
from plapsim.solver import solve, stability_slacks
from plapsim.stepper import run_path


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:2d} PASS - {description} ({elapsed:.1f}s)")


# The child runs in a temporary directory, where a relative PYTHONPATH such
# as `src` points at nothing; put the directory `plapsim` was imported from
# first on its path, absolute, and keep the caller's PYTHONPATH after it.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(plapsim.__file__)))


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "plapsim", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_1_algebraic_inequality():
    with criterion(1, "monotonicity constant >= 2^(2-p) at 1e6 samples"):
        start = time.perf_counter()
        assert estimate_cp(2.0, 1, 10**6) == pytest.approx(1.0, abs=1e-12)
        for p in (2.5, 3.0, 4.0, 6.0):
            assert estimate_cp(p, 1, 10**6) >= 2.0 ** (2.0 - p) - 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_2_discrete_coercivity():
    with criterion(2, "coercivity on 1000 fields per (p, tau L_beta) case"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        grid = Grid1D(64, 1.0)
        for p in (2.0, 3.0, 4.0):
            for L_beta in (0.0, 5.0, 9.0):  # tau = 0.1
                reaction = (
                    ReactionSpec("linear", L_beta) if L_beta else ReactionSpec("zero")
                )
                params = ModelParams(p=p, eps=0.1, T=1.0, M=10, L_beta=L_beta)
                ctx = OperatorContext(params, reaction, grid)
                margin = 1.0 - 0.1 * L_beta
                for _ in range(1000):
                    u = grid.function(rng.uniform(-1.5, 2.5, 64))
                    lhs = inner(grid.function(ctx.apply(u.values)), u)
                    rhs = margin * norm_l2(u) ** 2 + 0.1 * norm_w1p(u, p)
                    assert lhs - rhs >= -1e-10 * max(abs(lhs), abs(rhs))
        assert time.perf_counter() - start < 5.0


def test_criterion_3_discrete_strong_monotonicity():
    with criterion(3, "strong monotonicity with 2^(2-p) on 1000 pairs per case"):
        rng = np.random.default_rng(303)
        grid = Grid1D(64, 1.0)
        for p in (2.0, 3.0, 4.0):
            cp = 2.0 ** (2.0 - p)
            for L_beta in (0.0, 5.0, 9.0):
                reaction = (
                    ReactionSpec("linear", L_beta) if L_beta else ReactionSpec("zero")
                )
                params = ModelParams(p=p, eps=0.1, T=1.0, M=10, L_beta=L_beta)
                ctx = OperatorContext(params, reaction, grid)
                margin = 1.0 - 0.1 * L_beta
                for _ in range(1000):
                    u = grid.function(rng.uniform(-1.5, 2.5, 64))
                    v = grid.function(rng.uniform(-1.5, 2.5, 64))
                    d = grid.function(u.values - v.values)
                    lhs = inner(
                        grid.function(ctx.apply(u.values) - ctx.apply(v.values)), d
                    )
                    rhs = margin * norm_l2(d) ** 2 + 0.1 * cp * norm_w1p(d, p)
                    assert lhs - rhs >= -1e-10 * max(abs(lhs), abs(rhs))


def test_criterion_4_uniqueness():
    with criterion(4, "solves from two guesses agree to 1e-8 on 100 systems"):
        rng = np.random.default_rng(404)
        grid = Grid1D(64, 1.0)
        params = ModelParams(p=3.0, eps=0.1, T=1.0, M=10, L_beta=2.0)
        ctx = OperatorContext(params, ReactionSpec("sine", 2.0), grid)
        for _ in range(100):
            rhs = grid.function(rng.uniform(-1.0, 2.0, 64))
            a, _ = solve(ctx, rhs)
            b, _ = solve(ctx, rhs, guess=grid.function(rng.normal(size=64)))
            assert norm_l2(grid.function(a.values - b.values)) <= 1e-8


def test_criterion_5_inverse_stability():
    with criterion(5, "stability and a priori bounds on 100 rhs pairs"):
        rng = np.random.default_rng(505)
        grid = Grid1D(48, 1.0)
        for p in (2.0, 3.0, 4.0):
            params = ModelParams(p=p, eps=0.1, T=1.0, M=10, L_beta=2.0)
            ctx = OperatorContext(params, ReactionSpec("linear", 2.0), grid)
            n_pairs = 34 if p != 2.0 else 32  # 100 pairs across the three p
            for _ in range(n_pairs):
                r1 = grid.function(rng.uniform(-1.0, 2.0, 48))
                r2 = grid.function(rng.uniform(-1.0, 2.0, 48))
                s1, _ = solve(ctx, r1)
                s2, _ = solve(ctx, r2)
                sl2, sv = stability_slacks(ctx, r1.values, r2.values, s1.values, s2.values)
                assert sl2 >= -1e-8
                assert sv >= -1e-8
                for r, s in ((r1, s1), (r2, s2)):
                    bound = norm_l2(r) ** 2 / (4 * 0.1 * (1 - 0.1 * 2.0))
                    assert norm_w1p(s, p) <= bound + 1e-8


def test_criterion_6_scheme_residual():
    with criterion(6, "step identity to 1e-9 over a 1000-step noisy run"):
        params = ModelParams(p=3.0, eps=0.05, T=1.0, M=1000, L_beta=1.0)
        grid = Grid1D(64, 1.0)
        reaction = ReactionSpec("sine", 1.0)
        ctx = OperatorContext(params, reaction, grid)
        nm = NoiseModel(J=8, sigma=0.6)
        source = SourceSpec("constant", {"value": 0.3})
        initial = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
        traj = run_path(ctx, nm, initial, source, seed=606)
        tau, eps = params.tau, params.eps
        worst = 0.0
        for n in range(1000):
            u_n, u_np1 = traj.states[n], traj.states[n + 1]
            f_n = source.step_average(n, grid, tau)
            forcing = nm.apply_diffusion(grid.function(u_n), traj.increments.values[n])
            resid = (
                u_np1
                - u_n
                + tau * (ctx.apply_plap(u_np1)
                         + yosida_penalty(u_np1, eps))
                - forcing.values
                - tau * (reaction.evaluate(u_np1) + f_n.values)
            )
            worst = max(worst, norm_l2(grid.function(resid)))
        assert worst <= 1e-9
        print(f"  worst step residual: {worst:.3e}")


def test_criterion_7_deterministic_consistency():
    with criterion(7, "manufactured convergence: time order >= 0.9, space >= 1.9"):
        start = time.perf_counter()
        coupled = run_deterministic_convergence("coupled", levels=4)
        assert all(b < a for a, b in zip(coupled.errors, coupled.errors[1:]))
        assert coupled.orders()[-1] >= 0.9
        spatial = run_deterministic_convergence("spatial", levels=4, n0=8, M0=32,
                                                T=1.0)
        assert spatial.orders()[-1] >= 1.9
        assert time.perf_counter() - start < 60.0
        print(f"  observed orders: time {coupled.orders()[-1]:.3f}, "
              f"space {spatial.orders()[-1]:.3f}")


def test_criterion_8_penalization_behavior():
    with criterion(8, "box violation shrinks with eps; zero when confined"):
        grid = Grid1D(32, 1.0)
        params = ModelParams(p=2.0, eps=0.1, T=0.3, M=30, L_beta=0.0)
        # forcing drives the state above 1: violation positive, shrinking
        forced = run_eps_study(
            OperatorContext(params, ReactionSpec("zero"), grid),
            NoiseModel(J=8, sigma=0.3),
            make_initial(grid, "constant", {"value": 0.5}),
            SourceSpec("constant", {"value": 5.0}),
            [0.1, 0.05, 0.025],
            n_paths=8,
            base_seed=808,
        )
        assert all(v > 0 for v in forced.errors)
        hw = forced.metadata["halfwidths"]
        inversions = sum(
            1
            for i in range(1, len(forced.errors))
            if forced.errors[i] > forced.errors[i - 1] + np.hypot(hw[i], hw[i - 1])
        )
        assert inversions <= 1
        # data confined to [1/4, 3/4], no forcing: no violation at all
        confined = run_eps_study(
            OperatorContext(params, ReactionSpec("zero"), grid),
            NoiseModel(J=8, sigma=0.0),
            make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25}),
            SourceSpec("zero"),
            [0.1, 0.05, 0.025],
            n_paths=1,
        )
        assert all(v <= 1e-10 for v in confined.errors)
        print(f"  forced violations: {[f'{v:.4f}' for v in forced.errors]}")


def test_criterion_9_noise_statistics():
    with criterion(9, "increment stats, Hilbert-Schmidt bound, support"):
        tau = 0.01
        model = NoiseModel(J=100, sigma=1.0)
        draws = model.sample_path(10_000, tau, seed=909).values  # 1e6 draws
        n = draws.size
        assert abs(draws.mean()) <= 4.0 * np.sqrt(tau / n)
        assert abs(draws.var() / tau - 1.0) <= 0.05
        for sigma in (0.5, 1.0, 2.0):
            m = NoiseModel(J=16, sigma=sigma)
            assert m.hs_lipschitz_estimate(100_000) <= sigma**2 * 4 * np.pi**2
        grid = Grid1D(40, 1.0)
        m = NoiseModel(J=8, sigma=1.5)
        u = grid.function(np.linspace(-0.5, 1.5, 40))
        out = m.apply_diffusion(u, np.full(8, 2.0))
        outside = bump_profile(u.values) == 0.0
        assert np.all(out.values[outside] == 0.0)


def test_criterion_10_gate_enforcement(tmp_path):
    with criterion(10, "tau L_beta >= 1 rejected before compute, exit 1"):
        bad = tmp_path / "gate.json"
        bad.write_text(
            json.dumps({"M": 100, "T": 1, "L_beta": 120,
                        "reaction": {"kind": "linear", "scale": 120}})
        )
        res = run_cli(["run", "--config", str(bad), "--out-dir", "never"], tmp_path)
        assert res.returncode == 1
        assert "config error" in res.stderr
        assert "tau * L_beta" in res.stderr
        assert not (tmp_path / "never").exists()


def test_criterion_11_reproducibility(tmp_path):
    with criterion(11, "run/mc/converge byte-identical, worker independent"):
        cfg = {
            "model": {"p": 2.0, "T": 0.2, "M": 10, "n_cells": 16},
            "noise": {"sigma": 0.4, "J": 4, "base_seed": 7},
            "n_paths": 6,
            "levels": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for cmd, extra in (("run", []), ("converge", [])):
            res = run_cli([cmd, "--config", str(path)], tmp_path)
            assert res.returncode == 0, res.stderr
            out = tmp_path / "out" / f"{cmd}-s7.csv"
            first = out.read_bytes()
            res = run_cli([cmd, "--config", str(path)], tmp_path)
            assert res.returncode == 0, res.stderr
            assert out.read_bytes() == first
        res = run_cli(["mc", "--config", str(path), "--workers", "1",
                       "--tag", "w1"], tmp_path)
        assert res.returncode == 0, res.stderr
        res = run_cli(["mc", "--config", str(path), "--workers", "4",
                       "--tag", "w4"], tmp_path)
        assert res.returncode == 0, res.stderr
        for suffix in ("csv", "json"):
            a = (tmp_path / "out" / f"mc-w1.{suffix}").read_bytes()
            b = (tmp_path / "out" / f"mc-w4.{suffix}").read_bytes()
            assert a == b
