"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They check that the solver and ``GridFunction`` counts repeat exactly
between two traced runs, that spans on ``run_mc`` pool threads land under
``run_mc``, that the fallback rule counts what it claims, that the
``run_large`` check accepts the same residual evaluated in another
operation order but not a residual over its tolerance, that the
reference scale maps one kernel repetition to ``REF_S``, that the metric
names agree with ``BENCHMARK.json``, and that a directory without the
sources makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _traced_record(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
    path = ROOT / ".perfbench_run" / "results" / f"{workload}-s{seed}-t1.json"
    return json.loads(path.read_text())


def test_counts_repeat_across_traced_runs():
    first = _traced_record("eps_stiff", 7)
    second = _traced_record("eps_stiff", 7)
    assert first["counts"][0]["backtracks"] > 0  # the line search is exercised
    assert first["counts"][0] == second["counts"][0]
    for name in run.EXACT_LAYER_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_pool_thread_spans_attach_to_run_mc(tmp_path):
    from plapsim.cli import dispatch
    from plapsim.config import parse_config

    doc = workloads.make_config("mc", 0, str(tmp_path))
    doc["workers"] = 2
    doc["model"]["M"] = 3
    doc["n_paths"] = 4
    tr = tracer.Tracer()
    tr.install()
    try:
        assert dispatch("mc", parse_config(data=doc)) == 0
    finally:
        tr.uninstall()
    spans = tr.take()
    paths = [s for s in spans if s[tracer.NAME] == "stepper.run_path"]
    assert len(paths) == 4
    assert {s[tracer.PARENT][tracer.NAME] for s in paths} == {"harness.run_mc"}
    (mc,) = [s for s in spans if s[tracer.NAME] == "harness.run_mc"]
    assert any(s[tracer.THREAD] != mc[tracer.THREAD] for s in paths)
    import plapsim.stepper

    assert plapsim.stepper.run_path.__module__ == "plapsim.stepper"  # unwrapped again


def _span(name, parent=None, info=None):
    return [name, parent, 1, 0.0, 1.0, 0.0, 1.0, info]


def test_fallback_rule():
    max_bt = 4
    solve = _span("solver.solve", info={"iterations": 2, "max_backtracks": max_bt})
    calls = (
        ["operators.energy"]  # initial energy
        + ["operators.jacobian"] + ["operators.energy"] * 2  # one backtrack
        + ["operators.jacobian"] + ["operators.energy"] * (max_bt + 1)  # fallback
    )
    spans = [_span(c, solve) for c in calls] + [solve]
    counts = tracer.solver_counts(spans)
    assert counts["fallbacks"] == 1
    assert counts["energy_evals"] == 1 + 2 + max_bt + 1
    assert counts["backtracks"] == counts["energy_evals"] - 2 - 1


def _reordered_residuals(doc, states, dw):
    """The scheme residuals of ``workloads``, in another operation order."""
    m, noise = doc["model"], doc["noise"]
    p, n_cells, M = float(m["p"]), m["n_cells"], m["M"]
    eps, f = float(m["eps"]), float(doc["source"]["params"]["value"])
    h, tau = float(m["length"]) / n_cells, float(m["T"]) / M
    scale = float(doc["reaction"]["scale"])
    amps = float(noise["sigma"]) * 2.0 ** (-0.5 * np.arange(1, noise["J"] + 1))
    out = np.empty(M)
    for n in range(M):
        u0, u1 = states[n], states[n + 1]
        bump = np.where((u0 > 0.25) & (u0 < 0.75), np.sin(2.0 * np.pi * (u0 - 0.25)) ** 2, 0.0)
        forcing = bump * sum(a * w for a, w in zip(amps, dw[n]))
        d = (u1[1:] - u1[:-1]) * (1.0 / h)
        flux = np.sign(d) * np.abs(d) ** (p - 1.0)
        plap = (np.append(0.0, flux) - np.append(flux, 0.0)) / h
        plap += np.sign(u1) * np.abs(u1) ** (p - 1.0)
        pen = (np.minimum(u1, 0.0) + np.maximum(u1 - 1.0, 0.0)) / eps
        r = (u1 - u0 - forcing) + tau * (plap + pen - scale * np.sin(u1) - f)
        out[n] = np.sqrt(h * np.sum(r * r))
    return out


def test_run_check_allows_round_off_only(tmp_path, monkeypatch):
    from plapsim.cli import dispatch
    from plapsim.config import parse_config

    out = str(tmp_path / "out")
    doc = workloads.make_config("run_large", 3, out)
    doc["model"].update(n_cells=1024, M=10)
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch("run", parse_config(data=doc)) == 0
    states, dw = workloads.read_run_csv(doc, out)
    mine, round_off = workloads._scheme_residuals(doc, states, dw)
    other = _reordered_residuals(doc, states, dw)
    assert np.any(other != mine)  # the order changes the last bits
    assert np.all(np.abs(other - mine) <= round_off)

    # a tolerance at the smaller of the two worst residuals: a strict
    # comparison would reject one of the two equivalent evaluations
    assert other.max() != mine.max()
    doc["solver"]["tol_residual"] = float(min(other.max(), mine.max()))
    assert workloads.check_run_scheme_identity(doc, out, None)[0]
    monkeypatch.setattr(workloads, "_scheme_residuals", lambda *a: (other, round_off))
    assert workloads.check_run_scheme_identity(doc, out, None)[0]
    # but a residual over the tolerance by more than round-off fails
    doc["solver"]["tol_residual"] = float(other.max() - 2.0 * round_off.max())
    assert not workloads.check_run_scheme_identity(doc, out, None)[0]


def test_reference_scale():
    spent, reps = reference.sample(0.0)
    assert reps == 1
    assert math.isclose(reference.scale(spent, reps) * spent, reference.REF_S)
    # at 4 ms a repetition, a call as long as two repetitions reads 2 x REF_S
    assert math.isclose(reference.scale(0.08, 20) * 0.008, 2 * reference.REF_S)


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
