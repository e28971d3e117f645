"""plapsim benchmark: four CLI workloads, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload eps_stiff --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for configs, rationale and known limits):
``mc``, ``run_large``, ``eps_stiff``, ``verify``.  Each run

1. writes the workload config, drawn from ``--seed``;
2. times set-up: ``import plapsim`` plus ``parse_config`` in fresh
   interpreters, after one unmeasured warm-up;
3. runs ``worker.py`` in a fresh interpreter, which calls
   ``plapsim.cli.dispatch`` in a closed loop (one call at a time) for
   ``--seconds``; with ``--trace 1`` untraced and traced calls alternate;
4. checks the outputs outside any timed region (``workloads.CHECKS`` plus
   identical output digests across calls);
5. prints a readable report, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``): ``wall_ref_s``, the mean time of one
subcommand call including its output files (time spent in calls over the
number of calls), at the reference speed; ``setup_s``, the median set-up
time; ``peak_rss_mb``, the peak resident memory of the worker process in
MiB.  A time at the reference speed is the measured time times
``reference.REF_S`` over the mean time of one repetition of the reference
kernel run in the same process between the calls (see ``reference.py``
for why): it is what the time would be on a host where one repetition
takes ``REF_S``.  The report also prints the raw ``wall_s``: the mean,
median and fastest call, with the number of calls.  The set-up time stays
raw, because the kernel slows about 1.8x where set-up slows 1.3x (98
probes), so scaling it would overcorrect.
``failed_frac`` (failed calls over attempted calls) is printed in the
report and carried by the ``failed`` and ``attempted`` fields; it is 0 on
a healthy run, so it cannot carry a relative bound.
Per-layer metrics (``--trace 1``) are described in ``tracer.py``; a layer a
workload never calls reports 0 and is listed as absent in the report.

Everything the run writes goes under ``.perfbench_run/`` at the root of
the checkout: a record of each run in ``results/`` (environment, every
call, every check, every metric, the span table of the last traced call).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 140

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "mesh.gridfunction.calls_per_step": "count",
    "mesh.gridfunction.self_us": "us",
    "mesh.norms.self_us_per_step": "us",
    "operators.apply.self_us": "us",
    "operators.energy.self_us": "us",
    "operators.jacobian.self_us": "us",
    "operators.tridiag_solve.self_us": "us",
    "operators.ns_per_cell_iter": "ns",
    "solver.solve.self_us": "us",
    "solver.newton_iters_per_step.mean": "count",
    "solver.newton_iters_per_step.max": "count",
    "solver.backtracks_per_iter": "count",
    "solver.armijo_accept_ratio": "ratio",
    "solver.fallbacks": "count",
    "solver.nonconvergence": "count",
    "noise.apply_diffusion.self_us": "us",
    "noise.sample_path.self_us": "us",
    "model.step_average.self_us": "us",
    "stepper.step.self_us": "us",
    "stepper.run_path.self_us_per_step": "us",
    "stepper.to_csv.self_ms": "ms",
    "stepper.to_csv.mb": "MB",
    "harness.run_mc.self_ms": "ms",
    "harness.run_mc.cpu_per_wall": "ratio",
    "harness.run_mc.wait_s": "s",
    "harness.run_eps_study.self_ms": "ms",
    "harness.verify_all.self_ms": "ms",
    "harness.estimate_cp.self_ms": "ms",
    "config.parse_config.ms": "ms",
    "cli.import_plapsim.ms": "ms",
    "cli.output_write.ms": "ms",
    "trace.overhead_frac": "ratio",
}
# layer metrics that stay 0 when the workload never enters the layer
ABSENT_WHEN_ZERO = {
    "stepper.to_csv.self_ms": "Trajectory.to_csv is only called by `run`",
    "stepper.to_csv.mb": "Trajectory.to_csv is only called by `run`",
    "harness.run_mc.self_ms": "run_mc is only called by `mc`",
    "harness.run_mc.cpu_per_wall": "run_mc is only called by `mc`",
    "harness.run_mc.wait_s": "run_mc is only called by `mc`",
    "harness.run_eps_study.self_ms": "run_eps_study is only called by `eps-study`",
    "harness.verify_all.self_ms": "verify_all is only called by `verify`",
    "harness.estimate_cp.self_ms": "estimate_cp is only called by `verify`",
}
# counts that must repeat exactly from one traced call to the next
EXACT_LAYER_METRICS = (
    "mesh.gridfunction.calls_per_step",
    "solver.newton_iters_per_step.mean",
    "solver.newton_iters_per_step.max",
    "solver.backtracks_per_iter",
    "solver.armijo_accept_ratio",
    "solver.fallbacks",
    "solver.nonconvergence",
    "stepper.to_csv.mb",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _child(args: list) -> subprocess.CompletedProcess:
    """Run a fresh interpreter to completion; kill it if it overruns."""
    return subprocess.run(
        [sys.executable, *args],
        env=_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


def measure_setup(config_path: str) -> dict:
    """Import and parse times in seconds over fresh interpreters."""
    probe = str(Path(__file__).with_name("probe_setup.py"))
    setup = {"import_s": [], "parse_config_s": []}
    for i in range(SETUP_REPEATS + 1):
        proc = _child([probe, config_path])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i == 0:
            continue  # warm-up: bytecode and file caches
        t_import, t_parse = (float(x) for x in proc.stdout.split())
        setup["import_s"].append(t_import)
        setup["parse_config_s"].append(t_parse)
    return setup


def environment() -> dict:
    """Provenance recorded with every result."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=False,
            ).stdout.strip() or commit
        except OSError:
            commit = "unknown (git not available)"
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "nproc": workloads.usable_cores(),
        "l2_cache": _l2_size(),
    }


def _l2_size() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            if (index / "level").read_text().strip() == "2":
                return (index / "size").read_text().strip()
        except OSError:
            pass
    return "unknown"


def execute(args) -> tuple[dict, dict, dict, list]:
    """Run set-up probes, the worker and the output checks in a scratch dir.

    Returns the config, set-up times, the worker's result and the checks.
    """
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        out_dir = os.path.join(scratch, "out")
        cfg_doc = workloads.make_config(args.workload, args.seed, out_dir)
        config_path = os.path.join(scratch, "config.json")
        with open(config_path, "w") as fh:
            json.dump(cfg_doc, fh, indent=1)
        setup = measure_setup(config_path)

        spec = {
            "config": config_path,
            "subcommand": workloads.WORKLOADS[args.workload][0],
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "result": os.path.join(scratch, "worker.json"),
        }
        spec_path = os.path.join(scratch, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        proc = _child([str(Path(__file__).with_name("worker.py")), spec_path])
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed:\n{proc.stderr}")
        with open(spec["result"]) as fh:
            worker = json.load(fh)
        if args.trace and not worker["layers"]:
            raise RuntimeError("no traced call finished within the time limit")

        check = workloads.CHECKS[args.workload]
        try:
            passed, detail = check(cfg_doc, out_dir, scratch)
        except Exception as exc:  # a check that cannot read the output fails
            passed, detail = False, f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return cfg_doc, setup, worker, [(check.__name__, passed, detail)]


def failed_calls(calls: list, output_ok: bool) -> list:
    """Why each failed call failed; the checks judged the last call's output."""
    failures = []
    for i, call in enumerate(calls):
        if call["error"]:
            why = call["error"].strip().splitlines()[-1]
        elif call["rc"] != 0:
            why = f"exit code {call['rc']}"
        elif call["digest"] != calls[-1]["digest"]:
            why = "output digest differs from the last call"
        elif not output_ok:
            why = "output failed its check"
        else:
            continue
        failures.append(f"call {i}: {why}")
    return failures


def layer_metrics(worker: dict, setup: dict, checks: list) -> dict:
    """Medians over traced calls, plus set-up splits and tracing overhead."""
    layers, counts = worker["layers"], worker["counts"]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["config.parse_config.ms"] = statistics.median(setup["parse_config_s"]) * 1e3
    metrics["cli.import_plapsim.ms"] = statistics.median(setup["import_s"]) * 1e3
    # each traced call against the untraced call just before it, so that
    # drift in machine speed during the run cancels
    calls = worker["calls"]
    metrics["trace.overhead_frac"] = statistics.median(
        b["wall_s"] / a["wall_s"] for a, b in zip(calls[0::2], calls[1::2])
    ) - 1.0
    repeat = all(c == counts[0] for c in counts) and all(
        m[name] == layers[0][name] for m in layers for name in EXACT_LAYER_METRICS
    )
    checks.append(
        ("trace_counts_repeat", repeat, f"{len(counts)} traced calls; counts {counts[0]}")
    )
    return metrics


def run(args) -> tuple[dict, list]:
    (RUN_DIR / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    cfg_doc, setup, worker, checks = execute(args)
    calls = worker["calls"]
    failures = failed_calls(calls, checks[0][1])
    distinct = len({c["digest"] for c in calls})
    checks.append(
        ("digests_repeat", distinct == 1, f"{len(calls)} calls, {distinct} distinct output digest(s)")
    )
    env = dict(environment(), **worker["versions"])
    ok_walls = [c["wall_s"] for c in calls if c["rc"] == 0 and not c["error"]] or [
        c["wall_s"] for c in calls
    ]
    wall_scale = reference.scale(
        sum(c["ref_s"] for c in calls), sum(c["ref_reps"] for c in calls)
    )
    setups = [i + p for i, p in zip(setup["import_s"], setup["parse_config_s"])]
    notes = []
    if args.trace:
        metrics = layer_metrics(worker, setup, checks)
        units = PER_LAYER_UNITS
        notes += [f"{k} absent: {why}" for k, why in ABSENT_WHEN_ZERO.items() if metrics[k] == 0.0]
        n_cells = cfg_doc["model"]["n_cells"]
        notes.append(
            f"operators.ns_per_cell_iter is computed from the self busy time of the "
            f"operator calls made by solve; "
            f"n_cells={n_cells} float64 arrays are {n_cells * 8 / 1024:g} KiB and fit in "
            f"the L2 cache ({env['l2_cache']}), so no bandwidth figure is claimed"
        )
        if args.workload == "verify":
            notes.append(
                "mesh.gridfunction.calls_per_step and mesh.norms.self_us_per_step count "
                "the whole call, verify_all's stand-alone checks included, per time step; "
                "solver.newton_iters_per_step.* count only the solves of time steps"
            )
    else:
        metrics = {
            # the mean, not the median: the host's speed switches between
            # regimes lasting seconds, and the median of a two-regime run
            # jumps to whichever regime has more calls
            "wall_ref_s": statistics.fmean(ok_walls) * wall_scale,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": worker["peak_rss_mib"],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures and all(p for _, p, _ in checks),
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "config": cfg_doc,
        "setup": setup,
        "calls": calls,
        "failures": failures,
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks],
        "counts": worker["counts"],
        "layer_table": worker["table"],
        "metrics": metrics,
        "notes": notes,
        "result": result,
    }
    with open(RUN_DIR / "results" / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        "  env: commit {git_commit} src_sha256 {short} src_lines {src_lines} python {python} "
        "numpy {numpy} scipy {scipy} nproc {nproc}".format(short=env["src_sha256"][:12], **env),
        f"  wall_s (raw): mean {statistics.fmean(ok_walls):.4f} s, median "
        f"{statistics.median(ok_walls):.4f} s, fastest {min(ok_walls):.4f} s "
        f"of {len(ok_walls)} calls; reference scale {wall_scale:.4f}",
        f"  failed_frac {len(failures) / len(calls):.4g} ({len(failures)}/{len(calls)} calls)",
    ]
    lines += [f"  failure {f}" for f in failures]
    lines += [f"  check {n}: {'PASS' if p else 'FAIL'} {d}" for n, p, d in checks]
    lines += [f"  {k:36s} {metrics[k]:.6g} {u}" for k, u in units.items()]
    lines += [f"  note: {n}" for n in notes]
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "plapsim" / "__init__.py").is_file():
        print(f"perfbench: no plapsim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks import plapsim
    try:
        result, lines = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
