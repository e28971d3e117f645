"""The benchmark's workloads: generated configs, rationale and validity checks.

Each workload drives one user-facing subcommand through
``plapsim.cli.dispatch`` on a config generated from the workload seed.  The
seed becomes ``noise.base_seed`` (and, for ``verify``, the report seed), so
the same seed gives the same inputs and a new seed gives a new noise path.
The sizes were measured on a 2-core x86-64 VM (Xeon, 2 MiB L2 per core).

Workloads and why they were chosen
----------------------------------
mc
    ``plapsim mc``: p=3, n_cells=64, M=100, sine reaction 0.5, constant
    source 0.5, cosine initial datum, sigma=0.5, J=16, 16 paths, workers =
    the number of usable cores.  A many-path ensemble on a small grid:
    per-call overhead in ``mesh``, ``operators`` and ``solver`` dominates,
    and the only parallel mechanism (``run_mc`` threads) runs at the core
    count.  It has no backtracks, so the line search sits idle: a
    line-search change should show no change here.
run_large
    ``plapsim run``: p=4, n_cells=8192, M=100, same data as ``mc``, output
    mode ``full`` (a 15.8 MB CSV).  One path on a fine grid: operator
    arithmetic and ``Trajectory.to_csv`` dominate.  ``GridFunction``
    overhead is a few percent and there is nothing to batch, so those
    optimisations should show no change here.
eps_stiff
    ``plapsim eps-study``: p=2, n_cells=64, M=50, cosine source (offset 0,
    amp 50, decay 0, length 1), eps 1e-2 ... 1e-6, 8 paths, serial.  Stiff
    penalization drives up to 16 Newton iterations per step and about 0.2
    backtracks per iteration, so solver globalization is exercised.
verify
    ``plapsim verify``: p=3, n_cells=64, T=0.5, M=50, J=12.  The only
    workload that runs ``harness.verify_all`` and ``estimate_cp``; without
    it the ``harness`` verification layer goes unmeasured.

``converge`` was considered and dropped: it runs the same serial
``run_path``/``solve`` path as ``eps_stiff`` with the noise off, in 40 ms.

Known limits
------------
Every valid config at n_cells=16384 (p=2, 3 and 4, M=100, otherwise the
``run_large`` data) fails today: the solve stops at the 50-iteration Newton
cap with a residual of about 1.7e-10 against the absolute tolerance 1e-10,
which looks like a round-off floor under that tolerance.  At n_cells=8192
the worst step already ends at 0.7e-10 to 1.0e-10 after up to 13
iterations (60 seeds checked, none failed).  The ``eps_stiff`` config at
eps=1e-8 (the ROADMAP case) also hits the cap, with a residual of 55.
``run_large`` and ``eps_stiff`` (eps down to 1e-6) were sized to stop just
short of these limits, because a workload that aborts yields no time.  For
``run_large`` that holds for most seeds only: of seeds 7000-7099, five
(7004, 7015, 7035, 7073, 7090) stop at the 50-iteration cap with residuals
from 3.7e-9 to 1.5, so these are Newton failures, not only the round-off
floor.  The benchmark reports such a seed as failed calls and
``correct: false``; the size and the seeds are left as they are, so the
defect stays visible.  The defect belongs
to the robust-solve direction of the ROADMAP and is to be fixed there, with
a regression test; once it is, these workloads can grow.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

#: data shared by every workload
_BASE = {
    "model": {"T": 1.0, "eps": 0.1, "length": 1.0},
    "reaction": {"kind": "sine", "scale": 0.5},
    "source": {"preset": "constant", "params": {"value": 0.5}},
    "initial": {"preset": "cosine", "params": {"offset": 0.5, "amp": 0.25}},
    "noise": {"sigma": 0.5, "J": 16},
    "solver": {"tol_residual": 1e-10, "max_newton": 50},
    "tag": "bench",
}

#: workload name -> (subcommand, config overrides of _BASE)
WORKLOADS = {
    "mc": (
        "mc",
        {"model": {"p": 3, "n_cells": 64, "M": 100}, "n_paths": 16},
    ),
    "run_large": (
        "run",
        {"model": {"p": 4, "n_cells": 8192, "M": 100}},
    ),
    "eps_stiff": (
        "eps-study",
        {
            "model": {"p": 2, "n_cells": 64, "M": 50},
            "source": {
                "preset": "cosine",
                "params": {"offset": 0.0, "amp": 50.0, "decay": 0.0, "length": 1.0},
            },
            "eps_list": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
            "n_paths": 8,
        },
    ),
    "verify": (
        "verify",
        {"model": {"p": 3, "n_cells": 64, "T": 0.5, "M": 50}, "noise": {"J": 12}},
    ),
}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def make_config(workload: str, seed: int, out_dir: str) -> dict:
    """Config document for ``workload`` with its inputs drawn from ``seed``."""
    _, overrides = WORKLOADS[workload]
    cfg = json.loads(json.dumps(_BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    cfg["noise"]["base_seed"] = seed
    cfg["output"] = {"dir": out_dir, "mode": "full"}
    if workload == "mc":
        cfg["workers"] = usable_cores()
    return cfg


def output_files(out_dir: str) -> list:
    return sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir))


# ---------------------------------------------------------------------------
# validity checks; each returns (passed, detail) and runs outside timed code


def check_mc_matches_serial(cfg_doc: dict, out_dir: str, scratch: str):
    """Summary bytes equal those of a workers=1 run on the same seed."""
    from plapsim.cli import dispatch
    from plapsim.config import parse_config

    serial_dir = os.path.join(scratch, "mc-serial")
    doc = dict(cfg_doc, workers=1, output={"dir": serial_dir, "mode": "full"})
    with contextlib.redirect_stdout(io.StringIO()):
        rc = dispatch("mc", parse_config(data=doc))
    if rc != 0:
        return False, f"workers=1 run exited {rc}"
    mine = {os.path.basename(p): _read(p) for p in output_files(out_dir)}
    ref = {os.path.basename(p): _read(p) for p in output_files(serial_dir)}
    differ = sorted(set(mine) ^ set(ref) | {k for k in ref if mine.get(k) != ref[k]})
    if differ:
        return False, f"differ from the workers=1 run: {differ}"
    return True, f"{len(ref)} files byte-identical to workers=1"


#: unit round-offs allowed per term magnitude when a residual is recomputed
ROUND_OFF_ULPS = 16


def _scheme_residuals(cfg_doc: dict, states: np.ndarray, dw: np.ndarray):
    """L2_h residual of each step of the scheme, recomputed from scratch.

    Independent of ``plapsim.operators``.  Returns the residuals and, for
    each step, a bound on the round-off of evaluating that residual:
    ``ROUND_OFF_ULPS`` unit round-offs times the L2_h norm of the cellwise
    sum of the magnitudes of its terms.  Two evaluations of the same
    residual in different operation orders differ by less than this, so
    the bound separates a reordering of the arithmetic from a wrong state.
    """
    m, noise = cfg_doc["model"], cfg_doc["noise"]
    p, n_cells, M = float(m["p"]), m["n_cells"], m["M"]
    T, eps, length = float(m["T"]), float(m["eps"]), float(m["length"])
    scale = float(cfg_doc["reaction"]["scale"])
    f = float(cfg_doc["source"]["params"]["value"])
    h, tau = length / n_cells, T / M
    amps = float(noise["sigma"]) * 2.0 ** (-0.5 * np.arange(1, noise["J"] + 1))
    out, round_off = np.empty(M), np.empty(M)
    for n in range(M):
        u0, u1 = states[n], states[n + 1]
        bump = np.zeros_like(u0)
        on = (u0 > 0.25) & (u0 < 0.75)
        bump[on] = np.sin(2.0 * np.pi * (u0[on] - 0.25)) ** 2
        forcing = bump * float(np.dot(amps, dw[n]))
        rhs = u0 + forcing + tau * np.full(n_cells, f)
        d = np.diff(u1) / h
        flux = np.abs(d) ** (p - 2.0) * d
        div = np.zeros(n_cells)
        div[:-1] += flux
        div[1:] -= flux
        lower = np.abs(u1) ** (p - 2.0) * u1
        pen = np.where(u1 <= 0.0, u1 / eps, np.where(u1 <= 1.0, 0.0, (u1 - 1.0) / eps))
        reaction = scale * np.sin(u1)
        r = u1 + tau * (-div / h + lower + pen - reaction) - rhs
        out[n] = np.sqrt(h * np.dot(r, r))
        face = np.abs(flux) / h
        size = (
            np.abs(u1) + np.abs(u0) + np.abs(forcing)
            + tau * (np.abs(lower) + np.abs(pen) + np.abs(reaction) + abs(f))
        )
        size[:-1] += tau * face
        size[1:] += tau * face
        round_off[n] = ROUND_OFF_ULPS * np.finfo(float).eps * np.sqrt(h * np.dot(size, size))
    return out, round_off


def read_run_csv(cfg_doc: dict, out_dir: str):
    """(states, noise increments) of a ``run`` output, or (None, why not)."""
    from plapsim.noise import NoiseModel

    (path,) = output_files(out_dir)
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]
    table = np.array([np.array(r.split(","), dtype=float) for r in rows])
    m, noise = cfg_doc["model"], cfg_doc["noise"]
    M, n_cells = m["M"], m["n_cells"]
    if table.shape != (M + 1, n_cells + 1):
        return None, f"CSV shape {table.shape}, expected {(M + 1, n_cells + 1)}"
    states = table[:, 1:]
    length, init = float(m["length"]), cfg_doc["initial"]["params"]
    x = (np.arange(n_cells) + 0.5) * (length / n_cells)
    if not np.array_equal(states[0], init["offset"] + init["amp"] * np.cos(np.pi * x / length)):
        return None, "first row is not the initial datum"
    dw = NoiseModel(J=noise["J"], sigma=noise["sigma"]).sample_path(
        M, float(m["T"]) / M, noise["base_seed"]
    ).values
    return states, dw


def check_run_scheme_identity(cfg_doc: dict, out_dir: str, scratch: str):
    """Every step of the CSV satisfies the scheme within ``tol_residual``.

    The recomputed residual may exceed ``tol_residual`` by the round-off of
    its own evaluation (see :func:`_scheme_residuals`), since the solver
    judged its own evaluation, made in another operation order, against it.
    """
    states, dw = read_run_csv(cfg_doc, out_dir)
    if states is None:
        return False, dw
    residuals, round_off = _scheme_residuals(cfg_doc, states, dw)
    tol = cfg_doc["solver"]["tol_residual"]
    over = residuals - (tol + round_off)
    worst = int(np.argmax(over))
    return bool(over[worst] <= 0.0), (
        f"worst step {worst}: residual {residuals[worst]:.6e}, allowed tol {tol:.0e}"
        f" + round-off {round_off[worst]:.2e}"
    )


def check_eps_violation_falls(cfg_doc: dict, out_dir: str, scratch: str):
    """The box violation falls strictly as eps falls."""
    (path,) = output_files(out_dir)
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]
    eps = [float(r.split(",")[0]) for r in rows]
    viol = [float(r.split(",")[1]) for r in rows]
    if eps != cfg_doc["eps_list"]:
        return False, f"eps column {eps} differs from the config"
    ok = all(a > b for a, b in zip(viol, viol[1:]))
    return ok, "violations " + ", ".join(f"{v:.3e}" for v in viol)


def check_verify_passed(cfg_doc: dict, out_dir: str, scratch: str):
    """The verification report passes."""
    (path,) = output_files(out_dir)
    with open(path) as fh:
        report = json.load(fh)
    failed = [r["property"] for r in report["properties"] if not r["passed"]]
    return report["passed"] and not failed, (
        f"{len(report['properties'])} properties, failed: {failed or 'none'}"
    )


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


CHECKS = {
    "mc": check_mc_matches_serial,
    "run_large": check_run_scheme_identity,
    "eps_stiff": check_eps_violation_falls,
    "verify": check_verify_passed,
}
