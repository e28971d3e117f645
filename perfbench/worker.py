"""Timed loop of one workload, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/worker.py SPEC.json`` with ``src`` on
``PYTHONPATH``.  The spec names the config file, the subcommand, the seed,
the run length, whether to trace, and where to write the result JSON.

The loop calls ``plapsim.cli.dispatch`` until the run length is used up.
Each call is timed from the call to its return, output files included;
the outputs are removed before and digested after each call, outside the
timed region.  After each call the reference kernel (``reference.py``) runs
for ``reference.SHARE`` of the call's time, so the run records the host's
speed next to the calls.  A ``NonConvergence`` or any other exception is recorded with
the seed and message and counts as a failed call; it never ends the run.
With tracing on, untraced and traced calls alternate, so the tracing
overhead is measured under the same machine load.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy

import plapsim.cli
import reference
from plapsim.config import parse_config
from plapsim.solver import NonConvergence

MIN_CALLS = 3
MIN_TRACED_CALLS = 2
HARD_STOP_S = 110.0  # the whole benchmark run must end within 180 s


def _clear(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):  # keeps peak RSS flat
                h.update(block)
    return h.hexdigest()


def _call(subcommand: str, cfg, seed: int) -> tuple[int, str | None]:
    try:
        return plapsim.cli.dispatch(subcommand, cfg), None
    except NonConvergence as exc:
        return 2, f"NonConvergence (seed {seed}): {exc}"
    except Exception:  # a crashing call is a failed call, not a crashed run
        return 2, f"seed {seed}: {traceback.format_exc()}"


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    cfg = parse_config(spec["config"])
    sub, seed, seconds = spec["subcommand"], spec["seed"], spec["seconds"]
    tr = None
    if spec["trace"]:
        from tracer import Tracer, call_metrics

        tr = Tracer()

    calls, layers, counts, table = [], [], [], None
    reference.kernel()  # warm-up
    start = perf_counter()
    while True:
        traced = tr is not None and len(calls) % 2 == 1
        _clear(cfg.out_dir)
        if traced:
            tr.install()
        try:
            t0 = perf_counter()
            rc, error = _call(sub, cfg, seed)
            wall = perf_counter() - t0
        finally:
            if traced:
                tr.uninstall()
        digest = _digest(cfg.out_dir)
        ref_s, ref_reps = reference.sample(reference.SHARE * wall)
        calls.append(
            {"wall_s": wall, "rc": rc, "error": error, "traced": traced,
             "digest": digest, "ref_s": ref_s, "ref_reps": ref_reps}
        )
        if traced:
            spans = tr.take()
            metrics, extra = call_metrics(spans, cfg.n_cells)
            layers.append(metrics)
            counts.append(extra["counts"])
            table = extra["table"]
        elapsed = perf_counter() - start
        n_traced = len(layers)
        enough = len(calls) >= MIN_CALLS and (tr is None or n_traced >= MIN_TRACED_CALLS)
        if (elapsed >= seconds and enough) or elapsed >= HARD_STOP_S:
            break

    result = {
        "calls": calls,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "counts": counts,
        "table": table,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
