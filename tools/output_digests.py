"""Print the exit code and the sha256 of stdout, stderr and every output file.

Runs ``python -m plapsim`` on a fixed set of configurations, each in its
own temporary directory, and prints one line per configuration:

    <case> exit=<code> stdout=<sha256> stderr=<sha256> <file>=<sha256> ...

Two checkouts produce the same lines exactly when they give the same
outputs, byte for byte.  Run it on each side and compare:

    python3 tools/output_digests.py              # this checkout
    python3 tools/output_digests.py path/to/repo # another checkout

The package is taken from ``<repo>/src`` and the benchmark configs from
``<repo>/perfbench/workloads.py``.  The cases are ``verify`` on the
benchmark's ``verify`` config at seeds 0 and 1 and with ``--cp-factor 1.5``
(exit 3), ``mc`` and ``eps-study`` on their benchmark configs at seeds 0
and 1, ``run`` on a 48-cell, M = 30 copy of ``run_large`` (full and thin
output, and with a cosine source), on 4 cells with a tabulated source and,
as ``run-wide``, on 4096 cells with M = 80 in full mode (331,776 values,
above the 2^18 from which the CSV rows are formatted on more than one core)
and, as ``run-wide-cap``, on the ``run_large`` config at seed 7004, whose
step 72 hits the Newton cap (exit 2) after the rows have begun to stream to
the formatting child, so that a failed wide run is checked to leave no file,
``converge --study coupled|spatial``, ``run`` on ``{}`` (every default)
and ``run --seed 5 --tag t --output-mode thin`` on a document of top-level
model shorthand, so that defaults, shorthand and flag overrides are checked
byte for byte through the ``# config:`` line.  Five more cases fail with a
capped Newton solve (exit 2), so that the failure message of each site is
checked byte for byte through stderr: ``run`` at step 6, ``mc`` on path 1
at step 1, ``eps-study`` on the benchmark's ``eps_stiff`` config (at eps
1e-5, a level that a forked child runs on more than one core), and
``verify`` in its uniqueness stack and in its stepper runs.  Two ``mc``
cases on 16384 cells advance their 6 paths in two chunks of the time loop
(4 paths, then 2): one passes, and one fails on path 4, in the second
chunk, so that the chunk loop is checked too.  Eleven cases check
the front door: ``estimate-cp --p 3 --samples 1000`` (no config document),
``usage`` (``run --seed abc``, an argparse usage error, exit 1),
``bad-seed`` (``run --seed -1``, a config error, exit 1),
``estimate-cp-bad-seed`` (``estimate-cp --p 3 --samples 1000 --seed -1``,
a config error that names the seed, exit 1), ``bad-length`` (``run`` on
``{"M": 2, "n_cells": 8, "length": 1e160}``, whose cell width overflows
when squared, a config error, exit 1), ``empty-tag`` (``run --tag ""``
on ``{}``, a config error that writes no ``run-.csv``, exit 1),
``tau-underflow`` (``run`` on ``{"model": {"T": 5e-324, "M": 3}}``, whose
tau = T / M underflows to 0, a config error that names T and M, exit 1),
``sigma-overflow`` (``verify`` on ``{"noise": {"sigma": 1e308}}``,
whose L_g is not finite, a config error, exit 1), ``huge-M`` (``run`` on
``{"model": {"M": 10**400}}``) and ``huge-sigma`` (``verify`` on
``{"noise": {"sigma": 10**400}}``), whose JSON integer 10^400 does not
convert to a finite double, each a config error that names its key, exit
1, and ``huge-M-array`` (``run`` on ``{"model": {"M": 2**62}}``), whose
(M, J) increment matrix numpy rejects as too big to address before it
allocates anything, a runtime error on one stderr line, exit 2.  The last
two run ``eps-study`` on extreme values, now that the time loop prints no
numpy warning (whose lines carry the absolute path of the source file):
``eps-huge-T`` (``{"model": {"T": 1e308, "M": 3, "n_cells": 8}}``), whose
every level fails at step 0 with a residual that is not finite, so the
first level, run by the calling process, is named (exit 2), and
``eps-huge-p`` (``p`` 1e6 on the same grid), whose powers overflow, exit 0
with an empty stderr.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile


def _workloads(repo):
    path = os.path.join(repo, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_digest_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _small_run(make_config, **model):
    doc = make_config("run_large", 0, "out")
    doc["model"].update({"n_cells": 48, "M": 30}, **model)
    return doc


def cases(make_config):
    """(name, subcommand arguments, config document or None) of every case."""
    out = []
    for seed in (0, 1):
        out.append((f"verify-s{seed}", ["verify"], make_config("verify", seed, "out")))
    out.append(("verify-cp1.5", ["verify", "--cp-factor", "1.5"],
                make_config("verify", 0, "out")))
    for seed in (0, 1):
        out.append((f"mc-s{seed}", ["mc"], make_config("mc", seed, "out")))
        out.append((f"eps-s{seed}", ["eps-study"], make_config("eps_stiff", seed, "out")))
    out.append(("run-full", ["run"], _small_run(make_config)))
    thin = _small_run(make_config)
    thin["output"]["mode"] = "thin"
    out.append(("run-thin", ["run"], thin))
    cosine = _small_run(make_config)
    cosine["source"] = {"preset": "cosine", "params": {
        "offset": 0.2, "amp": 0.8, "decay": 1.5, "length": 1.0}}
    out.append(("run-cosine", ["run"], cosine))
    table = _small_run(make_config, n_cells=4)
    table["source"] = {"preset": "tabulated", "params": {
        "times": [0.0, 0.3, 1.0],
        "values": [[0.1, 0.2, 0.3, 0.4], [1.0, -0.5, 0.25, 0.0], [0.0, 0.5, 2.0, -1.0]]}}
    out.append(("run-tabulated", ["run"], table))
    # 81 x 4096 = 331,776 values: the full CSV is formatted in more than one block
    out.append(("run-wide", ["run"], _small_run(make_config, n_cells=4096, M=80)))
    # the run_large data at a seed whose step 72 hits the Newton cap, after
    # the rows have begun to stream to the formatting child
    out.append(("run-wide-cap", ["run"], make_config("run_large", 7004, "out")))
    for study in ("coupled", "spatial"):
        out.append((f"converge-{study}", ["converge", "--study", study],
                    make_config("verify", 0, "out")))
    out.append(("run-defaults", ["run"], {}))
    shorthand = {"p": 3, "eps": 0.05, "T": 0.5, "M": 20, "n_cells": 24, "length": 2,
                 "L_beta": 0.5, "reaction": {"kind": "sine", "scale": 0.3},
                 "source": {"preset": "cosine", "params": {"amp": 1}},
                 "noise": {"sigma": 0.4, "J": 6},
                 "initial": {"preset": "cosine", "params": {"amp": 0.2}}}
    out.append(("run-shorthand", ["run", "--seed", "5", "--tag", "t", "--output-mode", "thin"],
                shorthand))
    out += _failure_cases(make_config)
    out += [("estimate-cp", ["estimate-cp", "--p", "3", "--samples", "1000"], None),
            ("usage", ["run", "--seed", "abc"], {}),
            ("bad-seed", ["run", "--seed", "-1"], {}),
            ("estimate-cp-bad-seed",
             ["estimate-cp", "--p", "3", "--samples", "1000", "--seed", "-1"], None),
            ("bad-length", ["run"], {"M": 2, "n_cells": 8, "length": 1e160}),
            ("empty-tag", ["run", "--tag", ""], {}),
            ("tau-underflow", ["run"], {"model": {"T": 5e-324, "M": 3}}),
            ("sigma-overflow", ["verify"], {"noise": {"sigma": 1e308}}),
            ("huge-M", ["run"], {"model": {"M": 10**400}}),
            ("huge-sigma", ["verify"], {"noise": {"sigma": 10**400}}),
            ("huge-M-array", ["run"], {"model": {"M": 2**62}}),
            # every level fails at step 0: the first level, this process's, is named
            ("eps-huge-T", ["eps-study"], {"model": {"T": 1e308, "M": 3, "n_cells": 8}}),
            # the W^{1,p} powers overflow in the time loop, which prints no warning
            ("eps-huge-p", ["eps-study"], {"model": {"p": 1e6, "M": 3, "n_cells": 8}})]
    return out


def _failure_cases(make_config):
    """Cases that end in a capped Newton solve, one per failure site, and the
    passing twin of the chunked ``mc`` one."""
    stiff = {"p": 2, "eps": 1e-5, "L_beta": 0.5,
             "reaction": {"kind": "sine", "scale": 0.5},
             "initial": {"preset": "cosine", "params": {"offset": 0.5, "amp": 0.25}}}
    # the source pushes the state out of the box; one Newton step fails at step 6
    run = {"p": 2, "eps": 1e-5, "T": 0.5, "M": 20, "n_cells": 16,
           "noise": {"sigma": 0.5, "J": 4, "base_seed": 7},
           "source": {"preset": "constant", "params": {"value": 4.0}},
           "solver": {"max_newton": 1}}
    # path 2 fails at step 0 and path 1 at step 1; path 1 is named
    mc = dict(stiff, T=0.2, M=10, n_cells=24, n_paths=12,
              noise={"sigma": 0.5, "J": 6, "base_seed": 0},
              source={"preset": "cosine", "params": {"amp": 20.0}},
              solver={"max_newton": 6})
    # the first three levels pass; path 1 fails at eps 1e-5
    eps = make_config("eps_stiff", 0, "out")
    eps["solver"] = {"max_newton": 10}
    unique = make_config("verify", 0, "out")
    unique["solver"] = {"max_newton": 1}
    # the uniqueness stack passes; the noisy run stalls at step 12
    stepper = dict(stiff, T=0.5, M=20, n_cells=32,
                   noise={"sigma": 0.5, "J": 12, "base_seed": 0},
                   source={"preset": "constant", "params": {"value": 2.0}},
                   solver={"max_newton": 6})
    # 16384 cells: 4 paths per chunk, so the 6 paths run in two chunks; with
    # 7 Newton steps path 4, in the second chunk, fails at step 0
    chunks = dict(stiff, eps=1e-3, T=0.2, M=2, n_cells=16384, n_paths=6,
                  noise={"sigma": 5.0, "J": 6, "base_seed": 9},
                  source={"preset": "cosine", "params": {"amp": 20.0}})
    return [("fail-run", ["run"], run), ("fail-mc", ["mc"], mc),
            ("fail-eps", ["eps-study"], eps), ("fail-verify-solver", ["verify"], unique),
            ("fail-verify-stepper", ["verify"], stepper),
            ("mc-chunks", ["mc"], dict(chunks, solver={"tol_residual": 1e-8,
                                                       "max_newton": 50})),
            ("fail-mc-chunks", ["mc"], dict(chunks, solver={"tol_residual": 1e-8,
                                                            "max_newton": 7}))]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(repo, name, argv, doc):
    """The printed line of one case."""
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    with tempfile.TemporaryDirectory() as cwd:
        if doc is not None:
            with open(os.path.join(cwd, "cfg.json"), "w") as fh:
                json.dump(doc, fh)
            argv = [*argv, "--config", "cfg.json"]
        done = subprocess.run(
            [sys.executable, "-m", "plapsim", *argv], cwd=cwd, env=env, capture_output=True,
        )
        parts = [name, f"exit={done.returncode}", f"stdout={_sha(done.stdout)}",
                 f"stderr={_sha(done.stderr)}"]
        out_dir = os.path.join(cwd, "out")
        for fname in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
            with open(os.path.join(out_dir, fname), "rb") as fh:
                parts.append(f"{fname}={_sha(fh.read())}")
    return " ".join(parts)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    repo = os.path.abspath(args[0] if args else here)
    for name, sub, doc in cases(_workloads(repo).make_config):
        print(digest(repo, name, sub, doc), flush=True)


if __name__ == "__main__":
    main()
