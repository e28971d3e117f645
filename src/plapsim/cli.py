"""Command-line front end.

Subcommands, each declared once as a row of ``_SUBCOMMANDS``:

    run          one trajectory               -> <outdir>/run-<tag>.csv
    mc           Monte Carlo summary          -> mc-<tag>.csv and mc-<tag>.json
    converge     manufactured refinement      -> converge-<tag>.csv
    eps-study    penalization study           -> eps-study-<tag>.csv
    verify       inequality report            -> verify-<tag>.json, exit 3 on failure
    estimate-cp  print the monotonicity constant estimate

Exit codes, for every subcommand: 0 success (also ``--help``), 1 config
error (a bad document, flag or argument, or a usage error), 2 runtime error
(a failed solve or write, or a table too large to allocate), 3 verification
failure.  File contents are deterministic functions of the configuration
and seeds (the default tag is derived from the base seed, never from a
clock), so identical invocations produce byte-identical outputs.

This module is the one place that names and opens an output file, in
``_write``; the library's ``to_csv`` methods write to the stream given.  A
subcommand that fails (exit 2, or an interrupt) leaves no file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import _SCHEMA, ParseError, RunConfig, ValidationError, emit_config, parse_config
from .harness import (
    estimate_cp,
    run_deterministic_convergence,
    run_eps_study,
    run_mc,
    verify_all,
)
from .solver import NonConvergence
from .stepper import RowWriter, run_path

__all__ = ["main", "dispatch"]

# argparse dest of each override flag -> the config key it sets
_OVERRIDES = {"seed": "noise.base_seed", "out_dir": "output.dir", "tag": "tag",
              "output_mode": "output.mode", "n_paths": "n_paths", "workers": "workers",
              "levels": "levels"}
# what an override flag's help says after "override <key>"
_NOTES = {"tag": " (default s<seed>)",
          "workers": " (accepted and validated for existing configs; no effect: "
                     "the paths run as one batch, and eps-study runs its levels "
                     "on every usable core)"}
# the arguments of every subcommand that runs on a configuration
_CONFIG_ARGS = (("--config", {"help": "JSON configuration file"}), "seed", "out_dir", "tag")


def _write(cfg: RunConfig, subcommand: str, *files) -> list:
    """Write the files of one subcommand and return their paths, in order.

    Each ``(suffix, write)`` of ``files`` is <outdir>/<subcommand>-<tag>.<suffix>,
    whose content ``write(stream)`` writes to <path>.<pid>.tmp, with LF
    endings.  The files are renamed once every one is whole; on any
    exception, ``KeyboardInterrupt`` included, every temporary file is removed.
    """
    paths = [os.path.join(cfg.out_dir, f"{subcommand}-{cfg.resolved_tag()}.{suffix}")
             for suffix, _ in files]
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        for temp, (_, write) in zip(temps, files):
            with open(temp, "w", newline="\n") as stream:
                write(stream)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise
    return paths


def _metadata(cfg: RunConfig) -> dict:
    """The '# config:' line of every CSV: the simulation part of ``cfg``, compact."""
    return {"config": json.dumps(emit_config(cfg, simulation_only=True), sort_keys=True,
                                 separators=(",", ":"))}


def _cmd_run(cfg: RunConfig, **_) -> int:
    def write(stream):  # in full mode the rows are formatted while the time loop runs
        with RowWriter(stream) as rows:
            hook = rows.push if cfg.output_mode == "full" else None
            traj = run_path(*cfg.problem(), seed=cfg.base_seed, cfg=cfg.solver,
                            mode=cfg.output_mode, on_step=hook)
            traj.to_csv(stream, _metadata(cfg), rows)

    print(*_write(cfg, "run", ("csv", write)))
    return 0


def _cmd_mc(cfg: RunConfig, **_) -> int:
    summary = run_mc(
        *cfg.problem(),
        n_paths=cfg.n_paths,
        base_seed=cfg.base_seed,
        solver_cfg=cfg.solver,
    )

    def write_json(stream):
        payload = {"config": emit_config(cfg, simulation_only=True), "summary": summary.to_dict()}
        stream.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    print(*_write(cfg, "mc", ("csv", summary.to_csv), ("json", write_json)), sep="\n")
    return 0


def _cmd_converge(cfg: RunConfig, study: str, **_) -> int:
    table = run_deterministic_convergence(
        mode=study, levels=cfg.levels, solver_cfg=cfg.solver
    )
    print(*_write(cfg, "converge", ("csv", lambda stream: table.to_csv(stream, _metadata(cfg)))))
    return 0


def _cmd_eps_study(cfg: RunConfig, **_) -> int:
    table = run_eps_study(
        *cfg.problem(),
        cfg.eps_list,
        n_paths=cfg.n_paths,
        base_seed=cfg.base_seed,
        solver_cfg=cfg.solver,
    )
    print(*_write(cfg, "eps-study", ("csv", lambda stream: table.to_csv(stream, _metadata(cfg)))))
    return 0


def _cmd_verify(cfg: RunConfig, cp_factor: float, **_) -> int:
    report = verify_all(
        *cfg.problem(),
        solver_cfg=cfg.solver,
        seed=cfg.base_seed,
        cp_factor=cp_factor,
    )
    [path] = _write(cfg, "verify", ("json", lambda stream: stream.write(report.to_json())))
    for rec in report.properties:
        flag = "PASS" if rec["passed"] else "FAIL"
        print(
            f"{flag} {rec['module']}.{rec['property']} "
            f"(measured={rec['measured']}, bound={rec['bound']}, "
            f"slack={rec['slack']})"
        )
    print(path)
    return 0 if report.passed else 3


def _cmd_estimate_cp(args) -> int:
    try:
        print(repr(estimate_cp(args.p, args.d, args.samples, args.seed)))
    except ValueError as exc:  # an argument out of range
        raise ValidationError(exc) from None
    return 0


# name -> (help, arguments, runner).  An argument is an _OVERRIDES dest or a
# (flag, add_argument keywords) pair.  A subcommand with _CONFIG_ARGS runs
# through dispatch, any other on its parsed arguments alone.
_SUBCOMMANDS = {
    "run": ("simulate one trajectory", (*_CONFIG_ARGS, "output_mode"), _cmd_run),
    "mc": ("Monte Carlo over many paths", (*_CONFIG_ARGS, "n_paths", "workers"), _cmd_mc),
    "converge": ("deterministic refinement study", (*_CONFIG_ARGS, "levels", (
        "--study", {"choices": ("coupled", "spatial"), "default": "coupled"})), _cmd_converge),
    "eps-study": ("penalization strength study", (*_CONFIG_ARGS, "n_paths"), _cmd_eps_study),
    "verify": ("run the inequality verification report", (
        *_CONFIG_ARGS,
        ("--cp-factor", {"type": float, "default": 1.0,
                         "help": "fault injection: scale the monotonicity constant"}),
    ), _cmd_verify),
    "estimate-cp": ("estimate the monotonicity constant", (
        ("--p", {"type": float, "required": True}),
        ("--d", {"type": int, "default": 1, "choices": (1, 2, 3)}),
        ("--samples", {"type": int, "default": 10**6}),
        ("--seed", {"type": int, "default": 0}),
    ), _cmd_estimate_cp),
}


def dispatch(subcommand: str, cfg: RunConfig, *, study: str = "coupled",
             cp_factor: float = 1.0) -> int:
    """Run one subcommand against a validated configuration.

    The output directory is made first, so one that cannot be made fails
    before any compute.
    """
    _, arguments, runner = _SUBCOMMANDS.get(subcommand, (None, (), None))
    if _CONFIG_ARGS[0] not in arguments:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    return runner(cfg, study=study, cp_factor=cp_factor)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapsim",
        description="Penalized stochastic p-Laplace simulator and verifier",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, arguments, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for arg in arguments:
            if isinstance(arg, tuple):
                sp.add_argument(arg[0], **arg[1])
                continue
            section, _, key = _OVERRIDES[arg].rpartition(".")
            check = _SCHEMA[section][key][1]  # a dict of bounds or a tuple of choices
            kwargs = {"help": f"override {_OVERRIDES[arg]}{_NOTES.get(arg, '')}"}
            if isinstance(check, dict):
                kwargs["type"] = int if check.get("integer") else float
            elif check:
                kwargs["choices"] = check
            sp.add_argument("--" + arg.replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 after a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        if "config" not in args:  # a subcommand without _CONFIG_ARGS
            return _SUBCOMMANDS[args.subcommand][2](args)
        cp_factor = getattr(args, "cp_factor", 1.0)
        if not abs(cp_factor) < float("inf"):  # NaN fails the comparison
            raise ValidationError(f"cp_factor must be finite, got {cp_factor}")
        overrides = {key: getattr(args, dest) for dest, key in _OVERRIDES.items()
                     if getattr(args, dest, None) is not None}
        cfg = parse_config(args.config, None if args.config is not None else {}, overrides)
        return dispatch(args.subcommand, cfg, study=getattr(args, "study", "coupled"),
                        cp_factor=cp_factor)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergence, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
