"""Command-line front end.

Subcommands:

    run          one trajectory               -> <outdir>/run-<tag>.csv
    mc           Monte Carlo summary          -> mc-<tag>.csv and mc-<tag>.json
    converge     manufactured refinement      -> converge-<tag>.csv
    eps-study    penalization study           -> eps-study-<tag>.csv
    verify       inequality report            -> verify-<tag>.json, exit 3 on failure
    estimate-cp  print the monotonicity constant estimate

Exit codes: 0 success, 1 configuration error, 2 runtime error,
3 verification failure.  All file contents are deterministic functions of
the configuration and seeds (the default tag is derived from the base
seed, never from a clock), so identical invocations produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ParseError, RunConfig, ValidationError, emit_config, parse_config
from .harness import (
    estimate_cp,
    run_deterministic_convergence,
    run_eps_study,
    run_mc,
    verify_all,
)
from .operators import OperatorContext
from .solver import NonConvergence
from .stepper import run_path

__all__ = ["main", "dispatch"]

# argparse dest of each override flag -> the config key it sets
_OVERRIDES = {"seed": "noise.base_seed", "out_dir": "output.dir", "tag": "tag",
              "output_mode": "output.mode", "n_paths": "n_paths", "workers": "workers",
              "levels": "levels"}


def _canonical(cfg: RunConfig) -> str:
    return json.dumps(
        emit_config(cfg, simulation_only=True), sort_keys=True, separators=(",", ":")
    )


def _out_path(cfg: RunConfig, subcommand: str, suffix: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, f"{subcommand}-{cfg.resolved_tag()}.{suffix}")


def _cmd_run(cfg: RunConfig) -> int:
    ctx = OperatorContext(cfg.model, cfg.reaction, cfg.grid())
    traj = run_path(
        ctx,
        cfg.noise,
        cfg.initial(),
        cfg.source,
        seed=cfg.base_seed,
        cfg=cfg.solver,
        mode=cfg.output_mode,
    )
    path = _out_path(cfg, "run", "csv")
    traj.to_csv(path, metadata={"config": _canonical(cfg)})
    print(path)
    return 0


def _cmd_mc(cfg: RunConfig) -> int:
    ctx = OperatorContext(cfg.model, cfg.reaction, cfg.grid())
    summary = run_mc(
        ctx,
        cfg.noise,
        cfg.initial(),
        cfg.source,
        n_paths=cfg.n_paths,
        base_seed=cfg.base_seed,
        solver_cfg=cfg.solver,
    )
    csv_path = _out_path(cfg, "mc", "csv")
    summary.to_csv(csv_path)
    json_path = _out_path(cfg, "mc", "json")
    payload = {
        "config": emit_config(cfg, simulation_only=True),
        "summary": summary.to_dict(),
    }
    with open(json_path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(csv_path)
    print(json_path)
    return 0


def _cmd_converge(cfg: RunConfig, study: str) -> int:
    table = run_deterministic_convergence(
        mode=study, levels=cfg.levels, solver_cfg=cfg.solver
    )
    table.metadata["config"] = _canonical(cfg)
    path = _out_path(cfg, "converge", "csv")
    table.to_csv(path)
    print(path)
    return 0


def _cmd_eps_study(cfg: RunConfig) -> int:
    table = run_eps_study(
        cfg.eps_list,
        cfg.model,
        cfg.reaction,
        cfg.grid(),
        cfg.noise,
        cfg.source,
        cfg.initial(),
        n_paths=cfg.n_paths,
        base_seed=cfg.base_seed,
        solver_cfg=cfg.solver,
    )
    table.metadata["config"] = _canonical(cfg)
    path = _out_path(cfg, "eps-study", "csv")
    table.to_csv(path)
    print(path)
    return 0


def _cmd_verify(cfg: RunConfig, cp_factor: float) -> int:
    report = verify_all(
        grid=cfg.grid(),
        params=cfg.model,
        reaction=cfg.reaction,
        noise_model=cfg.noise,
        source=cfg.source,
        initial=cfg.initial(),
        solver_cfg=cfg.solver,
        seed=cfg.base_seed,
        cp_factor=cp_factor,
    )
    path = _out_path(cfg, "verify", "json")
    with open(path, "w", newline="\n") as fh:
        fh.write(report.to_json())
    for rec in report.properties:
        flag = "PASS" if rec["passed"] else "FAIL"
        print(
            f"{flag} {rec['module']}.{rec['property']} "
            f"(measured={rec['measured']}, bound={rec['bound']}, "
            f"slack={rec['slack']})"
        )
    print(path)
    return 0 if report.passed else 3


def dispatch(subcommand: str, cfg: RunConfig, *, study: str = "coupled",
             cp_factor: float = 1.0) -> int:
    """Run one subcommand against a validated configuration."""
    if subcommand == "run":
        return _cmd_run(cfg)
    if subcommand == "mc":
        return _cmd_mc(cfg)
    if subcommand == "converge":
        return _cmd_converge(cfg, study)
    if subcommand == "eps-study":
        return _cmd_eps_study(cfg)
    if subcommand == "verify":
        return _cmd_verify(cfg, cp_factor)
    raise ValueError(f"unknown subcommand {subcommand!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapsim",
        description="Penalized stochastic p-Laplace simulator and verifier",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--seed", type=int, help="override noise.base_seed")
        sp.add_argument("--out-dir", help="override output.dir")
        sp.add_argument("--tag", help="output file tag (default s<seed>)")

    sp = sub.add_parser("run", help="simulate one trajectory")
    common(sp)
    sp.add_argument("--output-mode", choices=("full", "thin"),
                    help="override output.mode")

    sp = sub.add_parser("mc", help="Monte Carlo over many paths")
    common(sp)
    sp.add_argument("--n-paths", type=int, help="override n_paths")
    sp.add_argument(
        "--workers", type=int,
        help="override workers (accepted and validated for existing configs; "
        "no effect: the paths run as one batch)",
    )

    sp = sub.add_parser("converge", help="deterministic refinement study")
    common(sp)
    sp.add_argument("--levels", type=int, help="override levels")
    sp.add_argument("--study", choices=("coupled", "spatial"), default="coupled")

    sp = sub.add_parser("eps-study", help="penalization strength study")
    common(sp)
    sp.add_argument("--n-paths", type=int, help="override n_paths")

    sp = sub.add_parser("verify", help="run the inequality verification report")
    common(sp)
    sp.add_argument("--cp-factor", type=float, default=1.0,
                    help="fault injection: scale the monotonicity constant")

    sp = sub.add_parser("estimate-cp", help="estimate the monotonicity constant")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--d", type=int, default=1, choices=(1, 2, 3))
    sp.add_argument("--samples", type=int, default=10**6)
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.subcommand == "estimate-cp":
        try:
            print(repr(estimate_cp(args.p, args.d, args.samples, args.seed)))
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        return 0

    cp_factor = getattr(args, "cp_factor", 1.0)
    if not -float("inf") < cp_factor < float("inf"):  # NaN fails both comparisons
        print(f"config error: cp_factor must be finite, got {cp_factor}", file=sys.stderr)
        return 1

    overrides = {key: getattr(args, dest) for dest, key in _OVERRIDES.items()
                 if getattr(args, dest, None) is not None}
    try:
        cfg = parse_config(args.config, None if args.config is not None else {}, overrides)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        return dispatch(
            args.subcommand,
            cfg,
            study=getattr(args, "study", "coupled"),
            cp_factor=cp_factor,
        )
    except (NonConvergence, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
