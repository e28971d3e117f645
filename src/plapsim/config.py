"""JSON run configuration: schema, validation, canonical emission.

One flat JSON file with a section per module:

    model    {p, eps, T, M, L_beta?, length, n_cells}
    reaction {kind, scale}
    source   {preset, params}
    noise    {sigma, J, base_seed}
    solver   {tol_residual, max_newton}
    output   {dir, mode}            mode: full | thin
    initial  {preset, params}       optional, default constant 0.5

plus optional top-level keys for the study subcommands: levels, n_paths,
workers, eps_list, tag.  ``workers`` is accepted and validated (an integer
>= 1) so existing configs keep working, but it has no effect: ``mc`` runs
its paths as one batch.  Model parameters may also be given as top-level
shorthand keys (p, eps, T, M, L_beta, length, n_cells); giving the same
key both ways is an error.  Unknown keys are rejected with their path,
the params of each source and initial preset included, and so is a
preset number that is not finite.  ``null`` stands for a default only
where that default is null (``L_beta``).

L_beta defaults to the reaction scale when omitted, so the declared
Lipschitz constant can never silently undershoot the realized reaction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mesh import Grid1D
from .model import (
    INITIAL_KINDS,
    ModelParams,
    ReactionSpec,
    SOURCE_KINDS,
    SourceSpec,
    make_initial,
)
from .noise import NoiseModel
from .solver import SolverConfig

__all__ = ["RunConfig", "ParseError", "ValidationError", "parse_config", "emit_config"]

_MODEL_KEYS = ("p", "eps", "T", "M", "L_beta", "length", "n_cells")
_SECTIONS = ("model", "reaction", "source", "noise", "solver", "output", "initial")
_TOP_KEYS = ("levels", "n_paths", "workers", "eps_list", "tag")
# the params keys of each source and initial-datum preset
_SOURCE_PARAMS = {"zero": (), "constant": ("value",), "tabulated": ("times", "values"),
                  "cosine": ("offset", "amp", "decay", "length")}
_INITIAL_PARAMS = {"constant": ("value",), "cosine": ("offset", "amp")}


class ParseError(Exception):
    """Config file missing or not valid JSON."""


class ValidationError(Exception):
    """Config contents violate the schema; message carries the key path."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration."""

    model: ModelParams
    n_cells: int
    reaction: ReactionSpec
    source: SourceSpec
    noise: NoiseModel
    base_seed: int
    solver: SolverConfig
    out_dir: str
    output_mode: str
    initial_kind: str
    initial_params: dict
    levels: int
    n_paths: int
    workers: int
    eps_list: tuple
    tag: str | None = None

    def grid(self) -> Grid1D:
        return Grid1D(self.n_cells, self.model.length)

    def initial(self):
        return make_initial(self.grid(), self.initial_kind, self.initial_params)

    def resolved_tag(self) -> str:
        return self.tag if self.tag is not None else f"s{self.base_seed}"


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected an object")
    return value


def _reject_unknown(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ValidationError(f"unknown key: {path}{key}")


def _number(section, key, default, path, integer=False, minimum=None,
            strict_minimum=None, maximum=None):
    value = section.get(key, default)
    if value is None and default is None:  # null only where the default is null
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}{key}: expected a number, got {value!r}")
    if not abs(value) < float("inf"):  # json reads NaN, Infinity and -Infinity
        raise ValidationError(f"{path}{key}: must be finite, got {value!r}")
    if integer:
        if int(value) != value:
            raise ValidationError(f"{path}{key}: expected an integer, got {value!r}")
        value = int(value)
    else:
        value = float(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}{key}: must be >= {minimum}, got {value}")
    if strict_minimum is not None and value <= strict_minimum:
        raise ValidationError(f"{path}{key}: must be > {strict_minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{path}{key}: must be <= {maximum}, got {value}")
    return value


def _string(section, key, default, path, choices=None):
    value = section.get(key, default)
    if not isinstance(value, str):
        raise ValidationError(f"{path}{key}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ValidationError(
            f"{path}{key}: must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def parse_config(
    path: str | None = None,
    data: dict | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Load, validate and default-fill a configuration.

    Exactly one of ``path`` (JSON file) or ``data`` (already-parsed dict)
    supplies the base document; ``overrides`` is a flat mapping of
    dotted key paths (e.g. "output.dir", "n_paths") applied on top before
    validation.  Raises :class:`ParseError` for unreadable or malformed
    input and :class:`ValidationError` with a key path for schema
    violations.
    """
    if (path is None) == (data is None):
        raise ValueError("provide exactly one of path or data")
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    raw = dict(_require_mapping(data, "config"))

    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        target = raw
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ValidationError(f"{dotted}: cannot override a scalar")
        target[parts[-1]] = value

    for key in raw:
        if key not in _SECTIONS and key not in _TOP_KEYS and key not in _MODEL_KEYS:
            raise ValidationError(f"unknown key: {key}")

    # top-level model shorthand
    model_raw = dict(_require_mapping(raw.get("model", {}), "model"))
    for key in _MODEL_KEYS:
        if key in raw:
            if key in model_raw:
                raise ValidationError(
                    f"{key} given both at top level and under model"
                )
            model_raw[key] = raw[key]
    _reject_unknown(model_raw, _MODEL_KEYS, "model.")

    reaction_raw = _require_mapping(raw.get("reaction", {}), "reaction")
    _reject_unknown(reaction_raw, ("kind", "scale"), "reaction.")
    kind = _string(reaction_raw, "kind", "zero", "reaction.",
                   choices=("zero", "linear", "sine"))
    scale = _number(reaction_raw, "scale", 0.0, "reaction.", minimum=0.0)
    reaction = ReactionSpec(kind, scale)

    p = _number(model_raw, "p", 2.0, "model.")
    if p < 2:
        raise ValidationError(f"model.p: must be >= 2, got {p}")
    eps = _number(model_raw, "eps", 0.1, "model.", strict_minimum=0.0)
    T = _number(model_raw, "T", 1.0, "model.", strict_minimum=0.0)
    M = _number(model_raw, "M", 100, "model.", integer=True, minimum=1)
    length = _number(model_raw, "length", 1.0, "model.", strict_minimum=0.0)
    n_cells = _number(model_raw, "n_cells", 64, "model.", integer=True, minimum=2)
    L_beta = _number(model_raw, "L_beta", None, "model.", minimum=0.0)
    if L_beta is None:
        L_beta = reaction.scale
    elif L_beta < reaction.scale:
        raise ValidationError(
            f"model.L_beta: {L_beta} is below the reaction scale {reaction.scale}"
        )
    try:
        model = ModelParams(p=p, eps=eps, T=T, M=M, L_beta=L_beta, length=length)
    except ValueError as exc:
        raise ValidationError(f"model: {exc}") from exc

    source_raw = _require_mapping(raw.get("source", {}), "source")
    _reject_unknown(source_raw, ("preset", "params"), "source.")
    preset = _string(source_raw, "preset", "zero", "source.", choices=SOURCE_KINDS)
    source_params = dict(_require_mapping(source_raw.get("params", {}), "source.params"))
    _reject_unknown(source_params, _SOURCE_PARAMS[preset], "source.params.")
    if preset == "cosine":
        source_params.setdefault("offset", 0.0)
        source_params.setdefault("amp", 0.0)
        source_params.setdefault("decay", 0.0)
        source_params.setdefault("length", length)
    if preset != "tabulated":  # numbers, checked but stored as given
        for key in _SOURCE_PARAMS[preset]:
            _number(source_params, key, None, "source.params.",
                    strict_minimum=0.0 if key == "length" else None)
    try:
        source = SourceSpec(preset, source_params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"source.params: {exc}") from exc
    if preset == "tabulated" and np.shape(source_params["values"])[1:] != (n_cells,):
        raise ValidationError(
            f"source.params.values: each row needs model.n_cells = {n_cells} entries"
        )

    noise_raw = _require_mapping(raw.get("noise", {}), "noise")
    _reject_unknown(noise_raw, ("sigma", "J", "base_seed"), "noise.")
    sigma = _number(noise_raw, "sigma", 0.5, "noise.", minimum=0.0)
    J = _number(noise_raw, "J", 16, "noise.", integer=True, minimum=1)
    base_seed = _number(noise_raw, "base_seed", 0, "noise.", integer=True)
    noise = NoiseModel(J=J, sigma=sigma)

    solver_raw = _require_mapping(raw.get("solver", {}), "solver")
    _reject_unknown(solver_raw, ("tol_residual", "max_newton"), "solver.")
    tol = _number(solver_raw, "tol_residual", 1e-10, "solver.", strict_minimum=0.0)
    max_newton = _number(solver_raw, "max_newton", 50, "solver.", integer=True,
                         minimum=1)
    solver = SolverConfig(tol_residual=tol, max_newton=max_newton)

    output_raw = _require_mapping(raw.get("output", {}), "output")
    _reject_unknown(output_raw, ("dir", "mode"), "output.")
    out_dir = _string(output_raw, "dir", "out", "output.")
    output_mode = _string(output_raw, "mode", "full", "output.",
                          choices=("full", "thin"))

    initial_raw = _require_mapping(raw.get("initial", {}), "initial")
    _reject_unknown(initial_raw, ("preset", "params"), "initial.")
    initial_kind = _string(initial_raw, "preset", "constant", "initial.",
                           choices=INITIAL_KINDS)
    initial_params = dict(
        _require_mapping(initial_raw.get("params", {}), "initial.params")
    )
    _reject_unknown(initial_params, _INITIAL_PARAMS[initial_kind], "initial.params.")
    if initial_kind == "constant":
        value = _number(initial_params, "value", 0.5, "initial.params.")
        if not 0.0 <= value <= 1.0:
            raise ValidationError(
                f"initial.params.value: must lie in [0, 1], got {value}"
            )
        initial_params = {"value": value}
    else:
        offset = _number(initial_params, "offset", 0.5, "initial.params.")
        amp = _number(initial_params, "amp", 0.25, "initial.params.")
        if offset - abs(amp) < 0.0 or offset + abs(amp) > 1.0:
            raise ValidationError(
                "initial.params: cosine profile leaves [0, 1] "
                f"(offset={offset}, amp={amp})"
            )
        initial_params = {"offset": offset, "amp": amp}

    levels = _number(raw, "levels", 4, "", integer=True, minimum=2)
    n_paths = _number(raw, "n_paths", 100, "", integer=True, minimum=2)
    workers = _number(raw, "workers", 1, "", integer=True, minimum=1)
    eps_list = raw.get("eps_list", [0.1, 0.05, 0.025])
    if not isinstance(eps_list, (list, tuple)) or len(eps_list) < 2:
        raise ValidationError("eps_list: expected a list of at least two levels")
    eps_clean = []
    for i, e in enumerate(eps_list):
        if isinstance(e, bool) or not isinstance(e, (int, float)) or not 0 < e < float("inf"):
            raise ValidationError(f"eps_list[{i}]: must be a positive finite number")
        eps_clean.append(float(e))
    tag = raw.get("tag")
    if tag is not None and not isinstance(tag, str):
        raise ValidationError(f"tag: expected a string, got {tag!r}")

    return RunConfig(
        model=model,
        n_cells=n_cells,
        reaction=reaction,
        source=source,
        noise=noise,
        base_seed=base_seed,
        solver=solver,
        out_dir=out_dir,
        output_mode=output_mode,
        initial_kind=initial_kind,
        initial_params=initial_params,
        levels=levels,
        n_paths=n_paths,
        workers=workers,
        eps_list=tuple(eps_clean),
        tag=tag,
    )


def emit_config(cfg: RunConfig, simulation_only: bool = False) -> dict:
    """Canonical nested dict with every default made explicit.

    parse_config(data=emit_config(cfg)) reconstructs an equal RunConfig.
    With ``simulation_only`` the execution-only fields (workers, tag, the
    output section) are dropped: what remains determines the computed
    numbers, so it is the right provenance stamp for output files that
    must be byte-identical across ``workers`` values and output locations.
    """
    out = {
        "model": {
            "p": cfg.model.p,
            "eps": cfg.model.eps,
            "T": cfg.model.T,
            "M": cfg.model.M,
            "L_beta": cfg.model.L_beta,
            "length": cfg.model.length,
            "n_cells": cfg.n_cells,
        },
        "reaction": {"kind": cfg.reaction.kind, "scale": cfg.reaction.scale},
        "source": {"preset": cfg.source.kind, "params": dict(cfg.source.params)},
        "noise": {
            "sigma": cfg.noise.sigma,
            "J": cfg.noise.J,
            "base_seed": cfg.base_seed,
        },
        "solver": {
            "tol_residual": cfg.solver.tol_residual,
            "max_newton": cfg.solver.max_newton,
        },
        "output": {"dir": cfg.out_dir, "mode": cfg.output_mode},
        "initial": {"preset": cfg.initial_kind, "params": dict(cfg.initial_params)},
        "levels": cfg.levels,
        "n_paths": cfg.n_paths,
        "workers": cfg.workers,
        "eps_list": list(cfg.eps_list),
    }
    if cfg.tag is not None:
        out["tag"] = cfg.tag
    if simulation_only:
        del out["output"], out["workers"]
        out.pop("tag", None)
    return out
