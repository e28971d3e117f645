"""JSON run configuration: schema, validation, canonical emission.

One flat JSON file with a section per module (model, reaction, source,
noise, solver, output, initial) plus top-level keys for the study
subcommands (levels, n_paths, workers, eps_list, tag).  ``_SCHEMA``
declares each key once, with its default and its check; the unknown-key
sets and the top-level model shorthand are read from it.  ``parse_config``
keeps the validated document, every default filled in, as
``RunConfig.doc``, and ``emit_config`` returns a copy of it, so the round
trip holds by construction.  ``RunConfig.problem()`` returns the leading
arguments of every path driver, ``(ctx, noise, initial, source)``.

Model parameters may also be given as top-level shorthand keys; giving
the same key both ways is an error.  Unknown keys are rejected with
their path, the params of each source and initial preset included, and
so is a number that does not convert to a finite double (NaN, an
infinity or an integer beyond the doubles).  So are a ``tag`` with a path
separator, an empty ``tag`` or ``output.dir``, a NUL character in either,
an ``eps_list`` that is not strictly monotone and a ``length`` whose cell
width overflows when squared, which then fail before any compute.
``null`` stands for a default only where that default is null
(``L_beta``, ``tag``).  ``workers`` is accepted and validated (an integer
>= 1) so existing configs keep working, but it has no effect: ``mc`` runs
its paths as one batch, and ``eps-study`` its levels on every usable core.
L_beta defaults to the reaction
scale when omitted, so the declared Lipschitz constant can never
silently undershoot the realized reaction.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

import numpy as np

from .mesh import Grid1D
from .model import (
    INITIAL_KINDS,
    INITIAL_PARAMS,
    REACTION_KINDS,
    ModelParams,
    ReactionSpec,
    SOURCE_KINDS,
    SOURCE_PARAMS,
    SourceSpec,
    make_initial,
)
from .noise import NoiseModel
from .operators import OperatorContext
from .solver import SolverConfig

__all__ = ["RunConfig", "ParseError", "ValidationError", "parse_config", "emit_config"]

# section -> key -> (default, check); the section "" holds the top-level keys.
# A dict check is the bounds passed to _number, a tuple the choices of a
# string (empty: any string), and None a key checked after the loop in _validate.
_SCHEMA = {
    "model": {
        "p": (2.0, {"minimum": 2}),
        "eps": (0.1, {"strict_minimum": 0.0}),
        "T": (1.0, {"strict_minimum": 0.0}),
        "M": (100, {"integer": True, "minimum": 1}),
        "L_beta": (None, {"minimum": 0.0}),
        "length": (1.0, {"strict_minimum": 0.0}),
        "n_cells": (64, {"integer": True, "minimum": 2}),
    },
    "reaction": {"kind": ("zero", REACTION_KINDS), "scale": (0.0, {"minimum": 0.0})},
    "source": {"preset": ("zero", SOURCE_KINDS), "params": ({}, None)},
    "noise": {
        "sigma": (0.5, {"minimum": 0.0}),
        "J": (16, {"integer": True, "minimum": 1}),
        "base_seed": (0, {"integer": True, "minimum": 0}),
    },
    "solver": {
        "tol_residual": (1e-10, {"strict_minimum": 0.0}),
        "max_newton": (50, {"integer": True, "minimum": 1}),
    },
    "output": {"dir": ("out", ()), "mode": ("full", ("full", "thin"))},
    "initial": {"preset": ("constant", INITIAL_KINDS), "params": ({}, None)},
    "": {
        "levels": (4, {"integer": True, "minimum": 2}),
        "n_paths": (100, {"integer": True, "minimum": 2}),
        "workers": (1, {"integer": True, "minimum": 1}),
        "eps_list": ([0.1, 0.05, 0.025], None),
        "tag": (None, ()),
    },
}
# the keys allowed at the top level: sections, top-level keys, model shorthand
_TOP_KEYS = {*_SCHEMA, *_SCHEMA[""], *_SCHEMA["model"]} - {""}


class ParseError(Exception):
    """Config file missing or not valid JSON."""


class ValidationError(Exception):
    """Config contents violate the schema; message carries the key path."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration: the document with every default
    filled in, the objects built from it, and properties reading its keys."""

    doc: dict
    model: ModelParams
    grid: Grid1D
    reaction: ReactionSpec
    source: SourceSpec
    noise: NoiseModel
    solver: SolverConfig

    n_cells = property(lambda self: self.doc["model"]["n_cells"])
    base_seed = property(lambda self: self.doc["noise"]["base_seed"])
    out_dir = property(lambda self: self.doc["output"]["dir"])
    output_mode = property(lambda self: self.doc["output"]["mode"])
    initial_kind = property(lambda self: self.doc["initial"]["preset"])
    initial_params = property(lambda self: self.doc["initial"]["params"])
    levels = property(lambda self: self.doc["levels"])
    n_paths = property(lambda self: self.doc["n_paths"])
    workers = property(lambda self: self.doc["workers"])
    eps_list = property(lambda self: tuple(self.doc["eps_list"]))
    tag = property(lambda self: self.doc.get("tag"))

    def problem(self):
        ctx = OperatorContext(self.model, self.reaction, self.grid)
        initial = make_initial(self.grid, self.initial_kind, self.initial_params)
        return ctx, self.noise, initial, self.source

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


def _finite(value) -> bool:
    """Whether the number ``value`` converts to a finite double."""
    try:
        return abs(float(value)) < float("inf")  # NaN fails the comparison
    except OverflowError:  # an integer beyond the doubles
        return False


def _number(section, key, default, path, integer=False, minimum=None,
            strict_minimum=None):
    value = section.get(key, default)
    if value is None and default is None:  # null only where the default is null
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}{key}: expected a number, got {value!r}")
    if not _finite(value):  # json reads NaN, Infinity, -Infinity and integers of any size
        got = repr(value) if isinstance(value, float) else "an integer beyond the doubles"
        raise ValidationError(f"{path}{key}: must be finite, got {got}")
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
    return value


def _string(section, key, default, path, choices=()):
    value = section.get(key, default)
    if value is None and default is None:  # null only where the default is null
        return None
    if not isinstance(value, str):
        raise ValidationError(f"{path}{key}: expected a string, got {value!r}")
    if choices and value not in choices:
        raise ValidationError(
            f"{path}{key}: must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def _apply_overrides(data: dict, overrides: dict) -> dict:
    """``data`` with each dotted key set; every section written is copied."""
    raw = dict(data)
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        target = raw
        for part in parts[:-1]:
            section = target.get(part, {})
            if not isinstance(section, dict):
                raise ValidationError(f"{dotted}: cannot override a scalar")
            target[part] = target = dict(section)
        target[parts[-1]] = value
    return raw


def _validate(raw: dict) -> dict:
    """The validated document of ``raw``, every default filled in."""
    _reject_unknown(raw, _TOP_KEYS, "")
    model = dict(_require_mapping(raw.get("model", {}), "model"))
    for key in _SCHEMA["model"]:  # top-level model shorthand
        if key in raw:
            if key in model:
                raise ValidationError(f"{key} given both at top level and under model")
            model[key] = raw[key]
    raw = {**raw, "model": model}

    doc = {}
    for section, keys in _SCHEMA.items():
        path = f"{section}." if section else ""
        if section:
            given = _require_mapping(raw.get(section, {}), section)
            _reject_unknown(given, keys, path)
            out = doc[section] = {}
        else:
            given, out = raw, doc
        for key, (default, check) in keys.items():
            if isinstance(check, dict):
                out[key] = _number(given, key, default, path, **check)
            elif isinstance(check, tuple):
                out[key] = _string(given, key, default, path, check)
            else:
                out[key] = given.get(key, default)
    for key, value in (("tag", doc["tag"]), ("output.dir", doc["output"]["dir"])):
        if value == "":
            raise ValidationError(f"{key}: must not be empty")
        if value is not None and "\0" in value:
            raise ValidationError(f"{key}: must not contain a NUL character, got {value!r}")
    if doc["tag"] is None:
        del doc["tag"]
    elif any(sep in doc["tag"] for sep in filter(None, (os.sep, os.altsep))):
        raise ValidationError(f"tag: must not contain a path separator, got {doc['tag']!r}")

    model, scale = doc["model"], doc["reaction"]["scale"]
    if model["L_beta"] is None:
        model["L_beta"] = scale
    elif model["L_beta"] < scale:
        raise ValidationError(
            f"model.L_beta: {model['L_beta']} is below the reaction scale {scale}"
        )

    source = doc["source"]
    preset = source["preset"]
    params = dict(_require_mapping(source["params"], "source.params"))
    _reject_unknown(params, SOURCE_PARAMS[preset], "source.params.")
    if preset == "cosine":
        params = {"offset": 0.0, "amp": 0.0, "decay": 0.0, "length": model["length"],
                  **params}
    if preset != "tabulated":  # numbers, checked but stored as given
        for key in SOURCE_PARAMS[preset]:
            _number(params, key, None, "source.params.",
                    strict_minimum=0.0 if key == "length" else None)
    source["params"] = params

    initial = doc["initial"]
    given = _require_mapping(initial["params"], "initial.params")
    defaults = INITIAL_PARAMS[initial["preset"]]
    _reject_unknown(given, defaults, "initial.params.")
    params = initial["params"] = {
        key: _number(given, key, default, "initial.params.")
        for key, default in defaults.items()
    }
    if initial["preset"] == "constant":
        if not 0.0 <= params["value"] <= 1.0:
            raise ValidationError(
                f"initial.params.value: must lie in [0, 1], got {params['value']}"
            )
    else:
        offset, amp = params["offset"], params["amp"]
        if offset - abs(amp) < 0.0 or offset + abs(amp) > 1.0:
            raise ValidationError(
                "initial.params: cosine profile leaves [0, 1] "
                f"(offset={offset}, amp={amp})"
            )

    eps_list = doc["eps_list"]
    if not isinstance(eps_list, (list, tuple)) or len(eps_list) < 2:
        raise ValidationError("eps_list: expected a list of at least two levels")
    for i, e in enumerate(eps_list):
        if isinstance(e, bool) or not isinstance(e, (int, float)) or not (_finite(e) and e > 0):
            raise ValidationError(f"eps_list[{i}]: must be a positive finite number")
    levels = doc["eps_list"] = [float(e) for e in eps_list]
    if levels not in (sorted(set(levels)), sorted(set(levels), reverse=True)):
        raise ValidationError(f"eps_list: must be strictly monotone, got {levels}")
    return doc


def parse_config(
    path: str | None = None,
    data: dict | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Load, validate and default-fill a configuration.

    Exactly one of ``path`` (JSON file) or ``data`` (already-parsed dict)
    supplies the base document; ``overrides`` is a flat mapping of
    dotted key paths (e.g. "output.dir", "n_paths") applied on top before
    validation.  ``data`` itself is left unchanged.  Raises
    :class:`ParseError` for unreadable or malformed input and
    :class:`ValidationError` with a key path for schema violations.
    """
    if (path is None) == (data is None):
        raise ValueError("provide exactly one of path or data")
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON in {path}: {exc}") from exc
        except (OSError, ValueError) as exc:  # ValueError: no UTF-8, or over the digit limit
            raise ParseError(f"cannot read config file {path}: {exc}") from exc
    doc = _validate(_apply_overrides(_require_mapping(data, "config"), overrides or {}))

    model = doc["model"]
    try:
        params = ModelParams(**{k: v for k, v in model.items() if k not in ("length", "n_cells")})
        grid = Grid1D(model["n_cells"], model["length"])
    except ValueError as exc:
        raise ValidationError(f"model: {exc}") from exc
    source = doc["source"]
    try:
        spec = SourceSpec(source["preset"], source["params"])
    except (TypeError, ValueError, OverflowError) as exc:  # an integer beyond the doubles
        raise ValidationError(f"source.params: {exc}") from exc
    n_cells = model["n_cells"]
    if spec.kind == "tabulated" and np.shape(spec.params["values"])[1:] != (n_cells,):
        raise ValidationError(
            f"source.params.values: each row needs model.n_cells = {n_cells} entries"
        )
    try:
        noise = NoiseModel(J=doc["noise"]["J"], sigma=doc["noise"]["sigma"])
    except ValueError as exc:
        raise ValidationError(f"noise: {exc}") from exc
    return RunConfig(
        doc=doc,
        model=params,
        grid=grid,
        reaction=ReactionSpec(**doc["reaction"]),
        source=spec,
        noise=noise,
        solver=SolverConfig(**doc["solver"]),
    )


def emit_config(cfg: RunConfig, simulation_only: bool = False) -> dict:
    """Canonical nested dict with every default made explicit: a copy of ``cfg.doc``.

    parse_config(data=emit_config(cfg)) reconstructs an equal RunConfig.
    With ``simulation_only`` the execution-only fields (workers, tag, the
    output section) are dropped: what remains determines the computed
    numbers, so it is the right provenance stamp for output files that
    must be byte-identical across ``workers`` values and output locations.
    """
    out = copy.deepcopy(cfg.doc)
    if simulation_only:
        for key in ("output", "workers", "tag"):
            out.pop(key, None)
    return out
