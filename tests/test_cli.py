import copy
import inspect
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import plapsim
from plapsim import cli, harness, stepper
from plapsim.config import (
    _SCHEMA,
    ParseError,
    ValidationError,
    emit_config,
    parse_config,
)


# The child runs in a temporary directory, where a relative PYTHONPATH such
# as `src` points at nothing; put the directory `plapsim` was imported from
# first on its path, absolute, and keep the caller's PYTHONPATH after it.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(plapsim.__file__)))


def run_cli(args, cwd, preamble=None):
    """`plapsim <args>` in a child interpreter; with ``preamble``, the Python
    statements run there first, before numpy is imported, then ``cli.main``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    command = ["-m", "plapsim", *args] if preamble is None else [
        "-c", f"import os, sys\n{preamble}\nfrom plapsim import cli\nsys.exit(cli.main({args!r}))"]
    return subprocess.run(
        [sys.executable, *command],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# parsing and validation


def test_minimal_flat_config_gets_defaults():
    cfg = parse_config(data={"p": 2, "eps": 0.1, "T": 1, "M": 100,
                             "n_cells": 64, "length": 1})
    assert cfg.model.p == 2.0
    assert cfg.model.tau == pytest.approx(0.01)
    assert cfg.n_cells == 64
    assert cfg.reaction.kind == "zero"
    assert cfg.noise.J == 16
    assert cfg.solver.tol_residual == 1e-10
    assert cfg.out_dir == "out"
    assert cfg.output_mode == "full"
    assert cfg.initial_kind == "constant"
    assert cfg.eps_list == (0.1, 0.05, 0.025)
    assert cfg.resolved_tag() == "s0"


def test_empty_config_is_all_defaults():
    cfg = parse_config(data={})
    assert cfg.model.M == 100
    assert cfg.n_paths == 100
    assert cfg.workers == 1


def test_problem_is_the_leading_arguments_of_every_driver():
    # model.length reaches the grid, and the initial datum lives on that grid
    cfg = parse_config(data={"model": {"length": 2.5, "n_cells": 10, "eps": 0.05},
                             "initial": {"preset": "cosine", "params": {"amp": 0.2}}})
    ctx, noise, initial, source = cfg.problem()
    assert (ctx.grid.n_cells, ctx.grid.length) == (10, 2.5)
    assert ctx.params is cfg.model and ctx.reaction is cfg.reaction
    assert noise is cfg.noise and source is cfg.source
    assert initial.u0.grid is ctx.grid
    x = ctx.grid.cell_centers()
    assert np.array_equal(initial.u0.values, 0.5 + 0.2 * np.cos(np.pi * x / 2.5))


def test_p_below_two_names_the_key():
    with pytest.raises(ValidationError, match="p"):
        parse_config(data={"p": 1.5})


NON_FINITE = [  # JSON text, and the key its ValidationError names
    ('{"model": {"M": Infinity}}', "model.M"),
    ('{"model": {"M": NaN}}', "model.M"),
    ('{"model": {"p": Infinity}}', "model.p"),
    ('{"model": {"L_beta": -Infinity}}', "model.L_beta"),
    ('{"noise": {"base_seed": Infinity}}', "noise.base_seed"),
    ('{"noise": {"sigma": NaN}}', "noise.sigma"),
    ('{"reaction": {"kind": "linear", "scale": NaN}}', "reaction.scale"),
    ('{"solver": {"tol_residual": Infinity}}', "solver.tol_residual"),
    ('{"initial": {"preset": "cosine", "params": {"amp": NaN}}}', "initial.params.amp"),
    ('{"eps_list": [0.1, NaN]}', "eps_list[1]"),
    ('{"eps_list": [Infinity, 0.1]}', "eps_list[0]"),
    ('{"source": {"preset": "constant", "params": {"value": NaN}}}', "source.params.value"),
    ('{"source": {"preset": "cosine", "params": {"amp": Infinity}}}', "source.params.amp"),
    ('{"source": {"preset": "tabulated", "params": {"times": [0, NaN], "values": [[0], [1]]}}}',
     "source.params"),
]


HUGE = "1" + "0" * 400  # 10^400: json reads it as an int, which float() cannot convert
BEYOND_DOUBLE = [  # id, JSON text of an integer beyond the doubles, the key its error names
    ("noise.sigma", '{"noise": {"sigma": %s}}', "noise.sigma"),
    ("model.T", '{"model": {"T": %s, "M": 3}}', "model.T"),
    ("model.M", '{"model": {"M": %s}}', "model.M"),
    ("model.n_cells", '{"model": {"n_cells": %s}}', "model.n_cells"),
    ("noise.J", '{"noise": {"J": %s}}', "noise.J"),
    ("eps_list[0]", '{"eps_list": [%s, 0.1]}', "eps_list[0]"),
    ("source.params.value", '{"source": {"preset": "constant", "params": {"value": %s}}}',
     "source.params.value"),
    ("initial.params.value", '{"initial": {"preset": "constant", "params": {"value": %s}}}',
     "initial.params.value"),
    ("source.params.times", '{"model": {"n_cells": 2}, "source": {"preset": "tabulated", '
     '"params": {"times": [0, %s], "values": [[0, 0], [1, 1]]}}}', "source.params"),
    ("source.params.values", '{"model": {"n_cells": 2}, "source": {"preset": "tabulated", '
     '"params": {"times": [0, 1], "values": [[0, %s], [1, 1]]}}}', "source.params"),
]


@pytest.mark.parametrize("text, key", [
    *(pytest.param(text, key, id=f"{key}={re.search(r'NaN|-?Infinity', text)[0]}")
      for text, key in NON_FINITE),
    # each raised an OverflowError traceback (J: numpy's "Maximum allowed
    # dimension exceeded") after validation
    *(pytest.param(text % HUGE, key, id=f"{name}=10^400") for name, text, key in BEYOND_DOUBLE),
])
def test_non_finite_numbers_name_the_key(text, key):
    # json reads NaN, +-Infinity and integers beyond the doubles; each is a
    # ValidationError naming its key
    with pytest.raises(ValidationError, match=re.escape(key) + ":"):
        parse_config(data=json.loads(text))


@pytest.mark.parametrize("subcommand", ["run", "verify"])
@pytest.mark.parametrize("data, start", [
    *(pytest.param((text % HUGE).encode(), f"{key}: ", id=name)
      for name, text, key in BEYOND_DOUBLE),
    # json.load raised a ValueError that was no ParseError: an integer
    # literal over Python's 4300-digit limit, and bytes that are no UTF-8
    pytest.param(b'{"model": {"M": %s}}' % (b"1" * 5001),
                 "cannot read config file cfg.json: Exceeds the limit (4300 digits)",
                 id="digit-limit"),
    pytest.param(b'{"tag": "\xff"}', "cannot read config file cfg.json: 'utf-8' codec",
                 id="not-utf-8"),
])
def test_cli_number_beyond_the_doubles_is_a_config_error(monkeypatch, capsys, tmp_path,
                                                         subcommand, data, start):
    # one config error line and exit 1 before any compute, not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_bytes(data)
    assert cli.main([subcommand, "--config", "cfg.json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: " + start) and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_source_params_name_the_key():
    # numbers that are no numbers, and a table of the wrong width, are
    # ValidationErrors naming the key; valid params are stored as given
    for doc, key in (
        ({"source": {"preset": "cosine", "params": {"amp": "x"}}}, "source.params.amp"),
        ({"source": {"preset": "cosine", "params": {"length": 0}}}, "source.params.length"),
        ({"source": {"preset": "constant", "params": {"value": None}}}, "source.params"),
        ({"n_cells": 16, "source": {"preset": "tabulated", "params": {
            "times": [0, 1], "values": [[0, 1, 2], [1, 1, 1]]}}}, "source.params.values"),
        ({"n_cells": 3, "source": {"preset": "tabulated", "params": {
            "times": [0, 1], "values": [0, 1]}}}, "source.params.values"),
        ({"noise": {"sigma": None}}, "noise.sigma"),
    ):
        with pytest.raises(ValidationError, match=re.escape(key) + ":"):
            parse_config(data=doc)
    cfg = parse_config(data={"source": {"preset": "constant", "params": {"value": 1}}})
    assert emit_config(cfg)["source"]["params"] == {"value": 1}
    # a null L_beta is its documented default, the reaction scale
    assert parse_config(data={"L_beta": None}).model.L_beta == 0.0


def test_gate_rejected_with_arithmetic_in_message():
    with pytest.raises(ValidationError, match="1.2"):
        parse_config(
            data={
                "M": 100,
                "T": 1,
                "L_beta": 120,
                "reaction": {"kind": "linear", "scale": 120},
            }
        )


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ValidationError, match="modelx"):
        parse_config(data={"modelx": 1})
    with pytest.raises(ValidationError, match="model.foo"):
        parse_config(data={"model": {"foo": 1}})
    with pytest.raises(ValidationError, match="noise.gamma"):
        parse_config(data={"noise": {"gamma": 1}})
    with pytest.raises(ValidationError, match="source.params.bogus"):
        parse_config(data={"source": {"preset": "constant",
                                      "params": {"value": 1, "bogus": 2}}})
    with pytest.raises(ValidationError, match="source.params.value"):
        parse_config(data={"source": {"preset": "zero", "params": {"value": 1}}})
    with pytest.raises(ValidationError, match="initial.params.bogus"):
        parse_config(data={"initial": {"preset": "cosine", "params": {"bogus": 2}}})


def test_shorthand_collision_rejected():
    with pytest.raises(ValidationError, match="both"):
        parse_config(data={"p": 2, "model": {"p": 3}})


def test_L_beta_must_cover_reaction_scale():
    with pytest.raises(ValidationError, match="L_beta"):
        parse_config(data={"L_beta": 0.1, "reaction": {"kind": "sine", "scale": 1.0}})
    # omitted L_beta is derived from the reaction
    cfg = parse_config(data={"reaction": {"kind": "sine", "scale": 1.0}})
    assert cfg.model.L_beta == 1.0


def test_initial_validation():
    with pytest.raises(ValidationError, match="initial"):
        parse_config(data={"initial": {"preset": "constant", "params": {"value": 2}}})
    with pytest.raises(ValidationError, match="initial"):
        parse_config(
            data={"initial": {"preset": "cosine",
                              "params": {"offset": 0.9, "amp": 0.3}}}
        )


def test_eps_list_validation():
    with pytest.raises(ValidationError, match="eps_list"):
        parse_config(data={"eps_list": [0.1]})
    with pytest.raises(ValidationError, match="eps_list"):
        parse_config(data={"eps_list": [0.1, -0.2]})


@pytest.mark.parametrize("levels", [[0.1, 0.2, 0.05], [0.1, 0.1], [0.01, 0.1, 0.1]])
def test_eps_list_must_be_strictly_monotone(levels):
    with pytest.raises(ValidationError) as info:
        parse_config(data={"eps_list": levels})
    assert str(info.value) == f"eps_list: must be strictly monotone, got {levels}"


def test_eps_list_either_direction_accepted():
    assert parse_config(data={"eps_list": [0.01, 0.1, 1]}).eps_list == (0.01, 0.1, 1.0)
    assert parse_config(data={"eps_list": [1, 0.1]}).eps_list == (1.0, 0.1)


def test_round_trip_identity():
    cfg = parse_config(
        data={
            "model": {"p": 3, "eps": 0.05, "T": 0.4, "M": 20, "n_cells": 24},
            "reaction": {"kind": "sine", "scale": 0.7},
            "source": {"preset": "constant", "params": {"value": 1.5}},
            "noise": {"sigma": 0.3, "J": 6, "base_seed": 17},
            "output": {"dir": "results", "mode": "thin"},
            "n_paths": 12,
            "tag": "demo",
        }
    )
    again = parse_config(data=emit_config(cfg))
    assert again == cfg


def test_overrides_apply_dotted_paths():
    cfg = parse_config(
        data={"noise": {"base_seed": 1}},
        overrides={"noise.base_seed": 9, "n_paths": 5, "output.dir": "x"},
    )
    assert cfg.base_seed == 9
    assert cfg.n_paths == 5
    assert cfg.out_dir == "x"


def test_parse_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        parse_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        parse_config(str(bad))


NAN, INF = float("nan"), float("inf")
TAB = {"preset": "tabulated", "params": {"times": [0, 1], "values": [[0, 1], [1, 1]]}}
# a document with one fault, and the exact message of its ValidationError
FAULTS = [
    # unknown keys, every section and the top level
    ({"modelx": 1}, "unknown key: modelx"),
    ({"model": {"foo": 1}}, "unknown key: model.foo"),
    ({"reaction": {"foo": 1}}, "unknown key: reaction.foo"),
    ({"source": {"foo": 1}}, "unknown key: source.foo"),
    ({"noise": {"gamma": 1}}, "unknown key: noise.gamma"),
    ({"solver": {"backtrack_factor": 0.5}}, "unknown key: solver.backtrack_factor"),
    ({"output": {"foo": 1}}, "unknown key: output.foo"),
    ({"initial": {"foo": 1}}, "unknown key: initial.foo"),
    ({"source": {"preset": "constant", "params": {"value": 1, "bogus": 2}}},
     "unknown key: source.params.bogus"),
    ({"source": {"preset": "zero", "params": {"value": 1}}}, "unknown key: source.params.value"),
    ({"source": {"preset": "cosine", "params": {"value": 1}}}, "unknown key: source.params.value"),
    ({"source": {"preset": "tabulated", "params": {"amp": 1}}}, "unknown key: source.params.amp"),
    ({"initial": {"preset": "constant", "params": {"amp": 0.1}}},
     "unknown key: initial.params.amp"),
    ({"initial": {"preset": "cosine", "params": {"bogus": 2}}},
     "unknown key: initial.params.bogus"),
    # non-object sections
    ([], "config: expected an object"),
    ({"model": 5}, "model: expected an object"),
    ({"reaction": []}, "reaction: expected an object"),
    ({"source": "x"}, "source: expected an object"),
    ({"noise": 1}, "noise: expected an object"),
    ({"solver": None}, "solver: expected an object"),
    ({"output": 1}, "output: expected an object"),
    ({"initial": 1}, "initial: expected an object"),
    ({"source": {"params": 5}}, "source.params: expected an object"),
    ({"initial": {"params": []}}, "initial.params: expected an object"),
    # bounds of each numeric key
    ({"model": {"p": 1.5}}, "model.p: must be >= 2, got 1.5"),
    ({"p": 1}, "model.p: must be >= 2, got 1.0"),
    ({"model": {"p": "2"}}, "model.p: expected a number, got '2'"),
    ({"model": {"p": None}}, "model.p: expected a number, got None"),
    ({"model": {"p": INF}}, "model.p: must be finite, got inf"),
    ({"model": {"eps": 0}}, "model.eps: must be > 0.0, got 0.0"),
    ({"model": {"T": -1}}, "model.T: must be > 0.0, got -1.0"),
    ({"model": {"M": 0}}, "model.M: must be >= 1, got 0"),
    ({"model": {"M": 1.5}}, "model.M: expected an integer, got 1.5"),
    ({"model": {"M": NAN}}, "model.M: must be finite, got nan"),
    ({"model": {"L_beta": -1}}, "model.L_beta: must be >= 0.0, got -1.0"),
    ({"model": {"L_beta": "x"}}, "model.L_beta: expected a number, got 'x'"),
    ({"model": {"length": 0}}, "model.length: must be > 0.0, got 0.0"),
    ({"model": {"n_cells": 1}}, "model.n_cells: must be >= 2, got 1"),
    ({"model": {"n_cells": 2.5}}, "model.n_cells: expected an integer, got 2.5"),
    ({"model": {"n_cells": True}}, "model.n_cells: expected a number, got True"),
    ({"reaction": {"kind": "linear", "scale": -1}}, "reaction.scale: must be >= 0.0, got -1.0"),
    ({"reaction": {"scale": NAN}}, "reaction.scale: must be finite, got nan"),
    ({"noise": {"sigma": -0.5}}, "noise.sigma: must be >= 0.0, got -0.5"),
    ({"noise": {"sigma": None}}, "noise.sigma: expected a number, got None"),
    ({"noise": {"J": 0}}, "noise.J: must be >= 1, got 0"),
    ({"noise": {"J": 2.5}}, "noise.J: expected an integer, got 2.5"),
    ({"noise": {"base_seed": 1.5}}, "noise.base_seed: expected an integer, got 1.5"),
    ({"noise": {"base_seed": INF}}, "noise.base_seed: must be finite, got inf"),
    ({"solver": {"tol_residual": 0}}, "solver.tol_residual: must be > 0.0, got 0.0"),
    ({"solver": {"max_newton": 0}}, "solver.max_newton: must be >= 1, got 0"),
    ({"solver": {"max_newton": 1.5}}, "solver.max_newton: expected an integer, got 1.5"),
    ({"levels": 1}, "levels: must be >= 2, got 1"),
    ({"n_paths": 1}, "n_paths: must be >= 2, got 1"),
    ({"n_paths": "4"}, "n_paths: expected a number, got '4'"),
    ({"workers": 0}, "workers: must be >= 1, got 0"),
    ({"workers": 1.5}, "workers: expected an integer, got 1.5"),
    # choice and string keys
    ({"reaction": {"kind": "cubic"}},
     "reaction.kind: must be one of ['linear', 'sine', 'zero'], got 'cubic'"),
    ({"source": {"preset": "bogus"}},
     "source.preset: must be one of ['constant', 'cosine', 'tabulated', 'zero'], got 'bogus'"),
    ({"output": {"mode": "half"}}, "output.mode: must be one of ['full', 'thin'], got 'half'"),
    ({"output": {"dir": 5}}, "output.dir: expected a string, got 5"),
    ({"initial": {"preset": "bogus"}},
     "initial.preset: must be one of ['constant', 'cosine'], got 'bogus'"),
    ({"reaction": {"kind": 1}}, "reaction.kind: expected a string, got 1"),
    ({"tag": 5}, "tag: expected a string, got 5"),
    # eps_list
    ({"eps_list": [0.1]}, "eps_list: expected a list of at least two levels"),
    ({"eps_list": 0.1}, "eps_list: expected a list of at least two levels"),
    ({"eps_list": [0.1, -0.2]}, "eps_list[1]: must be a positive finite number"),
    ({"eps_list": [0.1, "a"]}, "eps_list[1]: must be a positive finite number"),
    ({"eps_list": [True, 0.1]}, "eps_list[0]: must be a positive finite number"),
    ({"eps_list": [INF, 0.1]}, "eps_list[0]: must be a positive finite number"),
    # params faults
    ({"source": {"preset": "constant"}},
     "source.params: constant source needs a 'value' parameter"),
    ({"source": {"preset": "constant", "params": {"value": None}}},
     "source.params: constant source needs a 'value' parameter"),
    ({"source": {"preset": "constant", "params": {"value": "x"}}},
     "source.params.value: expected a number, got 'x'"),
    ({"source": {"preset": "constant", "params": {"value": NAN}}},
     "source.params.value: must be finite, got nan"),
    ({"source": {"preset": "cosine", "params": {"amp": "x"}}},
     "source.params.amp: expected a number, got 'x'"),
    ({"source": {"preset": "cosine", "params": {"amp": None}}},
     "source.params: cosine source missing parameters ['amp']"),
    ({"source": {"preset": "cosine", "params": {"length": 0}}},
     "source.params.length: must be > 0.0, got 0.0"),
    ({"source": {"preset": "cosine", "params": {"decay": INF}}},
     "source.params.decay: must be finite, got inf"),
    ({"source": {"preset": "tabulated"}},
     "source.params: tabulated source missing ['times', 'values']"),
    ({"source": {"preset": "tabulated", "params": {"times": [0, 1]}}},
     "source.params: tabulated source missing ['values']"),
    ({"source": {"preset": "tabulated", "params": {"times": [1, 0], "values": [[0] * 64] * 2}}},
     "source.params: tabulated times must be strictly increasing"),
    ({"source": {"preset": "tabulated", "params": {"times": [0, NAN], "values": [[0] * 64] * 2}}},
     "source.params: tabulated times must be finite"),
    ({"source": {"preset": "tabulated",
                 "params": {"times": [0, 1], "values": [[0] * 64, [NAN] * 64]}}},
     "source.params: tabulated values must be finite"),
    ({"source": {"preset": "tabulated", "params": {"times": [0, 1, 2], "values": [[0] * 64] * 2}}},
     "source.params: tabulated source needs len(times) rows of values"),
    ({"n_cells": 3, "source": TAB},
     "source.params.values: each row needs model.n_cells = 3 entries"),
    ({"n_cells": 2, "source": {"preset": "tabulated",
                               "params": {"times": [0, 1], "values": [0, 1]}}},
     "source.params.values: each row needs model.n_cells = 2 entries"),
    ({"n_cells": 2, "source": {"preset": "tabulated",
                               "params": {"times": [0, {}], "values": [[0, 1], [1, 1]]}}},
     "source.params: float() argument must be a string or a real number, not 'dict'"),
    ({"initial": {"preset": "constant", "params": {"value": 2}}},
     "initial.params.value: must lie in [0, 1], got 2.0"),
    ({"initial": {"preset": "constant", "params": {"value": -0.1}}},
     "initial.params.value: must lie in [0, 1], got -0.1"),
    ({"initial": {"preset": "constant", "params": {"value": None}}},
     "initial.params.value: expected a number, got None"),
    ({"initial": {"preset": "cosine", "params": {"offset": 0.9, "amp": 0.3}}},
     "initial.params: cosine profile leaves [0, 1] (offset=0.9, amp=0.3)"),
    ({"initial": {"preset": "cosine", "params": {"amp": NAN}}},
     "initial.params.amp: must be finite, got nan"),
    ({"initial": {"preset": "cosine", "params": {"offset": "x"}}},
     "initial.params.offset: expected a number, got 'x'"),
    # cross-checks: L_beta, the gate, the shorthand
    ({"L_beta": 0.1, "reaction": {"kind": "sine", "scale": 1.0}},
     "model.L_beta: 0.1 is below the reaction scale 1.0"),
    ({"model": {"L_beta": 0.5}, "reaction": {"kind": "linear", "scale": 0.75}},
     "model.L_beta: 0.5 is below the reaction scale 0.75"),
    ({"M": 100, "T": 1, "L_beta": 120, "reaction": {"kind": "linear", "scale": 120}},
     "model: tau * L_beta = 1.2 >= 1; the implicit step is only well-posed for tau < 1 / L_beta"),
    ({"M": 10, "T": 1, "reaction": {"kind": "sine", "scale": 10}},
     "model: tau * L_beta = 1.0 >= 1; the implicit step is only well-posed for tau < 1 / L_beta"),
    ({"p": 2, "model": {"p": 3}}, "p given both at top level and under model"),
    ({"n_cells": 8, "model": {"n_cells": 8}}, "n_cells given both at top level and under model"),
]
# a document, overrides that put one fault into it, and the message
OVERRIDE_FAULTS = [
    ({"noise": 5}, {"noise.base_seed": 1}, "noise.base_seed: cannot override a scalar"),
    ({}, {"n_paths": 1}, "n_paths: must be >= 2, got 1"),
    ({"output": {"mode": "full"}}, {"output.mode": "fat"},
     "output.mode: must be one of ['full', 'thin'], got 'fat'"),
    ({}, {"tag": "a\0b"}, "tag: must not contain a NUL character, got 'a\\x00b'"),
    ({}, {"output.dir": "o\0x"},
     "output.dir: must not contain a NUL character, got 'o\\x00x'"),
]
# a negative seed used to pass and die in numpy's generator, after the
# output directory was made
SEED_FAULTS = [
    ({"noise": {"base_seed": -1}}, None, "noise.base_seed: must be >= 0, got -1"),
    ({}, {"noise.base_seed": -3}, "noise.base_seed: must be >= 0, got -3"),
]


@pytest.mark.parametrize(
    "data, overrides, message",
    [(doc, None, msg) for doc, msg in FAULTS] + OVERRIDE_FAULTS + SEED_FAULTS,
    ids=[f"{i}-{msg.split(':')[0].replace(' ', '_')}"
         for i, (*_, msg) in enumerate(FAULTS + OVERRIDE_FAULTS + SEED_FAULTS)],
)
def test_single_fault_message(data, overrides, message):
    with pytest.raises(ValidationError) as info:
        parse_config(data=data, overrides=overrides)
    assert str(info.value) == message


def test_parse_config_leaves_input_unchanged():
    doc = {
        "p": 3, "noise": {"base_seed": 1}, "output": {"dir": "a"},
        "source": {"preset": "cosine", "params": {"amp": 1}},
        "initial": {"preset": "cosine", "params": {"amp": 0.2}},
        "eps_list": [0.2, 0.1],
    }
    before = copy.deepcopy(doc)
    cfg = parse_config(data=doc, overrides={"noise.base_seed": 9, "output.dir": "x",
                                            "model.eps": 0.5})
    assert doc == before
    assert (cfg.base_seed, cfg.out_dir, cfg.model.eps) == (9, "x", 0.5)
    # the emitted document is a copy too
    emitted = emit_config(cfg)
    emitted["noise"]["base_seed"] = 4
    emitted["source"]["params"]["amp"] = 2
    assert cfg.base_seed == 9 and cfg.doc["source"]["params"]["amp"] == 1


def test_readme_schema_block_is_the_defaults():
    # the JSON block under README "Configuration schema" shows every default
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    text = readme.split("### Configuration schema", 1)[1]
    block = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
    assert parse_config(data=block) == parse_config(data={})
    assert block.keys() == parse_config(data={}).doc.keys()
    for section, keys in _SCHEMA.items():
        if section:
            assert block[section].keys() == keys.keys()


def test_cli_override_flags_land_on_their_keys(monkeypatch):
    seen = {}

    def capture(subcommand, cfg, **kwargs):
        seen[subcommand] = cfg
        return 0

    monkeypatch.setattr(cli, "dispatch", capture)
    for argv in (["run", "--seed", "5", "--out-dir", "d", "--tag", "t", "--output-mode", "thin"],
                 ["mc", "--n-paths", "7", "--workers", "3"],
                 ["converge", "--levels", "3"]):
        assert cli.main(argv) == 0
    flags = {"seed": ("run", 5), "out_dir": ("run", "d"), "tag": ("run", "t"),
             "output_mode": ("run", "thin"), "n_paths": ("mc", 7), "workers": ("mc", 3),
             "levels": ("converge", 3)}
    assert flags.keys() == cli._OVERRIDES.keys()
    for dest, (sub, value) in flags.items():
        node = seen[sub].doc
        for part in cli._OVERRIDES[dest].split("."):
            node = node[part]
        assert node == value, dest


def spy_run_rows(monkeypatch):
    """Record every call of the time loop from now on."""
    calls, original = [], stepper.run_rows
    monkeypatch.setattr(stepper, "run_rows",
                        lambda *a, **k: calls.append(len(a[2])) or original(*a, **k))
    return calls


TINY = {"model": {"n_cells": 8, "M": 5, "T": 0.1}, "n_paths": 2}


@pytest.mark.parametrize("argv, message", [
    (["run", "--tag", "a/b"], "tag: must not contain a path separator, got 'a/b'"),
    (["mc", "--tag", "sub/"], "tag: must not contain a path separator, got 'sub/'"),
    (["run", "--out-dir", ""], "output.dir: must not be empty"),
    (["eps-study", "--out-dir", ""], "output.dir: must not be empty"),
    # a NUL cannot be in a file name; it used to fail only when the output
    # was written, with a ValueError traceback
    (["run", "--tag", "a\0b"], "tag: must not contain a NUL character, got 'a\\x00b'"),
    (["mc", "--out-dir", "o\0x"], "output.dir: must not contain a NUL character, got 'o\\x00x'"),
    # an empty tag used to write out/run-.csv
    (["run", "--tag", ""], "tag: must not be empty"),
    (["verify", "--tag", ""], "tag: must not be empty"),
])
def test_cli_bad_output_name_fails_before_compute(monkeypatch, capsys, tmp_path, argv,
                                                  message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(TINY))
    calls = spy_run_rows(monkeypatch)
    assert cli.main([*argv, "--config", "cfg.json"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == []
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("subcommand", ["run", "mc", "eps-study", "verify", "converge"])
def test_cli_cell_width_whose_square_overflows_is_a_config_error(monkeypatch, capsys,
                                                                  tmp_path, subcommand):
    # h = 1.25e159 passed validation, and h**2 in the Jacobian raised an
    # OverflowError traceback under exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"M": 2, "n_cells": 8, "length": 1e160}))
    assert cli.main([subcommand, "--config", "cfg.json"]) == 1
    assert capsys.readouterr().err == (
        "config error: model: cell width length / n_cells = 1.25e+159 is too large: "
        "its square overflows\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("subcommand", ["run", "mc", "eps-study", "verify", "converge"])
@pytest.mark.parametrize("doc, message", [
    # tau = T / M underflowed to 0.0, and NoiseModel.sample_path raised a
    # ValueError traceback under exit 1
    ({"model": {"T": 5e-324, "M": 3}},
     "model: tau = T / M = 5e-324 / 3 = 0.0 is not a positive normal double"),
    # verify's NoiseModel.L_g raised an OverflowError traceback on sigma**2
    ({"noise": {"sigma": 1e308}}, "noise: sigma = 1e+308 makes L_g = 4 pi^2 sigma^2 not finite"),
], ids=["tau-underflow", "sigma-overflow"])
def test_cli_extreme_model_value_is_a_config_error(monkeypatch, capsys, tmp_path, subcommand,
                                                   doc, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli.main([subcommand, "--config", "cfg.json"]) == 1
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_verify_whose_powers_overflow_names_its_failed_check(tmp_path):
    # at p = 1e6, verify's mesh_norm_homogeneity check raised an
    # OverflowError traceback on |alpha|**p in Python floats; its power now
    # overflows to inf, and the run ends in the first solve that fails.
    # numpy's overflow warnings still come first on stderr, so the child
    # runs in its own interpreter, under its default warning filters
    (tmp_path / "cfg.json").write_text(json.dumps({"p": 1e6, "M": 3, "n_cells": 8}))
    result = run_cli(["verify", "--config", "cfg.json"], tmp_path)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith(
        "runtime error: solver_uniqueness: rhs 0 (zero guess): no convergence after 50 ")
    assert result.stdout == "" and os.listdir(tmp_path / "out") == []


def test_cli_verify_stderr_does_not_depend_on_the_cores(tmp_path):
    # at p = 1e6 the powers of estimate_cp overflow.  It runs in verify's
    # forked part, whose warning lines would reach the shared stderr in
    # another order than on one core; that part runs with numpy's warnings
    # off, so a cp_infimum that is not finite fails as data
    (tmp_path / "cfg.json").write_text(json.dumps({"model": {"p": 1e6, "M": 3, "n_cells": 8}}))
    one, two = (run_cli(["verify", "--config", "cfg.json"], tmp_path,
                        f"os.sched_getaffinity = lambda pid: set(range({cores}))")
                for cores in (1, 2))
    assert (one.returncode, one.stdout, one.stderr) == (two.returncode, two.stdout, two.stderr)
    assert one.returncode == 2 and one.stderr.splitlines()[-1].startswith(
        "runtime error: solver_uniqueness: rhs 0 (zero guess): no convergence after 50 ")
    source, first = inspect.getsourcelines(harness.estimate_cp)
    cp_lines = [f"harness.py:{n}:" for n in range(first, first + len(source))]
    assert not [line for line in one.stderr.splitlines() if any(n in line for n in cp_lines)]


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("doc, code, err", [
    ({"model": {"p": 3, "n_cells": 64, "T": 0.5, "M": 50}, "noise": {"J": 12}}, 0, ""),
    # the uniqueness stack passes here; the forked stepper rows fail
    ({"p": 2, "eps": 1e-5, "T": 0.5, "M": 20, "n_cells": 32, "L_beta": 0.5,
      "reaction": {"kind": "sine", "scale": 0.5},
      "initial": {"preset": "cosine", "params": {"offset": 0.5, "amp": 0.25}},
      "noise": {"sigma": 0.5, "J": 12}, "source": {"preset": "constant", "params": {"value": 2.0}},
      "solver": {"max_newton": 6}},
     2, "runtime error: stepper noisy run (seed 0) failed at step 12: no convergence after 6"),
], ids=["passing", "stepper-fails"])
def test_cli_verify_bytes_do_not_depend_on_the_cores(monkeypatch, capsys, tmp_path, children,
                                                    cores, doc, code, err):
    # the report, stdout and stderr of one core, with one forked child
    outcomes = []
    for where, usable in ((tmp_path / "one", 1), (tmp_path / "many", cores)):
        where.mkdir()
        monkeypatch.chdir(where)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)))
        (where / "cfg.json").write_text(json.dumps(doc))
        exit_code = cli.main(["verify", "--config", "cfg.json"])
        files = {p.name: p.read_bytes() for p in (where / "out").iterdir()}
        outcomes.append((exit_code, capsys.readouterr(), files))
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][0] == code and outcomes[0][1].err.startswith(err)
    assert len(children) == 1 and children[0].code is not None


#: `mc` on 16384 cells, whose 6 paths run in two chunks of the time loop
CHUNKS = {"p": 2, "eps": 1e-3, "T": 0.2, "M": 2, "n_cells": 16384, "L_beta": 0.5, "n_paths": 6,
          "reaction": {"kind": "sine", "scale": 0.5},
          "initial": {"preset": "cosine", "params": {"offset": 0.5, "amp": 0.25}},
          "noise": {"sigma": 5.0, "J": 6, "base_seed": 9},
          "source": {"preset": "cosine", "params": {"amp": 20.0}},
          "solver": {"tol_residual": 1e-8}}


def test_cli_bytes_do_not_depend_on_the_machines_cores(tmp_path):
    # OpenBLAS's ddot, behind the norms, the energies and the line search's
    # slope, splits vectors of 16384 values between its threads, one per
    # core, and sums the parts in another order: cli.main runs it on one.
    # The child interpreter gets one core before it imports numpy
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    if len(cores) < 2:
        pytest.skip("one usable core: there are no other cores to compare its bytes with")
    files = []
    for where, preamble in (("one", f"os.sched_setaffinity(0, {{{min(cores)}}})"),
                            ("every", "pass")):
        (tmp_path / where).mkdir()
        (tmp_path / where / "cfg.json").write_text(json.dumps(CHUNKS))
        result = run_cli(["mc", "--config", "cfg.json"], tmp_path / where, preamble)
        assert (result.returncode, result.stderr) == (0, ""), result.stderr
        files.append({p.name: p.read_bytes() for p in (tmp_path / where / "out").iterdir()})
    assert files[0] == files[1]
    assert sorted(files[0]) == ["mc-s9.csv", "mc-s9.json"]


@pytest.mark.parametrize("subcommand, doc, label", [
    (sub, {"model": {"T": 1e308, "M": 3, "n_cells": 8}}, label) for sub, label in (
        ("run", "seed 0"), ("mc", "path 0 (seed 0)"), ("eps-study", "eps 0.1: path 0 (seed 0)"))
] + [("verify", {"source": {"preset": "constant", "params": {"value": 1e308}}},
      "stepper noisy run (seed 0)")], ids=["run", "mc", "eps-study", "verify"])
def test_cli_step_whose_residual_overflows_says_it_is_not_finite(tmp_path, subcommand, doc,
                                                                 label):
    # the residual of step 0 is inf before any Newton step, which read "no
    # convergence after 0 Newton steps".  The time loop and verify's checks
    # run with numpy's warnings off, so each prints the one line.  The child
    # runs in its own interpreter, under its default warning filters
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    result = run_cli([subcommand, "--config", "cfg.json"], tmp_path)
    assert result.returncode == 2
    assert result.stderr == (
        f"runtime error: {label} failed at step 0: residual not finite after 0 Newton steps "
        "(residual inf, tol 1.000e-10; residuals [inf])\n")
    assert result.stdout == "" and os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("subcommand, label", [
    ("run", "seed 0"), ("mc", "path 0 (seed 0)"), ("eps-study", "eps 0.1: path 0 (seed 0)")])
@pytest.mark.parametrize("doc, residual", [
    ({"model": {"M": 3, "n_cells": 8}, "source": {"preset": "constant", "params": {"value": 1e308}}},
     "inf"),
    ({"model": {"length": 5e-324, "M": 3, "n_cells": 8}}, "nan"),
], ids=["source-1e308", "length-5e-324"])
def test_cli_step_that_is_not_finite_prints_one_line(tmp_path, subcommand, label, doc, residual):
    # numpy's warnings came first on stderr, once per forked eps level
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    result = run_cli([subcommand, "--config", "cfg.json"], tmp_path)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"runtime error: {label} failed at step 0: residual not finite after 0 Newton steps "
        f"(residual {residual}, tol 1.000e-10; residuals [{residual}])\n")
    assert os.listdir(tmp_path / "out") == []


def test_cli_eps_study_whose_powers_overflow_prints_nothing(tmp_path):
    # at p = 1e6 the W^{1,p} powers overflow inside the time loop; numpy's
    # warning was printed once here and once by each forked level
    (tmp_path / "cfg.json").write_text(json.dumps({"model": {"p": 1e6, "M": 3, "n_cells": 8}}))
    result = run_cli(["eps-study", "--config", "cfg.json"], tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    rows = (tmp_path / "out" / "eps-study-s0.csv").read_text().splitlines()[7:]
    values = [float(v) for row in rows for v in row.split(",") if v]
    assert len(rows) == 3 and np.isfinite(values).all()


def test_cli_eps_study_child_that_dies_exits_2(monkeypatch, capfd, tmp_path, children):
    # the second group of levels runs in a child, which is killed
    parent, run_rows = os.getpid(), stepper.run_rows

    def dies(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_rows(*args, **kwargs)

    monkeypatch.setattr(stepper, "run_rows", dies)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(TINY))
    assert cli.main(["eps-study", "--config", "cfg.json"]) == 2
    assert capfd.readouterr() == ("", "runtime error: eps study child exited with code -9\n")
    assert [child.code for child in children] == [-signal.SIGKILL]
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("subcommand", ["run", "mc", "eps-study", "estimate-cp"])
def test_cli_memory_error_is_a_runtime_error(monkeypatch, capsys, tmp_path, subcommand):
    # a table too large to allocate exits 2 like a failed solve, not 1 (the
    # config-error code) with a traceback, and leaves no output file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(TINY))

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(stepper, "run_rows", too_large)
    monkeypatch.setattr(cli, "estimate_cp", too_large)
    args = ["--p", "3"] if subcommand == "estimate-cp" else ["--config", "cfg.json"]
    assert cli.main([subcommand, *args]) == 2
    assert capsys.readouterr().err == "runtime error: Unable to allocate 74.5 GiB for an array\n"
    if subcommand == "estimate-cp":
        assert os.listdir(tmp_path) == ["cfg.json"]
    else:
        assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("subcommand", ["run", "mc", "eps-study", "verify"])
def test_cli_size_numpy_cannot_address_is_a_runtime_error(monkeypatch, capsys, tmp_path,
                                                          subcommand):
    # M = 2^62 passes validation (tau = T / M is a normal double), and numpy
    # rejects its (M, J) draw as "array is too big", a ValueError that was a
    # traceback under exit 1; it now exits 2 as a table too large to
    # allocate does.  numpy rejects this size before it allocates anything;
    # no addressable size is tried, since it would allocate
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"model": {"M": 2**62}}))
    assert cli.main([subcommand, "--config", "cfg.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"runtime error: cannot draw a \(4611686018427387904, 16\) increment "
                        r"matrix: array is too big; [^\n]*\n", err), err
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("argv, message", [
    (["run", "--seed", "abc"], "plapsim run: error: argument --seed: invalid int value: 'abc'"),
    (["run", "--output-mode", "bogus"],
     "plapsim run: error: argument --output-mode: invalid choice: 'bogus'"),
    (["mc", "--n-paths", "1.5"], "plapsim mc: error: argument --n-paths: invalid int value: '1.5'"),
    ([], "plapsim: error: the following arguments are required: subcommand"),
], ids=["seed", "output-mode", "n-paths", "no-subcommand"])
def test_cli_usage_error_is_a_config_error(monkeypatch, capsys, tmp_path, argv, message):
    # argparse exits 2 after a usage error, which is the runtime-error code
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: plapsim") and message in err
    assert os.listdir(tmp_path) == []


def test_cli_help_exits_zero(capsys):
    assert cli.main(["run", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: plapsim run") and "override output.mode" in out and err == ""


def test_cli_unmakeable_output_dir_fails_before_compute(monkeypatch, capsys, tmp_path):
    # a directory below a plain file cannot be made: exit 2 before any step
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(TINY))
    (tmp_path / "blocker").write_text("")
    calls = spy_run_rows(monkeypatch)
    assert cli.main(["run", "--config", "cfg.json", "--out-dir", "blocker/sub"]) == 2
    assert capsys.readouterr().err.startswith("runtime error: [Errno")
    assert calls == []


def test_cli_non_monotone_eps_list_fails_before_compute(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({**TINY, "eps_list": [0.1, 0.2, 0.05]}))
    calls = spy_run_rows(monkeypatch)
    assert cli.main(["eps-study", "--config", "cfg.json"]) == 1
    assert capsys.readouterr().err == (
        "config error: eps_list: must be strictly monotone, got [0.1, 0.2, 0.05]\n")
    assert calls == []


# ---------------------------------------------------------------------------
# subcommands through a real process


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = {
        "model": {"p": 2.0, "T": 0.2, "M": 10, "n_cells": 16},
        "noise": {"sigma": 0.4, "J": 4, "base_seed": 3},
        "n_paths": 4,
        "levels": 2,
    }
    path = d / "cfg.json"
    path.write_text(json.dumps(cfg))
    return d, path


def test_cli_run_byte_identical(small_config):
    d, path = small_config
    res = run_cli(["run", "--config", str(path)], d)
    assert res.returncode == 0, res.stderr
    first = (d / "out" / "run-s3.csv").read_bytes()
    res = run_cli(["run", "--config", str(path)], d)
    assert res.returncode == 0, res.stderr
    assert (d / "out" / "run-s3.csv").read_bytes() == first


def test_cli_gate_rejected_before_compute(small_config):
    d, _ = small_config
    bad = d / "gate.json"
    bad.write_text(json.dumps({"M": 100, "T": 1, "L_beta": 120,
                               "reaction": {"kind": "linear", "scale": 120}}))
    res = run_cli(["run", "--config", str(bad), "--out-dir", "gateout"], d)
    assert res.returncode == 1
    assert "config error" in res.stderr
    assert not (d / "gateout").exists()


def test_cli_malformed_json_exit_one(small_config):
    d, _ = small_config
    bad = d / "broken.json"
    bad.write_text("{]")
    res = run_cli(["run", "--config", str(bad)], d)
    assert res.returncode == 1
    assert "config error" in res.stderr


def test_cli_non_finite_numbers_exit_one(small_config):
    d, _ = small_config
    bad = d / "nan.json"
    bad.write_text('{"noise": {"sigma": NaN}}')
    res = run_cli(["run", "--config", str(bad), "--out-dir", "nanout"], d)
    assert res.returncode == 1
    assert "config error" in res.stderr and "noise.sigma" in res.stderr
    assert not (d / "nanout").exists()
    for p in ("nan", "inf"):
        res = run_cli(["estimate-cp", "--p", p, "--samples", "100"], d)
        assert res.returncode == 1 and res.stdout == ""
        assert "config error" in res.stderr


def test_cli_estimate_cp_negative_seed_is_named(small_config):
    # the message names the seed, and the check runs before numpy sees it
    d, _ = small_config
    res = run_cli(["estimate-cp", "--p", "3", "--samples", "1000", "--seed", "-1"], d)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == "config error: seed must be >= 0, got -1\n"


def test_cli_estimate_cp_p2_prints_one(small_config):
    d, _ = small_config
    res = run_cli(["estimate-cp", "--p", "2", "--samples", "20000"], d)
    assert res.returncode == 0, res.stderr
    assert float(res.stdout.strip()) == 1.0


def test_cli_verify_exit_codes(small_config):
    d, path = small_config
    res = run_cli(["verify", "--config", str(path)], d)
    assert res.returncode == 0, res.stdout + res.stderr
    report = json.loads((d / "out" / "verify-s3.json").read_text())
    assert report["passed"] is True
    assert all(rec["passed"] for rec in report["properties"])
    assert "PASS" in res.stdout

    res = run_cli(["verify", "--config", str(path), "--cp-factor", "1.5",
                   "--tag", "fault"], d)
    assert res.returncode == 3
    report = json.loads((d / "out" / "verify-fault.json").read_text())
    assert report["passed"] is False


def test_cli_verify_non_finite_cp_factor_exit_one(small_config):
    d, _ = small_config
    for value in ("nan", "inf", "-inf"):
        res = run_cli(["verify", f"--cp-factor={value}", "--out-dir", "cpout"], d)
        assert res.returncode == 1 and res.stdout == ""
        assert "config error" in res.stderr and "cp_factor" in res.stderr
    assert not (d / "cpout").exists()


def test_cli_verify_failed_solve_exit_two_names_check(small_config):
    d, _ = small_config
    capped = d / "capped.json"
    capped.write_text(json.dumps({"model": {"p": 2.0, "T": 0.2, "M": 10, "n_cells": 16},
                                  "solver": {"max_newton": 1}}))
    res = run_cli(["verify", "--config", str(capped), "--tag", "capped"], d)
    assert res.returncode == 2, res.stdout + res.stderr
    assert res.stderr.startswith(
        "runtime error: solver_uniqueness: rhs 0 (zero guess): no convergence after 1"
    ), res.stderr
    assert not (d / "out" / "verify-capped.json").exists()


def test_cli_run_failed_solve_exit_two_names_seed_and_step(small_config):
    d, _ = small_config
    capped = d / "capped.json"
    capped.write_text(json.dumps({
        "model": {"p": 2.0, "eps": 1e-5, "T": 0.5, "M": 20, "n_cells": 16},
        "source": {"preset": "constant", "params": {"value": 4.0}},
        "initial": {"preset": "constant", "params": {"value": 0.5}},
        "noise": {"sigma": 0.5, "J": 4, "base_seed": 7},
        "solver": {"max_newton": 1},
    }))
    res = run_cli(["run", "--config", str(capped), "--tag", "capped"], d)
    assert res.returncode == 2, res.stdout + res.stderr
    assert res.stderr.startswith(
        "runtime error: seed 7 failed at step 6: no convergence after 1 Newton steps"
    ), res.stderr
    assert "residuals [" in res.stderr
    assert not (d / "out" / "run-capped.csv").exists()


def test_cli_mc_worker_independent(small_config):
    d, path = small_config
    res = run_cli(["mc", "--config", str(path), "--workers", "1",
                  "--tag", "w1"], d)
    assert res.returncode == 0, res.stderr
    res = run_cli(["mc", "--config", str(path), "--workers", "4",
                  "--tag", "w4"], d)
    assert res.returncode == 0, res.stderr
    csv1 = (d / "out" / "mc-w1.csv").read_bytes()
    csv4 = (d / "out" / "mc-w4.csv").read_bytes()
    assert csv1 == csv4
    json1 = (d / "out" / "mc-w1.json").read_bytes()
    json4 = (d / "out" / "mc-w4.json").read_bytes()
    assert json1 == json4


def test_cli_converge_reproducible(small_config):
    d, path = small_config
    res = run_cli(["converge", "--config", str(path)], d)
    assert res.returncode == 0, res.stderr
    first = (d / "out" / "converge-s3.csv").read_bytes()
    res = run_cli(["converge", "--config", str(path)], d)
    assert res.returncode == 0, res.stderr
    assert (d / "out" / "converge-s3.csv").read_bytes() == first
    text = first.decode()
    assert "tau,error,ratio" in text


def test_cli_eps_study_headers(small_config):
    d, path = small_config
    res = run_cli(["eps-study", "--config", str(path), "--n-paths", "2"], d)
    assert res.returncode == 0, res.stderr
    text = (d / "out" / "eps-study-s3.csv").read_text()
    assert "eps,error,ratio" in text
    assert "# base_seed: 3" in text


# ---------------------------------------------------------------------------
# the full-mode run CSV, formatted while the time loop runs

#: 11 rows of 40 cells: with blocks of 100 values, up to 5 blocks
WIDE = {"model": {"n_cells": 40, "M": 10}}

#: the source pushes the state out of the box; one Newton step fails at step 6
CAPPED = {"model": {"p": 2.0, "eps": 1e-5, "T": 0.5, "M": 20, "n_cells": 16},
          "source": {"preset": "constant", "params": {"value": 4.0}},
          "noise": {"sigma": 0.5, "J": 4, "base_seed": 7},
          "solver": {"max_newton": 1}}


def run_in(monkeypatch, where, doc=WIDE):
    """`plapsim run` on ``doc`` in the new directory ``where``: the exit code
    and the bytes of each file in its output directory."""
    where.mkdir()
    monkeypatch.chdir(where)
    (where / "cfg.json").write_text(json.dumps(doc))
    code = cli.main(["run", "--config", "cfg.json"])
    return code, {p.name: p.read_bytes() for p in (where / "out").iterdir()}


@pytest.fixture
def serial_run(monkeypatch, tmp_path):
    """The files of `plapsim run` on WIDE with every row formatted in this process."""
    with monkeypatch.context() as m:
        m.setattr(stepper, "_PARALLEL_VALUES", 1 << 18)
        code, files = run_in(m, tmp_path / "serial")
    assert code == 0 and list(files) == ["run-s0.csv"]
    return files


@pytest.mark.parametrize("cores", [1, 2, 3, 5])
def test_cli_run_bytes_do_not_depend_on_the_cores(monkeypatch, tmp_path, children,
                                                  serial_run, cores):
    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert run_in(monkeypatch, tmp_path / "run") == (0, serial_run)
    # the running child, and more for the rest of the rows with more cores
    assert min(cores - 1, 1) <= len(children) < cores
    assert all(child.code == 0 for child in children)


def test_cli_run_streams_rows_before_the_last_step(monkeypatch, tmp_path, children,
                                                   serial_run):
    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 100)
    pushed, sent, push, send = [], [], stepper.RowWriter.push, stepper.RowWriter._send

    def push_spy(self, t, state):
        pushed.append(float(t))
        push(self, t, state)

    def send_spy(self, row):
        sent.append(send(self, row))
        return sent[-1]

    monkeypatch.setattr(stepper.RowWriter, "push", push_spy)
    monkeypatch.setattr(stepper.RowWriter, "_send", send_spy)
    assert run_in(monkeypatch, tmp_path / "run") == (0, serial_run)
    # one push per state row, and row 0 is in the child's pipe before step 0
    assert pushed == [n * 0.1 for n in range(11)]
    assert len(sent) == 11 and sent[0] is True
    assert len(children) == 1


def test_cli_run_bytes_with_the_default_pipe(monkeypatch, tmp_path, children, serial_run):
    fcntl = pytest.importorskip("fcntl")
    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 100)
    refused = []

    def refuse(fd, command, arg=0):
        refused.append(command)
        raise OSError("no larger pipe")

    monkeypatch.setattr(fcntl, "fcntl", refuse)
    assert run_in(monkeypatch, tmp_path / "run") == (0, serial_run)
    assert refused == [fcntl.F_SETPIPE_SZ] * 2  # the pipe to the child, and back


def test_cli_run_bytes_when_no_row_is_pushed_during_the_loop(monkeypatch, tmp_path, children,
                                                             serial_run):
    # the child starts, but its pipe takes nothing while the loop runs, so
    # this process formats every row and has written each line at once
    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 100)
    looping, send, finish = [True], stepper.RowWriter._send, stepper.RowWriter.finish

    def full_pipe(self, *args, **kwargs):
        return not looping[0] and send(self, *args, **kwargs)

    def finishing(self, *args):
        looping[0] = False
        assert not self.lines
        finish(self, *args)

    monkeypatch.setattr(stepper.RowWriter, "_send", full_pipe)
    monkeypatch.setattr(stepper.RowWriter, "finish", finishing)
    assert run_in(monkeypatch, tmp_path / "run") == (0, serial_run)
    assert not looping[0] and len(children) == 1


def test_cli_run_interrupted_mid_run_leaves_no_child_or_file(monkeypatch, tmp_path, children):
    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 100)
    monkeypatch.setattr(stepper, "_write_lines", lambda out, rows: time.sleep(60))
    calls, solve_rows = [], stepper.solve_rows

    def interrupted(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return solve_rows(*args, **kwargs)

    monkeypatch.setattr(stepper, "solve_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_in(monkeypatch, tmp_path / "run")
    assert len(children) == 1
    assert all(child.code is not None for child in children)
    assert os.listdir(tmp_path / "run" / "out") == []


def test_cli_run_failed_solve_mid_stream_leaves_no_file(monkeypatch, capsys, tmp_path,
                                                       children):
    # 21 rows of 16 cells: the rows stream from step 0, and step 6 fails
    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 100)
    assert run_in(monkeypatch, tmp_path / "run", CAPPED) == (2, {})
    assert capsys.readouterr().err.startswith(
        "runtime error: seed 7 failed at step 6: no convergence after 1 Newton steps")
    assert len(children) == 1
    assert all(child.code is not None for child in children)


def run_of_M(where, M):
    """`plapsim run` in full mode on 2048 cells and M steps, through
    ``cli.dispatch``, writing to ``where``: the exit code."""
    cfg = parse_config(data={"model": {"n_cells": 2048, "M": M}, "output": {"dir": str(where)}})
    return cli.dispatch("run", cfg)


@pytest.mark.parametrize("cores", [1, 2])
def test_cli_run_memory_does_not_grow_with_M(monkeypatch, capsys, tmp_path, children, cores):
    # the head goes first and each row leaves as its step is solved: no
    # (M+1, n_cells) array, and no block of lines held until the end.  The
    # peaks of M = 400 and M = 100 differed by 8-16 MiB when both were held
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    peaks = []
    for M in (100, 400):
        tracemalloc.start()
        try:
            assert run_of_M(tmp_path / str(M), M) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20
    assert len(children) == 2 * (cores - 1)
    assert all(child.code == 0 for child in children)


def test_cli_run_formatting_child_memory_does_not_grow_with_M(capsys, tmp_path, children):
    # the child sends each line back as it formats it: its peak resident set
    # grew by about 11 MB from M = 100 to M = 400 when it held its block
    assert [run_of_M(tmp_path / str(M), M) for M in (100, 400)] == [0, 0]
    assert [child.code for child in children] == [0, 0]
    assert abs(children[1].maxrss - children[0].maxrss) <= 3 * 1024  # KiB


@pytest.mark.parametrize("subcommand, owner, method", [
    pytest.param("converge", "harness.RefinementTable", "to_csv", id="converge"),
    pytest.param("eps-study", "harness.RefinementTable", "to_csv", id="eps-study"),
    # the full-mode run's rows, after its head
    pytest.param("run", "stepper.RowWriter", "finish", id="run"),
    # mc's CSV, the first of its two files, and its JSON once the CSV is whole
    pytest.param("mc", "harness.McSummary", "to_csv", id="mc-csv"),
    pytest.param("mc", "harness.McSummary", "to_dict", id="mc-json"),
    pytest.param("verify", "harness.VerificationReport", "to_json", id="verify"),
])
def test_cli_failed_table_write_leaves_no_file(monkeypatch, capsys, tmp_path, subcommand,
                                               owner, method):
    # every file goes through a temporary name, and a failed write removes
    # the temporary files of every file of the subcommand
    def half_written(self, *args):
        if args:  # a to_csv: the stream first
            args[0].write("# partial\n")
        raise OSError("disk full")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(f"plapsim.{owner}.{method}", half_written)
    (tmp_path / "cfg.json").write_text(json.dumps(dict(TINY, levels=2)))
    assert cli.main([subcommand, "--config", "cfg.json"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "runtime error: disk full\n")
    assert os.listdir(tmp_path / "out") == []
