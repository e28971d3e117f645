import json
import os
import re
import subprocess
import sys

import pytest

import plapsim
from plapsim.config import (
    ParseError,
    ValidationError,
    emit_config,
    parse_config,
)


# The child runs in a temporary directory, where a relative PYTHONPATH such
# as `src` points at nothing; put the directory `plapsim` was imported from
# first on its path, absolute, and keep the caller's PYTHONPATH after it.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(plapsim.__file__)))


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "plapsim", *args],
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


@pytest.mark.parametrize(
    "text, key", NON_FINITE,
    ids=[f"{key}={re.search(r'NaN|-?Infinity', text)[0]}" for text, key in NON_FINITE],
)
def test_non_finite_numbers_name_the_key(text, key):
    # json reads NaN and +-Infinity; each is a ValidationError naming its key
    with pytest.raises(ValidationError, match=re.escape(key) + ":"):
        parse_config(data=json.loads(text))


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
