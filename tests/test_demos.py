import os
import subprocess
import sys

import pytest

import plapsim

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(plapsim.__file__)))

# every demo; 05_monte_carlo.py (500 paths in batched run_mc calls) takes
# about 1.6 s on a 2-core x86-64 VM
DEMOS_RUN = [
    "01_operator_inequalities.py",
    "02_single_path.py",
    "03_deterministic_convergence.py",
    "04_eps_study.py",
    "05_monte_carlo.py",
    "06_verify_all.py",
]


@pytest.mark.parametrize("name", DEMOS_RUN)
def test_demo_runs(name, tmp_path):
    # the demos call the library the way a user would, so a change of call
    # form in the public API shows up here as a failing script
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    res = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
