import os

import pytest

from plapsim import operators, stepper

bundled_only = pytest.mark.skipif(
    operators._BUNDLED_DPTSV is None, reason="numpy ships no OpenBLAS library"
)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'unreaped' if pid else 'running'}")


@pytest.fixture(params=[pytest.param("bundled", marks=bundled_only), "scipy"])
def lapack(request, monkeypatch):
    """Run the test through numpy's bundled dptsv or, with the lookup emptied, scipy's."""
    if request.param == "scipy":
        monkeypatch.setattr(operators, "_BUNDLED_DPTSV", None)
    return request.param


@pytest.fixture
def children(monkeypatch):
    """Blocks of 1000 values, two usable cores; returns every child forked."""
    made, init = [], stepper.Child.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)  # in this process only: a child never returns from init

    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 1000)
    monkeypatch.setattr(stepper.Child, "__init__", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return made
