import os
import subprocess

import pytest

from plapsim import operators, stepper

bundled_only = pytest.mark.skipif(
    operators._BUNDLED_DPTSV is None, reason="numpy ships no OpenBLAS library"
)


@pytest.fixture(params=[pytest.param("bundled", marks=bundled_only), "scipy"])
def lapack(request, monkeypatch):
    """Run the test through numpy's bundled dptsv or, with the lookup emptied, scipy's."""
    if request.param == "scipy":
        monkeypatch.setattr(operators, "_BUNDLED_DPTSV", None)
    return request.param


@pytest.fixture
def children(monkeypatch):
    """Blocks of 1000 values, two usable cores; returns every child started."""
    made = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(stepper, "_PARALLEL_VALUES", 1000)
    monkeypatch.setattr(subprocess, "Popen", Spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return made
