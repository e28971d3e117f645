"""Print the outcome counts of the census of gated configurations.

Every configuration here passes the gate (tau * L_beta < 1, p >= 2), so
each time step has exactly one solution, and a ``NonConvergence`` is a
simulator defect.  The sweep runs one thin ``run_path`` per configuration,
with the default ``SolverConfig``, over

    p in {2, 2.5, 4, 8, 16}, n_cells in {2, 3, 64, 2048},
    eps in {1, 1e-4, 1e-8}, tau * L_beta in {0.5, 1 - 1e-6},
    sigma in {0, 5}, source amp in {0.5, 500}

(480 configurations): a linear reaction of scale L_beta, J = 8 modes and
noise seed 1, a cosine source of offset 0, decay 0 and length 1, a cosine
initial datum of offset 0.5 and amp 0.25 on the unit interval, T = 0.1 and
M = 10.  It prints one line,

    converged N floor N stall N line_search N

where a failure is classed from its message: ``line_search`` if its line
search failed, else "floor" if its last four residuals are all below 1e-6
and the largest is at most twice the smallest, else "stall".  It takes
about 12 s on two cores.  The package is taken from ``src`` next to this
file's directory:

    python3 tools/census.py
"""

from __future__ import annotations

import itertools
import os
import re
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from plapsim.mesh import Grid1D  # noqa: E402
from plapsim.model import ModelParams, ReactionSpec, SourceSpec, make_initial  # noqa: E402
from plapsim.noise import NoiseModel  # noqa: E402
from plapsim.operators import OperatorContext  # noqa: E402
from plapsim.solver import NonConvergence  # noqa: E402
from plapsim.stepper import run_path  # noqa: E402

SWEEP = {
    "p": (2.0, 2.5, 4.0, 8.0, 16.0),
    "n_cells": (2, 3, 64, 2048),
    "eps": (1.0, 1e-4, 1e-8),
    "margin": (0.5, 1.0 - 1e-6),  # tau * L_beta
    "sigma": (0.0, 5.0),
    "amp": (0.5, 500.0),
}
CLASSES = ("converged", "floor", "stall", "line_search")
T, M, SEED = 0.1, 10, 1
_RESIDUALS = re.compile(r"residuals \[([^\]]*)\]\)$")


def run(p, n_cells, eps, margin, sigma, amp):
    """One configuration's thin path: its Trajectory, or the NonConvergence it raised."""
    params = ModelParams(p=p, eps=eps, T=T, M=M, L_beta=margin / (T / M))
    grid = Grid1D(n_cells, 1.0)
    ctx = OperatorContext(params, ReactionSpec("linear", params.L_beta), grid)
    source = SourceSpec("cosine", {"offset": 0.0, "amp": amp, "decay": 0.0, "length": 1.0})
    initial = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
    try:
        return run_path(ctx, NoiseModel(J=8, sigma=sigma), initial, source, SEED, mode="thin")
    except NonConvergence as err:
        return err


def classify(outcome) -> str:
    """The class of one outcome of :func:`run`, one of :data:`CLASSES`."""
    if not isinstance(outcome, NonConvergence):
        return "converged"
    message = str(outcome)
    if "line search failed" in message:
        return "line_search"
    last = [float(x) for x in _RESIDUALS.search(message).group(1).split(", ")]
    return "floor" if max(last) < 1e-6 and max(last) <= 2.0 * min(last) else "stall"


def sweep(values=SWEEP):
    """Yield (configuration, outcome) over the product of ``values``, in order."""
    for combo in itertools.product(*values.values()):
        yield dict(zip(values, combo)), run(*combo)


def main():
    counts = Counter(classify(outcome) for _, outcome in sweep())
    print(" ".join(f"{name} {counts[name]}" for name in CLASSES))


if __name__ == "__main__":
    main()
