"""Reference kernel: a fixed piece of work that tracks the host's speed.

The shared host this benchmark was tuned on (2-core x86-64 VM) switches
between speed regimes up to 1.8x apart that hold for seconds to many
minutes, on one core or both.  Neither the mean nor the fastest call of a
run is steady under that: two sets of 10 runs of the same code differed by
up to 18% in their medians, and single runs by up to 1.5x.  So the
benchmark runs this kernel between calls, outside the timed region, for
``SHARE`` of each call's time, and reports times at the reference speed:
the measured time times ``REF_S`` over the mean time of one repetition of
the kernel in the same process.  On the VM, over 8 minutes in which the
mean call time of 15 s stretches moved by -25% to +15%, the ratio of the
mean call time to the mean kernel time moved by 2.5% (``run_large``) and
5% (``eps_stiff``).

One repetition is short (about 2 ms), so the kernel samples the host's
speed densely, and it does not use ``plapsim``, so a change to the program
moves the call times and not the kernel.  Its parts mirror the program's
costs: numpy calls on 64-element arrays driven from a Python loop (the
per-call overhead of the small grids), element-wise powers on an
8192-element array (the ``run_large`` operators) and float-to-text
conversion (the CSV output).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: time of one repetition of the kernel at the reference speed
REF_S = 0.002
#: time spent on the kernel after a call, as a share of the call's time
SHARE = 0.25

_SMALL = np.linspace(0.1, 1.0, 64)
_LARGE = np.linspace(-1.0, 1.0, 8192)


def kernel() -> float:
    """One repetition: a fixed amount of work."""
    s = 0.0
    for _ in range(300):
        s += float(np.dot(_SMALL, _SMALL)) + float((_SMALL * 2.0).sum())
    for _ in range(12):
        s += float((np.abs(_LARGE) ** 1.5 * _LARGE).sum())
    return s + len(",".join(repr(float(x)) for x in _LARGE[:800]))


def sample(budget_s: float) -> tuple[float, int]:
    """Run whole repetitions for at least ``budget_s``: (seconds, repetitions)."""
    reps, spent = 0, 0.0
    while reps == 0 or spent < budget_s:
        t0 = perf_counter()
        kernel()
        spent += perf_counter() - t0
        reps += 1
    return spent, reps


def scale(ref_s: float, ref_reps: int) -> float:
    """Factor that turns a time measured in this process into reference time."""
    return REF_S / (ref_s / ref_reps)
