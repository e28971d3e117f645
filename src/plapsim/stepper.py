"""Semi-implicit Euler-Maruyama time loop.

Each step assembles the right-hand side from the previous state (noise
evaluated explicitly at the old state, source averaged over the step) and
hands it to the nonlinear solver:

    rhs   = u_n + phi(u_n) * sum_j c_j dW_j + tau * f_n
    u_np1 = solve(apply(.) = rhs),  warm started at u_n.

The converged state satisfies the scheme identity

    u_np1 - u_n + tau (plap(u_np1) + penalty(u_np1))
        = noise + tau (reaction(u_np1) + f_n)

cellwise within the solver tolerance.  Trajectories store the increments
they consumed so that this identity can be re-verified from the output
alone.

:func:`run_rows` is the one time loop.  It advances paths, one per row
of a ``(P, M)`` table of noise coefficients sum_j c_j dW_j
(:meth:`~plapsim.noise.NoiseModel.coefs`), against an ``(M, n_cells)``
table of source averages, in chunks of at most ``_BATCH_CELLS`` cells.
Each step of a chunk is one :func:`~plapsim.solver.solve_rows` call,
started from the point the previous step's call returned, whose operator
value and energy are known already.  It fills the ``(P, M+1)`` norm and
violation tables and words every "<row> failed at step n: ..." message.
:func:`run_path` is that loop on one row over a whole path and
:func:`step` on one row for one step; the Monte Carlo study, the eps
study and the verification report of :mod:`plapsim.harness` run many rows.
Only ``run_path`` and ``step`` keep each step's
:class:`~plapsim.solver.SolveReport`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .mesh import Grid1D, GridFunction, norm_l2_array, norm_w1p_array, open_target
from .model import InitialDatum, SourceSpec
from .noise import NoiseModel, PathIncrements, bump_profile
from .operators import OperatorContext
from .solver import NonConvergence, SolveReport, SolverConfig, solve_rows

__all__ = [
    "Trajectory",
    "step",
    "run_path",
    "run_rows",
    "constraint_violation_array",
]


def constraint_violation_array(values: np.ndarray, h: float):
    """Integral distance to the box [0, 1], h * sum((-u)^+ + (u-1)^+), of cell arrays.

    One value per row (last axis) on cells of width h.  Zero exactly when
    every cell value lies in [0, 1]; the quantity the penalization drives
    toward zero as eps shrinks.
    """
    return h * (
        np.sum(np.maximum(-values, 0.0), axis=-1)
        + np.sum(np.maximum(values - 1.0, 0.0), axis=-1)
    )


#: At most this many cells (rows x n_cells) advance together in one chunk
#: of :func:`run_rows`; a chunk holds at least one row.  Bounds memory at
#: large P x n.
_BATCH_CELLS = 1 << 16


def run_rows(ctx, u0, coef, f, cfg, label, states=None, w1p=None, cold=None, reports=None):
    """Advance one path per row of ``coef`` from ``u0``, as the rows of one state.

    ``u0`` is the (n_cells,) initial state of every row, ``coef`` the (P, M)
    noise coefficients and ``f`` the (M, n_cells) source averages; the
    number of steps M is ``coef.shape[1]``.  The rows advance in chunks of
    at most ``_BATCH_CELLS`` cells, and each row follows exactly the
    iterates it follows alone, whatever the chunk.

    Returns ``(l2, viol)``, the (P, M+1) L2 norms and box violations.
    ``states``, if given, is a (P, M+1, n_cells) array that receives the
    states, ``w1p`` a (P, M+1) array that receives their W^{1,p} powers,
    and ``reports`` P lists that receive the
    :class:`~plapsim.solver.SolveReport` of each step the row solved, up to
    and including a failed one.  A failed row is frozen while the rest of
    its chunk runs to the end; then :class:`NonConvergence` reads
    "<label(k)> failed at step <n>: <message>" for the smallest failed row
    k, the step 0-based.

    Each step's solve starts from the point the previous step's solve
    returned (:class:`~plapsim.operators.Point`), so the operator value and
    the energy at u_n are not evaluated again.  Rows where the (P,) mask
    ``cold`` is true start each step's solve from zero, not from the last
    state; a step with such a row starts every row from a fresh array.
    """
    h, p, tau = ctx.grid.h, ctx.params.p, ctx.params.tau
    P, M = coef.shape
    l2 = np.empty((P, M + 1))
    viol = np.empty_like(l2)
    l2[:, 0] = norm_l2_array(u0, h)
    viol[:, 0] = constraint_violation_array(u0, h)
    if states is not None:
        states[:, 0] = u0
    if w1p is not None:
        w1p[:, 0] = norm_w1p_array(u0, h, p)
    size = max(1, _BATCH_CELLS // u0.size)
    for start in range(0, P, size):
        chunk = slice(start, start + size)
        alive = np.arange(P)[chunk]  # the chunk's rows still running
        pt = ctx.point(np.tile(u0, (alive.size, 1)))
        failed = []  # (row, step, message)
        for n in range(M):
            u_n = pt.u
            rhs = u_n + bump_profile(u_n) * coef[alive, n][:, None] + tau * f[n]
            guess = pt if cold is None else np.where(cold[alive, None], 0.0, u_n)
            u_np1, solved = solve_rows(ctx, rhs, guess, cfg)
            pt = ctx.point(u_np1)  # a cold start returns an array
            if states is not None:  # a failed row keeps its last state
                states[chunk, n + 1] = states[chunk, n]
                states[alive, n + 1] = pt.u
            l2[alive, n + 1] = norm_l2_array(pt.u, h)
            viol[alive, n + 1] = constraint_violation_array(pt.u, h)
            if w1p is not None:
                w1p[alive, n + 1] = norm_w1p_array(pt.u, h, p, pt.abs_d, pt.abs_u)
            for k, report in zip(alive.tolist(), solved):
                if reports is not None:
                    reports[k].append(report)
                if report.failure is not None:
                    failed.append((k, n, report.failure))
            keep = [i for i, report in enumerate(solved) if report.failure is None]
            if len(keep) < alive.size:
                alive, pt = alive[keep], pt.take(keep)
                if not alive.size:
                    break
        if failed:
            k, n, message = min(failed)
            raise NonConvergence(f"{label(k)} failed at step {n}: {message}")
    return l2, viol


def step(
    ctx: OperatorContext,
    noise_model: NoiseModel,
    u_n: GridFunction,
    dw_row: np.ndarray,
    f_n: GridFunction,
    cfg: SolverConfig | None = None,
) -> tuple[GridFunction, SolveReport]:
    """One semi-implicit step: explicit noise at u_n, implicit everything else.

    This is :func:`run_rows` on one row for one step; a failed solve raises
    :class:`~plapsim.solver.NonConvergence` with the solve's message.
    """
    dw_row = np.asarray(dw_row, dtype=float)
    if dw_row.shape != (noise_model.J,):
        raise ValueError(f"expected {noise_model.J} increments, got shape {dw_row.shape}")
    states, reports = np.empty((1, 2, ctx.grid.n_cells)), [[]]
    try:
        run_rows(ctx, u_n.values, noise_model.coefs(dw_row[None, None]), f_n.values[None],
                 cfg or SolverConfig(), str, states=states, reports=reports)
    except NonConvergence:  # raised again without the row's label
        raise NonConvergence(reports[0][0].failure) from None
    return ctx.grid.function(states[0, 1]), reports[0][0]


@dataclass(eq=False)
class Trajectory:
    """One simulated path: states (or their norms), reports, increments.

    mode "full" keeps every state, as row n of the (M+1, n_cells) array
    ``states``; mode "thin" keeps only the per-time summary (L2 norm,
    W^{1,p} power, constraint violation) and sets ``states`` to None.  Thin
    mode drops the (M+1, n_cells) states but not the source table: the
    source is tabulated at all M x 4 Gauss times before step 0, so peak
    memory still grows with M (ROADMAP direction 5).

    Full mode writes one CSV line of ``repr`` floats per state row.  Above
    ``_PARALLEL_VALUES`` values the rows are formatted in blocks, one per
    usable core, each block after the first in a child interpreter; the
    bytes are the same whatever the number of cores, and a child that fails
    raises :class:`OSError` (the CLI exits 2).
    """

    grid: Grid1D
    times: np.ndarray
    states: np.ndarray | None
    l2_norms: np.ndarray
    w1p_norms: np.ndarray
    violations: np.ndarray
    reports: list
    increments: PathIncrements
    seed: int
    mode: str

    @property
    def final_state(self) -> GridFunction:
        if self.states is None:
            raise ValueError("thin trajectory does not store states")
        return self.grid.function(self.states[-1])

    def to_csv(self, target, metadata: dict | None = None) -> None:
        """Write the trajectory as CSV with '# key: value' metadata lines.

        Full mode: columns t, c0..c{n-1} (cell values).  Thin mode:
        columns t, l2_norm, v_norm_p, constraint_violation.  LF endings,
        '.' decimals, ',' separators.
        """
        with open_target(target) as target:
            target.write(f"# seed: {self.seed}\n")
            target.write(f"# mode: {self.mode}\n")
            for key in sorted(metadata or {}):
                target.write(f"# {key}: {metadata[key]}\n")
            if self.mode == "full":
                n = self.grid.n_cells
                target.write("t," + ",".join(f"c{i}" for i in range(n)) + "\n")
                _write_rows(target, self.times, self.states)
            else:
                target.write("t,l2_norm,v_norm_p,constraint_violation\n")
                for t, a, b, c in zip(
                    self.times, self.l2_norms, self.w1p_norms, self.violations
                ):
                    target.write(f"{float(t)!r},{float(a)!r},{float(b)!r},{float(c)!r}\n")


#: Full mode formats one block of state rows per this many values, and per
#: usable core at most; each block after the first in a child interpreter.
_PARALLEL_VALUES = 1 << 18

#: The child's program: ``rows`` times, then ``rows`` x ``n`` states, as
#: float64 on stdin; their CSV lines, formatted as by :func:`_format_rows`,
#: on stdout once all are made, so that the child never waits on its parent.
_CHILD = """\
import array, sys
rows, n = int(sys.argv[1]), int(sys.argv[2])
data = array.array("d", sys.stdin.buffer.read())
out = bytearray()
for i in range(rows):
    row = data[rows + i * n:rows + (i + 1) * n]
    out += (repr(data[i]) + "," + ",".join(map(repr, row)) + "\\n").encode()
sys.stdout.buffer.write(out)
"""


def _format_rows(target, times, states):
    """Write the CSV line of each row of ``states``, in this process."""
    for t, state in zip(times, states):
        target.write(repr(float(t)) + "," + ",".join(map(repr, state.tolist())) + "\n")


def _write_rows(target, times, states):
    """Write the line ``t,c0,...`` of each row of ``states`` to the text stream ``target``.

    The rows go in contiguous blocks, one per ``_PARALLEL_VALUES`` values and
    at most one per usable core.  This process formats block 0 while a
    child interpreter (``_CHILD``) formats each later block from its
    float64 bytes; then the children's lines are copied in order.  A child
    runs the same interpreter's ``repr`` on the same doubles, so the bytes
    do not depend on the number of blocks, and a block whose child cannot
    start is formatted here.  A child that exits non-zero raises
    :class:`OSError`.  No child outlives the call.
    """
    import os
    import subprocess

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blocks = max(1, min(cores or 1, states.size // _PARALLEL_VALUES + 1, len(states)))
    cut = [len(states) * i // blocks for i in range(blocks + 1)]
    n, pipe = states.shape[1], subprocess.PIPE
    children = []  # (child or None, first row, end row) of each later block
    try:
        for a, b in zip(cut[1:-1], cut[2:]):
            child = None
            try:
                if sys.executable:
                    child = subprocess.Popen(
                        [sys.executable, "-I", "-S", "-c", _CHILD, str(b - a), str(n)],
                        stdin=pipe, stdout=pipe, stderr=pipe,
                    )
            except OSError:
                pass  # this block is formatted here
            children.append((child, a, b))
            if child is None:
                continue
            try:
                with child.stdin:
                    for part in (times[a:b], states[a:b]):  # a float64 C array is not copied
                        child.stdin.write(memoryview(np.ascontiguousarray(part, float)).cast("B"))
            except BrokenPipeError:
                pass  # the child has exited; its exit code says why
        _format_rows(target, times[:cut[1]], states[:cut[1]])
        for child, a, b in children:
            if child is None:
                _format_rows(target, times[a:b], states[a:b])
                continue
            while block := child.stdout.read(1 << 16):
                target.write(block.decode("ascii"))
            err = child.stderr.read().decode(errors="replace").strip().splitlines()
            if child.wait():
                raise OSError(f"CSV rows {a}-{b - 1}: formatting child exited with code "
                              f"{child.returncode}" + (f": {err[-1]}" if err else ""))
    finally:
        for child, _, _ in children:
            if child is not None:
                with child:  # closes its pipes and waits
                    child.kill()


def run_path(
    ctx: OperatorContext,
    noise_model: NoiseModel,
    initial: InitialDatum,
    source: SourceSpec,
    seed: int,
    cfg: SolverConfig | None = None,
    mode: str = "full",
    increments: PathIncrements | None = None,
) -> Trajectory:
    """Run the full time loop for one path: :func:`run_rows` on one row.

    The increments are drawn from ``seed`` unless an explicit matrix is
    passed (refinement studies pass coarsened copies of one fine path).
    The output is a deterministic function of all inputs.  A failed solve
    raises :class:`~plapsim.solver.NonConvergence` naming the seed and the
    (0-based) step, then the solve's message with its last residuals.
    """
    if mode not in ("full", "thin"):
        raise ValueError(f"mode must be 'full' or 'thin', got {mode!r}")
    pr = ctx.params
    if increments is None:
        increments = noise_model.sample_path(pr.M, pr.tau, seed)
    if increments.n_steps != pr.M or increments.n_modes != noise_model.J:
        raise ValueError(
            f"increment matrix {increments.values.shape} does not match "
            f"M={pr.M}, J={noise_model.J}"
        )
    states = np.empty((1, pr.M + 1, ctx.grid.n_cells)) if mode == "full" else None
    w1p = np.empty((1, pr.M + 1))
    coef = noise_model.coefs(increments.values[None])
    f = source.step_table(pr.M, ctx.grid, pr.tau)
    reports = [[]]
    l2, viol = run_rows(ctx, initial.u0.values, coef, f, cfg or SolverConfig(),
                        lambda k: f"seed {seed}", states=states, w1p=w1p, reports=reports)
    times = np.arange(pr.M + 1) * pr.tau
    return Trajectory(ctx.grid, times, None if states is None else states[0], l2[0],
                      w1p[0], viol[0], reports[0], increments, seed, mode)
