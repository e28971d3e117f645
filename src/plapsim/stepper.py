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
violation tables, words every "<row> failed at step n: ..." message and
hands each step's record to one hook, whose caller folds what it keeps.
:func:`run_path` is that loop on one row over a whole path and
:func:`step` on one row for one step; the Monte Carlo study, the eps
study and the verification report of :mod:`plapsim.harness` run many rows,
and its pathwise study one row per time level.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from .mesh import Grid1D, GridFunction, norm_l2_array, norm_w1p_array
from .model import InitialDatum, SourceSpec
from .noise import NoiseModel, PathIncrements, bump_profile
from .operators import OperatorContext
from .solver import NonConvergence, SolveReport, SolverConfig, solve_rows

__all__ = [
    "RowWriter",
    "Trajectory",
    "csv_head",
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


def run_rows(ctx, u0, coef, f, cfg, label, cold=None, on_step=None):
    """Advance one path per row of ``coef`` from ``u0``, as the rows of one state.

    ``u0`` is the (n_cells,) initial state of every row, ``coef`` the (P, M)
    noise coefficients and ``f`` the (M, n_cells) source averages; the
    number of steps M is ``coef.shape[1]``.  The rows advance in chunks of
    at most ``_BATCH_CELLS`` cells, and each row follows exactly the
    iterates it follows alone, whatever the chunk.

    Returns ``(l2, viol)``, the (P, M+1) L2 norms and box violations.
    ``on_step``, if given, receives each chunk's record of each state n as
    ``on_step(rows, n, pt, solved)``: ``rows`` are the chunk's rows still
    running, ``pt`` the :class:`~plapsim.operators.Point` of their state n
    and ``solved`` the :class:`~plapsim.solver.SolveReport` of each row's
    step n - 1 (empty for n = 0).  A caller keeps what it needs of a record
    (states, W^{1,p} powers, reports) before the hook returns.  A row whose
    solve fails gets the record of that step and no later one, while the
    rest of its chunk runs to the end; then :class:`NonConvergence` reads
    "<label(k)> failed at step <n>: <message>" for the smallest failed row
    k, the step 0-based, and no later chunk runs.

    Each step's solve starts from the point the previous step's solve
    returned, so the operator value and the energy at u_n are not evaluated
    again.  Rows where the (P,) mask ``cold`` is true start each step's
    solve from zero, not from the last state; a step with such a row starts
    every row from a fresh array.
    """
    h, tau = ctx.grid.h, ctx.params.tau
    P, M = coef.shape
    l2, viol = np.empty((2, P, M + 1))
    l2[:, 0] = norm_l2_array(u0, h)
    viol[:, 0] = constraint_violation_array(u0, h)
    size = max(1, _BATCH_CELLS // u0.size)
    for start in range(0, P, size):
        alive = np.arange(P)[start:start + size]  # the chunk's rows still running
        pt = ctx.point(np.tile(u0, (alive.size, 1)))
        failed = []  # (row, step, message)
        if on_step is not None:
            on_step(alive, 0, pt, [])
        for n in range(M):
            u_n = pt.u
            rhs = u_n + bump_profile(u_n) * coef[alive, n][:, None] + tau * f[n]
            guess = pt if cold is None else np.where(cold[alive, None], 0.0, u_n)
            u_np1, solved = solve_rows(ctx, rhs, guess, cfg)
            pt = ctx.point(u_np1)  # a cold start returns an array
            l2[alive, n + 1] = norm_l2_array(pt.u, h)
            viol[alive, n + 1] = constraint_violation_array(pt.u, h)
            if on_step is not None:
                on_step(alive, n + 1, pt, solved)
            failed += [(k, n, report.failure) for k, report in zip(alive.tolist(), solved)
                       if report.failure is not None]
            keep = [i for i, report in enumerate(solved) if report.failure is None]
            if len(keep) < alive.size:
                alive, pt = alive[keep], pt.take(keep)
                if not alive.size:
                    break
        if failed:
            k, n, message = min(failed)
            raise NonConvergence(f"{label(k)} failed at step {n}: {message}")
    return l2, viol


def step(ctx: OperatorContext, noise_model: NoiseModel, u_n: GridFunction, dw_row: np.ndarray,
         f_n: GridFunction, cfg: SolverConfig | None = None) -> tuple[GridFunction, SolveReport]:
    """One semi-implicit step: explicit noise at u_n, implicit everything else.

    This is :func:`run_rows` on one row for one step, keeping its last
    record; a failed solve raises :class:`~plapsim.solver.NonConvergence`
    with the solve's message.
    """
    dw_row = np.asarray(dw_row, dtype=float)
    if dw_row.shape != (noise_model.J,):
        raise ValueError(f"expected {noise_model.J} increments, got shape {dw_row.shape}")
    records = []  # (rows, n, pt, solved) of state 0, then of state 1
    try:
        run_rows(ctx, u_n.values, noise_model.coefs(dw_row[None, None]), f_n.values[None],
                 cfg or SolverConfig(), str, on_step=lambda *record: records.append(record))
    except NonConvergence:  # raised again without the row's label
        raise NonConvergence(records[-1][3][0].failure) from None
    _, _, pt, (report,) = records[-1]
    return ctx.grid.function(pt.u[0]), report


@dataclass(eq=False)
class Trajectory:
    """One simulated path: states (or their norms), reports, increments.

    mode "full" keeps every state, as row n of the (M+1, n_cells) array
    ``states``; mode "thin" keeps only the per-time summary (L2 norm,
    W^{1,p} power, constraint violation) and sets ``states`` to None.  Thin
    mode drops the (M+1, n_cells) states but not the source table: a source
    that varies in time is tabulated as one (M, n_cells) array before step
    0, evaluated in blocks of steps (no (M, 4, n_cells) array of Gauss-time
    values), so peak memory still grows with M (ROADMAP direction 5).

    Full mode writes one CSV line of ``repr`` floats per state row, through
    a :class:`RowWriter`: above ``_PARALLEL_VALUES`` values the rows are
    formatted in blocks, one per usable core, every block but the last in a
    child interpreter.  The bytes are the same whatever the number of
    cores, and a child that fails raises :class:`OSError` (the CLI exits
    2).  The CLI's full-mode ``run`` hands :meth:`to_csv` the RowWriter
    that :func:`run_path`'s per-step hook has pushed the rows to, so they
    are formatted while the time loop runs; the bytes are the same.
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

    def to_csv(self, stream, metadata: dict | None = None, rows=None) -> None:
        """Write the trajectory as CSV to the text stream ``stream``, under
        '# key: value' lines of seed, mode, then ``metadata`` sorted by key.

        Full mode: columns t, c0..c{n-1} (cell values), written by ``rows``,
        a :class:`RowWriter` on ``stream`` that may have been pushed rows
        already, or by a new one.  Thin mode: columns t, l2_norm, v_norm_p,
        constraint_violation.
        """
        full = self.mode == "full"
        columns = ([f"c{i}" for i in range(self.grid.n_cells)] if full
                   else ["l2_norm", "v_norm_p", "constraint_violation"])
        stream.write(csv_head([("seed", self.seed), ("mode", self.mode),
                               *sorted((metadata or {}).items())], ["t", *columns]))
        if full:
            with rows or RowWriter(stream) as rows:
                rows.finish(self.times, self.states)
        else:
            table = (self.times, self.l2_norms, self.w1p_norms, self.violations)
            for row in np.column_stack(table).tolist():
                stream.write(",".join(map(repr, row)) + "\n")


def csv_head(pairs, columns) -> str:
    """The head of every CSV the package writes: a '# key: value' line for
    each (key, value) of ``pairs``, in order, then the line of ``columns``."""
    return "".join(f"# {key}: {value}\n" for key, value in pairs) + ",".join(columns) + "\n"


#: Full mode formats the state rows in blocks, one per this many values and
#: per usable core at most; every block but the last in a child interpreter.
_PARALLEL_VALUES = 1 << 18

#: A formatting child's stdin pipe is sized for this many rows, at most
#: 1 MiB (the kernel rounds up to a power of two pages): the child never
#: waits for the next step, and the rows it has yet to format when the time
#: loop ends stay few, so the split at the end stays balanced.
_PIPE_ROWS = 2

#: The child's program: rows of ``1 + n`` float64 (t, then the state) on
#: stdin, each formatted as it arrives, as by :func:`_format_row`; their CSV
#: lines on stdout once stdin closes, so that the child never waits on its
#: parent.
_CHILD = """\
import array, sys
read, size, out = sys.stdin.buffer.read, 8 * (1 + int(sys.argv[1])), bytearray()
while row := read(size):
    out += (",".join(map(repr, array.array("d", row))) + "\\n").encode()
sys.stdout.buffer.write(out)
"""


def _format_row(t, state):
    """The CSV line of one state row, formatted in this process."""
    return repr(float(t)) + "," + ",".join(map(repr, state.tolist())) + "\n"


def _blocks(states):
    """Blocks for ``states``: one per ``_PARALLEL_VALUES`` values, per usable
    core and per row at most."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, states.size // _PARALLEL_VALUES + 1, len(states)))


class _Child:
    """A formatting child and the rows ``[first, end)`` it is given.

    The rows before ``next`` have gone to its pipe, but for the bytes
    ``pending`` of row ``next - 1``.
    """

    def __init__(self, n, first, end):
        import subprocess

        pipe = subprocess.PIPE
        self.process = subprocess.Popen([sys.executable, "-I", "-S", "-c", _CHILD, str(n)],
                                        stdin=pipe, stdout=pipe, stderr=pipe)
        self.fd = self.process.stdin.fileno()
        self.next, self.end = first, end
        self.pending = b""
        try:
            import fcntl

            fcntl.fcntl(self.fd, fcntl.F_SETPIPE_SZ, min(1 << 20, _PIPE_ROWS * 8 * (1 + n)))
        except (ImportError, AttributeError, OSError):
            pass  # the pipe keeps its size; only the overlap shrinks
        os.set_blocking(self.fd, False)

    def feed(self, times, states, wait=False):
        """Write the rows up to ``end`` to the pipe, as far as it takes them
        without blocking, or all of them with ``wait``."""
        if wait:
            os.set_blocking(self.fd, True)
        try:
            while self.pending or self.next < self.end:
                if not self.pending:
                    row = np.concatenate((times[self.next:self.next + 1], states[self.next]),
                                         dtype=float)
                    self.pending, self.next = memoryview(row).cast("B"), self.next + 1
                self.pending = self.pending[os.write(self.fd, self.pending):]
        except BlockingIOError:
            pass  # the pipe is full; the next call goes on
        except BrokenPipeError:
            self.pending, self.end = b"", self.next  # it has exited; its exit code says why

    def copy(self, target):
        """Copy the child's lines to ``target`` once its stdin is closed."""
        while block := self.process.stdout.read(1 << 16):
            target.write(block.decode("ascii"))
        err = self.process.stderr.read().decode(errors="replace").strip().splitlines()
        if self.process.wait():
            raise OSError(f"CSV formatting child exited with code {self.process.returncode}"
                          + (f": {err[-1]}" if err else ""))


class RowWriter:
    """Writes the line ``t,c0,...`` of each state row, in order, to a text stream.

    The rows are handed over as they become final: :meth:`push` once rows
    0..n are (the per-step hook of :func:`run_path`), :meth:`finish` once
    all are; ``finish`` first pushes the rows not pushed yet, so a writer
    that is only finished (:meth:`Trajectory.to_csv` alone) takes the same
    path as one pushed to step by step.  Above ``_PARALLEL_VALUES`` values
    and on more than one usable core, the first push starts a child
    interpreter (``_CHILD``), and each push writes the new rows to its pipe
    as far as the pipe takes them without blocking, so the child formats
    while the time loop runs.
    :meth:`finish` splits the rows no child has received into contiguous
    blocks, one per ``_PARALLEL_VALUES`` values and per usable core at most:
    children take the leading blocks (the running child the first), and
    this process formats the last while they work.  Then the children's
    lines are copied in order, and this process's last.

    A child runs the same interpreter's ``repr`` on the same doubles, so the
    bytes depend neither on the number of cores nor on the pipe size or the
    timing.  A block whose child cannot start is formatted here.  A child
    that exits non-zero raises :class:`OSError` with its exit code and the
    last line of its stderr, but no rows, since the split depends on the
    timing.  Used as a context manager, no child outlives the ``with``
    block.
    """

    def __init__(self, target):
        self.target = target
        self.children = []  # every child started, in row order
        self.pushed = 0  # rows pushed so far

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for child in self.children:
            with child.process:  # closes its pipes and waits
                child.process.kill()

    def push(self, times, states, n):
        """Rows 0..n of ``states`` are final: stream them to the running child."""
        if not self.pushed and _blocks(states) > 1:  # the first push decides
            self._start(states.shape[1], 0, 0)
        self.pushed = n + 1
        if self.children:
            self.children[0].end = n + 1
            self.children[0].feed(times, states)

    def finish(self, times, states):
        """Every row of ``states`` is final: format the rest and write every row."""
        if self.pushed < len(states):
            self.push(times, states, len(states) - 1)
        n, streamed = states.shape[1], self.children[:1]
        first = streamed[0].next if streamed else 0
        parts = max(_blocks(states[first:]), len(streamed) + 1)
        cut = [first + (len(states) - first) * i // parts for i in range(parts + 1)]
        if streamed:
            streamed[0].end = cut[1]
        blocks = [(0, cut[1], streamed[0])] if streamed else []  # (first, end, child or None)
        for a, b in zip(cut[len(blocks):-2], cut[len(blocks) + 1:-1]):
            blocks.append((a, b, self._start(n, a, b)))
        blocks.append((cut[-2], cut[-1], None))
        children = [child for _, _, child in blocks if child is not None]
        mine = [[] for _ in blocks]  # the lines of each block formatted here
        for child in children:
            child.feed(times, states)
        for lines, (a, b, owner) in zip(mine, blocks):
            for k in range(a, b) if owner is None else ():
                lines.append(_format_row(times[k], states[k]))
                for child in children:
                    child.feed(times, states)
        for child in children:
            child.feed(times, states, wait=True)
            child.process.stdin.close()
        for lines, (_, _, owner) in zip(mine, blocks):
            if owner is None:
                self.target.writelines(lines)
            else:
                owner.copy(self.target)

    def _start(self, n, first, end):
        """A new child for rows ``[first, end)``, or None if none can start."""
        try:
            if sys.executable:
                self.children.append(_Child(n, first, end))
                return self.children[-1]
        except OSError:
            pass
        return None  # its block is formatted here


def run_path(
    ctx: OperatorContext,
    noise_model: NoiseModel,
    initial: InitialDatum,
    source: SourceSpec,
    seed: int,
    cfg: SolverConfig | None = None,
    mode: str = "full",
    on_step=None,
) -> Trajectory:
    """Run the full time loop for one path: :func:`run_rows` on one row.

    The increments are drawn from ``seed``, so the output is a
    deterministic function of the arguments.  A failed solve raises
    :class:`~plapsim.solver.NonConvergence` naming the seed and the
    (0-based) step, then the solve's message with its last residuals.

    It folds the states (full mode), W^{1,p} powers and solve reports of
    :func:`run_rows`' records.  In full mode, ``on_step``, if given, is
    called as ``on_step(times, states, n)`` with the (M+1,) times and the
    (M+1, n_cells) states once rows 0..n of ``states`` are final, so that
    a :class:`RowWriter`'s ``push`` formats the rows while the loop runs.
    """
    if mode not in ("full", "thin"):
        raise ValueError(f"mode must be 'full' or 'thin', got {mode!r}")
    if on_step is not None and mode != "full":
        raise ValueError("on_step needs mode 'full'")
    pr = ctx.params
    increments = noise_model.sample_path(pr.M, pr.tau, seed)
    states = np.empty((pr.M + 1, ctx.grid.n_cells)) if mode == "full" else None
    w1p, reports = np.empty(pr.M + 1), []
    times = np.arange(pr.M + 1) * pr.tau

    def fold(rows, n, pt, solved):
        w1p[n] = norm_w1p_array(pt.u, ctx.grid.h, pr.p, pt.abs_d, pt.abs_u)[0]
        reports.extend(solved)
        if states is not None:
            states[n] = pt.u[0]
            if on_step is not None and all(r.failure is None for r in solved):
                on_step(times, states, n)

    l2, viol = run_rows(ctx, initial.u0.values, noise_model.coefs(increments.values[None]),
                        source.step_table(pr.M, ctx.grid, pr.tau), cfg or SolverConfig(),
                        lambda k: f"seed {seed}", on_step=fold)
    return Trajectory(ctx.grid, times, states, l2[0], w1p, viol[0], reports, increments,
                      seed, mode)
