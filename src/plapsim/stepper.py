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

:class:`Child` is the package's one parallelism mechanism: a forked child
of this process, which inherits the data it works on.  :func:`fork_map`
runs the eps study's levels and the verification report's two parts on
it, and :class:`RowWriter` formats the CSV lines of the rows that its pipe
takes as the time loop makes them.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .mesh import Grid1D, GridFunction, norm_l2_array
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

    The loop, hooks included, runs with numpy's floating-point warnings
    off: a step that is not finite fails with a message that says so, and
    prints no warning line of its own (one per forked child, in the eps
    study).
    """
    h, tau = ctx.grid.h, ctx.params.tau
    P, M = coef.shape
    l2, viol = np.empty((2, P, M + 1))
    size = max(1, _BATCH_CELLS // u0.size)
    with np.errstate(all="ignore"):  # a step that is not finite is worded as such
        l2[:, 0] = norm_l2_array(u0, h)
        viol[:, 0] = constraint_violation_array(u0, h)
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
    ``states``, unless :func:`run_path` handed the rows to a
    :class:`RowWriter` as they were solved; mode "thin" keeps only the
    per-time summary (L2 norm, W^{1,p} power, constraint violation).  Either
    way without states, ``states`` is None.  Thin mode drops the states but
    not the source table: a source that varies in time is tabulated as one
    (M, n_cells) array before step 0, evaluated in blocks of steps (no
    (M, 4, n_cells) array of Gauss-time values), so peak memory still grows
    with M (ROADMAP direction 5).

    Full mode writes one CSV line of ``repr`` floats per state row, through
    a :class:`RowWriter`, whose bytes are the same whatever the number of
    cores.  The CLI's full-mode ``run`` writes :meth:`head` first, then
    hands :func:`run_path` the RowWriter, so each row leaves as its step is
    solved and no (M+1, n_cells) array is made; the bytes are the same.
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
            raise ValueError("this trajectory does not store states")
        return self.grid.function(self.states[-1])

    @staticmethod
    def head(seed, mode, n_cells, metadata: dict | None = None) -> str:
        """The head of a trajectory's CSV: '# key: value' lines of seed, mode,
        then ``metadata`` sorted by key, then the columns.  Full mode: t,
        c0..c{n-1} (cell values); thin mode: t, l2_norm, v_norm_p,
        constraint_violation."""
        columns = ([f"c{i}" for i in range(n_cells)] if mode == "full"
                   else ["l2_norm", "v_norm_p", "constraint_violation"])
        return csv_head([("seed", seed), ("mode", mode), *sorted((metadata or {}).items())],
                        ["t", *columns])

    def to_csv(self, stream, metadata: dict | None = None) -> None:
        """Write the trajectory as CSV to the text stream ``stream``: its
        :meth:`head`, then one line per time."""
        full = self.mode == "full"
        if full and self.states is None:
            raise ValueError("this trajectory does not store states")
        stream.write(self.head(self.seed, self.mode, self.grid.n_cells, metadata))
        if full:
            with RowWriter(stream, self.states.shape) as rows:
                for t, state in zip(self.times, self.states):
                    rows.push(t, state)
                rows.finish()
        else:
            table = (self.times, self.l2_norms, self.w1p_norms, self.violations)
            for row in np.column_stack(table).tolist():
                stream.write(",".join(map(repr, row)) + "\n")


def csv_head(pairs, columns) -> str:
    """The head of every CSV the package writes: a '# key: value' line for
    each (key, value) of ``pairs``, in order, then the line of ``columns``."""
    return "".join(f"# {key}: {value}\n" for key, value in pairs) + ",".join(columns) + "\n"


def usable_cores() -> int:
    """The number of cores this process may run on."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cores or 1


#: The pipe ends this process holds to its running children.  A child
#: closes them all when it is forked, so that it holds no other child's end.
_PIPES = set()


def _close(fd):
    _PIPES.discard(fd)
    os.close(fd)


class Child:
    """A forked child of this process that runs ``work`` and sends back what it writes.

    The child inherits this process's memory, so no data is shipped to it.
    ``work(out)`` runs there with ``out`` a binary file on a pipe back to
    this process; with ``feed``, ``work(out, source)`` also reads
    ``source``, a pipe from this process whose write end is :attr:`fd`.
    The child first closes every pipe end this process holds to other
    children, so each sees EOF once this process closes its end.  It leaves
    through ``os._exit`` on every path, code 0 once ``work`` has returned
    and 1 if it raised, so it never flushes a buffer it inherited.
    :meth:`read` reads the pipe to EOF, then reaps the child; :meth:`kill`
    ends one not yet reaped.  ``what`` names it in the :class:`OSError` of
    a child that exits non-zero.  Once reaped, :attr:`code` is its exit code
    and :attr:`maxrss` its peak resident set in KiB (``ru_maxrss``).
    """

    def __init__(self, work, what, feed=False):
        out = os.pipe()
        rows = os.pipe() if feed else ()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (*out, *rows):
                os.close(fd)
            raise
        if not self.pid:  # the child
            code = 1
            try:
                for fd in (*_PIPES, out[0], *rows[1:]):
                    os.close(fd)
                _PIPES.clear()
                with open(out[1], "wb") as stream:
                    if feed:
                        with open(rows[0], "rb") as source:
                            work(stream, source)
                    else:
                        work(stream)
                code = 0
            finally:
                os._exit(code)
        for fd in (out[1], *rows[:1]):
            os.close(fd)
        self.out, self.fd = out[0], rows[1] if feed else None
        _PIPES.update(fd for fd in (self.out, self.fd) if fd is not None)
        self.what, self.code, self.maxrss = what, None, None  # once reaped

    def read(self, write):
        """Close the feeding pipe, hand the child's bytes to ``write`` as they
        arrive, to EOF, and reap the child; raise :class:`OSError` if it exited
        non-zero."""
        if self.fd is not None:
            _close(self.fd)
            self.fd = None
        with open(self.out, "rb", closefd=False) as pipe:
            while block := pipe.read(1 << 16):
                write(block)
        _close(self.out)
        self.out = None
        self._reap()
        if self.code:
            raise OSError(f"{self.what} child exited with code {self.code}")

    def kill(self):
        """Kill the child unless it has been reaped, close its pipes and reap it."""
        if self.code is None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        for fd in (self.out, self.fd):
            if fd is not None:
                _close(fd)
        self.out = self.fd = None

    def _reap(self):
        _, status, usage = os.wait4(self.pid, 0)
        self.code, self.maxrss = os.waitstatus_to_exitcode(status), usage.ru_maxrss


def fork(work, what, feed=False):
    """A :class:`Child` running ``work``, or None where ``os.fork`` is missing
    or fails: the caller then does the work in this process."""
    try:
        return Child(work, what, feed) if hasattr(os, "fork") else None
    except OSError:
        return None


def fork_map(work, parts, what):
    """``[work(part) for part in parts]``, on the usable cores.

    The parts go in contiguous groups, one per usable core and at most one
    per part: this process runs the first, of ceil(L / groups) parts, and a
    forked :class:`Child` each other, which sends back its results or its
    first failed part's exception, pickled; a group with no child runs
    here.  The results come in part order and the first failed part's
    exception is raised, so neither depends on the cores.  Every child is
    reaped before the call returns, killed first if this process's group
    raises or is interrupted; one that dies raises :class:`OSError`.
    """
    import pickle  # numpy has loaded it already

    def send(out, group):
        try:
            result = [work(part) for part in group]
        except Exception as exc:  # raised by this process, in part order
            result = exc
        pickle.dump(result, out)

    parts = list(parts)
    n_groups = max(1, min(usable_cores(), len(parts)))
    cut = [-(-len(parts) * i // n_groups) for i in range(n_groups + 1)]  # rounded up
    groups = [parts[a:b] for a, b in zip(cut, cut[1:])]
    children = []  # the child of each group after this process's, or None
    try:
        for group in groups[1:]:
            children.append(fork(lambda out, group=group: send(out, group), what))
        results = [work(part) for part in groups[0]]
        for group, child in zip(groups[1:], children):
            if child is None:  # no fork: the group runs here
                results += [work(part) for part in group]
                continue
            data = bytearray()
            child.read(data.extend)
            result = pickle.loads(data)
            if isinstance(result, Exception):
                raise result
            results += result
    finally:
        for child in children:
            if child is not None:
                child.kill()
    return results


#: A full-mode path of at least this many values is formatted by a forked
#: child as well as by this process, where a second core is usable.
_PARALLEL_VALUES = 1 << 18

#: The pipes to and from the streamed formatting child are sized for this
#: many rows and lines, at most 1 MiB each (the kernel rounds up to a power
#: of two pages): the child never waits for a row while this process formats
#: one, and the rows it has yet to format when the time loop ends stay few.
_PIPE_ROWS = 2


def _format_row(t, state):
    """The CSV line of one state row."""
    return repr(float(t)) + "," + ",".join(map(repr, state.tolist())) + "\n"


def _write_lines(out, rows):
    """Write the line of each (t, state) pair of ``rows`` to ``out`` as soon as
    it is formatted."""
    for t, state in rows:
        out.write(_format_row(t, state).encode())
        out.flush()


def _fed_rows(source, n):
    """The (t, state) pairs of the rows of ``1 + n`` float64 on ``source``, to EOF."""
    while row := source.read(8 * (1 + n)):
        row = np.frombuffer(row)
        yield row[0], row[1:]


def _enlarge(fd, size):
    """Ask for a pipe of ``size`` bytes, at most 1 MiB, non-blocking at ``fd``."""
    try:
        import fcntl

        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, min(1 << 20, size))
    except (ImportError, AttributeError, OSError):
        pass  # the pipe keeps its size; only the overlap shrinks
    os.set_blocking(fd, False)


class RowWriter:
    """Writes the line ``t,c0,...`` of each state row of a path, in order, to a text stream.

    ``shape`` is the path's (rows, cells).  Each row is handed over by one
    :meth:`push` as soon as it is final, then :meth:`finish` writes the
    lines still to come.  For a path of at least ``_PARALLEL_VALUES``
    values on more than one usable core, the writer forks one formatting
    :class:`Child`: a row goes to its pipe while the pipe has room, and is
    formatted here otherwise.  The child sends each line back as soon as it
    is formatted, and a line goes to the stream once every earlier row's
    line has, so this process holds a few rows and lines, whatever the
    number of rows.  It never blocks on a write to the child: a push writes
    what the pipe takes at once, and :meth:`finish` waits for room there
    and for the child's lines together.

    A child runs :func:`_format_row` on the same doubles, so the bytes
    depend neither on the number of cores nor on the pipe sizes or the
    timing; where no child can be forked, every row is formatted here.  A
    child that exits non-zero raises :class:`OSError` with its exit code but
    no rows, since which rows it took depends on the timing.  Used as a
    context manager, no child outlives the ``with`` block.
    """

    def __init__(self, target, shape):
        rows, cells = shape
        self.target, self.child = target, None
        if rows > 1 and rows * cells >= _PARALLEL_VALUES and usable_cores() > 1:
            self.child = fork(lambda out, source: _write_lines(out, _fed_rows(source, cells)),
                              "CSV formatting", feed=True)
        if self.child is not None:  # a row's doubles; its line, 25 bytes a value at most
            _enlarge(self.child.fd, _PIPE_ROWS * 8 * (1 + cells))
            _enlarge(self.child.out, _PIPE_ROWS * 25 * (1 + cells))
        # the lines not yet written, in row order: a str formatted here, or
        # None for a row sent to the child; and the bytes of the last row
        # sent that its pipe has not taken yet
        self.lines, self.pending = deque(), b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.child is not None:
            self.child.kill()

    def push(self, t, state):
        """The row ``state`` at time ``t`` is final: send it to the child if
        its pipe has room, or format it here; then write the lines whose turn
        has come."""
        if self.child is not None and self._send(np.concatenate(([t], state))):
            self.lines.append(None)
        else:
            self.lines.append(_format_row(t, state))
        self._drain()

    def finish(self):
        """Every row has been pushed: write the lines still to come."""
        if self.child is not None:
            import select

            while self.pending:  # the child may wait for room in its pipe back
                select.select([self.child.out], [self.child.fd], [])
                self._flush()
                self._drain()
            self._end()

    def _send(self, row):
        """Send the bytes of ``row`` after the pending ones if the child's pipe
        takes at least one of them now; the rest stays pending.  Whether the
        child took the row."""
        if self._flush():
            self.pending = memoryview(row).cast("B")
            self._flush()
            if len(self.pending) < row.nbytes:
                return True
            self.pending = b""  # the pipe took none of it
        return False

    def _flush(self):
        """Write the pending bytes to the child's pipe as far as it takes them
        now; whether none are left."""
        try:
            while self.pending:
                self.pending = self.pending[os.write(self.child.fd, self.pending):]
        except BlockingIOError:
            return False
        except BrokenPipeError:  # it has exited: reaping it raises its exit code
            self.pending = b""
            self._end()
        return True

    def _drain(self):
        """Write the lines whose turn has come: those formatted here, and the
        child's as far as its pipe back holds them now."""
        self._write_ready()
        while self.lines:  # the next line is the child's
            try:
                block = os.read(self.child.out, 1 << 16)
            except BlockingIOError:
                return
            if not block:  # it has exited: reaping it raises its exit code
                self._end()
            self._copy(block)

    def _copy(self, block):
        """Write ``block``, bytes of the child's lines in row order; each line
        it ends lets the lines formatted here after that row go too."""
        *ends, rest = block.split(b"\n")
        for line in ends:
            self.target.write(line.decode("ascii") + "\n")
            self.lines.popleft()
            self._write_ready()
        self.target.write(rest.decode("ascii"))

    def _write_ready(self):
        """Write the lines formatted here that lead the queue."""
        while self.lines and self.lines[0] is not None:
            self.target.write(self.lines.popleft())

    def _end(self):
        """Close the child's feed, copy its lines to EOF and reap it; raise
        :class:`OSError` if it exited non-zero."""
        os.set_blocking(self.child.out, True)
        self.child.read(self._copy)


def run_path(
    ctx: OperatorContext,
    noise_model: NoiseModel,
    initial: InitialDatum,
    source: SourceSpec,
    seed: int,
    cfg: SolverConfig | None = None,
    mode: str = "full",
    writer: RowWriter | None = None,
) -> Trajectory:
    """Run the full time loop for one path: :func:`run_rows` on one row.

    The increments are drawn from ``seed``, so the output is a
    deterministic function of the arguments.  A failed solve raises
    :class:`~plapsim.solver.NonConvergence` naming the seed and the
    (0-based) step, then the solve's message with its last residuals.

    It folds the states (full mode), W^{1,p} powers and solve reports of
    :func:`run_rows`' records.  In full mode, ``writer``, if given, is a
    :class:`RowWriter` pushed each state row as soon as its step is solved,
    and the trajectory keeps no states: no (M+1, n_cells) array is made.
    """
    if mode not in ("full", "thin"):
        raise ValueError(f"mode must be 'full' or 'thin', got {mode!r}")
    if writer is not None and mode != "full":
        raise ValueError("writer needs mode 'full'")
    pr = ctx.params
    increments = noise_model.sample_path(pr.M, pr.tau, seed)
    keep = mode == "full" and writer is None
    states = np.empty((pr.M + 1, ctx.grid.n_cells)) if keep else None
    w1p, reports = np.empty(pr.M + 1), []
    times = np.arange(pr.M + 1) * pr.tau

    def fold(rows, n, pt, solved):
        w1p[n] = pt.w1p[0]
        reports.extend(solved)
        if states is not None:
            states[n] = pt.u[0]
        elif writer is not None and all(r.failure is None for r in solved):
            writer.push(times[n], pt.u[0])

    l2, viol = run_rows(ctx, initial.u0.values, noise_model.coefs(increments.values[None]),
                        source.step_table(pr.M, ctx.grid, pr.tau), cfg or SolverConfig(),
                        lambda k: f"seed {seed}", on_step=fold)
    return Trajectory(ctx.grid, times, states, l2[0], w1p, viol[0], reports, increments,
                      seed, mode)
