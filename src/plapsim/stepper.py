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
it, and :class:`RowWriter` its blocks of CSV lines.
"""

from __future__ import annotations

import os
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
    ``states``; mode "thin" keeps only the per-time summary (L2 norm,
    W^{1,p} power, constraint violation) and sets ``states`` to None.  Thin
    mode drops the (M+1, n_cells) states but not the source table: a source
    that varies in time is tabulated as one (M, n_cells) array before step
    0, evaluated in blocks of steps (no (M, 4, n_cells) array of Gauss-time
    values), so peak memory still grows with M (ROADMAP direction 5).

    Full mode writes one CSV line of ``repr`` floats per state row, through
    a :class:`RowWriter`: above ``_PARALLEL_VALUES`` values the rows are
    formatted in blocks, one per usable core, every block but the last in a
    forked :class:`Child`.  The bytes are the same whatever the number of
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
    a child that exits non-zero.
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
        self.what, self.code = what, None  # the exit code once reaped

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
        self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


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


#: Full mode formats the state rows in blocks, one per this many values and
#: per usable core at most; every block but the last in a forked child.
_PARALLEL_VALUES = 1 << 18

#: The pipe that feeds the streamed formatting child is sized for this many
#: rows, at most 1 MiB (the kernel rounds up to a power of two pages): the
#: child never waits for the next step, and the rows it has yet to format
#: when the time loop ends stay few, so the split at the end stays balanced.
_PIPE_ROWS = 2


def _format_row(t, state):
    """The CSV line of one state row."""
    return repr(float(t)) + "," + ",".join(map(repr, state.tolist())) + "\n"


def _write_lines(out, rows):
    """Format the (t, state) pairs of ``rows``, then write their lines to
    ``out`` at once, so that a formatting child never waits on its parent."""
    lines = bytearray()
    for t, state in rows:
        lines += _format_row(t, state).encode()
    out.write(lines)


def _fed_rows(source, n):
    """The (t, state) pairs of the rows of ``1 + n`` float64 on ``source``, to EOF."""
    while row := source.read(8 * (1 + n)):
        row = np.frombuffer(row)
        yield row[0], row[1:]


def _blocks(states):
    """Blocks for ``states``: one per ``_PARALLEL_VALUES`` values, per usable
    core and per row at most."""
    return max(1, min(usable_cores(), states.size // _PARALLEL_VALUES + 1, len(states)))


class RowWriter:
    """Writes the line ``t,c0,...`` of each state row, in order, to a text stream.

    The rows are handed over as they become final: :meth:`push` once rows
    0..n are (the per-step hook of :func:`run_path`), :meth:`finish` once
    all are; ``finish`` first pushes the rows not pushed yet, so a writer
    that is only finished (:meth:`Trajectory.to_csv` alone) takes the same
    path as one pushed to step by step.  Above ``_PARALLEL_VALUES`` values
    and on more than one usable core, the first push forks a formatting
    :class:`Child`, and each push writes the new rows to its pipe as far as
    the pipe takes them without blocking, so the child formats while the
    time loop runs.
    :meth:`finish` splits the rows the streamed child has not received into
    contiguous blocks, one per ``_PARALLEL_VALUES`` values and per usable
    core at most: the streamed child takes the first, a child forked there
    formats each further block but the last from the rows it inherits, and
    this process formats the last while they work.  Then the children's
    lines are copied in order, and this process's last.

    A child runs :func:`_format_row` on the same doubles, so the bytes
    depend neither on the number of cores nor on the pipe size or the
    timing.  A block whose child cannot be forked is formatted here.  A
    child that exits non-zero raises :class:`OSError` with its exit code but
    no rows, since the split depends on the timing.  Used as a context
    manager, no child outlives the ``with`` block.
    """

    def __init__(self, target):
        self.target = target
        self.children = []  # every child forked, in row order
        self.pushed = 0  # rows pushed so far
        # the streamed child, given rows [0, end): the rows before next have
        # gone to its pipe, but for the bytes pending of row next - 1
        self.streamed, self.next, self.end, self.pending = None, 0, 0, b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for child in self.children:
            child.kill()

    def push(self, times, states, n):
        """Rows 0..n of ``states`` are final: stream them to the streamed child."""
        if not self.pushed and _blocks(states) > 1:  # the first push decides
            self._stream(states.shape[1])
        self.pushed = self.end = n + 1
        if self.streamed is not None:
            self._feed(times, states)

    def finish(self, times, states):
        """Every row of ``states`` is final: format the rest and write every row."""
        if self.pushed < len(states):
            self.push(times, states, len(states) - 1)
        streamed = [self.streamed] if self.streamed is not None else []
        first = self.next if streamed else 0
        parts = max(_blocks(states[first:]), len(streamed) + 1)
        cut = [first + (len(states) - first) * i // parts for i in range(parts + 1)]
        self.end = cut[1]
        blocks = [(0, cut[1], *streamed)] if streamed else []  # (first, end, child or None)
        for a, b in zip(cut[len(blocks):-2], cut[len(blocks) + 1:-1]):
            rows = zip(times[a:b], states[a:b])
            blocks.append((a, b, self._fork(lambda out, rows=rows: _write_lines(out, rows))))
        blocks.append((cut[-2], cut[-1], None))
        mine = [[] for _ in blocks]  # the lines of each block formatted here
        for lines, (a, b, owner) in zip(mine, blocks):
            for k in range(a, b) if owner is None else ():
                lines.append(_format_row(times[k], states[k]))
                if streamed:  # between rows, the streamed child is fed more
                    self._feed(times, states)
        if streamed:
            self._feed(times, states, wait=True)
        for lines, (_, _, owner) in zip(mine, blocks):
            if owner is None:
                self.target.writelines(lines)
            else:
                owner.read(lambda block: self.target.write(block.decode("ascii")))

    def _stream(self, cells):
        """Fork the streamed child, which formats the rows of ``cells`` values
        that arrive on its enlarged, non-blocking pipe."""
        self.streamed = self._fork(lambda out, source: _write_lines(out, _fed_rows(source, cells)),
                                   feed=True)
        if self.streamed is None:
            return
        try:
            import fcntl

            fcntl.fcntl(self.streamed.fd, fcntl.F_SETPIPE_SZ,
                        min(1 << 20, _PIPE_ROWS * 8 * (1 + cells)))
        except (ImportError, AttributeError, OSError):
            pass  # the pipe keeps its size; only the overlap shrinks
        os.set_blocking(self.streamed.fd, False)

    def _fork(self, work, feed=False):
        """A new formatting child running ``work``, or None if none can be forked."""
        child = fork(work, "CSV formatting", feed)
        if child is not None:
            self.children.append(child)
        return child

    def _feed(self, times, states, wait=False):
        """Write the rows up to ``end`` to the streamed child's pipe, as far as
        it takes them without blocking, or all of them with ``wait``."""
        fd = self.streamed.fd
        if wait:
            os.set_blocking(fd, True)
        try:
            while self.pending or self.next < self.end:
                if not self.pending:
                    row = np.concatenate((times[self.next:self.next + 1], states[self.next]),
                                         dtype=float)
                    self.pending, self.next = memoryview(row).cast("B"), self.next + 1
                self.pending = self.pending[os.write(fd, self.pending):]
        except BlockingIOError:
            pass  # the pipe is full; the next call goes on
        except BrokenPipeError:
            self.pending, self.end = b"", self.next  # it has exited; its exit code says why


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
