"""Outside-in layer tracing of plapsim.

The tracer wraps public functions and methods of the package from the
benchmark's own files; nothing under ``src/`` knows about it.  Each name is
wrapped where its caller looks it up: a module-level function is replaced in
every ``plapsim`` module namespace that binds it (``plapsim.stepper.solve``,
``plapsim.harness.run_path``, ...), and a method on its class
(``OperatorContext.energy``, ``GridFunction.__post_init__``, ...).

A span records its name, its parent span, its thread, and both
``perf_counter`` and ``thread_time`` at entry and exit, so a span's busy
time (thread CPU) and its waiting time (wall minus busy: the interpreter
lock, I/O, preemption) are separate.  A span opened on a thread that has no
open span of its own (a ``run_mc`` pool thread) takes as parent the
innermost span open on the thread that installed the tracer, which is the
``run_mc`` span waiting for the pool.

Self busy time is a span's thread CPU minus that of its children on the same
thread; children on other threads run in parallel and are not subtracted.
Self wall time is a span's duration minus the union of its children's
intervals.  Timer reads cost about 0.1 us (``perf_counter``) and 0.5 us
(``thread_time``), so spans of a few microseconds, such as
``GridFunction.__post_init__``, read high; ``trace.overhead_frac`` gives the
total cost.

Metric conventions (one traced subcommand call; ``run.py`` reports the
median over traced calls):

* ``<layer>.<fn>.self_us``: mean self busy time per call of that function;
* ``*.self_us_per_step`` and ``mesh.gridfunction.calls_per_step``: summed
  over the whole call, divided by the number of time steps
  (``stepper.step`` calls); on ``verify`` this includes the checks' own
  work outside time steps;
* ``*.self_ms``: self busy time summed over the call;
* ``solver.newton_iters_per_step.*``: over the solves called by
  ``stepper.step`` only, not the stand-alone solves of ``verify_all``;
* ``operators.ns_per_cell_iter``: self busy time of the four operator spans
  called by ``solve`` (not the stand-alone operator calls of
  ``verify_all``), divided by the Newton iterations of all solves times
  cells (computed, not a bandwidth);
* ``cli.output_write.ms``: busy time of the output methods (``to_csv``,
  ``to_json``) plus the rest of ``dispatch`` outside every traced layer,
  which is encoding and writing output files and building the context;
* solver ratios and counts: see :func:`solver_counts`; ``fallbacks`` and
  ``nonconvergence`` are per call.  A steepest-descent switch taken because
  the Newton direction is not a descent direction costs no extra energy
  evaluation and is not visible from outside ``solve``.
"""

from __future__ import annotations

import functools
import os
import threading
from time import perf_counter, thread_time

import plapsim.cli
import plapsim.harness
import plapsim.mesh
import plapsim.model
import plapsim.noise
import plapsim.operators
import plapsim.solver
import plapsim.stepper

# span record layout (a list, for speed)
NAME, PARENT, THREAD, T0, T1, C0, C1, INFO = range(8)

OPERATOR_SPANS = (
    "operators.apply",
    "operators.energy",
    "operators.jacobian",
    "operators.tridiag_solve",
)
OUTPUT_SPANS = ("cli.dispatch", "stepper.to_csv", "harness.output")


def _solve_info(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    cfg = cfg or plapsim.solver.SolverConfig()
    return {"iterations": result[1].iterations, "max_backtracks": cfg.max_backtracks}


def _csv_info(args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs["target"]
    return {"bytes": os.path.getsize(target)} if isinstance(target, str) else None


def _targets():
    """(owner, attribute, span name, info hook) for every traced name."""
    mesh, ops = plapsim.mesh, plapsim.operators
    harness, stepper = plapsim.harness, plapsim.stepper
    return [
        (mesh.GridFunction, "__post_init__", "mesh.gridfunction", None),
        (mesh, "norm_l2", "mesh.norms", None),
        (mesh, "norm_w1p", "mesh.norms", None),
        (mesh, "inner", "mesh.norms", None),
        (plapsim.model.SourceSpec, "step_average", "model.step_average", None),
        (plapsim.noise.NoiseModel, "apply_diffusion", "noise.apply_diffusion", None),
        (plapsim.noise.NoiseModel, "sample_path", "noise.sample_path", None),
        (ops.OperatorContext, "apply", "operators.apply", None),
        (ops.OperatorContext, "energy", "operators.energy", None),
        (ops.OperatorContext, "jacobian", "operators.jacobian", None),
        (ops.TridiagonalMatrix, "solve", "operators.tridiag_solve", None),
        (plapsim.solver, "solve", "solver.solve", _solve_info),
        (stepper, "step", "stepper.step", None),
        (stepper, "run_path", "stepper.run_path", None),
        (stepper.Trajectory, "to_csv", "stepper.to_csv", _csv_info),
        (harness, "run_mc", "harness.run_mc", None),
        (harness, "run_eps_study", "harness.run_eps_study", None),
        (harness, "verify_all", "harness.verify_all", None),
        (harness, "estimate_cp", "harness.estimate_cp", None),
        (harness.McSummary, "to_csv", "harness.output", None),
        (harness.RefinementTable, "to_csv", "harness.output", None),
        (harness.VerificationReport, "to_json", "harness.output", None),
        (plapsim.cli, "dispatch", "cli.dispatch", None),
    ]


class Tracer:
    """Installs span-recording wrappers and collects the spans in memory."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._root_stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn, info):
        spans, local = self.spans, self._local
        root = self._root_stack
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (root[-1] if root else None)
            rec = [name, parent, get_ident(), 0.0, 0.0, 0.0, None, None]
            stack.append(rec)
            rec[C0] = thread_time()
            rec[T0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[T1] = perf_counter()
                rec[C1] = thread_time()
                rec[INFO] = {"error": type(exc).__name__, "message": str(exc)}
                raise
            else:
                rec[T1] = perf_counter()
                rec[C1] = thread_time()
                if info is not None:
                    rec[INFO] = info(args, kwargs, result)
                return result
            finally:
                stack.pop()
                spans.append(rec)

        return traced

    def install(self) -> None:
        """Wrap every target; the calling thread becomes the root thread."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._root_stack
        modules = [
            plapsim, plapsim.cli, plapsim.harness, plapsim.mesh, plapsim.model,
            plapsim.noise, plapsim.operators, plapsim.solver, plapsim.stepper,
        ]
        for owner, attr, name, info in _targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                bindings = [
                    (mod, key)
                    for mod in modules
                    for key, value in vars(mod).items()
                    if value is original
                ]
            wrapper = self._wrap(name, original, info)
            for where, key in bindings:
                self._patches.append((where, key, original))
                setattr(where, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            where, key, original = self._patches.pop()
            setattr(where, key, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        del self.spans[:]
        return out


# ---------------------------------------------------------------------------
# aggregation


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _called_by(caller: str):
    """Span key: the span's name if its parent is ``caller``, else None."""

    def key(rec):
        parent = rec[PARENT]
        return rec[NAME] if parent is not None and parent[NAME] == caller else None

    return key


def span_table(spans, key=lambda rec: rec[NAME]) -> dict:
    """Per span key: count and total wall, busy, self wall and self busy (s).

    Spans whose key is None are left out.
    """
    children: dict = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(id(rec[PARENT]), []).append(rec)
    table: dict = {}
    for rec in spans:
        name = key(rec)
        if name is None:
            continue
        kids = children.get(id(rec), ())
        wall, busy = rec[T1] - rec[T0], rec[C1] - rec[C0]
        same = [k for k in kids if k[THREAD] == rec[THREAD]]
        self_busy = busy - sum(k[C1] - k[C0] for k in same)
        self_wall = wall - _union_length([(k[T0], k[T1]) for k in kids], rec[T0], rec[T1])
        row = table.setdefault(
            name, {"count": 0, "wall": 0.0, "busy": 0.0, "self_wall": 0.0, "self_busy": 0.0}
        )
        row["count"] += 1
        row["wall"] += wall
        row["busy"] += busy
        row["self_wall"] += self_wall
        row["self_busy"] += self_busy
    return table


def solver_counts(spans) -> dict:
    """Exact solver counts, seen from outside ``solve``.

    Newton iterations come from the returned ``SolveReport``; the
    ``step_*`` counts cover only the solves called by ``stepper.step``.
    Each solve
    evaluates the energy once at its start and once per line-search trial,
    so backtracks = energy evaluations - iterations - 1.  A line search
    makes at most ``max_backtracks`` trials, so an iteration with more
    energy evaluations than that between two ``jacobian`` calls (or after
    the last one) ran the steepest-descent fallback search.
    """
    kids: dict = {}
    for rec in spans:
        parent = rec[PARENT]
        if parent is not None and parent[NAME] == "solver.solve":
            if rec[NAME] in ("operators.energy", "operators.jacobian"):
                kids.setdefault(id(parent), []).append(rec[NAME])
    iters, step_iters, energies, fallbacks, nonconv = [], [], 0, 0, 0
    for rec in spans:
        if rec[NAME] != "solver.solve":
            continue
        if rec[INFO].get("error") is not None:
            nonconv += rec[INFO]["error"] == "NonConvergence"
            continue
        seq = kids.get(id(rec), [])
        iters.append(rec[INFO]["iterations"])
        if rec[PARENT] is not None and rec[PARENT][NAME] == "stepper.step":
            step_iters.append(rec[INFO]["iterations"])
        energies += seq.count("operators.energy")
        run = None
        for call in seq + ["operators.jacobian"]:
            if call == "operators.jacobian":
                if run is not None and run > rec[INFO]["max_backtracks"]:
                    fallbacks += 1
                run = 0
            elif run is not None:
                run += 1
    return {
        "solves": len(iters),
        "iterations": sum(iters),
        "step_solves": len(step_iters),
        "step_iterations": sum(step_iters),
        "step_iterations_max": max(step_iters, default=0),
        "energy_evals": energies,
        "backtracks": energies - sum(iters) - len(iters),
        "fallbacks": fallbacks,
        "nonconvergence": nonconv,
    }


def run_mc_parallelism(spans) -> tuple[float, float]:
    """(CPU per wall, summed waiting of its paths in s) over run_mc spans.

    CPU counts the ``run_mc`` thread and its paths on pool threads.
    """
    kids: dict = {}
    for rec in spans:
        parent = rec[PARENT]
        if parent is not None and parent[NAME] == "harness.run_mc":
            kids.setdefault(id(parent), []).append(rec)
    cpu = wall = wait = 0.0
    for rec in spans:
        if rec[NAME] != "harness.run_mc":
            continue
        wall += rec[T1] - rec[T0]
        cpu += rec[C1] - rec[C0]
        for k in kids.get(id(rec), ()):
            if k[THREAD] != rec[THREAD]:
                cpu += k[C1] - k[C0]
            if k[NAME] == "stepper.run_path":
                wait += (k[T1] - k[T0]) - (k[C1] - k[C0])
    return (cpu / wall if wall else 0.0), wait


def call_metrics(spans, n_cells: int) -> tuple[dict, dict]:
    """Per-layer metrics and exact counts of one traced subcommand call."""
    table = span_table(spans)
    in_solve = span_table(spans, key=_called_by("solver.solve"))
    counts = solver_counts(spans)

    def n(name):
        return table.get(name, {}).get("count", 0)

    def busy(*names, rows=table):
        return sum(rows.get(x, {}).get("self_busy", 0.0) for x in names)

    def mean_us(name):
        return busy(name) / n(name) * 1e6 if n(name) else 0.0

    steps = n("stepper.step")
    iters = counts["iterations"]
    trials = counts["energy_evals"] - counts["solves"]
    cpu_per_wall, wait = run_mc_parallelism(spans)
    csv_bytes = sum(
        (rec[INFO] or {}).get("bytes", 0) for rec in spans if rec[NAME] == "stepper.to_csv"
    )
    metrics = {
        "mesh.gridfunction.calls_per_step": n("mesh.gridfunction") / steps if steps else 0.0,
        "mesh.gridfunction.self_us": mean_us("mesh.gridfunction"),
        "mesh.norms.self_us_per_step": busy("mesh.norms") / steps * 1e6 if steps else 0.0,
        "operators.apply.self_us": mean_us("operators.apply"),
        "operators.energy.self_us": mean_us("operators.energy"),
        "operators.jacobian.self_us": mean_us("operators.jacobian"),
        "operators.tridiag_solve.self_us": mean_us("operators.tridiag_solve"),
        "operators.ns_per_cell_iter": (
            busy(*OPERATOR_SPANS, rows=in_solve) / (iters * n_cells) * 1e9 if iters else 0.0
        ),
        "solver.solve.self_us": mean_us("solver.solve"),
        "solver.newton_iters_per_step.mean": (
            counts["step_iterations"] / counts["step_solves"] if counts["step_solves"] else 0.0
        ),
        "solver.newton_iters_per_step.max": float(counts["step_iterations_max"]),
        "solver.backtracks_per_iter": counts["backtracks"] / iters if iters else 0.0,
        "solver.armijo_accept_ratio": iters / trials if trials else 0.0,
        "solver.fallbacks": float(counts["fallbacks"]),
        "solver.nonconvergence": float(counts["nonconvergence"]),
        "noise.apply_diffusion.self_us": mean_us("noise.apply_diffusion"),
        "noise.sample_path.self_us": mean_us("noise.sample_path"),
        "model.step_average.self_us": mean_us("model.step_average"),
        "stepper.step.self_us": mean_us("stepper.step"),
        "stepper.run_path.self_us_per_step": (
            busy("stepper.run_path") / steps * 1e6 if steps else 0.0
        ),
        "stepper.to_csv.self_ms": busy("stepper.to_csv") * 1e3,
        "stepper.to_csv.mb": csv_bytes / 1e6,
        "harness.run_mc.self_ms": busy("harness.run_mc") * 1e3,
        "harness.run_mc.cpu_per_wall": cpu_per_wall,
        "harness.run_mc.wait_s": wait,
        "harness.run_eps_study.self_ms": busy("harness.run_eps_study") * 1e3,
        "harness.verify_all.self_ms": busy("harness.verify_all") * 1e3,
        "harness.estimate_cp.self_ms": busy("harness.estimate_cp") * 1e3,
        "cli.output_write.ms": busy(*OUTPUT_SPANS) * 1e3,
    }
    exact = dict(
        counts,
        steps=steps,
        gridfunctions=n("mesh.gridfunction"),
        jacobians=n("operators.jacobian"),
        csv_bytes=csv_bytes,
    )
    return metrics, {"counts": exact, "table": table}
