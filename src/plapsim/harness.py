"""Experiments and inequality verification.

Four kinds of output, all reproducible from explicit seeds:

* ``estimate_cp``: empirical infimum of the scalar monotonicity ratio
  behind the strong monotonicity bound; certifies the constant 2^{2-p}.
* refinement studies: deterministic manufactured-solution convergence
  (coupled time/space and spatial-only), penalization strength versus the
  box violation, and pathwise time-refinement under common random numbers
  (one Brownian path reused across levels by increment aggregation).
* ``run_mc``: per-time Monte Carlo statistics over independent paths.
* ``verify_all``: every computable inequality and determinism contract of
  the stack, as a structured pass/fail report with measured slacks and a
  coverage checklist.  The ordered table ``_PROPERTIES`` is the one place
  a property is declared: its module, the invariant it covers and its pass
  direction.  Each verdict is derived from its measured value, bound and
  direction.  Its 40 uniqueness problems are one stacked ``solve_rows`` call.

Every path driver takes ``(ctx, noise_model, initial, source)`` first, as
``RunConfig.problem()`` returns them, and runs its paths through the one
time loop, :func:`~plapsim.stepper.run_rows`, which chunks the rows and
names the first failed one: the deterministic study through ``run_path``
(one row), the pathwise study with one row per time level, ``run_mc`` and
the eps study with all paths at one eps as its rows, ``verify_all`` with
its four stepper runs as rows its hook folds.  The eps study runs its
levels on the usable cores, in groups forked through
:class:`~plapsim.stepper.Child`; every other driver runs in this process.

No convergence rate for the stochastic scheme is asserted anywhere: the
stochastic tables are recorded observations only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from operator import setitem

import numpy as np

from . import stepper
from .mesh import Grid1D, divergence_array, norm_l2_array, norm_w1p_array
from .model import (
    InitialDatum,
    ModelParams,
    ReactionSpec,
    SourceSpec,
    make_initial,
    yosida_penalty,
    yosida_potential,
)
from .noise import NoiseModel, bump_profile, seeded_rng
from .operators import OperatorContext
from .solver import (
    NonConvergence, SolverConfig, apriori_slack, solve, solve_rows, stability_slacks,
)

__all__ = [
    "RefinementTable",
    "McSummary",
    "VerificationReport",
    "estimate_cp",
    "manufactured_state",
    "manufactured_problem",
    "run_deterministic_convergence",
    "run_eps_study",
    "run_mc",
    "run_pathwise_refinement",
    "verify_all",
    "CHECKLIST",
]


# ---------------------------------------------------------------------------
# result containers


@dataclass
class RefinementTable:
    """Rows of (refinement parameter, measured value, ratio to previous row)."""

    parameter: str
    values: list
    errors: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.values) != len(self.errors):
            raise ValueError("values and errors must have equal length")
        diffs = np.diff(np.asarray(self.values, dtype=float))
        if not (np.all(diffs < 0) or np.all(diffs > 0)):
            raise ValueError("refinement parameter must be strictly monotone")

    def ratios(self) -> list:
        """errors[k-1] / errors[k] between adjacent rows; first entry is nan."""
        out = [float("nan")]
        for prev, cur in zip(self.errors, self.errors[1:]):
            out.append(prev / cur if cur != 0 else float("inf"))
        return out

    def orders(self) -> list:
        """Observed order log(e ratio) / log(parameter ratio), adjacent rows."""
        out = [float("nan")]
        for (vp, vc), (ep, ec) in zip(
            zip(self.values, self.values[1:]), zip(self.errors, self.errors[1:])
        ):
            if ec == 0 or ep == 0:
                out.append(float("inf"))
            else:
                out.append(float(np.log(ep / ec) / np.log(vp / vc)))
        return out

    def to_csv(self, stream, metadata: dict | None = None) -> None:
        """Write the rows as CSV to the text stream ``stream``, under '# key:
        value' lines of ``self.metadata`` and ``metadata``, sorted by key."""
        meta = {**self.metadata, **(metadata or {})}
        stream.write(stepper.csv_head(sorted(meta.items()), [self.parameter, "error", "ratio"]))
        ratios = self.ratios()
        for i, (v, e) in enumerate(zip(self.values, self.errors)):
            ratio = "" if i == 0 else repr(ratios[i])
            stream.write(f"{float(v)!r},{float(e)!r},{ratio}\n")


@dataclass
class McSummary:
    """Per-time-point Monte Carlo statistics over independent paths.

    Half-widths are the 95% normal-approximation values 1.96 sqrt(var/n);
    they are zero, not positive, when the paths are deterministic.
    """

    n_paths: int
    base_seed: int
    times: np.ndarray
    mean_l2: np.ndarray
    var_l2: np.ndarray
    hw_l2: np.ndarray
    mean_violation: np.ndarray
    var_violation: np.ndarray
    hw_violation: np.ndarray

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be >= 2, got {self.n_paths}")

    def _series(self) -> dict:
        """The per-time series, by name: every field after ``base_seed``."""
        return {f.name: getattr(self, f.name) for f in fields(self)[2:]}

    def to_dict(self) -> dict:
        out = {"n_paths": self.n_paths, "base_seed": self.base_seed}
        for name, values in self._series().items():
            out[name] = [float(v) for v in values]
        return out

    def to_csv(self, stream) -> None:
        """Write the series as CSV to the text stream ``stream``, column t first."""
        series = self._series()
        pairs = [("n_paths", self.n_paths), ("base_seed", self.base_seed)]
        stream.write(stepper.csv_head(pairs, ["t", *list(series)[1:]]))  # times is column t
        for row in np.column_stack(list(series.values())).tolist():
            stream.write(",".join(map(repr, row)) + "\n")


# ---------------------------------------------------------------------------
# algebraic inequality constant

_CP_BLOCK = 2**14  # pairs per block of estimate_cp's reduction


def estimate_cp(p: float, d: int = 1, samples: int = 10**6, seed: int = 0) -> float:
    """Empirical infimum of (|a|^{p-2}a - |b|^{p-2}b).(a-b) / |a-b|^p.

    Mixes uniform, Gaussian and adversarial near-antipodal pairs in R^d;
    the infimum is attained at exactly antipodal pairs (b = -a), where the
    ratio equals 4 / 2^p = 2^{2-p}, so the estimate lands on that constant
    to round-off.  For p = 2 the ratio is identically one.
    """
    if not 2 <= p < np.inf:  # NaN fails both comparisons
        raise ValueError(f"p must be finite and >= 2, got {p}")
    if d not in (1, 2, 3):
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = seeded_rng(seed)
    n_uni = max(samples // 3, 1)
    n_gau = max(samples // 3, 1)
    n_adv = max(samples - n_uni - n_gau, 2)

    a_uni = rng.uniform(-3.0, 3.0, (n_uni, d))
    b_uni = rng.uniform(-3.0, 3.0, (n_uni, d))
    a_gau = rng.standard_normal((n_gau, d))
    b_gau = rng.standard_normal((n_gau, d))
    a_adv = rng.uniform(-2.0, 2.0, (n_adv, d))
    wiggle = rng.uniform(-1e-3, 1e-3, (n_adv, 1))
    wiggle[: n_adv // 2] = 0.0  # exact antipodal pairs attain the infimum
    b_adv = -a_adv * (1.0 + wiggle)

    # each pair's ratio is its own, so the minimum is taken block by block,
    # and a block's temporaries are all the memory the reduction needs
    blocks = [(a[i:i + _CP_BLOCK], b[i:i + _CP_BLOCK])
              for a, b in ((a_uni, b_uni), (a_gau, b_gau), (a_adv, b_adv))
              for i in range(0, len(a), _CP_BLOCK)]
    mins = []
    for a, b in blocks:
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        diff = a - b
        ndiff = np.linalg.norm(diff, axis=1)
        keep = ndiff > 1e-12 * (na + nb + 1.0)
        m = na[keep, None] ** (p - 2.0) * a[keep]
        m -= nb[keep, None] ** (p - 2.0) * b[keep]
        num = np.sum(m * diff[keep], axis=1)
        den = ndiff[keep] ** p
        mins.append(np.min(num / den, initial=np.inf))
    return float(np.min(mins))


# ---------------------------------------------------------------------------
# manufactured deterministic problem


def manufactured_state(t, x):
    """Smooth reference state 1/2 + (1/4) e^{-t} cos(pi x) on the unit interval.

    Ranges over [1/4, 3/4], so the box penalization never activates, and
    has zero normal derivative at both ends of the interval.
    """
    return 0.5 + 0.25 * np.exp(-t) * np.cos(np.pi * np.asarray(x))


def manufactured_problem(
    n_cells: int,
    M: int,
    T: float = 0.5,
    steady: bool = False,
):
    """Build (ctx, initial, source) for the p = 2, eps = 0.1 case on [0, 1].

    The reaction is linear with slope 1/2; the source is chosen so the
    reference state (time-dependent, or its t = 0 profile frozen in time
    when ``steady``) solves the noise-free equation exactly.
    """
    params = ModelParams(p=2.0, eps=0.1, T=T, M=M, L_beta=0.5)
    reaction = ReactionSpec("linear", 0.5)
    grid = Grid1D(n_cells, 1.0)
    ctx = OperatorContext(params, reaction, grid)
    initial = make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
    if steady:
        amp = 0.25 * (np.pi**2 + 0.5)
        decay = 0.0
    else:
        amp = 0.25 * (np.pi**2 - 0.5)
        decay = 1.0
    source = SourceSpec(
        "cosine", {"offset": 0.25, "amp": amp, "decay": decay, "length": 1.0}
    )
    return ctx, initial, source


def run_deterministic_convergence(
    mode: str = "coupled",
    levels: int = 4,
    n0: int = 32,
    M0: int = 8,
    T: float = 0.5,
    solver_cfg: SolverConfig | None = None,
) -> RefinementTable:
    """Refinement table of discrete L2 errors against the manufactured state.

    mode "coupled": halve tau per level and shrink h like sqrt(tau)
    (h^2 proportional to tau), so the first-order time error dominates a
    balanced second-order space error; the table indexes by tau.
    mode "spatial": freeze the reference in time, fix the step count, and
    double the cell count per level; the table indexes by h.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    if mode not in ("coupled", "spatial"):
        raise ValueError(f"mode must be 'coupled' or 'spatial', got {mode!r}")
    quiet_noise = NoiseModel(J=1, sigma=0.0)
    values, errors = [], []
    for level in range(levels):
        if mode == "coupled":
            M = M0 * 2**level
            n_cells = max(2, round(n0 * np.sqrt(2.0**level)))
            steady = False
        else:
            M = M0
            n_cells = n0 * 2**level
            steady = True
        ctx, initial, source = manufactured_problem(
            n_cells, M, T=T, steady=steady
        )
        traj = stepper.run_path(ctx, quiet_noise, initial, source, seed=0, cfg=solver_cfg)
        x = ctx.grid.cell_centers()
        ref = manufactured_state(0.0 if steady else T, x)
        err = float(norm_l2_array(traj.states[-1] - ref, ctx.grid.h))
        values.append(ctx.params.tau if mode == "coupled" else ctx.grid.h)
        errors.append(err)
    meta = {
        "mode": mode,
        "norm": "discrete_l2_at_final_time",
        "reference": "manufactured cosine state",
        "T": T,
        "levels": levels,
        "seed_policy": "deterministic (sigma = 0)",
    }
    return RefinementTable("tau" if mode == "coupled" else "h", values, errors, meta)


# ---------------------------------------------------------------------------
# penalization study


def run_eps_study(
    ctx: OperatorContext,
    noise_model: NoiseModel,
    initial: InitialDatum,
    source: SourceSpec,
    eps_list,
    n_paths: int = 8,
    base_seed: int = 0,
    solver_cfg: SolverConfig | None = None,
) -> RefinementTable:
    """Mean (over paths) of the max-over-time box violation, per eps level.

    Each level runs on ``ctx`` with its eps replaced by the level's.  Each
    seed's increments and the source step averages are drawn once and
    reused at every level (common random numbers), so the table isolates
    the effect of the penalization strength.  Each level's paths advance
    together through :func:`~plapsim.stepper.run_rows` as in :func:`run_mc`,
    so every peak is bit-identical to its :func:`~plapsim.stepper.run_path`
    run, and a :class:`NonConvergence` names the eps level, then the path as
    :func:`run_mc` does: the level is part of each row's label.  Levels
    that are not finite, positive and strictly monotone raise ValueError
    before any path runs.

    The levels run on the usable cores: they are split into contiguous
    groups, one per core and at most one per level.  This process runs the
    first group, of ceil(L / groups) levels, and a forked
    :class:`~plapsim.stepper.Child` runs each other group on the inherited
    increments and source table, and sends back its peaks or the exception
    of its first failed level.  The means and halfwidths are reduced in
    level order, and the first failed level's exception is raised, so the
    table and the message do not depend on the cores.  Where ``os.fork`` is
    missing or fails, the group runs in this process.  Every child is
    reaped before the call returns, and killed first if this process's own
    group fails or is interrupted; a child that dies raises
    :class:`OSError`.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2 or not all(0 < e < np.inf for e in eps_list):
        raise ValueError("need at least two positive finite eps levels")
    if eps_list not in (sorted(set(eps_list)), sorted(set(eps_list), reverse=True)):
        raise ValueError(f"eps levels must be strictly monotone, got {eps_list}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    import pickle  # numpy has loaded it already

    coef = _seed_coefs(noise_model, ctx.params, range(base_seed, base_seed + n_paths))
    f = source.step_table(ctx.params.M, ctx.grid, ctx.params.tau)
    cfg = solver_cfg or SolverConfig()

    def peaks(levels):
        """The (n_paths,) peak violations of each level of ``levels``, in order."""
        out = []
        for eps in levels:
            level = OperatorContext(replace(ctx.params, eps=eps), ctx.reaction, ctx.grid)
            _, viol = stepper.run_rows(level, initial.u0.values, coef, f, cfg,
                                       lambda k: f"eps {eps!r}: path {k} (seed {base_seed + k})")
            out.append(viol.max(axis=1))
        return out

    def send(out, levels):
        """A child's work: its group's peaks, or the exception of its first failed level."""
        try:
            result = peaks(levels)
        except Exception as exc:  # raised by the parent, in level order
            result = exc
        pickle.dump(result, out)

    n_groups = min(stepper.usable_cores(), len(eps_list))
    cut = [-(-len(eps_list) * i // n_groups) for i in range(n_groups + 1)]  # rounded up
    groups = [eps_list[a:b] for a, b in zip(cut, cut[1:])]
    children = []  # (levels, child or None) of each group after this process's
    try:
        for levels in groups[1:]:
            child = stepper.fork(lambda out, levels=levels: send(out, levels), "eps study")
            children.append((levels, child))
        results = peaks(groups[0])
        for levels, child in children:
            if child is None:  # no fork: the group runs here
                results += peaks(levels)
                continue
            data = bytearray()
            child.read(data.extend)
            result = pickle.loads(data)
            if isinstance(result, Exception):
                raise result
            results += result
    finally:
        for _, child in children:
            if child is not None:
                child.kill()
    means = [float(level.mean()) for level in results]
    halfwidths = [float(1.96 * np.sqrt(level.var(ddof=1) / n_paths)) if n_paths > 1 else 0.0
                  for level in results]
    meta = {
        "quantity": "mean over paths of max-over-time constraint violation",
        "n_paths": n_paths,
        "base_seed": base_seed,
        "halfwidths": halfwidths,
        "seed_policy": "per-path seed = base_seed + path index, shared across levels",
    }
    return RefinementTable("eps", eps_list, means, meta)


# ---------------------------------------------------------------------------
# Monte Carlo


def run_mc(
    ctx: OperatorContext,
    noise_model: NoiseModel,
    initial: InitialDatum,
    source: SourceSpec,
    n_paths: int,
    base_seed: int = 0,
    solver_cfg: SolverConfig | None = None,
) -> McSummary:
    """Monte Carlo over ``n_paths`` independent paths with per-path seeds.

    Path k draws its increments from seed ``base_seed + k``.  The paths
    are the rows of :func:`~plapsim.stepper.run_rows`, the time loop that
    :func:`~plapsim.stepper.run_path` runs on one row, so every path's
    numbers are bit-identical to its ``run_path`` run, and the summary,
    reduced in path order, does not depend on run_rows' chunk size.  A
    failed solve raises :class:`NonConvergence` naming the smallest failed
    path, its seed, the (0-based) step and its last residuals.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    pr = ctx.params
    coef = _seed_coefs(noise_model, pr, range(base_seed, base_seed + n_paths))
    l2, viol = stepper.run_rows(
        ctx, initial.u0.values, coef, source.step_table(pr.M, ctx.grid, pr.tau),
        solver_cfg or SolverConfig(), lambda k: f"path {k} (seed {base_seed + k})",
    )
    times = np.arange(pr.M + 1) * pr.tau
    var_l2 = l2.var(axis=0, ddof=1)
    var_viol = viol.var(axis=0, ddof=1)
    return McSummary(
        n_paths=n_paths,
        base_seed=base_seed,
        times=times,
        mean_l2=l2.mean(axis=0),
        var_l2=var_l2,
        hw_l2=1.96 * np.sqrt(var_l2 / n_paths),
        mean_violation=viol.mean(axis=0),
        var_violation=var_viol,
        hw_violation=1.96 * np.sqrt(var_viol / n_paths),
    )


def _seed_coefs(noise_model, params, seeds):
    """(len(seeds), M) noise coefficients of the paths drawn from ``seeds``."""
    paths = (noise_model.sample_path(params.M, params.tau, s).values for s in seeds)
    return np.array([noise_model.coefs(dw) for dw in paths])


def run_pathwise_refinement(
    ctx: OperatorContext,
    noise_model: NoiseModel,
    initial: InitialDatum,
    source: SourceSpec,
    levels: int = 3,
    seed: int = 0,
    solver_cfg: SolverConfig | None = None,
) -> RefinementTable:
    """Pathwise distance to the finest time level under one Brownian path.

    ``ctx`` is the coarsest level, the finest has M * 2^(levels-1) steps,
    and every coarser level consumes the same path through increment
    aggregation: each of its increments sums the fine ones over its step.
    Each level is one row of :func:`~plapsim.stepper.run_rows`, whose hook
    keeps only the final state.  The table reports the final-time L2
    distance of each coarse run to the finest run; an observation, no rate
    is claimed.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    pr = ctx.params
    M_fine = pr.M * 2 ** (levels - 1)
    fine = noise_model.sample_path(M_fine, pr.T / M_fine, seed).values
    runs = [None] * levels  # each level's last state, its final one once it has run
    taus = []
    for level in range(levels):
        params = replace(pr, M=pr.M * 2**level)
        level_ctx = OperatorContext(params, ctx.reaction, ctx.grid)
        incr = fine.reshape(params.M, -1, noise_model.J).sum(axis=1)
        stepper.run_rows(level_ctx, initial.u0.values, noise_model.coefs(incr[None]),
                         source.step_table(params.M, ctx.grid, params.tau),
                         solver_cfg or SolverConfig(), lambda k: f"seed {seed}",
                         on_step=lambda rows, n, pt, solved: setitem(runs, level, pt.u[0]))
        taus.append(params.tau)
    ref = runs[-1]
    errors = [float(norm_l2_array(r - ref, ctx.grid.h)) for r in runs[:-1]]
    meta = {
        "quantity": "final-time L2 distance to finest level, common random numbers",
        "fine_steps": M_fine,
        "seed": seed,
    }
    return RefinementTable("tau", taus[:-1], errors, meta)


# ---------------------------------------------------------------------------
# verification report


#: Every property of the verify_all report, in report order: name ->
#: (module, the invariant of that module it covers or None, direction).  A
#: property passes when its measured value is at most ("le") or at least
#: ("ge") its bound.  This table is the one place a property is declared;
#: CHECKLIST and the report's module and coverage fields are read from it.
_PROPERTIES = {
    "cp_infimum": ("harness", None, "ge"),
    "mesh_summation_by_parts": ("mesh", "summation_by_parts", "le"),
    "mesh_norm_w1p_p2_identity": ("mesh", "norm_w1p_p2_identity", "le"),
    "mesh_norm_homogeneity": ("mesh", "norm_homogeneity", "le"),
    "penalty_monotone": ("model", "penalty_monotone", "ge"),
    "penalty_lipschitz": ("model", "penalty_lipschitz", "le"),
    "penalty_vanishes_on_box": ("model", "penalty_vanishes_on_box", "le"),
    "potentials_match_fd": ("model", "potentials_match_fd", "le"),
    "params_gate": ("model", "params_gate", "ge"),
    "noise_support": ("noise", "support_zero_outside", "le"),
    "noise_truncation_decay": ("noise", "truncation_decay", "le"),
    "noise_forcing_reproducible": ("noise", "forcing_reproducible", "le"),
    "noise_hs_bound": ("noise", "hs_bound", "le"),
    "noise_increment_mean": ("noise", None, "le"),
    "noise_increment_variance": ("noise", None, "le"),
    "operator_coercivity": ("operator", "coercivity", "ge"),
    "operator_strong_monotonicity": ("operator", "strong_monotonicity", "ge"),
    "operator_weak_form": ("operator", "weak_form_exact", "le"),
    "operator_continuity": ("operator", "continuity_in_delta", "le"),
    "solver_uniqueness": ("solver", "uniqueness", "le"),
    "solver_energy_nonincreasing": ("solver", "energy_nonincreasing", "le"),
    "solver_converges_within_cap": ("solver", "converges_within_cap", "le"),
    "solver_determinism": ("solver", "determinism", "le"),
    "solver_stability_l2": ("solver", None, "ge"),
    "solver_stability_w1p": ("solver", None, "ge"),
    "solver_apriori_bound": ("solver", None, "ge"),
    "stepper_scheme_residual": ("stepper", "scheme_residual", "le"),
    "stepper_noise_off_seed_independent": ("stepper", "noise_off_seed_independent", "le"),
    "stepper_warm_start_equivalence": ("stepper", "warm_start_equivalence", "le"),
    "coverage_complete": ("harness", None, "le"),
}

#: module invariants that verify_all must cover, by module, from _PROPERTIES
CHECKLIST = {
    module: [inv for mod, inv, _ in _PROPERTIES.values() if inv and mod == module]
    for module, invariant, _ in _PROPERTIES.values() if invariant
}


@dataclass
class VerificationReport:
    """Structured pass/fail verdicts with measured slacks and coverage map."""

    properties: list
    coverage: dict
    passed: bool
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _nan_or(reduce, values):
    """``reduce(values)`` (min or max) of a list of floats, or NaN if one is NaN.

    Python's min and max drop a NaN that is not their first argument; ties
    still keep the first of the equal values.
    """
    return float("nan") if any(x != x for x in values) else reduce(values)


def verify_all(
    ctx: OperatorContext | None = None,
    noise_model: NoiseModel | None = None,
    initial: InitialDatum | None = None,
    source: SourceSpec | None = None,
    solver_cfg: SolverConfig | None = None,
    seed: int = 0,
    cp_factor: float = 1.0,
    cp_samples: int = 200_000,
    stat_draws: int = 1_000_000,
) -> VerificationReport:
    """Run every computable inequality check and return the report.

    ``ctx`` defaults to p = 3, eps = 0.1, T = 0.5, M = 50, L_beta = 0.5 and
    the sine reaction 0.5 on ``Grid1D(32, 1.0)``.  ``cp_factor`` scales the
    monotonicity constant 2^{2-p} used in the strong monotonicity check;
    anything above 1 corrupts the bound on purpose, as a self-test that
    the harness can fail; a non-finite one raises ValueError.  A failed
    check is data in the report; a failed solve raises :class:`NonConvergence`
    naming the check, the row and, for a stepper run, the step.

    The noise-increment checks take ``stat_draws`` draws (rounded down to
    whole rows of J) from :meth:`NoiseModel.draw`, the one formula of a
    path's increments, and compute their mean and variance in the draws'
    own buffer, bit for bit ``ndarray.mean()`` and ``var()``: the draws are
    held once, so they set the peak memory (8 MB at the default 10^6).
    """
    if not -np.inf < cp_factor < np.inf:  # NaN fails both comparisons
        raise ValueError(f"cp_factor must be finite, got {cp_factor}")
    ctx = ctx or OperatorContext(ModelParams(p=3.0, eps=0.1, T=0.5, M=50, L_beta=0.5),
                                 ReactionSpec("sine", 0.5), Grid1D(32, 1.0))
    params, reaction, grid = ctx.params, ctx.reaction, ctx.grid
    noise_model = noise_model or NoiseModel(J=12, sigma=0.5)
    source = source or SourceSpec("constant", {"value": 0.5})
    initial = initial or make_initial(grid, "cosine", {"offset": 0.5, "amp": 0.25})
    solver_cfg = solver_cfg or SolverConfig()
    rng = seeded_rng(seed)
    props: list = []
    coverage: dict = {}

    def record(name, measured, bound, requires=True):
        """Append the verdict on ``name``, a row of :data:`_PROPERTIES`.

        It fails too unless ``requires`` holds; slack is positive when there
        is margin.
        """
        module, covers, direction = _PROPERTIES[name]
        le = direction == "le"
        props.append({
            "property": name,
            "module": module,
            "passed": bool(requires and (measured <= bound if le else measured >= bound)),
            "measured": float(measured),
            "bound": float(bound),
            "slack": float(bound - measured if le else measured - bound),
        })
        if covers is not None:
            coverage.setdefault(module, {}).setdefault(covers, []).append(name)

    h, tau, lbeta, eps = grid.h, params.tau, params.L_beta, params.eps
    p_values = sorted({2.0, 3.0, 4.0, params.p})

    # --- algebraic inequality constant
    est = estimate_cp(params.p, 1, cp_samples, seed)
    cp_bound = 2.0 ** (2.0 - params.p) * (1.0 - 1e-9)
    record("cp_infimum", est, cp_bound)

    # --- mesh identities
    u, v = rng.uniform(-1.5, 2.5, (2, grid.n_cells))
    du = np.diff(u) / h
    lhs = h * np.dot(du, np.diff(v) / h)
    rhs = -(h * np.dot(divergence_array(du, h), v))
    sbp = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    record("mesh_summation_by_parts", sbp, 1e-12)
    w1p2 = float(norm_w1p_array(u, h, 2.0))
    ident = float(norm_l2_array(u, h)) ** 2 + h * np.dot(du, du)
    rel = abs(w1p2 - ident) / max(abs(ident), 1e-300)
    record("mesh_norm_w1p_p2_identity", rel, 1e-12)
    alphas = (-2.5, -1.0, 0.5, 3.0)
    scaled = np.multiply.outer(alphas, u)  # row i is alphas[i] * u
    # ||a u|| = |a| ||u|| and ||a u||_{1,p}^p = |a|^p ||u||_{1,p}^p, row by row;
    # |a|^p is a numpy power, which overflows to inf where a float's raises
    cases = [(1.0, norm_l2_array(scaled, h), float(norm_l2_array(u, h)))]
    cases += [(p, norm_w1p_array(scaled, h, p), float(norm_w1p_array(u, h, p)))
              for p in p_values]
    worst = _nan_or(max, [0.0] + [
        abs(norm_au - float(np.abs(alpha) ** q) * norm_u) / max(norm_au, 1e-300)
        for q, norms_au, norm_u in cases
        for alpha, norm_au in zip(alphas, norms_au.tolist())
    ])
    record("mesh_norm_homogeneity", worst, 1e-12)

    # --- penalization and potentials
    samples = np.sort(rng.uniform(-2.0, 3.0, 4001))
    pen = yosida_penalty(samples, eps)
    monotone_viol = float(np.minimum(np.diff(pen), 0.0).min(initial=0.0))
    record("penalty_monotone", monotone_viol, 0.0)
    pa, pb = rng.uniform(-2.0, 3.0, 4000), rng.uniform(-2.0, 3.0, 4000)
    lip_excess = float(
        (np.abs(yosida_penalty(pa, eps) - yosida_penalty(pb, eps))
         - np.abs(pa - pb) / eps).max()
    )
    record("penalty_lipschitz", lip_excess, 1e-12)
    box = rng.uniform(0.0, 1.0, 2001)
    box_max = float(np.abs(yosida_penalty(box, eps)).max())
    record("penalty_vanishes_on_box", box_max, 0.0)
    step_fd = 1e-5
    pts = rng.uniform(-2.0, 3.0, 2000)
    pts = pts[(np.abs(pts) > 1e-3) & (np.abs(pts - 1.0) > 1e-3)]
    fd_psi = (
        yosida_potential(pts + step_fd, eps) - yosida_potential(pts - step_fd, eps)
    ) / (2 * step_fd)
    err_psi = float(np.abs(fd_psi - yosida_penalty(pts, eps)).max())
    fd_b = (
        reaction.antiderivative(pts + step_fd) - reaction.antiderivative(pts - step_fd)
    ) / (2 * step_fd)
    err_b = float(np.abs(fd_b - reaction.evaluate(pts)).max())
    err_fd = max(err_psi, err_b)
    record("potentials_match_fd", err_fd, 1e-6)
    gate_hits = 0
    try:
        ModelParams(p=2.0, eps=0.1, T=1.0, M=10, L_beta=10.1)
    except ValueError:
        gate_hits += 1
    try:
        ModelParams(p=1.5, eps=0.1, T=1.0, M=10)
    except ValueError:
        gate_hits += 1
    record("params_gate", gate_hits, 2)

    # --- noise: the forcing phi(u) * sum_j c_j dW_j of apply_diffusion
    span = np.linspace(-0.2, 1.2, grid.n_cells)
    dw_probe = rng.standard_normal(noise_model.J)
    forcing = bump_profile(span) * noise_model.coefs(dw_probe)
    outside = (span <= 0.25) | (span >= 0.75)
    support_leak = float(np.abs(forcing[outside]).max(initial=0.0))
    record("noise_support", support_leak, 0.0)
    bigger = NoiseModel(J=noise_model.J + 1, sigma=noise_model.sigma)
    dw_ext = np.concatenate([dw_probe, [0.7]])
    bump = bump_profile(np.linspace(0.26, 0.74, grid.n_cells))
    delta = bump * bigger.coefs(dw_ext) - bump * noise_model.coefs(dw_probe)
    expected = bigger.amplitudes[-1] * 0.7 * bump
    trunc_err = float(np.abs(delta - expected).max())
    trunc_tol = 1e-15 * max(1.0, float(np.abs(expected).max()))
    record("noise_truncation_decay", trunc_err, trunc_tol)
    path_a = noise_model.sample_path(20, tau, seed + 3)
    path_b = noise_model.sample_path(20, tau, seed + 3)
    same = np.array_equal(path_a.values, path_b.values)
    record("noise_forcing_reproducible", 0.0 if same else 1.0, 0.0)
    hs = noise_model.hs_lipschitz_estimate(100_000, seed=seed)
    record("noise_hs_bound", hs, noise_model.L_g)
    # the draws are held once: the variance is taken in their own buffer,
    # with the reductions and divisions of ndarray.mean() and var()
    draws = noise_model.draw(max(stat_draws // noise_model.J, 1), tau, seed + 4)
    mean = np.add.reduce(draws, axis=None) / draws.size
    record("noise_increment_mean", abs(float(mean)), 4.0 * np.sqrt(tau / draws.size))
    draws -= mean
    var = np.add.reduce(np.multiply(draws, draws, out=draws), axis=None) / draws.size
    record("noise_increment_variance", abs(float(var) / tau - 1.0), 0.05)

    # --- operator inequalities on 100 stacked (fu, fv) pairs per p.  Each
    # pair's gap in <A x, x> >= (1 - tau L_beta) ||x||^2 + tau c ||x||_{1,p}^p
    # is taken in Python floats, as one pair at a time would be.
    def gaps(x, ax, c, p):
        out = []
        for lhs, l2, w1p in zip(*(a.tolist() for a in (
            h * np.vecdot(ax, x), norm_l2_array(x, h), norm_w1p_array(x, h, p)
        ))):
            rhs = (1 - tau * lbeta) * l2 ** 2 + tau * c * w1p
            out.append((lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        return out

    coercive, monotone = [], []
    for p in p_values:
        pctx = OperatorContext(replace(params, p=p), reaction, grid)
        fu, fv = rng.uniform(-1.5, 2.5, (100, 2, grid.n_cells)).swapaxes(0, 1).copy()
        au, av = pctx.apply(fu), pctx.apply(fv)
        coercive += gaps(fu, au, 1.0, p)
        monotone += gaps(fu - fv, au - av, cp_factor * 2.0 ** (2.0 - p), p)
    record("operator_coercivity", _nan_or(min, coercive), -1e-10)
    record("operator_strong_monotonicity", _nan_or(min, monotone), -1e-10)
    fu, fv = rng.uniform(-1.5, 2.5, (2, grid.n_cells))
    weak_lhs = h * np.dot(ctx.apply_plap(fu), fv)
    weak_rhs = h * np.dot(ctx.face_flux(fu), np.diff(fv) / h) + h * np.dot(
        np.abs(fu) ** (params.p - 2.0) * fu, fv
    )
    weak_rel = abs(weak_lhs - weak_rhs) / max(abs(weak_lhs), 1e-300)
    record("operator_weak_form", weak_rel, 1e-12)
    deltas = [10.0 ** (-k) for k in range(1, 7)]
    base = ctx.apply(fu)
    dists = norm_l2_array(ctx.apply(fu + np.multiply.outer(deltas, fv)) - base, h).tolist()
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    cont_bound = 1e-4 * max(1.0, dists[0])
    record("operator_continuity", dists[-1], cont_bound, requires=decreasing)

    # --- solver: 20 right-hand sides, each solved from a zero and from a
    # random guess; the 40 problems are the rows of one stack
    draws = rng.uniform(-1.0, 2.0, (20, 2, grid.n_cells))
    rhs_u = draws[:, 0].copy()
    draws[:, 0] = 0.0  # row 2j starts from zero, row 2j+1 from guess j
    sols, reports = solve_rows(
        ctx, np.repeat(rhs_u, 2, axis=0), draws.reshape(40, -1), solver_cfg
    )
    for i, report in enumerate(reports):
        if report.failure is not None:
            raise NonConvergence(
                f"solver_uniqueness: rhs {i // 2} ({('zero', 'random')[i % 2]} guess): "
                f"{report.failure}"
            )
    energy_jump_worst = _nan_or(max, [0.0] + [
        _nan_or(max, [b - a for a, b in zip(e, e[1:])]) / _nan_or(max, [1.0, *map(abs, e)])
        for e in (report.energy_history for report in reports) if len(e) > 1
    ])
    iter_worst = max(report.iterations for report in reports)
    uniq_worst = float(norm_l2_array(sols[0::2] - sols[1::2], h).max())
    sols = sols[0::2]  # from here on, the zero-guess solution of each rhs
    record("solver_uniqueness", uniq_worst, 1e-8)
    record("solver_energy_nonincreasing", energy_jump_worst, 1e-12)
    record("solver_converges_within_cap", iter_worst, solver_cfg.max_newton)
    # the public single-problem solve, twice on one rhs (the initial datum)
    d1, _ = solve(ctx, initial.u0, cfg=solver_cfg)
    d2, _ = solve(ctx, initial.u0, cfg=solver_cfg)
    det = np.array_equal(d1.values, d2.values)
    record("solver_determinism", 0.0 if det else 1.0, 0.0)
    # rhs pairs (0, 1), (2, 3), ... and their zero-guess solutions
    pairs = rhs_u[0::2], rhs_u[1::2], sols[0::2], sols[1::2]
    stab_l2, stab_v = stability_slacks(ctx, *pairs)
    apriori = apriori_slack(ctx, rhs_u, sols)
    record("solver_stability_l2", _nan_or(min, stab_l2.tolist()), -1e-8)
    record("solver_stability_w1p", _nan_or(min, stab_v.tolist()), -1e-8)
    record("solver_apriori_bound", _nan_or(min, apriori.tolist()), -1e-8)

    # --- stepper: the noisy path, two noise-off paths and the noisy path
    # cold-started at every step advance together, as the rows of one state
    coef = _seed_coefs(noise_model, params, [seed])
    quiet = NoiseModel(J=noise_model.J, sigma=0.0)
    coef = np.concatenate([coef, _seed_coefs(quiet, params, [1, 2]), coef])
    f = source.step_table(params.M, grid, tau)
    states = np.empty((4, params.M + 1, grid.n_cells))
    runs = (f"noisy run (seed {seed})", "noise-off run (seed 1)",
            "noise-off run (seed 2)", f"cold-start run (seed {seed})")
    stepper.run_rows(ctx, initial.u0.values, coef, f, solver_cfg,
                     lambda i: f"stepper {runs[i]}", cold=np.arange(4) == 3,
                     on_step=lambda rows, n, pt, _: setitem(states, (rows, n), pt.u))
    noisy, qa, qb, cold = states
    # the scheme identity, recomputed from its terms rather than from apply
    u_n, u_np1 = noisy[:-1], noisy[1:]
    resid = (
        u_np1
        - u_n
        + tau * (ctx.apply_plap(u_np1) + yosida_penalty(u_np1, eps))
        - bump_profile(u_n) * coef[0, :, None]
        - tau * (reaction.evaluate(u_np1) + f)
    )
    resid_worst = float(norm_l2_array(resid, h).max())
    record("stepper_scheme_residual", resid_worst, 10 * solver_cfg.tol_residual)
    off_diff = float(np.abs(qa - qb).max())
    record("stepper_noise_off_seed_independent", off_diff, 0.0)
    warm_diff = float(norm_l2_array(cold[-1] - noisy[-1], h))
    record("stepper_warm_start_equivalence", warm_diff, 1e-8)

    # --- coverage completeness: declared invariants that no recorded check covers
    uncovered = sum(inv is not None and inv not in coverage.get(mod, {})
                    for mod, inv, _ in _PROPERTIES.values())
    record("coverage_complete", uncovered, 0)

    passed = all(rec["passed"] for rec in props)
    return VerificationReport(props, coverage, passed, seed)
