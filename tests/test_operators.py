import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dptsv

import plapsim
from plapsim import operators
from plapsim.mesh import Grid1D, inner, norm_l2, norm_w1p
from plapsim.model import ModelParams, ReactionSpec
from plapsim.operators import OperatorContext, Point, TridiagonalMatrix


def make_ctx(p=2.0, eps=0.1, tau=0.1, L_beta=0.0, reaction=None, n=8, length=1.0):
    params = ModelParams(p=p, eps=eps, T=tau * 10, M=10, L_beta=L_beta)
    return OperatorContext(params, reaction or ReactionSpec("zero"), Grid1D(n, length))


# ---------------------------------------------------------------------------
# tridiagonal matrix


def tridiagonal(diag, off):
    """The matrices with these diagonals in a fresh LAPACK buffer (zero seams)."""
    work = np.zeros((3,) + diag.shape)
    work[0] = diag
    work[1, ..., :-1] = off
    return TridiagonalMatrix(work)


def diagonals(tri):
    """Copies of the diagonal and off-diagonal of a matrix not yet solved."""
    return tri.work[0].copy(), tri.work[1, ..., :-1].copy()


def matvec(diag, off, v):
    out = diag * v
    out[..., :-1] += off * v[..., 1:]
    out[..., 1:] += off * v[..., :-1]
    return out


def test_tridiagonal_solve_matches_dense():
    rng = np.random.default_rng(0)
    diag = rng.uniform(2.0, 3.0, 12)
    off = rng.uniform(-0.5, 0.5, 11)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    b = rng.normal(size=12)
    assert np.allclose(tridiagonal(diag, off).solve(b), np.linalg.solve(dense, b), rtol=1e-12)


def test_tridiagonal_stacked_rows_solve_like_single_rows():
    # one ptsv call over the stacked rows gives each row the bits of its own
    # solve, here checked against scipy's banded Cholesky per row
    rng = np.random.default_rng(1)
    diag = rng.uniform(2.0, 3.0, (5, 12))
    off = rng.uniform(-0.5, 0.5, (5, 11))
    b = rng.normal(size=(5, 12))
    x = tridiagonal(diag, off).solve(b)
    for k in range(5):
        ab = np.zeros((2, 12))
        ab[0, 1:] = off[k]
        ab[1] = diag[k]
        assert np.array_equal(x[k], scipy.linalg.solveh_banded(ab, b[k]))
        assert np.array_equal(matvec(diag[k], off[k], x[k]), matvec(diag, off, x)[k])


def test_tridiagonal_solve_rejects_indefinite_and_bad_shapes():
    with pytest.raises(np.linalg.LinAlgError, match="ptsv info=2"):
        tridiagonal(np.array([1.0, -1.0, 1.0]), np.zeros(2)).solve(np.ones(3))
    with pytest.raises(ValueError, match="shape"):
        tridiagonal(np.ones((2, 4)), np.ones((2, 3))).solve(np.ones((2, 3)))


bundled_only = pytest.mark.skipif(
    operators._BUNDLED_DPTSV is None, reason="numpy ships no OpenBLAS library"
)


def random_spd_stack(rng, rows, n):
    """SPD tridiagonal rows (strictly diagonally dominant) at log-uniform scales 1e-8..1e6."""
    off_scale, diag_scale, b_scale = 10.0 ** rng.uniform(-8.0, 6.0, 3)
    off = off_scale * rng.uniform(-1.0, 1.0, (rows, n - 1))
    diag = diag_scale * rng.uniform(0.5, 1.5, (rows, n))
    diag[:, 1:] += np.abs(off)
    diag[:, :-1] += np.abs(off)
    return diag, off, b_scale * rng.normal(size=(rows, n))


SOLVE_SHAPES = [(1, 2), (1, 8192), (1, 9000), (40, 2), (40, 64), (3, 9000)] + [
    (int(r), int(n))
    for r, n in zip(np.random.default_rng(7).integers(1, 41, 24),
                    np.random.default_rng(8).integers(2, 400, 24))
]


def test_tridiagonal_solve_rows_are_dptsv_bits(lapack):
    # both LAPACK paths give every row the bits of scipy's dptsv on that row
    # alone, and leave diag, off and b as they were
    rng = np.random.default_rng(11)
    for rows, n in SOLVE_SHAPES:
        diag, off, b = random_spd_stack(rng, rows, n)
        kept = diag.copy(), off.copy(), b.copy()
        x = tridiagonal(diag, off).solve(b)
        assert x.shape == (rows, n) and x.dtype == np.float64
        for got, before in zip((diag, off, b), kept):
            assert np.array_equal(got, before)
        for k in range(rows):
            _, _, ref, info = dptsv(diag[k], off[k], b[k])
            assert info == 0 and np.array_equal(x[k], ref), (lapack, rows, n, k)
        one = tridiagonal(diag[0], off[0]).solve(b[0])
        assert one.shape == (n,) and np.array_equal(one, x[0])


def test_jacobian_is_solved_in_its_buffer(lapack):
    # the Jacobian is built in the LAPACK buffer, with zero seams: its solve
    # copies only the right-hand side and gives the bits of a hand-built
    # buffer of the same matrix; the buffer then holds the factorization, so
    # the spent matrix raises instead of answering again
    rng = np.random.default_rng(12)
    ctx = make_ctx(p=3.0, eps=1e-3, L_beta=0.5, reaction=ReactionSpec("sine", 0.5), n=9)
    u = rng.uniform(-0.5, 1.5, (6, 9))
    b = rng.normal(size=(6, 9))
    tri = ctx.jacobian(u)
    work = tri.work
    assert work.shape == (3, 6, 9) and work.flags.c_contiguous
    assert np.all(work[1, :, -1] == 0.0)
    diag, off = diagonals(tri)
    kept = b.copy()
    x = tri.solve(b)
    assert x.base is work
    assert np.array_equal(x, tridiagonal(diag, off).solve(b))
    assert np.array_equal(b, kept)
    assert tri.work is None
    with pytest.raises(ValueError, match="factorized in place"):
        tri.solve(b)
    for k in range(6):
        assert np.array_equal(x[k], ctx.jacobian(u[k]).solve(b[k]))


def test_empty_stack_solves_to_an_empty_array(lapack):
    ctx = make_ctx(p=3.0)
    empty = np.empty((0, 8))
    for tri in (tridiagonal(empty, np.empty((0, 7))), ctx.jacobian(empty)):
        x = tri.solve(empty)
        assert x.shape == (0, 8) and x.dtype == np.float64


def test_scipy_path_rejects_indefinite_and_bad_shapes(monkeypatch):
    monkeypatch.setattr(operators, "_BUNDLED_DPTSV", None)
    test_tridiagonal_solve_rejects_indefinite_and_bad_shapes()


def test_tridiagonal_solve_rejects_mismatched_rhs():
    with pytest.raises(ValueError, match="right-hand side shape"):
        tridiagonal(np.full((2, 4), 2.0), np.zeros((2, 3))).solve(np.ones(4))


def modules_after_import(selected):
    """The modules a fresh `import plapsim` loads for which ``selected`` (source of
    a condition on the module name ``m``) holds, as the printed sorted list."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(plapsim.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = f"import sys, plapsim\nprint(sorted(m for m in sys.modules if {selected}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


@bundled_only
def test_import_loads_no_scipy():
    # numpy's bundled OpenBLAS serves the solve, so a fresh `import plapsim`
    # loads neither scipy nor the numpy modules that scipy.linalg pulls in
    assert modules_after_import(
        "m.split('.')[0] == 'scipy' or m.startswith(('numpy.f2py', 'numpy.polynomial'))"
    ) == "[]"


def test_import_loads_no_process_or_pool_module():
    # the full-mode CSV imports `subprocess` and `fcntl` only when it writes,
    # so a fresh `import plapsim` (the benchmark's set-up time) loads neither
    assert modules_after_import(
        "m.split('.')[0] in ('subprocess', 'multiprocessing', 'concurrent', 'fcntl')"
    ) == "[]"


def test_operator_rejects_gridfunction_with_a_clear_message():
    ctx = make_ctx(p=3.0)
    u = ctx.grid.function(np.full(8, 0.5))
    for call in (ctx.apply, ctx.apply_plap, ctx.jacobian, lambda v: ctx.energy(v, u.values),
                 lambda v: ctx.energy(u.values, v)):
        with pytest.raises(TypeError, match=r"cell array of shape \(\.\.\., n_cells\), "
                           r"got GridFunction; pass its \.values"):
            call(u)


def test_operator_rows_match_single_rows():
    # a (P, n) stack is P independent problems: every row, and the energy
    # of every row, is bit-identical to the single-row result
    rng = np.random.default_rng(3)
    ctx = make_ctx(p=3.0, eps=0.01, L_beta=0.5, reaction=ReactionSpec("sine", 0.5))
    u = rng.uniform(-0.5, 1.5, (4, 8))
    rhs = rng.normal(size=(4, 8))
    energies = ctx.energy(u, rhs)
    assert energies.shape == (4,)
    for k in range(4):
        assert np.array_equal(ctx.apply(u)[k], ctx.apply(u[k]))
        assert energies[k] == ctx.energy(u[k], rhs[k])
        assert np.array_equal(ctx.jacobian(u).work[:2, k], ctx.jacobian(u[k]).work[:2])


def reference_evaluation(ctx, u, rhs):
    """apply, energy and Jacobian (diag, off) as written before points shared pieces."""
    pr, h, tau = ctx.params, ctx.grid.h, ctx.params.tau
    p, eps, kind, scale = pr.p, pr.eps, ctx.reaction.kind, ctx.reaction.scale
    d = np.diff(u) / h
    flux = np.abs(d) ** (p - 2.0) * d
    div = np.zeros(u.shape)
    div[..., :-1] += flux
    div[..., 1:] -= flux
    plap = -(div / h) + np.abs(u) ** (p - 2.0) * u
    pen = np.where(u <= 0.0, u / eps, np.where(u <= 1.0, 0.0, (u - 1.0) / eps))
    psi = (np.minimum(u, 0.0) ** 2 + np.maximum(u - 1.0, 0.0) ** 2) / (2.0 * eps)
    dpen = np.where((u < 0.0) | (u > 1.0), 1.0 / eps, 0.0)
    if kind == "zero":
        rea, drea, brea = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    elif kind == "linear":
        rea, drea, brea = scale * u, np.full_like(u, scale), 0.5 * scale * u**2
    else:
        rea, drea, brea = scale * np.sin(u), scale * np.cos(u), scale * (1.0 - np.cos(u))
    apply = u + tau * (plap + pen - rea)
    w1p = h * np.sum(np.abs(d) ** p, axis=-1) + h * np.sum(np.abs(u) ** p, axis=-1)
    energy = (
        0.5 * h * np.vecdot(u, u)
        + tau * (w1p / p + h * np.sum(psi, axis=-1) - h * np.sum(brea, axis=-1))
        - h * np.vecdot(rhs, u)
    )
    w = (p - 1.0) * np.abs(d) ** (p - 2.0) / h**2
    diag_flux = np.zeros(u.shape)
    diag_flux[..., :-1] += w
    diag_flux[..., 1:] += w
    diag_local = (p - 1.0) * np.abs(u) ** (p - 2.0) + dpen - drea
    return apply, energy, 1.0 + tau * (diag_flux + diag_local), -tau * w


@pytest.mark.parametrize("eps", [0.1, 1e-6])
@pytest.mark.parametrize("kind", ["zero", "linear", "sine"])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_shared_point_is_bit_identical(p, kind, eps):
    # apply, energy and jacobian evaluated on one Point give the bits of
    # fresh array calls, of each row alone and of the formulas written out;
    # cells below 0, inside [0, 1] and above 1, and equal neighbours (d = 0,
    # where 0 ** 0 = 1 at p = 2)
    rng = np.random.default_rng(7)
    ctx = make_ctx(p=p, eps=eps, L_beta=0.5,
                   reaction=ReactionSpec(kind, 0.0 if kind == "zero" else 0.5), n=9)
    u = rng.uniform(-0.5, 1.5, (5, 9))
    u[:, 4] = u[:, 3]
    u[2] = 0.25
    u[3, :3] = [-0.2, 0.5, 1.3]
    rhs = rng.normal(size=(5, 9))
    ref = reference_evaluation(ctx, u, rhs)

    def evaluate(pt_or_u, b):
        # the solver's order: energy, then residual, then Jacobian
        e = ctx.energy(pt_or_u, b)
        a = ctx.apply(pt_or_u)
        return (a, e) + diagonals(ctx.jacobian(pt_or_u))

    shared = evaluate(ctx.point(u), rhs)
    for got, fresh, want in zip(shared, evaluate(u, rhs), ref):
        assert np.array_equal(got, want)
        assert np.array_equal(fresh, want)
    for k in range(5):
        for got, want in zip(evaluate(u[k], rhs[k]), ref):
            assert np.array_equal(got, want[k])
    # row moves keep the pieces consistent with the rows they carry
    pt = ctx.point(u)
    evaluate(pt, rhs)
    taken = pt.take([4, 1])
    for got, want in zip(evaluate(taken, rhs[[4, 1]]), ref):
        assert np.array_equal(got, want[[4, 1]])
    merged = ctx.point(rng.uniform(-0.5, 1.5, (3, 9)))
    ctx.energy(merged, rhs[:3])
    merged.put([0, 2], pt, [3, 2])
    rows = np.vstack([u[3], merged.u[1], u[2]])
    for got, want in zip(evaluate(merged, rhs[[3, 1, 2]]), evaluate(rows, rhs[[3, 1, 2]])):
        assert np.array_equal(got, want)


def test_point_belongs_to_its_context():
    ctx, other = make_ctx(p=3.0), make_ctx(p=3.0)
    pt = ctx.point(np.full(8, 0.5))
    assert ctx.point(pt) is pt
    with pytest.raises(TypeError, match="got Point"):
        other.apply(pt)
    with pytest.raises(TypeError, match="got GridFunction"):
        Point(ctx, ctx.grid.function(np.full(8, 0.5)))


# ---------------------------------------------------------------------------
# p-Laplace operator


def test_plap_zero_and_constant():
    ctx = make_ctx(p=3.0)
    assert np.all(ctx.apply_plap(np.zeros(8)) == 0.0)
    c = 0.7
    out = ctx.apply_plap(np.full(8, c))
    assert np.allclose(out, abs(c) ** 1.0 * c, rtol=1e-14)


def test_plap_hand_stencil_p2():
    # p = 2 on h = 1: -Laplacian + identity applied to (0, 1, 0)
    ctx = make_ctx(p=2.0, n=3, length=3.0)
    out = ctx.apply_plap(np.array([0.0, 1.0, 0.0]))
    assert np.allclose(out, [-1.0, 3.0, -1.0], rtol=1e-14)


def test_plap_weak_form_identity():
    # h sum plap(u) v == h sum flux(u) grad(v) + h sum |u|^{p-2} u v exactly
    rng = np.random.default_rng(1)
    for p in (2.0, 3.0, 4.5):
        ctx = make_ctx(p=p, n=20, length=1.7)
        g = ctx.grid
        u = g.function(rng.normal(size=20))
        v = g.function(rng.normal(size=20))
        lhs = inner(g.function(ctx.apply_plap(u.values)), v)
        rhs = g.h * np.dot(ctx.face_flux(u.values), np.diff(v.values) / g.h) + inner(
            g.function(np.abs(u.values) ** (p - 2.0) * u.values), v
        )
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# full operator


def test_apply_hand_values():
    ctx = make_ctx(p=2.0, eps=0.1, tau=0.1)
    assert np.all(ctx.apply(np.zeros(8)) == 0.0)
    out = ctx.apply(np.full(8, 0.5))
    assert np.allclose(out, 0.55, rtol=1e-14)
    out = ctx.apply(np.full(8, 1.2))
    assert np.allclose(out, 1.52, rtol=1e-12)


def test_context_rejects_weak_margin():
    # the tau L_beta gate already fires at parameter construction
    with pytest.raises(ValueError):
        ModelParams(p=2.0, eps=0.1, T=1.0, M=10, L_beta=20.0)
    # a declared L_beta below the realized reaction scale is rejected by the
    # context, since every bound stated with L_beta would be unreliable
    params = ModelParams(p=2.0, eps=0.1, T=1.0, M=10, L_beta=0.0)
    with pytest.raises(ValueError):
        OperatorContext(params, ReactionSpec("linear", 2.0), Grid1D(8, 1.0))


# ---------------------------------------------------------------------------
# energy


def test_energy_zero():
    ctx = make_ctx(p=3.0)
    assert ctx.energy(np.zeros(8), np.zeros(8)) == 0.0


def test_energy_gradient_matches_operator():
    # finite differences of the energy reproduce apply(u) - rhs cellwise
    rng = np.random.default_rng(2)
    for p, reaction in ((2.0, ReactionSpec("zero")),
                        (3.0, ReactionSpec("sine", 0.5)),
                        (4.0, ReactionSpec("linear", 0.5))):
        ctx = make_ctx(p=p, eps=0.1, tau=0.05, L_beta=0.5, reaction=reaction, n=16)
        g = ctx.grid
        u = rng.uniform(0.05, 0.95, 16)
        rhs = rng.normal(size=16)
        expected = ctx.apply(u) - rhs
        step = 1e-6
        fd = np.empty(16)
        for i in range(16):
            up = u.copy()
            um = u.copy()
            up[i] += step
            um[i] -= step
            fd[i] = (ctx.energy(up, rhs) - ctx.energy(um, rhs)) / (2 * step * g.h)
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(fd - expected).max() <= 1e-6 * scale


def test_energy_strict_minimum_at_solution():
    from plapsim.solver import solve

    rng = np.random.default_rng(3)
    ctx = make_ctx(p=3.0, eps=0.1, tau=0.1, n=12)
    g = ctx.grid
    rhs = g.function(rng.uniform(0.0, 1.5, 12))
    star, _ = solve(ctx, rhs)
    e_star = ctx.energy(star.values, rhs.values)
    for _ in range(20):
        v = rng.normal(size=12)
        v /= np.linalg.norm(v)
        perturbed = star.values + 1e-3 * v
        assert ctx.energy(perturbed, rhs.values) > e_star


# ---------------------------------------------------------------------------
# Jacobian


def test_jacobian_structure_p2():
    # p = 2, state inside the box: identity + tau (3-point Laplacian + identity)
    ctx = make_ctx(p=2.0, eps=0.1, tau=0.1, n=6)
    g = ctx.grid
    diag, off = diagonals(ctx.jacobian(np.full(6, 0.5)))
    h2 = g.h**2
    expected_diag = np.full(6, 1.0 + 0.1 * (2.0 / h2 + 1.0))
    expected_diag[[0, -1]] = 1.0 + 0.1 * (1.0 / h2 + 1.0)
    assert np.allclose(diag, expected_diag, rtol=1e-13)
    assert np.allclose(off, -0.1 / h2, rtol=1e-13)


def test_jacobian_matches_finite_differences():
    # central differences of apply along a direction, states inside (0.1, 0.9)
    rng = np.random.default_rng(4)
    for p in (2.0, 3.0, 4.0):
        ctx = make_ctx(p=p, eps=0.1, tau=0.05, L_beta=0.5,
                       reaction=ReactionSpec("sine", 0.5), n=32)
        u = rng.uniform(0.1, 0.9, 32)
        v = rng.normal(size=32)
        step = 1e-6
        fd = (ctx.apply(u + step * v) - ctx.apply(u - step * v)) / (2 * step)
        jv = matvec(*diagonals(ctx.jacobian(u)), v)
        assert np.abs(fd - jv).max() <= 1e-5 * max(1.0, np.abs(jv).max())


def test_jacobian_symmetric_positive_definite():
    # smallest eigenvalue stays above the monotonicity margin 1 - tau L_beta
    rng = np.random.default_rng(5)
    for p in (2.0, 3.0, 4.0):
        ctx = make_ctx(p=p, eps=0.05, tau=0.1, L_beta=5.0,
                       reaction=ReactionSpec("sine", 5.0), n=24)
        margin = 1.0 - 0.1 * 5.0
        for _ in range(5):
            diag, off = diagonals(ctx.jacobian(rng.uniform(-0.5, 1.5, 24)))
            eigs = scipy.linalg.eigvalsh_tridiagonal(diag, off)
            assert eigs.min() >= margin - 1e-10


def test_jacobian_kink_derivative_choice():
    # penalty derivative contributes nothing at exactly 0 and 1
    ctx = make_ctx(p=2.0, eps=0.1, tau=0.1, n=4)
    tri = ctx.jacobian(np.array([0.0, 1.0, 0.5, 0.5]))
    inside = ctx.jacobian(np.full(4, 0.5))
    assert np.allclose(tri.work[0], inside.work[0], rtol=1e-13)


# ---------------------------------------------------------------------------
# inequalities


def test_discrete_coercivity():
    rng = np.random.default_rng(6)
    for p in (2.0, 3.0, 4.0):
        for L_beta in (0.0, 5.0, 9.0):
            reaction = ReactionSpec("linear", L_beta) if L_beta else ReactionSpec("zero")
            ctx = make_ctx(p=p, eps=0.1, tau=0.1, L_beta=L_beta, reaction=reaction,
                           n=16)
            margin = 1.0 - 0.1 * L_beta
            for _ in range(50):
                u = ctx.grid.function(rng.uniform(-1.5, 2.5, 16))
                lhs = inner(ctx.grid.function(ctx.apply(u.values)), u)
                rhs = margin * norm_l2(u) ** 2 + 0.1 * norm_w1p(u, p)
                assert lhs - rhs >= -1e-10 * max(abs(lhs), abs(rhs))


def test_discrete_strong_monotonicity():
    rng = np.random.default_rng(7)
    for p in (2.0, 3.0, 4.0):
        cp = 2.0 ** (2.0 - p)
        for L_beta in (0.0, 5.0, 9.0):
            reaction = ReactionSpec("linear", L_beta) if L_beta else ReactionSpec("zero")
            ctx = make_ctx(p=p, eps=0.1, tau=0.1, L_beta=L_beta, reaction=reaction,
                           n=16)
            margin = 1.0 - 0.1 * L_beta
            g = ctx.grid
            for _ in range(50):
                u = g.function(rng.uniform(-1.5, 2.5, 16))
                v = g.function(rng.uniform(-1.5, 2.5, 16))
                d = g.function(u.values - v.values)
                lhs = inner(g.function(ctx.apply(u.values) - ctx.apply(v.values)), d)
                rhs = margin * norm_l2(d) ** 2 + 0.1 * cp * norm_w1p(d, p)
                assert lhs - rhs >= -1e-10 * max(abs(lhs), abs(rhs))


def test_continuity_in_perturbation():
    # ||A(u + delta v) - A(u)|| decreases monotonically to zero with delta
    rng = np.random.default_rng(8)
    ctx = make_ctx(p=3.0, eps=0.1, tau=0.1, n=16)
    g = ctx.grid
    u = g.function(rng.uniform(-1.0, 2.0, 16))
    v = g.function(rng.normal(size=16))
    base = ctx.apply(u.values)
    dists = []
    for k in range(1, 7):
        delta = 10.0**-k
        moved = ctx.apply(u.values + delta * v.values)
        dists.append(norm_l2(g.function(moved - base)))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 1e-4 * max(1.0, dists[0])
