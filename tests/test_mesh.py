import numpy as np
import pytest

from plapsim.mesh import (
    Grid1D,
    GridFunction,
    divergence_array,
    inner,
    norm_l2,
    norm_w1p,
)
from plapsim.model import ModelParams, ReactionSpec
from plapsim.operators import OperatorContext, Point


def gradient(u):
    """The two-point face gradient diff(u) / h as the operator forms it (``Point.d``)."""
    params = ModelParams(p=2.0, eps=0.1, T=1.0, M=10)
    return Point(OperatorContext(params, ReactionSpec("zero"), u.grid), u.values).d


def test_grid_invariants():
    g = Grid1D(10, 2.5)
    assert g.h == pytest.approx(0.25)
    assert g.h * g.n_cells == pytest.approx(g.length, rel=1e-15)
    assert np.allclose(g.cell_centers(), 0.25 * (np.arange(10) + 0.5))
    with pytest.raises(ValueError):
        Grid1D(1, 1.0)
    with pytest.raises(ValueError):
        Grid1D(4, -1.0)


def test_grid_rejects_a_cell_width_whose_square_overflows():
    # the Jacobian divides by h**2, which raised OverflowError in every driver
    for length in (1e160, np.float64(1e160)):
        with pytest.raises(ValueError, match="its square overflows"):
            Grid1D(8, length)
    assert Grid1D(8, 1e154).h ** 2 < np.inf


def test_grid_function_validation():
    g = Grid1D(4, 1.0)
    with pytest.raises(ValueError):
        GridFunction(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        GridFunction(g, [1.0, np.nan, 0.0, 0.0])
    u = g.function([1.0, 2.0, 3.0, 4.0])
    assert not u.values.flags.writeable


def test_gradient_constant_is_zero():
    g = Grid1D(7, 2.0)
    assert np.all(gradient(g.function(np.full(7, 3.7))) == 0.0)


def test_gradient_linear_profile_is_one():
    for n, length in ((5, 1.0), (8, 3.0)):
        g = Grid1D(n, length)
        u = g.function(g.cell_centers())
        assert np.allclose(gradient(u), 1.0, rtol=1e-14)


def test_gradient_hand_values():
    g = Grid1D(3, 3.0)  # h = 1
    assert np.allclose(gradient(g.function([0.0, 2.0, 1.0])), [2.0, -1.0])


def test_norm_l2_examples():
    g = Grid1D(4, 1.0)
    assert norm_l2(g.zeros()) == 0.0
    assert norm_l2(g.function(np.ones(4))) == pytest.approx(1.0, rel=1e-15)
    g2 = Grid1D(2, 1.0)  # h = 0.5
    assert norm_l2(g2.function([1.0, 3.0])) == pytest.approx(np.sqrt(5.0), rel=1e-15)


def test_norm_w1p_examples():
    g = Grid1D(4, 1.0)
    assert norm_w1p(g.zeros(), 3.0) == 0.0
    assert norm_w1p(g.function(np.ones(4)), 4.0) == pytest.approx(1.0, rel=1e-15)
    g2 = Grid1D(2, 1.0)
    assert norm_w1p(g2.function([0.0, 1.0]), 2.0) == pytest.approx(2.5, rel=1e-15)


def test_norm_w1p_rejects_small_p():
    g = Grid1D(4, 1.0)
    for p in (1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            norm_w1p(g.zeros(), p)


def test_summation_by_parts_exact():
    # h sum_f grad(u) grad(v) == -h sum_i div(grad u)_i v_i to round-off
    rng = np.random.default_rng(42)
    for n, length in ((8, 1.0), (33, 2.7), (100, 0.4)):
        g = Grid1D(n, length)
        u = g.function(rng.normal(size=n))
        v = g.function(rng.normal(size=n))
        du = np.diff(u.values) / g.h
        lhs = g.h * np.dot(du, np.diff(v.values) / g.h)
        rhs = -inner(g.function(divergence_array(du, g.h)), v)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_norm_w1p_p2_identity():
    rng = np.random.default_rng(7)
    g = Grid1D(25, 1.3)
    u = g.function(rng.normal(size=25))
    du = np.diff(u.values) / g.h
    grad_sq = g.h * np.dot(du, du)
    assert norm_w1p(u, 2.0) == pytest.approx(norm_l2(u) ** 2 + grad_sq, rel=1e-12)


def test_norm_homogeneity():
    rng = np.random.default_rng(3)
    g = Grid1D(16, 2.0)
    u = g.function(rng.normal(size=16))
    for alpha in (-3.0, -0.25, 0.5, 7.0):
        au = g.function(alpha * u.values)
        assert norm_l2(au) == pytest.approx(abs(alpha) * norm_l2(u), rel=1e-12)
        for p in (2.0, 2.5, 4.0):
            assert norm_w1p(au, p) == pytest.approx(
                abs(alpha) ** p * norm_w1p(u, p), rel=1e-12
            )
