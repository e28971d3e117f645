import numpy as np
import pytest

from plapsim import model
from plapsim.mesh import Grid1D
from plapsim.model import (
    InitialDatum,
    ModelParams,
    ReactionSpec,
    SourceSpec,
    make_initial,
    yosida_derivative,
    yosida_penalty,
    yosida_potential,
)


# ---------------------------------------------------------------------------
# penalization


def test_penalty_branch_values():
    # exact piecewise branches
    assert yosida_penalty(0.5, 0.3) == 0.0
    assert yosida_penalty(0.0, 0.3) == 0.0
    assert yosida_penalty(1.0, 0.3) == 0.0
    assert yosida_penalty(-0.05, 0.1) == pytest.approx(-0.5, abs=1e-12)
    assert yosida_penalty(1.2, 0.1) == pytest.approx(2.0, abs=1e-12)


def test_penalty_monotone_and_lipschitz():
    rng = np.random.default_rng(0)
    eps = 0.05
    v = np.sort(rng.uniform(-3, 4, 5000))
    pen = yosida_penalty(v, eps)
    assert np.all(np.diff(pen) >= 0.0)
    a, b = rng.uniform(-3, 4, 5000), rng.uniform(-3, 4, 5000)
    assert np.all(
        np.abs(yosida_penalty(a, eps) - yosida_penalty(b, eps))
        <= np.abs(a - b) / eps + 1e-12
    )


def test_penalty_vanishes_exactly_on_box():
    v = np.linspace(0.0, 1.0, 1001)
    assert np.all(yosida_penalty(v, 0.02) == 0.0)


def test_potential_hand_values():
    assert yosida_potential(0.3, 0.1) == 0.0
    assert yosida_potential(-0.2, 0.1) == pytest.approx(0.2, rel=1e-14)
    assert yosida_potential(2.0, 0.5) == pytest.approx(1.0, rel=1e-14)


def test_potential_derivative_matches_penalty():
    # central differences away from the kinks at 0 and 1
    rng = np.random.default_rng(1)
    eps, step = 0.1, 1e-5
    v = rng.uniform(-2, 3, 3000)
    v = v[(np.abs(v) > 1e-3) & (np.abs(v - 1.0) > 1e-3)]
    fd = (yosida_potential(v + step, eps) - yosida_potential(v - step, eps)) / (2 * step)
    assert np.abs(fd - yosida_penalty(v, eps)).max() <= 1e-6


def test_penalty_derivative_kink_choice():
    # generalized derivative takes the box-branch value 0 at the kinks
    assert yosida_derivative(0.0, 0.1) == 0.0
    assert yosida_derivative(1.0, 0.1) == 0.0
    assert yosida_derivative(-0.01, 0.1) == pytest.approx(10.0)
    assert yosida_derivative(1.01, 0.1) == pytest.approx(10.0)


def test_box_excess_keeps_the_bits_of_the_branch_formulas():
    # the three penalization functions, written on g = box_excess(v), give
    # the bits of their branch formulas: signed zeros, the kinks 0 and 1
    # and their neighbours, subnormals, infinities and NaN
    tiny, small = np.nextafter(0.0, 1.0), np.finfo(float).tiny
    v = np.array([0.0, -0.0, tiny, -tiny, small, -small, np.nextafter(0.0, -1.0),
                  np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 0.5, -3.0, 4.0,
                  1e308, -1e308, np.inf, -np.inf, np.nan])
    for eps in (0.1, 1e-6, 3.0):
        with np.errstate(all="ignore"):
            pen = np.where(v <= 0.0, v / eps, np.where(v <= 1.0, 0.0, (v - 1.0) / eps))
            pot = (np.minimum(v, 0.0) ** 2 + np.maximum(v - 1.0, 0.0) ** 2) / (2.0 * eps)
            der = np.where((v < 0.0) | (v > 1.0), 1.0 / eps, 0.0)
            g = model.box_excess(v)
            got = [(f(v, eps), f(v, eps, g)) for f in
                   (yosida_penalty, yosida_potential, yosida_derivative)]
        for want, pair in zip((pen, pot, der), got):
            for have in pair:
                assert have.tobytes() == want.tobytes(), (eps, want, have)
    assert np.signbit(yosida_penalty(-0.0, 0.1)) and yosida_derivative(np.nan, 0.1) == 0.0


def test_penalty_rejects_bad_eps():
    with pytest.raises(ValueError):
        yosida_penalty(0.5, 0.0)
    with pytest.raises(ValueError):
        yosida_potential(0.5, -1.0)


# ---------------------------------------------------------------------------
# reaction presets


def test_reaction_presets():
    assert ReactionSpec("zero").evaluate(3.7) == 0.0
    assert ReactionSpec("linear", 2.0).evaluate(0.25) == pytest.approx(0.5)
    assert ReactionSpec("sine", 1.0).evaluate(np.pi / 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ReactionSpec("cubic", 1.0)
    with pytest.raises(ValueError):
        ReactionSpec("linear", -1.0)


def test_reaction_vanishes_at_zero_and_lipschitz():
    rng = np.random.default_rng(2)
    a, b = rng.uniform(-5, 5, 4000), rng.uniform(-5, 5, 4000)
    for spec in (ReactionSpec("zero"), ReactionSpec("linear", 1.7),
                 ReactionSpec("sine", 0.8)):
        assert spec.evaluate(0.0) == 0.0
        assert np.all(
            np.abs(spec.evaluate(a) - spec.evaluate(b))
            <= spec.scale * np.abs(a - b) + 1e-12
        )


def test_reaction_antiderivative_and_derivative():
    rng = np.random.default_rng(3)
    v = rng.uniform(-3, 3, 1000)
    step = 1e-5
    for spec in (ReactionSpec("linear", 2.0), ReactionSpec("sine", 1.5)):
        assert spec.antiderivative(0.0) == 0.0
        fd = (spec.antiderivative(v + step) - spec.antiderivative(v - step)) / (2 * step)
        assert np.abs(fd - spec.evaluate(v)).max() <= 1e-6
        fd2 = (spec.evaluate(v + step) - spec.evaluate(v - step)) / (2 * step)
        assert np.abs(fd2 - spec.derivative(v)).max() <= 1e-6


# ---------------------------------------------------------------------------
# parameters and the time-step gate


def test_params_tau_and_gate():
    pr = ModelParams(p=2.0, eps=0.1, T=1.0, M=100, L_beta=5.0)
    assert pr.tau == pytest.approx(0.01)
    with pytest.raises(ValueError):
        ModelParams(p=2.0, eps=0.1, T=1.0, M=100, L_beta=100.0)  # tau L = 1
    with pytest.raises(ValueError):
        ModelParams(p=2.0, eps=0.1, T=1.0, M=100, L_beta=120.0)
    for p in (1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ModelParams(p=p, eps=0.1, T=1.0, M=100)
    with pytest.raises(ValueError):
        ModelParams(p=2.0, eps=0.0, T=1.0, M=100)
    with pytest.raises(ValueError):
        ModelParams(p=2.0, eps=0.1, T=1.0, M=0)


# ---------------------------------------------------------------------------
# sources


def test_source_zero_and_constant():
    g = Grid1D(8, 1.0)
    assert np.all(SourceSpec("zero").step_average(0, g, 0.1).values == 0.0)
    f = SourceSpec("constant", {"value": 1.0}).step_average(3, g, 0.1)
    assert np.all(f.values == 1.0)


def test_source_linear_in_time_average():
    # f(t, x) = t over [0, tau] averages to tau / 2; realized through the
    # tabulated preset, which interpolates linearly in t
    g = Grid1D(4, 1.0)
    tau = 0.2
    spec = SourceSpec(
        "tabulated",
        {"times": [0.0, 1.0], "values": [[0.0] * 4, [1.0] * 4]},
    )
    avg = spec.step_average(0, g, tau)
    assert np.allclose(avg.values, tau / 2, rtol=1e-12)
    # second step [tau, 2 tau] averages to 3 tau / 2
    assert np.allclose(spec.step_average(1, g, tau).values, 1.5 * tau, rtol=1e-12)


def test_source_gauss_rule_exact_for_degree_seven():
    # check the 4-point rule against the analytic average of t^7
    g = Grid1D(3, 1.0)
    tau = 0.37
    n = 2

    class Poly7(SourceSpec):
        def evaluate(self, t, x):
            return np.full_like(np.asarray(x, dtype=float), t**7)

    # the cosine kind routes through the Gauss accumulation, which calls
    # the overridden pointwise evaluation
    spec = Poly7("cosine", {"offset": 0.0, "amp": 0.0, "decay": 0.0, "length": 1.0})
    t0, t1 = n * tau, (n + 1) * tau
    exact = (t1**8 - t0**8) / (8 * tau)
    acc = spec.step_average(n, g, tau)
    assert np.allclose(acc.values, exact, rtol=1e-13)


def test_gauss_literals_are_leggauss_bits():
    # the written-out rule is numpy's own, bit for bit and in its order
    nodes, weights = np.polynomial.legendre.leggauss(4)
    assert model._GAUSS_NODES.tobytes() == nodes.tobytes()
    assert model._GAUSS_WEIGHTS.tobytes() == weights.tobytes()


def test_source_cosine_matches_closed_form():
    g = Grid1D(16, 2.0)
    spec = SourceSpec(
        "cosine", {"offset": 0.3, "amp": 0.2, "decay": 0.0, "length": 2.0}
    )
    avg = spec.step_average(5, g, 0.01)
    x = g.cell_centers()
    assert np.allclose(avg.values, 0.3 + 0.2 * np.cos(np.pi * x / 2.0), rtol=1e-12)


def test_source_validation():
    with pytest.raises(ValueError):
        SourceSpec("constant", {})
    with pytest.raises(ValueError):
        SourceSpec("cosine", {"offset": 1.0})
    with pytest.raises(ValueError):
        SourceSpec("tabulated", {"times": [0.0, 0.0], "values": [[1.0], [1.0]]})
    with pytest.raises(ValueError):
        SourceSpec("noise", {})


# ---------------------------------------------------------------------------
# initial data


def test_initial_box_constraint():
    g = Grid1D(8, 1.0)
    make_initial(g, "constant", {"value": 0.0})
    make_initial(g, "constant", {"value": 1.0})
    with pytest.raises(ValueError):
        make_initial(g, "constant", {"value": 1.2})
    with pytest.raises(ValueError):
        InitialDatum(g.function(np.linspace(-0.1, 0.5, 8)))
    cos = make_initial(g, "cosine", {"offset": 0.5, "amp": 0.25})
    assert cos.u0.values.min() >= 0.25 - 1e-12
    assert cos.u0.values.max() <= 0.75 + 1e-12
