import re
import tracemalloc

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


def test_params_reject_a_tau_that_is_not_a_positive_normal_double():
    # T / M underflowed to 0.0 (or to a subnormal) and passed, and the
    # first sample_path raised; the message names T and M
    tiny = np.finfo(float).tiny
    for T, M, tau in ((5e-324, 3, "0.0"), (tiny, 2, str(tiny / 2))):
        with pytest.raises(ValueError, match=rf"^tau = T / M = {T} / {M} = {tau} is not a "
                                             r"positive normal double$"):
            ModelParams(p=2.0, eps=0.1, T=T, M=M)
    assert ModelParams(p=2.0, eps=0.1, T=tiny, M=1).tau == tiny
    assert ModelParams(p=2.0, eps=0.1, T=1e308, M=1).tau == 1e308


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
        def evaluate(self, t, x):  # shape np.shape(t) + x.shape, as SourceSpec's
            return np.broadcast_to(np.asarray(t)[..., None] ** 7, np.shape(t) + np.shape(x))

    # the cosine kind routes through the Gauss accumulation, which calls
    # the overridden pointwise evaluation
    spec = Poly7("cosine", {"offset": 0.0, "amp": 0.0, "decay": 0.0, "length": 1.0})
    t0, t1 = n * tau, (n + 1) * tau
    exact = (t1**8 - t0**8) / (8 * tau)
    acc = spec.step_average(n, g, tau)
    assert np.allclose(acc.values, exact, rtol=1e-13)


def test_tabulated_step_table_matches_per_cell_interp():
    # one interpolation per cell over every Gauss time of every step gives
    # the bits of one scalar interpolation per cell, time and step
    rng = np.random.default_rng(12)
    g = Grid1D(2048, 1.0)
    M, tau = 6, 0.07
    times = np.array([0.0, 0.05, 0.13, 0.3, 0.5])
    values = rng.uniform(-1.0, 1.0, (times.size, g.n_cells))
    spec = SourceSpec("tabulated", {"times": times.tolist(), "values": values.tolist()})
    table = spec.step_table(M, g, tau)
    ref = np.empty((M, g.n_cells))
    for n in range(M):
        acc = np.zeros(g.n_cells)
        for node, weight in zip(model._GAUSS_NODES, model._GAUSS_WEIGHTS):
            t = n * tau + 0.5 * tau * (node + 1.0)
            acc += weight * np.array(
                [np.interp(t, times, values[:, i]) for i in range(g.n_cells)]
            )
        ref[n] = 0.5 * acc
    assert np.array_equal(table, ref)
    assert np.array_equal(spec.step_average(4, g, tau).values, ref[4])


COSINE = SourceSpec("cosine", {"offset": 0.2, "amp": 0.8, "decay": 1.5, "length": 1.0})


def one_shot_table(spec, M, grid, tau):
    """The table with every Gauss time of every step in one evaluate call."""
    t = (np.arange(M) * tau)[:, None] + 0.5 * tau * (model._GAUSS_NODES + 1.0)
    f = spec.evaluate(t, grid.cell_centers())
    acc = np.zeros((M, grid.n_cells))
    for k, weight in enumerate(model._GAUSS_WEIGHTS):
        acc += weight * f[:, k]
    return 0.5 * acc


@pytest.mark.parametrize("kind", ["cosine", "tabulated"])
@pytest.mark.parametrize("M, n_cells", [(64, 100), (1000, 16), (37, 2048)])
def test_step_table_is_the_same_in_every_block_size(monkeypatch, kind, M, n_cells):
    # blocks of 1, 7, 16 and 64 steps, one block and the default size give
    # the table of one evaluate call over all steps, bit for bit; a block
    # of 7 steps leaves a short last block
    grid, tau = Grid1D(n_cells, 1.0), 0.7 / M
    rng = np.random.default_rng(M)
    spec = COSINE if kind == "cosine" else SourceSpec("tabulated", {
        "times": [0.0, 0.1, 0.35, 0.9],
        "values": rng.uniform(-1.0, 1.0, (4, n_cells)).tolist()})
    ref = one_shot_table(spec, M, grid, tau)
    assert spec.step_table(M, grid, tau).tobytes() == ref.tobytes()  # the default size
    for steps in (1, 7, 16, 64, M):
        monkeypatch.setattr(model, "_SOURCE_BLOCK_VALUES", steps * 4 * n_cells)
        assert spec.step_table(M, grid, tau).tobytes() == ref.tobytes(), steps
    monkeypatch.setattr(model, "_SOURCE_BLOCK_VALUES", 1)  # less than one step: one step
    assert spec.step_table(M, grid, tau).tobytes() == ref.tobytes()
    assert spec.step_average(M - 1, grid, tau).values.tobytes() == ref[-1].tobytes()


def test_step_table_memory_is_the_table_and_one_block():
    # the (M, 4, n) Gauss-time values were evaluated at once, for a
    # tracemalloc peak of 23.5 MiB at M = 250 and 93.9 MiB at M = 1000 (the
    # tables are 3.9 and 15.6 MiB); a block of 2^16 values and its
    # temporaries add about 1.3 MiB, whatever M
    grid = Grid1D(2048, 1.0)
    COSINE.step_table(2, grid, 0.1)  # warm caches
    for M in (250, 1000):
        tracemalloc.start()
        try:
            table = COSINE.step_table(M, grid, 0.5 / M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 2 * 2**20, (M, peak / 2**20)
    assert peak <= 1.25 * table.nbytes, peak / 2**20


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


@pytest.mark.parametrize("kind, params, message", [
    ("cosine", {"offset": 0, "amp": 1, "decay": 0, "length": 0.0},
     "cosine source length must be finite and > 0, got 0.0"),
    ("cosine", {"offset": 0, "amp": 1, "decay": 0, "length": -2},
     "cosine source length must be finite and > 0, got -2.0"),
    ("cosine", {"offset": 0, "amp": 1, "decay": 0, "length": float("inf")},
     "cosine source length must be finite and > 0, got inf"),
    ("cosine", {"offset": float("nan"), "amp": 1, "decay": 0, "length": 1.0},
     "cosine source offset must be finite, got nan"),
    ("cosine", {"offset": 0, "amp": float("-inf"), "decay": 0, "length": 1.0},
     "cosine source amp must be finite, got -inf"),
    ("cosine", {"offset": 0, "amp": 1, "decay": float("nan"), "length": 1.0},
     "cosine source decay must be finite, got nan"),
    ("constant", {"value": float("nan")}, "constant source value must be finite, got nan"),
    ("constant", {"value": float("inf")}, "constant source value must be finite, got inf"),
])
def test_source_rejects_numbers_it_cannot_evaluate(kind, params, message):
    # config rejects these first; a library caller meets this check before
    # step_table could divide by a zero length or fill its table with NaN
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        SourceSpec(kind, params)


def test_model_params_has_no_domain_length():
    # the domain length is the grid's alone
    with pytest.raises(TypeError):
        ModelParams(p=2.0, eps=0.1, T=1.0, M=10, length=2.0)


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
