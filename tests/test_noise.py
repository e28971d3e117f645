import numpy as np
import pytest

from plapsim.config import ValidationError, parse_config
from plapsim.harness import run_pathwise_refinement
from plapsim.mesh import Grid1D
from plapsim.model import ModelParams, ReactionSpec, SourceSpec, make_initial
from plapsim.noise import NoiseModel, PathIncrements, bump_profile
from plapsim.operators import OperatorContext


def test_bump_support_and_peak():
    assert bump_profile(0.1) == 0.0
    assert bump_profile(0.25) == 0.0
    assert bump_profile(0.75) == 0.0
    assert bump_profile(0.9) == 0.0
    assert bump_profile(0.5) == pytest.approx(1.0, rel=1e-14)
    v = np.linspace(-1, 2, 3001)
    assert np.all(bump_profile(v) >= 0.0)


def test_amplitudes_partial_sum():
    model = NoiseModel(J=10, sigma=1.3)
    c = model.amplitudes
    assert c[0] == pytest.approx(1.3 / np.sqrt(2))
    assert np.dot(c, c) <= 1.3**2


def test_noise_model_rejects_a_sigma_whose_lipschitz_bound_overflows():
    # sigma**2 raised an OverflowError in L_g (1e308), or sigma^2 4 pi^2
    # overflowed to inf (1e154, and an int whose float square overflows)
    for sigma in (1e308, 1e154, 10**200):
        with pytest.raises(ValueError, match=r"^sigma = .* makes L_g = 4 pi\^2 sigma\^2 "
                                             r"not finite$"):
            NoiseModel(J=4, sigma=sigma)
    assert NoiseModel(J=4, sigma=1e153).L_g < np.inf


def test_parse_config_names_the_noise_section_of_a_bad_sigma():
    with pytest.raises(ValidationError, match=r"^noise: sigma = 1e\+308 makes L_g "):
        parse_config(data={"noise": {"sigma": 1e308}})


def test_sample_statistics():
    # mean within 4 sigma of its sampling error, variance within 5%
    tau = 0.01
    model = NoiseModel(J=100, sigma=1.0)
    draws = model.sample_path(10_000, tau, seed=123).values
    n = draws.size
    assert abs(draws.mean()) <= 4.0 * np.sqrt(tau / n)
    assert abs(draws.var() / tau - 1.0) <= 0.05


def test_sample_determinism():
    model = NoiseModel(J=4, sigma=0.5)
    a = model.sample_path(50, 0.1, seed=9)
    b = model.sample_path(50, 0.1, seed=9)
    assert np.array_equal(a.values, b.values)
    c = model.sample_path(50, 0.1, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_sample_path_rejects_a_negative_seed():
    # every path's increments are drawn here, so run_path and run_mc name a
    # negative seed with this message too, before numpy sees it
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        NoiseModel(J=4, sigma=0.5).sample_path(10, 0.1, seed=-1)


def test_hs_lipschitz_estimate_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        NoiseModel(J=4, sigma=0.5).hs_lipschitz_estimate(100, seed=-1)


def test_coarsen_identity_and_additivity(monkeypatch):
    # the pathwise study coarsens its one fine path itself: a spy on coefs
    # sees one (1, M, J) call per level, coarsest first; the finest level
    # takes the fine path bit for bit, the next one its pairwise sums bit for
    # bit, and every coarser level the pairwise sums of the next finer one's
    grid = Grid1D(8, 1.0)
    ctx = OperatorContext(ModelParams(p=2.0, eps=0.1, T=0.2, M=3), ReactionSpec(), grid)
    model = NoiseModel(J=3, sigma=1.0)
    initial = make_initial(grid, "constant", {"value": 0.5})
    seen, coefs = [], NoiseModel.coefs
    monkeypatch.setattr(NoiseModel, "coefs", lambda self, dw: seen.append(dw) or coefs(self, dw))
    tab = run_pathwise_refinement(ctx, model, initial, SourceSpec("zero"), levels=4, seed=1)
    assert [dw.shape for dw in seen] == [(1, 3, 3), (1, 6, 3), (1, 12, 3), (1, 24, 3)]
    fine = model.sample_path(24, 0.2 / 24, seed=1).values
    assert np.array_equal(seen[-1][0], fine)
    assert np.array_equal(seen[-2][0], fine[0::2] + fine[1::2])
    for coarse, finer in zip(seen, seen[1:]):
        assert np.allclose(coarse[0], finer[0, 0::2] + finer[0, 1::2], rtol=1e-15, atol=1e-15)
    assert tab.values == pytest.approx([0.2 / 3, 0.1 / 3, 0.05 / 3], rel=1e-15)


def test_apply_diffusion_values():
    g = Grid1D(5, 1.0)
    model = NoiseModel(J=1, sigma=1.0)
    u = g.function(np.full(5, 0.5))
    out = model.apply_diffusion(u, np.array([1.0]))
    assert np.allclose(out.values, 2 ** (-0.5), rtol=1e-14)

    # zero state is outside every bump support
    zero_state = g.zeros()
    dw = np.array([3.0])
    assert np.all(model.apply_diffusion(zero_state, dw).values == 0.0)

    # zero increments give zero forcing
    assert np.all(model.apply_diffusion(u, np.array([0.0])).values == 0.0)


def test_apply_diffusion_is_bump_times_coefs():
    # the forcing is phi(u) * coefs(dw), bit for bit, and one row's
    # coefficient is its row of a stacked call
    rng = np.random.default_rng(9)
    g = Grid1D(40, 1.0)
    model = NoiseModel(J=12, sigma=0.7)
    u = g.function(rng.uniform(-0.2, 1.2, 40))
    dw = rng.standard_normal((3, 5, 12))
    out = model.apply_diffusion(u, dw[1, 2])
    assert np.array_equal(out.values, bump_profile(u.values) * model.coefs(dw[1, 2]))
    stacked = model.coefs(dw)
    assert stacked.shape == (3, 5)
    for k in range(3):
        assert np.array_equal(model.coefs(dw[k]), stacked[k])
        for n in range(5):
            assert model.coefs(dw[k, n]) == stacked[k, n]


def test_apply_diffusion_support():
    g = Grid1D(14, 1.0)
    model = NoiseModel(J=6, sigma=2.0)
    u = g.function(np.linspace(-0.5, 1.5, 14))
    out = model.apply_diffusion(u, np.full(6, 1.7))
    outside = (u.values <= 0.25) | (u.values >= 0.75)
    assert np.all(out.values[outside] == 0.0)


def test_truncation_consistency():
    # adding mode J+1 changes the forcing by exactly c_{J+1} phi(u) dW_{J+1}
    g = Grid1D(9, 1.0)
    rng = np.random.default_rng(5)
    small = NoiseModel(J=5, sigma=0.8)
    big = NoiseModel(J=6, sigma=0.8)
    u = g.function(rng.uniform(0.3, 0.7, 9))
    dw = rng.normal(size=6)
    diff = big.apply_diffusion(u, dw).values - small.apply_diffusion(u, dw[:5]).values
    expected = big.amplitudes[-1] * dw[-1] * bump_profile(u.values)
    assert np.abs(diff - expected).max() <= 1e-15
    # amplitude of the added mode decays like 2^{-(J+1)/2}
    assert big.amplitudes[-1] == pytest.approx(0.8 * 2 ** (-3.0))


def test_hs_lipschitz_estimate_bounded():
    for sigma in (0.0, 0.5, 2.0):
        model = NoiseModel(J=16, sigma=sigma)
        est = model.hs_lipschitz_estimate(50_000, seed=2)
        assert est <= model.L_g
        if sigma == 0.0:
            assert est == 0.0
        else:
            # dense near-diagonal sampling gets close to the true supremum
            assert est >= 0.5 * model.L_g


def test_hs_ratio_zero_off_support():
    model = NoiseModel(J=3, sigma=1.0)
    # both points where the bump vanishes: zero contribution
    c2 = float(np.dot(model.amplitudes, model.amplitudes))
    r, s = -0.3, 1.4
    assert c2 * (bump_profile(r) - bump_profile(s)) ** 2 / (r - s) ** 2 == 0.0


def test_increment_matrix_validation():
    with pytest.raises(ValueError):
        PathIncrements(np.zeros(3), tau=0.1, seed=0)
    with pytest.raises(ValueError):
        NoiseModel(J=0)
    with pytest.raises(ValueError):
        NoiseModel(J=2, sigma=-0.5)
