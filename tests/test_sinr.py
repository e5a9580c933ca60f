"""Closed-form reference-SINR law against Monte Carlo and moment oracles."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from ofdma_underlay import _special
from ofdma_underlay.errors import ShapeError
from ofdma_underlay.presets import deterministic_benchmark
from ofdma_underlay.sinr import (SinrDistribution, gaussian_sum_params,
                                 sample_sinr_mc, sinr_distribution)

UNIT_MEANS = np.ones((3, 64))


def _unit_cfg(**overrides):
    overrides.setdefault("direct_gain_means", UNIT_MEANS)
    return deterministic_benchmark(**overrides)


def test_aggregate_moments_exact_values():
    # benchmark cross links: mean 0.05, per-component variance 0.1, K=64
    mu, var = gaussian_sum_params(0.05 + 0.0j, 0.1, 64)
    assert mu == pytest.approx(12.96, abs=1e-12)
    assert var == pytest.approx(2.624, abs=1e-12)
    # unit-variance zero-mean check: sum of 64 |CN(0, per-comp 1)|^2
    mu2, var2 = gaussian_sum_params(0.0 + 0.0j, 1.0, 64)
    assert mu2 == pytest.approx(128.0, abs=1e-12)
    assert var2 == pytest.approx(256.0, abs=1e-12)


def test_aggregate_moments_match_sampling():
    rng = np.random.default_rng(11)
    k = 64
    mean, var = 0.05, 0.1
    re = mean + math.sqrt(var) * rng.standard_normal((200_000, k))
    im = math.sqrt(var) * rng.standard_normal((200_000, k))
    agg = np.sum(re * re + im * im, axis=1)
    assert abs(agg.mean() - 12.96) < 0.02
    assert abs(agg.var() - 2.624) < 0.05


def test_normal_approximation_quality_by_band_size():
    # Gaussian fit of the aggregate gain: tight at K=64, recorded at K=8
    rng = np.random.default_rng(23)
    report = {}
    for k in (64, 8):
        mu, var = gaussian_sum_params(0.05 + 0.0j, 0.1, k)
        re = 0.05 + math.sqrt(0.1) * rng.standard_normal((100_000, k))
        im = math.sqrt(0.1) * rng.standard_normal((100_000, k))
        agg = np.sum(re * re + im * im, axis=1)
        ks = stats.kstest(agg, "norm", args=(mu, math.sqrt(var))).statistic
        report[k] = ks
    assert report[64] <= 0.02
    # few-subcarrier fit degrades; tracked without a pass bound
    print("KS(aggregate, normal): K=64 %.4f, K=8 %.4f" % (report[64], report[8]))
    assert report[8] > report[64]


def test_truncation_renormalization_negligible_at_benchmark():
    dist = sinr_distribution(_unit_cfg(), 0, 0, 0)
    assert abs(dist._trunc_norm - 1.0) < 1e-8


def test_cdf_matches_monte_carlo_interference_capped():
    # P_t/K = 0.469 W above I_th/mu_N = 0.386 W: budget caps most states
    cfg = _unit_cfg(total_power_w=30.0, interference_limit_w=(5.0,))
    dist = sinr_distribution(cfg, 0, 0, 0)
    draws = sample_sinr_mc(cfg, 0, 0, 0, 1_000_000)
    grid = np.linspace(0.0, draws[-1], 50)
    empirical = np.searchsorted(draws, grid, side="right") / draws.size
    gap = np.max(np.abs(dist.cdf(grid) - empirical))
    assert gap <= 0.01


def test_cdf_matches_monte_carlo_power_capped():
    # P_t/K = 0.469 W below I_th/mu_N = 0.772 W: the power cap dominates
    cfg = _unit_cfg(total_power_w=30.0, interference_limit_w=(10.0,))
    dist = sinr_distribution(cfg, 0, 0, 0)
    draws = sample_sinr_mc(cfg, 0, 0, 0, 1_000_000)
    grid = np.linspace(0.0, draws[-1], 50)
    empirical = np.searchsorted(draws, grid, side="right") / draws.size
    gap = np.max(np.abs(dist.cdf(grid) - empirical))
    assert gap <= 0.01


def test_monte_carlo_draws_exact_aggregate_law_at_one_subcarrier():
    # K = 1 (P_t / K = P_t) and unit direct means: the aggregate is
    # var * chi'^2_2(|m|^2 / var), far from the Normal fit the closed form
    # uses, so only a sampler of the exact law passes here
    cfg = deterministic_benchmark(num_subcarriers=1, direct_gain_means=np.ones((3, 1)),
                                  total_power_w=30.0, interference_limit_w=(2.0,))
    agg = stats.ncx2(2, abs(cfg.cross_mean) ** 2 / cfg.cross_var, scale=cfg.cross_var)
    switch = cfg.interference_limit_w[0] / cfg.total_power_w

    def oracle_cdf(g):
        def integrand(n):
            p_ref = min(cfg.total_power_w, cfg.interference_limit_w[0] / n)
            return -math.expm1(-g * cfg.total_noise_w / p_ref) * agg.pdf(n)
        return (integrate.quad(integrand, 0.0, switch)[0]
                + integrate.quad(integrand, switch, np.inf)[0])

    draws = sample_sinr_mc(cfg, 0, 0, 0, 200_000)
    grid = draws[(np.linspace(0.05, 0.95, 19) * (draws.size - 1)).astype(int)]
    empirical = np.searchsorted(draws, grid, side="right") / draws.size
    oracle = np.array([oracle_cdf(g) for g in grid])
    assert np.max(np.abs(empirical - oracle)) <= 0.005


def _central_grid(dist, lo_q=0.005, hi_q=0.995, points=50):
    """Quantile bracket of the central mass by bisection on the cdf."""
    def quantile(q):
        lo, hi = 0.0, 1.0
        while dist.cdf(hi) < q:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dist.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return hi
    return np.linspace(quantile(lo_q), quantile(hi_q), points)


def test_pdf_is_derivative_of_cdf():
    cfg = _unit_cfg(total_power_w=30.0, interference_limit_w=(5.0,))
    dist = sinr_distribution(cfg, 0, 0, 0)
    grid = _central_grid(dist)
    h = 1e-5 * (grid[-1] - grid[0])
    fd = (dist.cdf(grid + h) - dist.cdf(grid - h)) / (2.0 * h)
    pdf = dist.pdf(grid)
    assert np.all(pdf > 0.0)
    rel = np.abs(fd - pdf) / pdf
    assert np.max(rel) <= 1e-2


def test_pdf_integrates_to_one():
    cfg = _unit_cfg(total_power_w=30.0, interference_limit_w=(5.0,))
    dist = sinr_distribution(cfg, 0, 0, 0)
    hi = _central_grid(dist, hi_q=0.999999, points=2)[-1]
    mass, _ = integrate.quad(lambda g: float(dist.pdf(g)), 0.0, hi, limit=300)
    mass += dist.survival(hi)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_pdf_nonnegative_over_wide_range():
    cfg = _unit_cfg(total_power_w=30.0, interference_limit_w=(5.0,))
    dist = sinr_distribution(cfg, 0, 0, 0)
    grid = np.linspace(0.0, 200.0, 4001)
    assert np.all(dist.pdf(grid) >= 0.0)


def test_density_growth_with_power_budget():
    # raising P_t 20 -> 30 W at I_th = 5 W lifts the unit-mean density at
    # gamma = 10 by about half again
    dists = {
        pt: sinr_distribution(
            _unit_cfg(total_power_w=pt, interference_limit_w=(5.0,)), 0, 0, 0)
        for pt in (20.0, 30.0)
    }
    ratio = dists[30.0].pdf(10.0) / dists[20.0].pdf(10.0)
    assert 1.545 - 0.15 <= ratio <= 1.545 + 0.15


def test_huge_and_infinite_sinr_reach_the_limits_without_warnings():
    dist = SinrDistribution(direct_mean=1.0, agg_mean=1.0, agg_var=0.5, budget_w=2.0,
                            total_power_w=30.0, noise_w=1.0, num_subcarriers=8)
    gammas = [1e150, 1e160, 1e300, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in gammas:
            assert dist.cdf(gamma) == 1.0 and dist.pdf(gamma) == 0.0
        # 0 sits in the h < 0 branch, so the array takes both branches
        grid = np.array([0.0, *gammas])
        np.testing.assert_array_equal(dist.cdf(grid), [dist.cdf(0.0), 1, 1, 1, 1])
        np.testing.assert_array_equal(dist.pdf(grid), [dist.pdf(0.0), 0, 0, 0, 0])


def test_degenerate_aggregate_is_plain_exponential():
    dist = SinrDistribution(direct_mean=1.0, agg_mean=8.0, agg_var=0.0,
                            budget_w=4.0, total_power_w=32.0, noise_w=0.1,
                            num_subcarriers=64)
    p_ref = min(32.0 / 64, 4.0 / 8.0)
    for g in (0.0, 1.0, 7.5):
        assert dist.survival(g) == pytest.approx(math.exp(-g * 0.1 / p_ref))
        assert dist.pdf(g) == pytest.approx(0.1 / p_ref * math.exp(-g * 0.1 / p_ref))


def test_zero_aggregate_is_a_point_mass_at_full_power():
    dist = SinrDistribution(direct_mean=2.0, agg_mean=0.0, agg_var=0.0, budget_w=1.0,
                            total_power_w=32.0, noise_w=0.1, num_subcarriers=64)
    assert dist.ref_power_w == 0.5                  # no cross gain: the budget never caps
    assert dist.survival(3.0) == pytest.approx(math.exp(-3.0 * 0.1 / (0.5 * 2.0)))
    for mean, var in ((0.0, 1e-30), (-1e-30, 0.0), (1.0, -1e-30)):
        with pytest.raises(ValueError, match="aggregate moments"):
            dataclasses.replace(dist, agg_mean=mean, agg_var=var)


def _quadrature_survival(dist, g):
    """A(G) + B(G) with B integrated numerically over the standardized gain."""
    mu, std = dist.agg_mean, math.sqrt(dist.agg_var)
    norm = stats.norm.cdf(mu / std)
    c = dist.budget_w * dist.num_subcarriers / dist.total_power_w
    a = dist.num_subcarriers * dist.noise_w / (dist.total_power_w * dist.direct_mean)
    b = dist.noise_w / (dist.budget_w * dist.direct_mean)
    below = (stats.norm.cdf((c - mu) / std) - stats.norm.cdf(-mu / std)) / norm
    z_lo = (c - mu) / std
    z_peak = min(max(-b * g * std, z_lo), 40.0)

    def integrand(z):
        return math.exp(-b * g * (mu + std * z) - 0.5 * z * z) / math.sqrt(2.0 * math.pi)

    tail = 0.0
    for lo, hi in ((z_lo, z_peak), (z_peak, 40.0)):
        if hi > lo:
            tail += integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12,
                                   limit=200)[0]
    return math.exp(-a * g) * below + tail / norm


@pytest.mark.parametrize("limit_w", [5.0, 10.0, 1.0])
def test_survival_matches_quadrature_oracle(limit_w):
    cfg = _unit_cfg(total_power_w=30.0, interference_limit_w=(limit_w,))
    dist = sinr_distribution(cfg, 0, 0, 0)
    p_ref = min(30.0 / 64, limit_w / dist.agg_mean)
    grid = np.linspace(0.0, 12.0 * p_ref / cfg.total_noise_w, 400)
    oracle = np.array([_quadrature_survival(dist, g) for g in grid])
    assert np.max(np.abs(dist.survival(grid) - oracle)) <= 1e-10


def test_batched_law_equals_per_link_laws():
    cfg = deterministic_benchmark(interference_limit_w=(2.0,))
    agg_mean, agg_var = gaussian_sum_params(cfg.cross_mean, cfg.cross_var,
                                            cfg.num_subcarriers)
    rng = np.random.default_rng(5)
    gamma = rng.exponential(3.0, size=(6, cfg.num_users, cfg.num_subcarriers))
    gamma[0] = 0.0
    for var in (agg_var, 0.0):
        batched = SinrDistribution(
            direct_mean=cfg.direct_gain_means, agg_mean=agg_mean, agg_var=var,
            budget_w=cfg.interference_limit_w[0], total_power_w=cfg.total_power_w,
            noise_w=cfg.total_noise_w, num_subcarriers=cfg.num_subcarriers)
        pdf, survival = batched.pdf(gamma), batched.survival(gamma)
        for n in range(cfg.num_users):
            for k in range(cfg.num_subcarriers):
                link = dataclasses.replace(sinr_distribution(cfg, n, k, 0), agg_var=var)
                assert np.array_equal(pdf[:, n, k], link.pdf(gamma[:, n, k]))
                assert np.array_equal(survival[:, n, k], link.survival(gamma[:, n, k]))


def test_monte_carlo_draws_sorted_and_reproducible():
    cfg = _unit_cfg()
    draws = sample_sinr_mc(cfg, 0, 0, 0, 20_000)
    assert np.all(np.diff(draws) >= 0.0)
    np.testing.assert_array_equal(draws, sample_sinr_mc(cfg, 0, 0, 0, 20_000))
    assert not np.array_equal(
        draws, sample_sinr_mc(cfg.with_updates(rng_seed=9), 0, 0, 0, 20_000))


def test_index_validation():
    cfg = deterministic_benchmark()
    with pytest.raises(ShapeError):
        sinr_distribution(cfg, 3, 0, 0)
    with pytest.raises(ShapeError):
        sinr_distribution(cfg, 0, 0, 1)
    with pytest.raises(ShapeError):
        sample_sinr_mc(cfg, 0, 64, 0, 100)
    with pytest.raises(ValueError):
        sinr_distribution(cfg, 0, 0, 0).cdf(-1.0)


@pytest.mark.parametrize("law", [sinr_distribution,
                                 lambda cfg, n, k, m: sample_sinr_mc(cfg, n, k, m, 100)])
@pytest.mark.parametrize("link, message", [
    ((3, 0, 0), "^user 3 outside 0..2$"),
    ((0, -1, 0), "^subcarrier -1 outside 0..63$"),
    ((0, 0, 1), "^primary 1 outside 0..0$"),
])
def test_index_errors_name_the_index_and_its_range(law, link, message):
    with pytest.raises(ShapeError, match=message):
        law(deterministic_benchmark(), *link)


def _full_branches(dist, gamma):
    """SinrDistribution._branches with erfcx and exp(-z^2) on every element."""
    mu, var, std, c = dist.agg_mean, dist.agg_var, math.sqrt(dist.agg_var), dist._cap_switch
    ag, bg = dist._a * gamma, dist._b * gamma
    h = (c - mu + bg * var) / std
    e_boundary = np.exp(-0.5 * ((c - mu) / std) ** 2 - ag)
    z = np.abs(h) / math.sqrt(2.0)
    ex = _special.erfcx(z)
    bg = np.where(h < 0.0, bg, 0.0)
    g0 = -bg * mu + 0.5 * (bg * std) ** 2
    q_neg = np.exp(np.minimum(g0, 0.0)) * (1.0 - 0.5 * np.exp(-z * z) * ex)
    return np.exp(-ag), e_boundary, np.where(h < 0.0, q_neg, 0.5 * e_boundary * ex), h


def test_q_factor_past_z_six_is_exactly_one():
    # h < 0 with z = |h| / sqrt(2) >= 6 skips erfcx: 1 - exp(-z^2) erfcx(z) / 2
    # rounds to 1 there, so the result must not move by a bit
    dist = SinrDistribution(direct_mean=0.8, agg_mean=30.0, agg_var=3.0, budget_w=0.2,
                            total_power_w=30.0, noise_w=0.3, num_subcarriers=8)
    std = math.sqrt(dist.agg_var)
    edge = 6.0 * math.sqrt(2.0)
    h = np.concatenate([-edge + np.linspace(-1e-9, 1e-9, 41), np.linspace(-17.0, 17.0, 341)])
    gamma = (h * std - dist._cap_switch + dist.agg_mean) / (dist._b * dist.agg_var)
    *full, h = _full_branches(dist, gamma)
    z = np.abs(h) / math.sqrt(2.0)
    assert np.any((h < 0.0) & (z < 6.0) & (z > 6.0 - 1e-9))
    assert np.any((h < 0.0) & (z >= 6.0) & (z < 6.0 + 1e-9))
    for got, want in zip(dist._branches(gamma), full):
        assert got.tobytes() == want.tobytes()
    for x in (float(gamma[0]), float(gamma[-1])):      # scalar inputs take the same path
        assert [float(v) for v in dist._branches(np.float64(x))[:3]] == \
            [float(v) for v in _full_branches(dist, np.float64(x))[:3]]
