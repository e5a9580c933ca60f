"""Interference audits, the chi-square composition, and the surrogate budget."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ofdma_underlay.channel import (PosteriorCrossStats, posterior_stats,
                                    sample_realizations)
from ofdma_underlay.errors import ShapeError
import ofdma_underlay.interference as interference_module
from ofdma_underlay.interference import (_shared_collisions, alpha_weights,
                                         audit_deterministic,
                                         audit_probabilistic,
                                         central_tail_approx, composite_chisq,
                                         enforced_budgets,
                                         surrogate_budget, xi_means)
from ofdma_underlay.presets import deterministic_benchmark, imperfect_benchmark


def test_audit_zero_power_never_violates():
    cfg = deterministic_benchmark(num_subcarriers=8)
    batch = sample_realizations(cfg, range(3))
    interference = audit_deterministic(np.zeros((3, 8)), batch.cross_true)
    np.testing.assert_array_equal(interference, np.zeros((3, 1)))


def test_audit_single_term():
    gain = np.sqrt(0.5)  # |Hsp|^2 = 0.5
    interference = audit_deterministic([2.0], [[gain + 0.0j]])
    assert interference.shape == (1,)
    assert interference[0] == pytest.approx(1.0, rel=1e-15)


def _triple_loop(power, cross):
    m, k = cross.shape
    return [sum(power[i] * abs(cross[j, i]) ** 2 for i in range(k)) for j in range(m)]


def test_audit_matches_triple_loop():
    cfg = deterministic_benchmark(num_primaries=2, num_subcarriers=16,
                                  interference_limit_w=(5.0,))
    batch = sample_realizations(cfg, range(3, 7))
    rng = np.random.default_rng(0)
    power = rng.uniform(0.0, 1.0, size=(4, 16)) * (rng.uniform(size=(4, 16)) < 0.7)
    # one state's (K,) power against its (M, K) links
    one = audit_deterministic(power[1], batch.cross_true[1])
    assert one.shape == (2,)
    for m, total in enumerate(_triple_loop(power[1], batch.cross_true[1])):
        assert one[m] == pytest.approx(total, rel=1e-12)
    # the (S, K) powers against the (S, M, K) batch, row by row
    every = audit_deterministic(power, batch.cross_true)
    assert every.shape == (4, 2)
    for s in range(4):
        for m, total in enumerate(_triple_loop(power[s], batch.cross_true[s])):
            assert every[s, m] == pytest.approx(total, rel=1e-12)
    np.testing.assert_array_equal(every[1], one)


def test_audit_shape_mismatch():
    cfg = deterministic_benchmark(num_subcarriers=8)
    batch = sample_realizations(cfg, [0])
    with pytest.raises(ShapeError):
        audit_deterministic(np.zeros(4), batch.cross_true[0])
    with pytest.raises(ShapeError):
        audit_deterministic(np.zeros(8), batch.cross_true[0, 0])


def test_violated_is_strict():
    # a unit link at the limit audits to exactly the limit, so a strict
    # comparison against the limit flags only power above it
    at_limit = audit_deterministic([1.0], [[1.0 + 0.0j]])
    assert at_limit[0] == 1.0
    above = audit_deterministic([1.0 + 1e-9], [[1.0 + 0.0j]])
    assert above[0] > 1.0


def test_noncentrality_values():
    post = PosteriorCrossStats(mean=np.array([[0.0 + 0.0j, 1.0 + 0.0j]]),
                               variance=1.0)
    assert xi_means(post)[0, 0] == 0.0
    assert xi_means(post)[0, 1] == pytest.approx(1.0)
    # Fig. 6 style posterior: rho=0.5, estimate 0.4+0.3j, error variance 1
    scaled = PosteriorCrossStats(mean=np.array([[1.25 * (0.4 + 0.3j)]]),
                                 variance=0.75)
    assert xi_means(scaled)[0, 0] == pytest.approx(0.520833, abs=1e-6)
    np.testing.assert_allclose(xi_means(scaled), [[0.5208333333]], rtol=1e-9)
    with pytest.raises(ValueError):
        xi_means(PosteriorCrossStats(mean=scaled.mean, variance=0.0))


def test_alpha_weights_certainty_equivalent():
    post = PosteriorCrossStats(mean=np.array([[2.0 + 0.0j]]), variance=0.5)
    # E|H|^2 = |mean|^2 + 2 var = 4 + 1; alpha = var (2 + mu_xi) must agree
    assert alpha_weights(post)[0, 0] == pytest.approx(5.0)


def test_posterior_aggregate_params_match_sampling():
    cfg = imperfect_benchmark()
    mu, var = cfg.posterior_aggregate
    rng = np.random.default_rng(17)
    d = math.sqrt(cfg.estimate_var)
    est = cfg.cross_mean + d * (rng.standard_normal((100_000, 64))
                                + 1j * rng.standard_normal((100_000, 64)))
    post_mean = (1.0 + cfg.correlation ** 2) * est
    agg = np.sum(np.abs(post_mean) ** 2 + 2.0 * cfg.posterior_var, axis=1)
    assert abs(agg.mean() - mu) < 0.02 * mu
    assert abs(agg.var() - var) < 0.05 * var


def test_composite_chisq_values():
    delta, dof, weight = composite_chisq(np.ones(4), np.zeros(4))
    assert (delta, dof, weight) == (0.0, 8, 1.0)
    delta, dof, weight = composite_chisq([1.0, 3.0], [0.0, 2.0])
    assert delta == pytest.approx(2.0)
    assert dof == 4
    assert weight == pytest.approx(14.0 / 6.0)
    with pytest.raises(ShapeError):
        composite_chisq(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        composite_chisq([-1.0], [0.0])


def _weighted_noncentral_draws(rng, beta, mu_xi, samples):
    beta = np.asarray(beta, dtype=float)
    shift = np.sqrt(np.asarray(mu_xi, dtype=float))
    re = shift + rng.standard_normal((samples, beta.size))
    im = rng.standard_normal((samples, beta.size))
    return (re * re + im * im) @ beta


def test_composite_tail_against_sampling():
    beta, mu_xi = [1.0, 3.0], [0.0, 2.0]
    delta, dof, weight = composite_chisq(beta, mu_xi)
    draws = _weighted_noncentral_draws(np.random.default_rng(3), beta, mu_xi,
                                       1_000_000)
    t = np.quantile(draws, 0.9)
    approx = central_tail_approx(t, weight, delta, dof)
    assert abs(approx - 0.1) <= 0.02


def test_central_tail_closed_forms():
    # chi-square with two degrees of freedom is Exp(1/2)
    assert central_tail_approx(2.0 * math.log(10.0), 1.0, 0.0, 2) == \
        pytest.approx(0.1, rel=1e-12)
    assert central_tail_approx(1e9, 1.0, 0.0, 2) < 1e-300
    with pytest.raises(ValueError):
        central_tail_approx(1.0, 0.0, 0.0, 2)
    with pytest.raises(ValueError):
        central_tail_approx(-1.0, 1.0, 0.0, 2)
    with pytest.raises(ValueError):
        central_tail_approx(1.0, 1.0, -0.1, 2)


def test_central_tail_small_noncentrality_band():
    # 64 subcarriers, total noncentrality 1.6 spread evenly, benchmark-sized
    # weights: the stretched-threshold approximation tracks sampling
    k = 64
    beta = np.full(k, 0.75 * 40.0 / 64.0)
    mu_xi = np.full(k, 1.6 / k)
    delta, dof, weight = composite_chisq(beta, mu_xi)
    draws = _weighted_noncentral_draws(np.random.default_rng(9), beta, mu_xi,
                                       400_000)
    for q in (0.5, 0.75, 0.9, 0.97):
        t = np.quantile(draws, q)
        approx = central_tail_approx(t, weight, delta, dof)
        assert abs(approx - (1.0 - q)) <= 0.02


def test_surrogate_budget_values():
    assert surrogate_budget(3.0, math.exp(-2.0), 1) == pytest.approx(1.5, rel=1e-12)
    assert surrogate_budget(10.0, 0.1, 64) == pytest.approx(4.047, abs=1e-3)
    eps_grid = np.linspace(0.01, 0.9, 10)
    budgets = [surrogate_budget(10.0, e, 64) for e in eps_grid]
    assert np.all(np.diff(budgets) > 0.0)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            surrogate_budget(10.0, bad, 64)
    with pytest.raises(ValueError):
        surrogate_budget(0.0, 0.1, 64)


def test_surrogate_budget_capped_at_single_carrier_limit():
    # all power on one zero-mean subcarrier collides with probability
    # exp(-I / budget), so the budget may never exceed I / ln(1/eps)
    for k in (1, 8, 64, 256):
        for eps in np.linspace(0.001, 0.999, 200):
            cap = 5.0 / math.log(1.0 / eps)
            assert surrogate_budget(5.0, eps, k) <= cap * (1.0 + 1e-12)
    assert surrogate_budget(5.0, 0.05, 64) == pytest.approx(
        5.0 / math.log(20.0), rel=1e-12)


@pytest.mark.parametrize("eps, delta", [
    (0.05, 0.0),
    pytest.param(0.5, 50.0, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: the cap I_th / ln(1/eps) is exact only for a "
        "zero-mean posterior; an exact per-state tail closes the gap"))),
])
def test_single_loaded_carrier_keeps_collision_limit(eps, delta):
    # K = 1, where the cap is the whole budget: all power on one subcarrier
    # whose posterior mean has noncentrality delta, loaded to budget / alpha
    cfg = imperfect_benchmark(num_users=1, num_subcarriers=1,
                              collision_limit=(eps,))
    v = cfg.posterior_var
    est = np.array([[math.sqrt(delta * v) / (1.0 + cfg.correlation ** 2)]],
                   dtype=complex)
    post = posterior_stats(cfg, est)
    power = enforced_budgets(cfg)[0] / alpha_weights(post)[0, 0]
    # P |H|^2 > I  <=>  chisq_2(delta) > I / (P v)
    collision = stats.ncx2.sf(cfg.interference_limit_w[0] / (power * v), 2,
                              xi_means(post)[0, 0])
    assert collision <= eps * (1.0 + 1e-9)


def test_probabilistic_audit_zero_power():
    cfg = imperfect_benchmark(num_subcarriers=4)
    post = posterior_stats(cfg, sample_realizations(cfg, [0]).cross_est[0])
    prob, stderr = audit_probabilistic(np.zeros(4), post, cfg, samples=10_000)
    np.testing.assert_array_equal(prob, [0.0])
    np.testing.assert_array_equal(stderr, [0.0])


def test_probabilistic_audit_forced_violation():
    cfg = imperfect_benchmark(num_users=1, num_subcarriers=1,
                              interference_limit_w=(1e-6,))
    post = PosteriorCrossStats(mean=np.array([[3.0 + 0.0j]]), variance=1e-8)
    prob, _ = audit_probabilistic([5.0], post, cfg, samples=10_000)
    assert prob[0] == pytest.approx(1.0)


def test_probabilistic_audit_sample_floor():
    cfg = imperfect_benchmark(num_subcarriers=4)
    post = posterior_stats(cfg, sample_realizations(cfg, [0]).cross_est[0])
    with pytest.raises(ValueError):
        audit_probabilistic(np.zeros(4), post, cfg, samples=9_999)
    with pytest.raises(ShapeError):
        audit_probabilistic(np.zeros(8), post, cfg, samples=10_000)
    with pytest.raises(ShapeError):
        audit_probabilistic(np.zeros((1, 4)), post, cfg, samples=10_000)


def test_probabilistic_audit_reproducible():
    cfg = imperfect_benchmark(num_subcarriers=8)
    post = posterior_stats(cfg, sample_realizations(cfg, [2]).cross_est[0])
    power = np.full(8, 0.3)
    one = audit_probabilistic(power, post, cfg, samples=20_000)
    two = audit_probabilistic(power, post, cfg, samples=20_000)
    np.testing.assert_array_equal(one[0], two[0])


class _CountingRng:
    """Wraps a generator and counts the normals it hands out."""

    def __init__(self, rng, counts):
        self.rng, self.counts = rng, counts

    def standard_normal(self, size):
        self.counts.append(int(np.prod(size)))
        return self.rng.standard_normal(size)


def _count_audit_normals(monkeypatch) -> list:
    counts = []
    streams = interference_module._audit_streams
    monkeypatch.setattr(interference_module, "_audit_streams",
                        lambda *args: [_CountingRng(rng, counts) for rng in streams(*args)])
    return counts


def _spread_posterior(m, k, variance=0.75):
    rng = np.random.default_rng(0)
    mean = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    return PosteriorCrossStats(mean=mean, variance=variance)


def _audit(seed, samples, post, powers, limits):
    """_shared_collisions of the (S, K) ``powers``, all on one (M, K) posterior."""
    powers = np.asarray(powers, dtype=float)
    mean = np.broadcast_to(post.mean, (len(powers),) + post.mean.shape)
    return _shared_collisions(seed, samples, PosteriorCrossStats(mean, post.variance),
                              powers, limits)


def test_posterior_collisions_ignore_unloaded_links():
    post = _spread_posterior(2, 16)
    power = np.zeros(16)
    power[[2, 9, 10]] = [0.8, 1.5, 0.4]
    limits = np.array([3.0, 5.0])
    moved = post.mean.copy()
    moved[:, [0, 5, 15]] += 7.0 - 3.0j
    one = _audit(4, 20_000, post, [power], limits)
    two = _audit(4, 20_000, PosteriorCrossStats(moved, post.variance), [power], limits)
    kept = [2, 9, 10]
    three = _audit(4, 20_000, PosteriorCrossStats(post.mean[:, kept], post.variance),
                   [power[kept]], limits)
    assert 0.0 < one[0, 0] < 1.0 and 0.0 < one[0, 1] < 1.0
    assert one.tobytes() == two.tobytes() == three.tobytes()


def test_posterior_collisions_one_loaded_link_is_ncx2():
    cfg = imperfect_benchmark()
    k = cfg.num_subcarriers
    post = _spread_posterior(1, k, cfg.posterior_var)
    power = np.zeros(k)
    power[17] = 3.0
    prob, stderr = audit_probabilistic(power, post, cfg, samples=100_000, seed=3)
    exact = stats.ncx2.sf(cfg.interference_limit_w[0]
                          / (3.0 * cfg.posterior_var), 2,
                          xi_means(post)[0, 17])
    assert 0.05 < exact < 0.95
    assert abs(prob[0] - exact) <= 3.0 * stderr[0]


@pytest.mark.parametrize("loaded", [[], [6], [0, 3, 11, 63]])
def test_posterior_collisions_draw_only_loaded_links(monkeypatch, loaded):
    counts = _count_audit_normals(monkeypatch)
    post = _spread_posterior(2, 64)
    wide, narrow = np.zeros(64), np.zeros(64)
    wide[loaded] = 0.5
    narrow[loaded[:1]] = 0.5
    samples = 10_000                     # two full blocks and a partial one
    prob = _audit(1, samples, post, [narrow, wide, np.zeros(64)], np.array([1.0, 2.0]))
    # one shared draw, as wide as the most loaded state: 2 samples M max L
    assert sum(counts) == 2 * samples * 2 * len(loaded)
    np.testing.assert_array_equal(prob[2], [0.0, 0.0])
    if not loaded:
        np.testing.assert_array_equal(prob, np.zeros((3, 2)))


def test_posterior_collisions_keep_the_stream_layout():
    post = _spread_posterior(2, 64)
    power = np.zeros(64)
    power[[1, 4, 9, 30, 63]] = [0.5, 0.2, 1.1, 0.05, 0.7]
    limits = np.array([6.0, 9.0])
    samples = 10_000                     # two full blocks and a partial one
    got = _audit(9, samples, post, [power], limits)[0]
    # the direct sum_j P_j |m_j + std z_j|^2 on the same normals: the j-th
    # loaded link reads sub-stream j, (M, 2, block) per block of 4096 redraws
    loaded = power > 0.0
    mean, weights = post.mean[:, loaded], power[loaded]
    std = math.sqrt(post.variance)
    streams = [np.random.default_rng(np.random.SeedSequence((9, 0xA0D17, j)))
               for j in range(weights.size)]
    hits = np.zeros(2)
    done = 0
    while done < samples:
        block = min(samples - done, 4096)
        z = np.stack([rng.standard_normal((2, 2, block)) for rng in streams], axis=-1)
        re = mean.real + std * z[:, 0].transpose(1, 0, 2)       # (block, M, L)
        im = mean.imag + std * z[:, 1].transpose(1, 0, 2)
        hits += np.sum((re * re + im * im) @ weights > limits, axis=0)
        done += block
    assert np.all((got > 0.05) & (got < 0.95))
    np.testing.assert_array_equal(got * samples, hits)


def test_audit_rate_ignores_wider_states_beside_it():
    post = _spread_posterior(1, 64, 0.5)
    rng = np.random.default_rng(3)
    powers = np.zeros((3, 64))
    powers[0, [5, 17, 40]] = [0.7, 1.2, 0.3]
    powers[1, rng.choice(64, 20, replace=False)] = 0.2
    powers[2] = rng.uniform(0.01, 0.1, 64)
    limits = np.array([4.0])
    alone = _audit(2, 20_000, post, powers[:1], limits)
    beside = _audit(2, 20_000, post, powers, limits)
    assert 0.0 < alone[0, 0] < 1.0
    assert alone[0].tobytes() == beside[0].tobytes()
    cfg = imperfect_benchmark(interference_limit_w=(4.0,))
    prob, _ = audit_probabilistic(powers[0], post, cfg, samples=20_000, seed=2)
    assert prob.tobytes() == alone[0].tobytes()


def test_full_state_audit_draws_in_blocks():
    post = _spread_posterior(1, 64)
    cfg = imperfect_benchmark()
    power = np.full(64, 0.05)
    tracemalloc.start()
    try:
        audit_probabilistic(power, post, cfg, samples=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of 4096 redraws of (Re z, Im z, |z|^2) on 64 links is
    # 6.3 MB; the whole draw at once would be 30.7 MB
    assert peak < 8e6
