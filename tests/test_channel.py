"""Channel sampling: laws, correlation structure, reproducibility."""

import math

import numpy as np
import pytest
from scipy import stats

from ofdma_underlay.channel import posterior_stats, sample_realizations
from ofdma_underlay.errors import ModeError
from ofdma_underlay.presets import deterministic_benchmark, imperfect_benchmark


def _pooled_draws(cfg, streams):
    batch = sample_realizations(cfg, range(streams))
    return batch


def test_shapes_and_exact_reconstruction():
    cfg = imperfect_benchmark(num_subcarriers=16)
    batch = _pooled_draws(cfg, 50)
    assert batch.direct_power.shape == (50, 3, 16)
    assert batch.cross_true.shape == batch.cross_est.shape == (50, 1, 16)
    np.testing.assert_array_equal(batch.streams, np.arange(50))
    assert np.all(batch.direct_power >= 0.0)
    # Hsp = Hhat + dH must hold exactly, not to rounding: redraw stream 3
    rng = np.random.default_rng(np.random.SeedSequence((cfg.rng_seed, 3)))
    direct = rng.exponential(cfg.direct_gain_means, size=(3, 16))
    u = rng.standard_normal((2, 1, 16))
    v = rng.standard_normal((2, 1, 16))
    rho = cfg.correlation
    est = cfg.cross_mean + cfg.estimate_std * (u[0] + 1j * u[1])
    mix = rho * u + math.sqrt(1.0 - rho * rho) * v
    err = math.sqrt(cfg.error_var) * (mix[0] + 1j * mix[1])
    np.testing.assert_array_equal(batch.direct_power[3], direct)
    np.testing.assert_array_equal(batch.cross_est[3], est)
    np.testing.assert_array_equal(batch.cross_true[3], est + err)


def test_reproducibility_and_stream_independence():
    cfg = deterministic_benchmark()
    one = sample_realizations(cfg, [7])
    two = sample_realizations(cfg, [7])
    np.testing.assert_array_equal(one.direct_power, two.direct_power)
    np.testing.assert_array_equal(one.cross_true, two.cross_true)
    other = sample_realizations(cfg, [8])
    assert not np.array_equal(one.direct_power, other.direct_power)
    # batch slicing matches standalone sampling of the same stream
    batch = sample_realizations(cfg, [5, 7, 9])
    np.testing.assert_array_equal(batch.cross_true[1], one.cross_true[0])


def test_single_draw_matches_batch_row_in_imperfect_mode():
    cfg = imperfect_benchmark(num_subcarriers=16)
    one = sample_realizations(cfg, [7])
    rows = sample_realizations(cfg, [5, 7, 9])
    for name in ("direct_power", "cross_true", "cross_est"):
        np.testing.assert_array_equal(getattr(one, name)[0], getattr(rows, name)[1])
    assert one.streams[0] == rows.streams[1] == 7


def test_direct_gain_exponential_law():
    means = np.full((1, 4), 1.0)
    cfg = deterministic_benchmark(num_users=1, num_subcarriers=4,
                                  direct_gain_means=means)
    batch = _pooled_draws(cfg, 2500)
    draws = batch.direct_power.reshape(-1)       # 10^4 iid Exp(1) draws
    assert abs(draws.mean() - 1.0) < 0.03
    ks = stats.kstest(draws, "expon").statistic
    assert ks <= 0.01 or draws.size < 1e5        # KS bound applies at 1e5
    # tighter run at 1e5 samples for one entry, chunked over streams
    big = _pooled_draws(cfg.with_updates(rng_seed=3), 25000)
    entry = big.direct_power[:, 0, :].reshape(-1)
    assert entry.size == 100000
    assert stats.kstest(entry, "expon").statistic <= 0.01


def test_cross_link_moments_per_component():
    # "variance 0.1" is per real component: Var(Re) = Var(Im) = 0.1
    cfg = deterministic_benchmark(num_subcarriers=64)
    batch = _pooled_draws(cfg, 1000)
    flat = batch.cross_true.reshape(-1)          # 64e3 draws
    se = np.sqrt(cfg.cross_var / flat.size)
    assert abs(flat.mean().real - 0.05) < 3 * se
    assert abs(flat.mean().imag) < 3 * se
    assert abs(flat.real.var() - 0.1) < 0.005
    assert abs(flat.imag.var() - 0.1) < 0.005


def test_imperfect_split_variances_and_correlation():
    cfg = imperfect_benchmark(num_subcarriers=64)
    batch = _pooled_draws(cfg, 2000)
    est = batch.cross_est.reshape(-1)
    true = batch.cross_true.reshape(-1)
    err = true - est
    assert abs(err.real.var() - cfg.error_var) < 0.02
    assert abs(est.real.var() - cfg.estimate_std ** 2) < 0.02
    # marginal of the sum keeps the configured total cross variance
    assert abs(true.real.var() - cfg.cross_var) < 0.05
    corr = np.corrcoef(est.real, err.real)[0, 1]
    assert abs(corr - cfg.correlation) < 0.01


def test_perfect_mode_exposes_true_channel_as_estimate():
    cfg = deterministic_benchmark()
    batch = sample_realizations(cfg, [0])
    np.testing.assert_array_equal(batch.cross_est, batch.cross_true)
    np.testing.assert_array_equal(batch.cross_true - batch.cross_est,
                                  np.zeros_like(batch.cross_true))
    # one array serves as both, and no caller can write through either name
    assert np.shares_memory(batch.cross_true, batch.cross_est)
    for array in (batch.direct_power, batch.cross_true, batch.streams):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_posterior_stats_formulas():
    cfg = imperfect_benchmark(correlation=0.5, error_var=1.0, cross_var=3.0)
    est = np.array([[0.4 + 0.3j]])
    post = posterior_stats(cfg, est)
    assert post.mean[0, 0] == pytest.approx((1 + 0.25) * (0.4 + 0.3j))
    assert post.variance == pytest.approx(0.75)
    # rho = 0 passes the estimate through untouched
    flat = posterior_stats(cfg.with_updates(correlation=0.0), est)
    assert flat.mean[0, 0] == pytest.approx(0.4 + 0.3j)
    assert flat.variance == pytest.approx(1.0)
    # rho = 1 collapses the posterior; error_var follows the shrinking bound
    sharp = posterior_stats(
        cfg.with_updates(correlation=1.0, error_var=0.5), est)
    assert sharp.variance == pytest.approx(0.0)


def test_posterior_stats_rejects_perfect_mode():
    cfg = deterministic_benchmark()
    with pytest.raises(ModeError):
        posterior_stats(cfg, np.zeros((1, 64), dtype=complex))


def _draw_one(cfg, stream):
    """One state drawn on its own: the per-state reference for the batched sampler."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.rng_seed, stream)))
    n, m, k = cfg.num_users, cfg.num_primaries, cfg.num_subcarriers
    direct = rng.exponential(cfg.direct_gain_means, size=(n, k))
    u = rng.standard_normal((2, m, k))
    v = rng.standard_normal((2, m, k))
    rho = cfg.correlation
    est = cfg.cross_mean + cfg.estimate_std * (u[0] + 1j * u[1])
    mix = rho * u + math.sqrt(1.0 - rho * rho) * v
    true = est + math.sqrt(cfg.error_var) * (mix[0] + 1j * mix[1])
    return direct, true, true if cfg.csi_mode == "perfect" else est


@pytest.mark.parametrize("cfg", [
    deterministic_benchmark(),
    deterministic_benchmark(num_users=8, num_subcarriers=256, num_primaries=2),
    imperfect_benchmark(),
    imperfect_benchmark(correlation=0.6, num_primaries=3, num_subcarriers=5),
], ids=["deterministic", "wide-m2", "imperfect", "imperfect-m3-rho"])
def test_batch_equals_independent_per_state_draws(cfg):
    streams = [9, 0, 31, 4, 2 ** 40]
    batch = sample_realizations(cfg, streams)
    for row, stream in enumerate(streams):
        for got, want in zip((batch.direct_power, batch.cross_true, batch.cross_est),
                             _draw_one(cfg, stream)):
            assert got[row].tobytes() == want.tobytes()
    # perfect CSI shares one read-only array; an imperfect batch keeps two
    assert (batch.cross_est is batch.cross_true) == (cfg.csi_mode == "perfect")
    assert not any(a.flags.writeable for a in (batch.direct_power, batch.cross_true,
                                               batch.cross_est, batch.streams))
