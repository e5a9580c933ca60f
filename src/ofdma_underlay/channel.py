"""Random channel generation and cross-link posterior statistics.

Direct secondary links are Rayleigh: the power gain |H_ss|^2 of user n on
subcarrier k is exponential with the mean stored in the scenario config.
Cross links toward primary receivers decompose as H_sp = Hhat + dH where
the estimate Hhat (which carries the nonzero mean) and the error dH are
correlated complex Gaussians; every variance is per real component.  A
batch keeps H_sp and Hhat; the error is their difference.

Sampling is reproducible: realization s of a scenario seeded with r is
drawn from ``default_rng(SeedSequence((r, s)))`` regardless of how many
realizations are requested or in which order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .errors import ModeError

__all__ = [
    "BatchRealizations",
    "PosteriorCrossStats",
    "sample_realizations",
    "posterior_stats",
]


@dataclass(frozen=True)
class BatchRealizations:
    """Fading states stacked along the first axis; row s is one state.

    direct_power : (S, N, K) exponential power gains of the secondary links
    cross_true   : (S, M, K) true cross-link coefficients
    cross_est    : (S, M, K) estimates available at the transmitter
    streams      : (S,) realization index of each row's RNG stream
    """

    direct_power: np.ndarray
    cross_true: np.ndarray
    cross_est: np.ndarray
    streams: np.ndarray

    def __len__(self) -> int:
        return self.direct_power.shape[0]


@dataclass(frozen=True)
class PosteriorCrossStats:
    """Cross-link distribution conditioned on the observed estimates.

    mean     : posterior means, shaped like the estimates ((M, K) or (S, M, K))
    variance : per-component posterior variance, common to all entries
    """

    mean: np.ndarray
    variance: float


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))


def _draw_state(cfg: ScenarioConfig, rng: np.random.Generator):
    n, m, k = cfg.num_users, cfg.num_primaries, cfg.num_subcarriers
    direct = rng.exponential(cfg.direct_gain_means, size=(n, k))

    # Correlated estimate/error pair: dH mixes the estimate's standard
    # normals with independent ones so that corr(Re Hhat, Re dH) = rho.
    u = rng.standard_normal((2, m, k))
    v = rng.standard_normal((2, m, k))
    rho = cfg.correlation
    d_est = cfg.estimate_std
    d_err = math.sqrt(cfg.error_var)
    est = cfg.cross_mean + d_est * (u[0] + 1j * u[1])
    mix = rho * u + math.sqrt(1.0 - rho * rho) * v
    err = d_err * (mix[0] + 1j * mix[1])
    return direct, est + err, est


def sample_realizations(cfg: ScenarioConfig, streams) -> BatchRealizations:
    """Draw a batch of realizations for the given stream indices."""
    streams = np.asarray(list(streams), dtype=np.int64)
    s = streams.size
    n, m, k = cfg.num_users, cfg.num_primaries, cfg.num_subcarriers
    direct = np.empty((s, n, k))
    true = np.empty((s, m, k), dtype=complex)
    est = np.empty((s, m, k), dtype=complex)
    for i, stream in enumerate(streams):
        direct[i], true[i], est[i] = _draw_state(cfg, _stream_rng(cfg.rng_seed, stream))
    if cfg.csi_mode == "perfect":
        est[:] = true
    return BatchRealizations(direct, true, est, streams)


def posterior_stats(cfg: ScenarioConfig, cross_est: np.ndarray) -> PosteriorCrossStats:
    """Posterior mean and variance of the true cross links given estimates.

    The conditional law of H_sp given Hhat_sp is complex Gaussian with
    mean (1 + rho^2) * Hhat_sp and per-component variance
    (1 - rho^2) * error_var.
    """
    if cfg.csi_mode != "imperfect":
        raise ModeError("posterior statistics are defined only for csi_mode=imperfect")
    mean = cfg.posterior_gain * np.asarray(cross_est)
    return PosteriorCrossStats(mean=mean, variance=cfg.posterior_var)
