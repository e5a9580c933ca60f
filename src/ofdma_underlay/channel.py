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

    ``sample_realizations`` returns read-only arrays; under perfect CSI
    ``cross_true`` and ``cross_est`` are one array.

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


def sample_realizations(cfg: ScenarioConfig, streams) -> BatchRealizations:
    """Draw a batch of realizations for the given stream indices.

    Each stream draws, in order, the (N, K) standard exponentials of the
    direct gains and two (2, M, K) blocks of standard normals: u for the
    estimate's real and imaginary parts, and v, which mixes with u into the
    error so that corr(Re Hhat, Re dH) = rho.  Under perfect CSI the error
    is sqrt(error_var) = 0 times the mix, so a stream stops after u and
    ``cross_true`` is the estimate array itself.  The scaling runs once per
    batch, and the returned arrays are read-only.
    """
    streams = np.asarray(list(streams), dtype=np.int64)
    n, m, k = cfg.num_users, cfg.num_primaries, cfg.num_subcarriers
    perfect = cfg.csi_mode == "perfect"
    direct = np.empty((streams.size, n, k))
    est = np.empty((streams.size, m, k), dtype=complex)
    # (state, u|v, re|im, M, K)
    normals = np.empty((streams.size, 1 if perfect else 2, 2, m, k))
    for i, stream in enumerate(streams):
        rng = _stream_rng(cfg.rng_seed, stream)
        rng.standard_exponential(out=direct[i])
        rng.standard_normal(out=normals[i])
    direct *= cfg.direct_gain_means
    # in place, the same products as cross_mean + std (re + 1j im)
    u = normals[:, 0]
    np.add(u[:, 0], np.multiply(1j, u[:, 1], out=est), out=est)
    np.add(cfg.cross_mean, np.multiply(cfg.estimate_std, est, out=est), out=est)
    if perfect:
        return _read_only(direct, est, est, streams)
    mix = normals[:, 1]
    rho = cfg.correlation
    mix *= math.sqrt(1.0 - rho * rho)           # mix = rho u + sqrt(1 - rho^2) v
    u *= rho
    mix += u
    true = np.empty_like(est)
    np.add(mix[:, 0], np.multiply(1j, mix[:, 1], out=true), out=true)
    np.add(est, np.multiply(math.sqrt(cfg.error_var), true, out=true), out=true)
    return _read_only(direct, true, est, streams)


def _read_only(*arrays) -> BatchRealizations:
    for array in arrays:
        array.setflags(write=False)
    return BatchRealizations(*arrays)


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
