"""Interference accounting at the primary receivers.

Deterministic mode checks the realized aggregate
``sum_{n,k} phi P |H_sp|^2`` against each primary's limit.  Probabilistic
mode works with the posterior of the cross links given their estimates:
normalizing each coefficient by the posterior std gives unit-variance
noncentral terms |Xi_k|^2 with noncentrality ``mu_xi = |mean|^2 / var``,
so the received interference is a positively weighted sum of noncentral
chi-squares.  That sum is approximated by a single scaled noncentral
chi-square via first-moment matching of the weights, its tail by a
central chi-square with a stretched threshold, and the chance constraint
``P(interference > I) <= eps`` is replaced by the linear surrogate

    sum_k alpha_k * P_k <= min(K I / ((K!)^(1/K) |ln(1 - (1-eps)^(1/K))|),
                               I / ln(1/eps))

with certainty-equivalent weights alpha_k = var * (2 + mu_xi_k).  The
right-hand side, the collision budget, is what the allocator enforces
per state; Monte Carlo resampling from the posterior validates it.  The
first term assumes the power is spread over all K subcarriers.  The cap
I / ln(1/eps) is exact for all the power on one subcarrier with a
zero-mean posterior, which collides with probability exp(-I / budget);
the water-filler builds such states whenever the interference budget
binds long before the power budget.
"""

from __future__ import annotations

import math

import numpy as np

from ._special import gammaincc
from .channel import PosteriorCrossStats
from .config import ScenarioConfig
from .errors import ShapeError
from .sinr import gaussian_sum_params

__all__ = [
    "audit_deterministic",
    "xi_means",
    "alpha_weights",
    "posterior_aggregate_params",
    "composite_chisq",
    "central_tail_approx",
    "surrogate_budget",
    "enforced_budgets",
    "audit_probabilistic",
]

_AUDIT_TAG = 0xA0D17


def audit_deterministic(power, cross) -> np.ndarray:
    """Realized interference sum_k P_k |H_mk|^2 at every primary receiver.

    ``power`` is the per-subcarrier transmit power (..., K) and ``cross``
    the cross-link coefficients (..., M, K) with matching leading axes;
    returns the (..., M) interference in watts.
    """
    power = np.asarray(power, dtype=float)
    cross = np.asarray(cross)
    if cross.ndim < 2 or power.shape[-1] != cross.shape[-1]:
        raise ShapeError("power and cross links disagree on num_subcarriers")
    gains = cross.real ** 2 + cross.imag ** 2
    return np.einsum("...k,...mk->...m", power, gains)


def xi_means(post: PosteriorCrossStats) -> np.ndarray:
    """Noncentralities |posterior mean|^2 / posterior variance, shaped like the mean."""
    if post.variance <= 0.0:
        raise ValueError("posterior variance is zero: noncentrality undefined")
    mean = post.mean
    return (mean.real ** 2 + mean.imag ** 2) / post.variance


def alpha_weights(post: PosteriorCrossStats) -> np.ndarray:
    """Certainty-equivalent interference weights var*(2 + mu_xi), like xi_means."""
    return post.variance * (2.0 + xi_means(post))


def posterior_aggregate_params(cfg: ScenarioConfig):
    """Normal moments of the posterior aggregate gain before estimates arrive.

    The posterior aggregate is an affine map of sum_k |Hhat_k|^2, so its
    law across estimate draws follows from the Gaussian sum approximation
    applied to the estimates.
    """
    mu_hat, var_hat = gaussian_sum_params(cfg.cross_mean, cfg.estimate_var,
                                          cfg.num_subcarriers)
    scale = cfg.posterior_gain ** 2
    offset = 2.0 * cfg.num_subcarriers * cfg.posterior_var
    return scale * mu_hat + offset, scale * scale * var_hat


def composite_chisq(beta, mu_xi):
    """Single-chi-square surrogate for sum_k beta_k |Xi_k|^2.

    Returns (delta, dof, weight): noncentrality, degrees of freedom and
    the common weight matching the first moment of the weighted sum.
    """
    beta = np.asarray(beta, dtype=float)
    mu_xi = np.asarray(mu_xi, dtype=float)
    if beta.shape != mu_xi.shape or beta.ndim != 1:
        raise ShapeError("beta and mu_xi must be 1-d arrays of equal length")
    if np.any(beta < 0.0) or np.any(mu_xi < 0.0):
        raise ValueError("beta and mu_xi must be >= 0")
    k = beta.size
    delta = float(np.sum(mu_xi))
    dof = 2 * k
    weight = float(np.sum(beta * (2.0 + mu_xi)) / (dof + delta))
    return delta, dof, weight


def central_tail_approx(i_th: float, weight: float, delta: float, dof: int) -> float:
    """P(weight * chisq_dof(delta) > i_th), central approximation.

    Scales the threshold by the mean inflation 1 + delta/dof and evaluates
    the central chi-square tail through the regularized upper incomplete
    gamma function.
    """
    if i_th <= 0.0:
        raise ValueError("threshold must be positive")
    if delta < 0.0 or dof < 1:
        raise ValueError("delta must be >= 0 and dof >= 1")
    if weight <= 0.0:
        raise ValueError("weight must be positive")
    threshold = (i_th / weight) / (1.0 + delta / dof)
    return float(gammaincc(dof / 2.0, threshold / 2.0))


def surrogate_budget(i_th: float, eps: float, k: int) -> float:
    """Deterministic budget whose satisfaction keeps exceedance below eps.

    Computed as the smaller of K * i_th / ((K!)^(1/K) * |ln(1 - (1-eps)^(1/K))|)
    and i_th / ln(1/eps).  The first term assumes the power is spread over
    all K subcarriers; its log argument is evaluated through expm1/log1p so
    small eps at large K does not lose precision.  The second is the budget
    at which one loaded subcarrier with a zero-mean posterior collides with
    probability exactly eps; the first term equals it at K = 1, and at
    K = 64 the cap binds for eps below about 0.075.  Known gap: the cap is
    exact only for a zero-mean posterior.  For eps above e^-2 (about
    0.135), where the cap binds only for K <= 16 and always at K = 1, one
    loaded subcarrier with a nonzero posterior mean can exceed eps: by at
    most about 0.1 percent relative at K = 8, 1 percent at K = 2, and
    by far more at K = 1 once eps and the mean grow (a rate of 0.87
    against eps = 0.5 at noncentrality 50).
    """
    if i_th <= 0.0:
        raise ValueError("interference limit must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("exceedance probability must lie in (0, 1)")
    if k < 1:
        raise ValueError("need at least one subcarrier")
    fact_root = math.exp(math.lgamma(k + 1.0) / k)
    tail = -math.expm1(math.log1p(-eps) / k)       # 1 - (1-eps)^(1/K)
    spread = k * i_th / (fact_root * abs(math.log(tail)))
    return min(spread, i_th / -math.log(eps))


def enforced_budgets(cfg: ScenarioConfig) -> np.ndarray:
    """Per-state budget at each primary: its limit, or that limit's collision surrogate."""
    if cfg.constraint_mode != "probabilistic":
        return np.asarray(cfg.interference_limit_w, dtype=float)
    return np.array([surrogate_budget(i_th, eps, cfg.num_subcarriers)
                     for i_th, eps in zip(cfg.interference_limit_w, cfg.collision_limit)])


def _posterior_gains(rng, mean, variance: float, samples: int):
    """Yield ``samples`` posterior redraws of |H|^2 on the (M, L) links of ``mean``.

    Draws in blocks of 4096 redraws: a block's real parts, then its
    imaginary parts.  Every audit stream follows this layout, so one
    seeded generator and equal inputs give the same (block, M, L) gains.
    The arithmetic runs in place on the drawn normals, in the order of
    mean + std * z and re^2 + im^2, so it rounds alike.
    """
    std = math.sqrt(variance)
    done = 0
    while done < samples:
        block = min(samples - done, 1 << 12)
        re = rng.standard_normal((block,) + mean.shape)
        re *= std
        re += mean.real
        im = rng.standard_normal((block,) + mean.shape)
        im *= std
        im += mean.imag
        re *= re
        im *= im
        re += im
        yield re
        done += block


def _hit_rates(gains, powers, limits, samples: int) -> np.ndarray:
    """Fraction of the ``samples`` redraws in ``gains`` whose interference tops each limit.

    ``powers`` and ``limits`` hold one (L,) power and its (M,) limits per
    member; every member is applied to each block of the one draw.
    Returns the (members, M) rates.
    """
    hits = np.zeros((len(powers), len(limits[0])))
    for gain in gains:
        for hit, power, limit in zip(hits, powers, limits):
            hit += np.sum(gain @ power > limit, axis=0)
    return hits / samples


def _posterior_collisions(rng, post: PosteriorCrossStats, power, limits, samples: int):
    """Fraction of posterior redraws of the (M, K) cross links above each limit.

    ``_posterior_gains`` redraws only the loaded links (P_k > 0): an
    unloaded link adds exactly 0 to sum_k P_k |H_k|^2, so leaving it out
    changes no hit.  ``_hit_rates`` then counts the hits.
    """
    loaded = power > 0.0
    gains = _posterior_gains(rng, post.mean[:, loaded], post.variance, samples)
    return _hit_rates(gains, [power[loaded]], [limits], samples)[0]


def audit_probabilistic(power, post: PosteriorCrossStats, cfg: ScenarioConfig,
                        samples: int = 100_000, seed: int | None = None):
    """Monte Carlo exceedance probability of one state's power under the posterior.

    ``power`` is the (K,) per-subcarrier transmit power and ``post`` the
    (M, K) posterior of that state's cross links.  Redraws the true cross
    links of the loaded subcarriers ``samples`` times (an unloaded link
    adds exactly 0 to the interference, so it is not drawn), recomputes
    the received interference, and returns (prob, stderr): the (M,)
    fraction above each primary's limit and its binomial standard error.
    """
    if samples < 10_000:
        raise ValueError("need >= 1e4 samples for a usable exceedance estimate")
    power = np.asarray(power, dtype=float)
    if power.ndim != 1 or power.shape[0] != post.mean.shape[-1]:
        raise ShapeError("power must be (K,) with the posterior's num_subcarriers")
    if seed is None:
        seed = cfg.rng_seed
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _AUDIT_TAG)))
    limits = np.asarray(cfg.interference_limit_w)
    prob = _posterior_collisions(rng, post, power, limits, samples)
    return prob, np.sqrt(prob * (1.0 - prob) / samples)
