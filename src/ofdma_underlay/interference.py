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
per state; :func:`audit_collisions` ranks a run's states by a two-moment
fit of their collision rates and resamples the worst from the posterior,
all on one seeded draw of standardized errors (common random numbers):
the j-th loaded link of any state uses sub-stream j, so a state's rates
depend only on the seed, the sample count and its own loaded posterior.
The first term assumes the power is spread over all K subcarriers.  The cap
I / ln(1/eps) is exact for all the power on one subcarrier with a
zero-mean posterior, which collides with probability exp(-I / budget);
the water-filler builds such states whenever the interference budget
binds long before the power budget.
"""

from __future__ import annotations

import math

import numpy as np

from ._special import gammaincc
from .channel import PosteriorCrossStats, posterior_stats
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
    "audit_collisions",
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


def _audit_streams(seed: int, width: int) -> list:
    """The audit's sub-streams of ``seed``, one per loaded-link ordinal 0 .. width - 1."""
    return [np.random.default_rng(np.random.SeedSequence((int(seed), _AUDIT_TAG, j)))
            for j in range(width)]


def _shared_collisions(seed: int, samples: int, post: PosteriorCrossStats, power,
                       limits) -> np.ndarray:
    """Fraction of ``samples`` shared posterior redraws above each limit, per state.

    ``post`` holds the (S, M, K) posterior of S states' cross links and
    ``power`` their (S, K) powers.  Only loaded links (P_k > 0) count: an
    unloaded one adds exactly 0 to sum_k P_k |H_k|^2.  The j-th loaded link
    of every state and primary is redrawn as mean + std z from the standard
    complex normals z of sub-stream j (:func:`_audit_streams`), drawn in
    blocks of 4096 redraws as (M, 2, block): per primary, the real parts,
    then the imaginary parts.  So a state's rates depend only on the seed,
    the sample count and its own loaded posterior.  Expanding
    sum_j P_j |m_j + std z_j|^2 = c0 + sum_j (a_j Re z_j + b_j Im z_j
    + d_j |z_j|^2) makes each state's interference one matrix-vector
    product per primary on the first 3L rows of the block.
    Returns the (S, M) rates.
    """
    std = math.sqrt(post.variance)
    limits = np.asarray(limits, dtype=float)[:, None]
    loaded = power > 0.0
    m = limits.shape[0]
    coefs, base = [], []
    for mean, p, on in zip(post.mean, power, loaded):
        mean, p = mean[:, on], p[on]
        coef = np.empty(mean.shape + (3,))                           # (M, L, 3)
        coef[..., 0] = 2.0 * std * p * mean.real
        coef[..., 1] = 2.0 * std * p * mean.imag
        coef[..., 2] = post.variance * p
        coefs.append(coef.reshape(m, 1, -1))
        base.append((mean.real ** 2 + mean.imag ** 2) @ p)
    streams = _audit_streams(seed, int(np.max(np.sum(loaded, axis=1))))
    hits = np.zeros((len(coefs), m))
    space = np.empty((m, len(streams), 3, min(samples, 1 << 12)))
    done = 0
    while done < samples:
        block = min(samples - done, 1 << 12)
        terms = space[..., :block]
        for j, rng in enumerate(streams):
            z = rng.standard_normal((m, 2, block))
            terms[:, j, :2] = z
            z *= z
            np.add(z[:, 0], z[:, 1], out=terms[:, j, 2])
        for hit, coef, c0 in zip(hits, coefs, base):
            level = coef @ terms[:, :coef.shape[2] // 3].reshape(m, -1, block)
            level = level[:, 0] + c0[:, None]
            hit += np.count_nonzero(level > limits, axis=1)
        done += block
    return hits / samples


def _collision_analytic(post: PosteriorCrossStats, power: np.ndarray, limits):
    """Per-state, per-primary collision probability of (S, K) powers under ``post``.

    The interference given the estimate is sum_k lam_k chisq_2(delta_k)
    with lam_k = P_k * v.  A two-moment (Satterthwaite) fit matches it to
    scale * chisq_dof with mean sum lam (2 + delta) and variance
    sum 4 lam^2 (1 + delta), so only the loaded subcarriers count.  The
    fit is exact for one loaded subcarrier with a zero-mean posterior and
    approximate otherwise.
    """
    delta = xi_means(post)
    lam = power[:, None, :] * post.variance                         # (S, M, K)
    mean = np.sum(lam * (2.0 + delta), axis=2)                      # (S, M)
    var = np.sum(4.0 * lam * lam * (1.0 + delta), axis=2)
    out = np.zeros_like(mean)
    live = var > 0.0
    if np.any(live):
        mean, var = mean[live], var[live]
        scale = var / (2.0 * mean)
        dof = 2.0 * mean * mean / var
        threshold = np.broadcast_to(np.asarray(limits), out.shape)[live] / scale
        out[live] = gammaincc(dof / 2.0, threshold / 2.0)
    return out


def _worst_collisions(prob: np.ndarray, samples: int):
    """Each primary's worst (picks, M) rate, first in pick order, and the
    largest stderr at those worst states (0 for a primary no state hits)."""
    worst = prob[np.argmax(prob, axis=0), np.arange(prob.shape[1])]
    stderr = np.sqrt(np.maximum(worst * (1.0 - worst), 1.0 / samples) / samples)
    return worst, float(np.max(np.where(worst > 0.0, stderr, 0.0)))


def audit_probabilistic(power, post: PosteriorCrossStats, cfg: ScenarioConfig,
                        samples: int = 100_000, seed: int | None = None):
    """Monte Carlo exceedance probability of one state's power under the posterior.

    ``power`` is the (K,) per-subcarrier transmit power and ``post`` the
    (M, K) posterior of that state's cross links.  Redraws the true cross
    links of the loaded subcarriers ``samples`` times (an unloaded link
    adds exactly 0 to the interference, so it is not drawn), recomputes
    the received interference, and returns (prob, stderr): the (M,)
    fraction above each primary's limit and its binomial standard error.
    This is :func:`_shared_collisions` for one state: the rates depend only
    on ``seed`` (the config's ``rng_seed`` when None), ``samples`` and the
    loaded posterior, and equal :func:`audit_collisions`' for such a state.
    """
    if samples < 10_000:
        raise ValueError("need >= 1e4 samples for a usable exceedance estimate")
    power = np.asarray(power, dtype=float)
    if power.ndim != 1 or power.shape[0] != post.mean.shape[-1]:
        raise ShapeError("power must be (K,) with the posterior's num_subcarriers")
    if seed is None:
        seed = cfg.rng_seed
    one = PosteriorCrossStats(post.mean[None], post.variance)
    prob = _shared_collisions(seed, samples, one, power[None],
                              cfg.interference_limit_w)[0]
    return prob, np.sqrt(prob * (1.0 - prob) / samples)


def audit_collisions(cfg: ScenarioConfig, cross_est, power, states: int, samples: int):
    """Collision judgement of (S, K) powers given (S, M, K) cross-link estimates.

    Returns (analytic, picks, worst, stderr): the (S, M) two-moment fit, the
    ``states`` states it ranks worst, and each primary's worst rate over the
    picks with its stderr (:func:`_worst_collisions`; None and None without
    picks).  The picks share one draw of ``samples`` redraws seeded by
    ``cfg.rng_seed``, so a pick's rates equal ``audit_probabilistic`` on it.
    """
    post = posterior_stats(cfg, cross_est)                          # (S, M, K)
    analytic = _collision_analytic(post, power, cfg.interference_limit_w)
    # audit the analytically worst states; the fit ranks states, it does
    # not bound them
    picks = np.argsort(np.max(analytic, axis=1))[::-1][:states]
    if not len(picks):
        return analytic, picks, None, None
    prob = _shared_collisions(cfg.rng_seed, samples,
                              PosteriorCrossStats(post.mean[picks], post.variance),
                              power[picks], cfg.interference_limit_w)
    return (analytic, picks, *_worst_collisions(prob, samples))
