"""Distribution of the reference SINR of a secondary link.

The transmitter's reference power on any subcarrier is

    P_ref = min(P_t / K, I / N)

where I is the instantaneous interference budget of the relevant primary
receiver and N = sum_k |H_sp[k]|^2 aggregates the cross-link power gains
across the band.  The reference SINR of user n on subcarrier k is

    gamma = |H_ss[n, k]|^2 * P_ref / (noise + primary interference).

|H_ss|^2 is exponential.  N is a sum of squares of 2K real Gaussian
components, so its exact law is the scaled noncentral chi-square
var * chi'^2_{2K}(mu'); the Monte Carlo reference draws that law.  For
the closed forms N is approximated by a Normal matched to its exact
first two moments,

    mu_N  = var * (2K + mu'),   var_N = var^2 * (4K + 4 mu'),
    mu'   = sum_k |mean_k|^2 / var,

where ``var`` is the per-component variance of the complex coefficients.
The Normal is truncated at zero and renormalized.  Conditioning on N and
integrating the exponential direct gain gives the cdf

    F(G) = 1 - A(G) - B(G)
    A(G) = exp(-a G) * P(N <= c),        a = K sigma^2 / (P_t mu_X)
    B(G) = int_c^inf exp(-b G N) f_N(N) dN,  b = sigma^2 / (I mu_X)

with c = I K / P_t the point where the power cap switches from the total
power to the interference budget.  Completing the square gives B(G) =
exp(g0) Q(h) / Z, g0 = -b G mu_N + (b G std_N)^2 / 2, h = (c - mu_N +
b G var_N) / std_N, Z the truncation mass.  Both branches of Q(h) take one
evaluation of the scaled complementary error function erfcx(z) =
exp(z^2) erfc(z) at z = |h| / sqrt(2), by the numpy kernel in ``_special``
after W. J. Cody, "Rational Chebyshev approximations for the error
function", Math. Comp. 23 (1969): exp(g0) Q(h) = exp(g0 - h^2/2) erfcx(z) / 2
stays finite where Q underflows (h >= 0), and Q(h) = 1 - exp(-z^2) erfcx(z) / 2
for h < 0.  The pdf is the exact derivative of F.  The direct-gain
mean may be an array, so one law serves every link of one primary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _special
from .config import ScenarioConfig
from .errors import ShapeError

__all__ = [
    "SinrDistribution",
    "gaussian_sum_params",
    "sinr_distribution",
    "sample_sinr_mc",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_Q_IS_ONE = 6.0     # z beyond which 1 - exp(-z^2) erfcx(z) / 2 rounds to 1.0
_MC_TAG = 0x51E2  # namespaces the Monte Carlo stream away from realization streams


def gaussian_sum_params(mean: complex, per_comp_var: float, count: int):
    """Normal approximation of sum_k |H_k|^2 over ``count`` iid coefficients.

    ``mean`` is the common complex mean and ``per_comp_var`` the variance of
    each real component.  Returns (mu_N, var_N), the exact mean and variance
    of the sum.
    """
    if per_comp_var < 0.0:
        raise ValueError("per-component variance must be >= 0")
    # products, not ** 2: a huge input overflows to inf instead of raising
    mean_power = abs(mean) * abs(mean)
    if per_comp_var == 0.0:
        return mean_power * count, 0.0
    noncentrality = count * mean_power / per_comp_var
    mu = per_comp_var * (2.0 * count + noncentrality)
    var = per_comp_var * per_comp_var * (4.0 * count + 4.0 * noncentrality)
    return mu, var


@dataclass(frozen=True)
class SinrDistribution:
    """Closed-form reference-SINR law for (user, subcarrier) links of one primary.

    direct_mean     : mean(s) of the exponential direct power gain (array: links)
    agg_mean/agg_var: Normal moments of the aggregate cross gain
    budget_w        : instantaneous interference budget entering P_ref
    total_power_w   : transmit power budget P_t
    noise_w         : noise-plus-primary-interference power
    num_subcarriers : K
    """

    direct_mean: float | np.ndarray
    agg_mean: float
    agg_var: float
    budget_w: float
    total_power_w: float
    noise_w: float
    num_subcarriers: int

    def __post_init__(self):
        if min(np.min(self.direct_mean), self.budget_w, self.total_power_w,
               self.noise_w) <= 0.0:
            raise ValueError("direct_mean, budget_w, total_power_w, noise_w must be > 0")
        # a zero mean is a zero cross gain, a point mass at 0
        if self.agg_mean < 0.0 or self.agg_var < 0.0 or (self.agg_mean == 0.0 < self.agg_var):
            raise ValueError("aggregate moments must satisfy mean >= 0, var >= 0, "
                             "and var = 0 at mean 0")

    # -- shared internals ---------------------------------------------------

    @property
    def _a(self):
        return self.num_subcarriers * self.noise_w / (self.total_power_w * self.direct_mean)

    @property
    def _b(self):
        return self.noise_w / (self.budget_w * self.direct_mean)

    @property
    def _cap_switch(self) -> float:
        # aggregate gain above which the interference budget caps P_ref
        return self.budget_w * self.num_subcarriers / self.total_power_w

    @property
    def _agg_std(self) -> float:
        return math.sqrt(self.agg_var)

    @property
    def _degenerate(self) -> bool:
        return self._agg_std <= 1e-12 * self.agg_mean

    @property
    def ref_power_w(self) -> float:
        """P_ref = min(P_t / K, I / N) at the mean aggregate cross gain N."""
        if self.agg_mean == 0.0:                # no cross gain: the budget never caps
            return self.total_power_w / self.num_subcarriers
        return min(self.total_power_w / self.num_subcarriers,
                   self.budget_w / self.agg_mean)

    @property
    def _point_rate(self):
        # point-mass aggregate: the SINR is exponential with a fixed cap
        return self.noise_w / (self.ref_power_w * self.direct_mean)

    @property
    def _trunc_norm(self) -> float:
        # mass of the fitted Normal above zero (renormalization constant)
        return _special.ndtr(self.agg_mean / self._agg_std)

    def _below_switch(self) -> float:
        """P(N <= c) under the zero-truncated Normal."""
        std = self._agg_std
        lo = _special.ndtr(-self.agg_mean / std)
        hi = _special.ndtr((self._cap_switch - self.agg_mean) / std)
        return (hi - lo) / self._trunc_norm

    def _branches(self, gamma):
        """exp(-a G), the boundary factor exp(g0 - h^2/2), exp(g0) Q(h) and b G var_N.

        Each result is built in place and each temporary dropped once spent,
        so few arrays of gamma's size are alive at once.
        """
        mu, var = self.agg_mean, self.agg_var
        std = self._agg_std
        c = self._cap_switch
        bg_var = self._b * gamma
        bg_var *= var
        h = c - mu + bg_var
        h /= std
        # exp(g0 - h^2/2) collapses to a bounded expression:
        e_boundary = np.exp(-0.5 * ((c - mu) / std) ** 2 - self._a * gamma)
        if not h.size or np.min(h) >= 0.0:     # no h < 0 (a NaN takes the masks)
            h /= _SQRT2
            eg_q = _special.erfcx(h)
            eg_q *= 0.5 * e_boundary
            return np.exp(-(self._a * gamma)), e_boundary, eg_q, bg_var
        neg = h < 0.0
        z = np.abs(h)
        z /= _SQRT2
        del h
        # bg * var < mu - c where h < 0, so g0 = -bg mu + (bg std)^2 / 2 is
        # finite there; eg_q is an array even for a scalar gamma
        eg_q = np.where(neg, self._b * gamma, 0.0)
        half_sq = eg_q * std
        half_sq *= half_sq
        half_sq *= 0.5
        eg_q *= -mu
        eg_q += half_sq
        del half_sq
        np.exp(np.minimum(eg_q, 0.0, out=eg_q), out=eg_q)
        # times Q(h) = 1 - erfc(z) / 2, erfc(z) = exp(-z^2) erfcx(z); from
        # z = 6 on, exp(-z^2) erfcx(z) / 2 < 2^-54 and Q(h) rounds to exactly 1
        near = neg & (z < _Q_IS_ONE)
        zn = z[near]
        q = _special.erfcx(zn)
        q *= 0.5 * np.exp(-zn * zn)
        eg_q[near] *= np.subtract(1.0, q, out=q)
        pos = ~neg
        ex = _special.erfcx(z[pos])
        ex *= 0.5 * e_boundary[pos]
        eg_q[pos] = ex
        return np.exp(-(self._a * gamma)), e_boundary, eg_q, bg_var

    @staticmethod
    def _thresholds(gamma):
        gamma = np.asarray(gamma, dtype=float)
        if gamma.size and np.min(gamma) < 0.0:
            raise ValueError("SINR values must be >= 0")
        return gamma

    # -- public evaluators ----------------------------------------------------

    def survival(self, gamma):
        """P(reference SINR > gamma) = A(G) + B(G)."""
        gamma = self._thresholds(gamma)
        if self._degenerate:
            out = np.exp(-self._point_rate * gamma)
        else:
            e_a, _, eg_q, _ = self._branches(gamma)
            out = e_a * self._below_switch() + eg_q / self._trunc_norm
        return out if out.ndim else float(out)

    def cdf(self, gamma):
        result = 1.0 - np.asarray(self.survival(gamma))
        return result if result.ndim else float(result)

    def pdf(self, gamma):
        """Density of the reference SINR (exact derivative of the cdf)."""
        gamma = self._thresholds(gamma)
        if self._degenerate:
            scale = self._point_rate
            dens = scale * np.exp(-scale * gamma)
            return dens if dens.ndim else float(dens)

        b = self._b
        # derivatives of the power-capped (term1) and interference-capped
        # (term2, term3) branches, built in place on _branches' arrays;
        # term3 starts as b G var_N
        term1, term2, eg_q, term3 = self._branches(gamma)
        term1 *= self._a
        term1 *= self._below_switch()
        term2 *= b * self._agg_std
        term2 /= _SQRT2PI
        term3 = self.agg_mean - term3
        term3 *= b
        with np.errstate(invalid="ignore"):     # inf * 0 at gamma = inf
            term3 *= eg_q
        term2 += term3
        term2 /= self._trunc_norm
        dens = term1
        dens += term2
        low = float(np.min(dens)) if dens.size else 0.0
        if low < -1e-9:
            raise ValueError("pdf assembled a negative density %g; "
                             "closed form inconsistent" % low)
        dens = np.fmax(dens, 0.0)               # fmax also takes that NaN to 0
        return dens if dens.ndim else float(dens)


def _check_link(cfg: ScenarioConfig, n: int, k: int, m: int) -> None:
    """Raise ShapeError naming the first of (n, k, m) outside its range."""
    for name, index, size in (("user", n, cfg.num_users),
                              ("subcarrier", k, cfg.num_subcarriers),
                              ("primary", m, cfg.num_primaries)):
        if not 0 <= index < size:
            raise ShapeError("%s %d outside 0..%d" % (name, index, size - 1))


def sinr_distribution(cfg: ScenarioConfig, n: int, k: int, m: int) -> SinrDistribution:
    """Closed-form reference-SINR law of link (n, k) at primary m's limit.

    The aggregate cross gain follows the true links' prior: the solver plans
    with this law only under perfect CSI with deterministic control.
    """
    _check_link(cfg, n, k, m)
    agg_mean, agg_var = gaussian_sum_params(cfg.cross_mean, cfg.cross_var,
                                            cfg.num_subcarriers)
    return SinrDistribution(
        direct_mean=float(cfg.direct_gain_means[n, k]),
        agg_mean=agg_mean,
        agg_var=agg_var,
        budget_w=cfg.interference_limit_w[m],
        total_power_w=cfg.total_power_w,
        noise_w=cfg.total_noise_w,
        num_subcarriers=cfg.num_subcarriers,
    )


def sample_sinr_mc(cfg: ScenarioConfig, n: int, k: int, m: int, count: int) -> np.ndarray:
    """Sorted Monte Carlo draws of the reference SINR.

    Draws the direct gain of (n, k) and then the aggregate cross gain
    toward primary m from its exact scaled noncentral chi-square law, not
    from the Normal fit the closed form uses; a given (cfg, n, k, m, count)
    is bit-reproducible.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_link(cfg, n, k, m)
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg.rng_seed, _MC_TAG, n, k, m)))
    kk = cfg.num_subcarriers
    out = rng.exponential(float(cfg.direct_gain_means[n, k]), size=count)
    # the aggregate cross gain, turned into P_ref in place
    p_ref = rng.noncentral_chisquare(
        2 * kk, kk * abs(cfg.cross_mean) ** 2 / cfg.cross_var, size=count)
    p_ref *= cfg.cross_var
    np.divide(cfg.interference_limit_w[m], p_ref, out=p_ref)
    np.minimum(cfg.total_power_w / kk, p_ref, out=p_ref)
    out *= p_ref
    out /= cfg.total_noise_w
    out.sort()
    return out
