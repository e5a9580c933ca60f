"""Scenario configuration for the underlay OFDMA allocation engine.

A scenario describes one secondary transmitter serving ``num_users``
receivers over ``num_subcarriers`` exclusive subcarriers while
``num_primaries`` primary receivers impose interference limits.

Complex channel coefficients are Gaussian.  Every variance field in this
package refers to the variance of each real component, so a coefficient
with ``cross_var = 0.1`` has total complex power ``2 * 0.1`` around its
mean.  This is the convention under which the Gaussian aggregate-gain
approximation (see :mod:`ofdma_underlay.sinr`) is exact in its first two
moments.

Config files are flat UTF-8 ``key = value`` text.  Lists are comma
separated, ``#`` starts a comment, unknown keys are rejected.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

RATE_MODES = ("continuous", "discrete")
CSI_MODES = ("perfect", "imperfect")
CONSTRAINT_MODES = ("deterministic", "probabilistic")
GAIN_POLICIES = ("uniform", "explicit")

# Upper bound below which the exponential BER envelope 0.3*exp(.) can be
# inverted for a constellation size; targets at or above it are meaningless.
BER_TARGET_CEILING = 0.3


def uniform_gain_means(num_users: int, num_subcarriers: int, seed: int) -> np.ndarray:
    """Draw per-link mean direct gains uniformly on (0, 2], floored at 1e-6."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6A1D5)))
    means = rng.uniform(0.0, 2.0, size=(num_users, num_subcarriers))
    return np.maximum(means, 1e-6)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one allocation scenario.

    Power and interference quantities are in watts, bandwidth in hertz,
    noise PSD in dBm/Hz.  ``interference_limit_w`` and ``collision_limit``
    hold one entry per primary receiver.
    """

    num_users: int = 3                      # N, secondary receivers
    num_primaries: int = 1                  # M, primary receivers
    num_subcarriers: int = 64               # K
    total_power_w: float = 30.0             # average transmit power budget P_t
    interference_limit_w: tuple = (10.0,)   # instantaneous limit per primary, W
    collision_limit: tuple = (0.1,)         # tolerated exceedance prob. per primary
    ber_target: float = 1e-2                # uncoded BER ceiling for adaptive MQAM
    bandwidth_hz: float = 10e6              # system bandwidth shared by K subcarriers
    noise_psd_dbm_hz: float = -174.0        # receiver noise PSD
    primary_interference_w: float | None = None  # received primary power per subcarrier
                                            # (None: equal to thermal noise power)
    direct_gain_policy: str = "uniform"     # how direct-link mean gains are produced
    direct_gain_seed: int = 0               # seed for the uniform policy
    direct_gain_means: np.ndarray | None = None  # (N, K) mean |H|^2, explicit policy
    cross_mean: complex = 0.05 + 0.0j       # mean of the true cross-link coefficient
    cross_var: float = 0.1                  # per-component variance of the true link
    error_var: float = 0.0                  # per-component variance of the estimate error
    correlation: float = 0.0                # rho between estimate and error components
    rate_mode: str = "continuous"
    csi_mode: str = "perfect"
    constraint_mode: str = "deterministic"
    rng_seed: int = 1

    def __post_init__(self):
        if self.num_users < 1 or self.num_primaries < 1 or self.num_subcarriers < 1:
            raise ConfigError("num_users, num_primaries and num_subcarriers must be >= 1")
        if not math.isfinite(self.total_power_w) or self.total_power_w < 0.0:
            raise ConfigError("total_power_w must be finite and >= 0")
        finite = {name: getattr(self, name) for name in
                  ("bandwidth_hz", "noise_psd_dbm_hz", "cross_var", "error_var")}
        finite["cross_mean"] = complex(self.cross_mean)
        if self.primary_interference_w is not None:
            finite["primary_interference_w"] = self.primary_interference_w
        for name, value in finite.items():
            if not cmath.isfinite(value):
                raise ConfigError("%s must be finite, got %r" % (name, value))

        limits = np.atleast_1d(np.asarray(self.interference_limit_w, dtype=float))
        if limits.size == 1:
            limits = np.repeat(limits, self.num_primaries)
        if limits.size != self.num_primaries:
            raise ConfigError("interference_limit_w needs one entry per primary receiver")
        if np.any(limits <= 0.0) or not np.all(np.isfinite(limits)):
            raise ConfigError("interference limits must be positive and finite")
        object.__setattr__(self, "interference_limit_w", tuple(float(v) for v in limits))

        eps = np.atleast_1d(np.asarray(self.collision_limit, dtype=float))
        if eps.size == 1:
            eps = np.repeat(eps, self.num_primaries)
        if eps.size != self.num_primaries:
            raise ConfigError("collision_limit needs one entry per primary receiver")
        if not np.all((eps > 0.0) & (eps < 1.0)):
            raise ConfigError("collision_limit entries must lie strictly inside (0, 1)")
        object.__setattr__(self, "collision_limit", tuple(float(v) for v in eps))

        if not 0.0 < self.ber_target < BER_TARGET_CEILING:
            raise ConfigError(
                "ber_target must lie in (0, %.1f): the exponential BER envelope "
                "0.3*exp(-1.5*snr/(M-1)) cannot reach %g" % (BER_TARGET_CEILING, self.ber_target)
            )
        if self.bandwidth_hz <= 0.0:
            raise ConfigError("bandwidth_hz must be positive")
        if self.primary_interference_w is not None and self.primary_interference_w < 0.0:
            raise ConfigError("primary_interference_w must be >= 0")

        if self.rate_mode not in RATE_MODES:
            raise ConfigError("rate_mode must be one of %s" % (RATE_MODES,))
        if self.csi_mode not in CSI_MODES:
            raise ConfigError("csi_mode must be one of %s" % (CSI_MODES,))
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ConfigError("constraint_mode must be one of %s" % (CONSTRAINT_MODES,))
        if self.constraint_mode == "probabilistic" and self.csi_mode != "imperfect":
            raise ConfigError("probabilistic interference control requires csi_mode=imperfect")

        if self.cross_var <= 0.0:
            raise ConfigError("cross_var must be positive")
        if self.error_var < 0.0:
            raise ConfigError("error_var must be >= 0")
        if self.error_var > self.cross_var:
            raise ConfigError("error_var cannot exceed cross_var")
        if not 0.0 <= self.correlation <= 1.0:
            raise ConfigError("correlation must lie in [0, 1]")
        if self.csi_mode == "perfect" and self.error_var != 0.0:
            raise ConfigError("perfect CSI requires error_var = 0")
        if self.csi_mode == "imperfect" and self.error_var == 0.0:
            raise ConfigError("imperfect CSI requires error_var > 0")

        if self.direct_gain_policy not in GAIN_POLICIES:
            raise ConfigError("direct_gain_policy must be one of %s" % (GAIN_POLICIES,))
        if self.direct_gain_means is not None and self.direct_gain_policy == "uniform":
            # an explicitly passed matrix always wins over the draw policy
            object.__setattr__(self, "direct_gain_policy", "explicit")
        if self.direct_gain_policy == "uniform":
            means = uniform_gain_means(self.num_users, self.num_subcarriers,
                                       self.direct_gain_seed)
        else:
            if self.direct_gain_means is None:
                raise ConfigError("explicit direct_gain_policy needs direct_gain_means")
            means = np.asarray(self.direct_gain_means, dtype=float)
            if means.shape != (self.num_users, self.num_subcarriers):
                raise ConfigError(
                    "direct_gain_means must have shape (num_users, num_subcarriers)")
            if np.any(means <= 0.0) or not np.all(np.isfinite(means)):
                raise ConfigError("direct gain means must be positive and finite")
        means = means.copy()
        means.setflags(write=False)
        object.__setattr__(self, "direct_gain_means", means)
        object.__setattr__(self, "cross_mean", complex(self.cross_mean))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))
        object.__setattr__(self, "direct_gain_seed", int(self.direct_gain_seed))

        # finite inputs can still overflow what the closed forms derive
        try:
            noise = self.total_noise_w
        except OverflowError:                   # 10 ** (psd / 10) past the float range
            noise = math.inf
        if not math.isfinite(noise):
            raise ConfigError("noise_psd_dbm_hz = %r over bandwidth_hz = %r gives a "
                              "non-finite noise power"
                              % (self.noise_psd_dbm_hz, self.bandwidth_hz))
        # both modules import this one, so they can only load here
        from .interference import posterior_aggregate_params
        from .sinr import gaussian_sum_params
        # the estimate's moments are bounded by the true link's (estimate_var <= cross_var)
        moments = gaussian_sum_params(self.cross_mean, self.cross_var, self.num_subcarriers)
        if self.csi_mode == "imperfect":
            moments += posterior_aggregate_params(self)
        if not all(math.isfinite(v) for v in moments):
            raise ConfigError("cross_var = %r with cross_mean = %r gives non-finite "
                              "aggregate cross-gain moments" % (self.cross_var, self.cross_mean))

    # -- derived quantities -------------------------------------------------

    @property
    def noise_psd_w_hz(self) -> float:
        return 10.0 ** (self.noise_psd_dbm_hz / 10.0) * 1e-3

    @property
    def noise_power_w(self) -> float:
        """Thermal noise power in one subcarrier of width B/K."""
        return self.noise_psd_w_hz * self.bandwidth_hz / self.num_subcarriers

    @property
    def primary_power_w(self) -> float:
        """Primary-to-secondary interference power per subcarrier."""
        if self.primary_interference_w is None:
            return self.noise_power_w
        return float(self.primary_interference_w)

    @property
    def total_noise_w(self) -> float:
        """Noise-plus-primary-interference power seen by every secondary user."""
        return self.noise_power_w + self.primary_power_w

    @property
    def estimate_std(self) -> float:
        """Implied per-component std of the cross-link estimate.

        Solves var(H) = var(Hhat) + var(dH) + 2*rho*std(Hhat)*std(dH) for
        std(Hhat) given the configured total, error and correlation values.
        """
        rho = self.correlation
        d_err = math.sqrt(self.error_var)
        radicand = self.cross_var - (1.0 - rho * rho) * self.error_var
        return -rho * d_err + math.sqrt(radicand)

    @property
    def estimate_var(self) -> float:
        return self.estimate_std ** 2

    @property
    def posterior_gain(self) -> float:
        """Factor 1 + rho^2 from a cross-link estimate to its posterior mean."""
        return 1.0 + self.correlation ** 2

    @property
    def posterior_var(self) -> float:
        """Per-component variance of the cross link conditioned on its estimate."""
        return (1.0 - self.correlation ** 2) * self.error_var

    # -- serialization ------------------------------------------------------

    def with_updates(self, **updates) -> "ScenarioConfig":
        """Return a revalidated copy with the given fields replaced.

        Changing num_subcarriers or num_users under the uniform gain policy
        redraws the mean matrix from direct_gain_seed at the new shape.
        """
        if self.direct_gain_policy == "uniform":
            updates.setdefault("direct_gain_means", None)
        elif "num_subcarriers" in updates or "num_users" in updates:
            new_k = updates.get("num_subcarriers", self.num_subcarriers)
            new_n = updates.get("num_users", self.num_users)
            if (new_n, new_k) != self.direct_gain_means.shape:
                raise ConfigError("cannot resize explicit direct_gain_means; "
                                  "switch to the uniform policy")
        return dataclasses.replace(self, **updates)

    def to_mapping(self) -> dict:
        """JSON-serializable resolved view of the scenario."""
        return {
            "num_users": self.num_users,
            "num_primaries": self.num_primaries,
            "num_subcarriers": self.num_subcarriers,
            "total_power_w": self.total_power_w,
            "interference_limit_w": list(self.interference_limit_w),
            "collision_limit": list(self.collision_limit),
            "ber_target": self.ber_target,
            "bandwidth_hz": self.bandwidth_hz,
            "noise_psd_dbm_hz": self.noise_psd_dbm_hz,
            "primary_interference_w": self.primary_interference_w,
            "direct_gain_policy": self.direct_gain_policy,
            "direct_gain_seed": self.direct_gain_seed,
            "direct_gain_means": [[float(v) for v in row] for row in self.direct_gain_means],
            "cross_mean_re": self.cross_mean.real,
            "cross_mean_im": self.cross_mean.imag,
            "cross_var": self.cross_var,
            "error_var": self.error_var,
            "correlation": self.correlation,
            "rate_mode": self.rate_mode,
            "csi_mode": self.csi_mode,
            "constraint_mode": self.constraint_mode,
            "rng_seed": self.rng_seed,
        }

    def fingerprint(self) -> str:
        """Stable hash of the resolved scenario including the seed."""
        payload = json.dumps(self.to_mapping(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# -- flat key=value files ---------------------------------------------------

_SCALAR_KEYS = {
    "num_users": int,
    "num_primaries": int,
    "num_subcarriers": int,
    "total_power_w": float,
    "ber_target": float,
    "bandwidth_hz": float,
    "noise_psd_dbm_hz": float,
    "direct_gain_seed": int,
    "cross_mean_re": float,
    "cross_mean_im": float,
    "cross_var": float,
    "error_var": float,
    "correlation": float,
    "rate_mode": str,
    "csi_mode": str,
    "constraint_mode": str,
    "rng_seed": int,
}
_LIST_KEYS = {"interference_limit_w", "collision_limit"}
_SPECIAL_KEYS = {"primary_interference_w", "direct_gain_means", "direct_gain_policy"}
KNOWN_KEYS = set(_SCALAR_KEYS) | _LIST_KEYS | _SPECIAL_KEYS


def parse_config_text(text: str) -> dict:
    """Parse flat key=value text into a raw string mapping."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("line %d: expected key = value, got %r" % (lineno, line))
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        raw[key] = value.strip()
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    """Layer key=value override strings over a raw mapping."""
    merged = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError("override %r is not of the form key=value" % (item,))
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged


def _parse_float_list(key: str, value) -> tuple:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
    elif np.isscalar(value):
        parts = [value]
    else:
        parts = list(value)
    try:
        return tuple(float(part) for part in parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: %s" % (key, exc)) from None


def build_config(raw: dict) -> ScenarioConfig:
    """Turn a raw string mapping into a validated ScenarioConfig."""
    unknown = sorted(set(raw) - KNOWN_KEYS)
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))

    kwargs = {}
    for key, value in raw.items():
        if key in _SCALAR_KEYS:
            caster = _SCALAR_KEYS[key]
            try:
                kwargs[key] = caster(value)
            except ValueError:
                raise ConfigError("%s: cannot parse %r as %s"
                                  % (key, value, caster.__name__)) from None
        elif key in _LIST_KEYS:
            kwargs[key] = _parse_float_list(key, value)
        elif key == "primary_interference_w":
            kwargs[key] = None if value in (None, "auto") else float(value)

    mean_re = kwargs.pop("cross_mean_re", None)
    mean_im = kwargs.pop("cross_mean_im", None)
    if mean_re is not None or mean_im is not None:
        kwargs["cross_mean"] = complex(mean_re or 0.0, mean_im or 0.0)

    gains = raw.get("direct_gain_means", "uniform")
    policy = raw.get("direct_gain_policy")
    # a resolved mapping carries both the policy and the drawn matrix; the
    # uniform policy wins so the seed regenerates the identical matrix
    if gains is None or (isinstance(gains, str) and gains == "uniform") \
            or policy == "uniform":
        kwargs["direct_gain_policy"] = "uniform"
    else:
        values = _parse_float_list("direct_gain_means",
                                   np.asarray(gains).reshape(-1)
                                   if not isinstance(gains, str) else gains)
        n = kwargs.get("num_users", ScenarioConfig.num_users)
        k = kwargs.get("num_subcarriers", ScenarioConfig.num_subcarriers)
        if len(values) == 1:
            matrix = np.full((n, k), values[0])
        elif len(values) == n * k:
            matrix = np.asarray(values).reshape(n, k)
        else:
            raise ConfigError("direct_gain_means needs 1 or num_users*num_subcarriers "
                              "values, got %d" % len(values))
        kwargs["direct_gain_policy"] = "explicit"
        kwargs["direct_gain_means"] = matrix

    return ScenarioConfig(**kwargs)


def load_config(path, overrides=None) -> ScenarioConfig:
    """Read a flat config file, apply overrides, validate."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    raw = apply_overrides(parse_config_text(text), overrides)
    return build_config(raw)
