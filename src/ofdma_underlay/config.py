"""Scenario configuration for the underlay OFDMA allocation engine.

A scenario describes one secondary transmitter serving ``num_users``
receivers over ``num_subcarriers`` exclusive subcarriers while
``num_primaries`` primary receivers impose interference limits.

Complex channel coefficients are Gaussian.  Every variance field in this
package refers to the variance of each real component, so a coefficient
with ``cross_var = 0.1`` has total complex power ``2 * 0.1`` around its
mean.  This is the convention under which the Gaussian aggregate-gain
approximation (:func:`gaussian_sum_params`) is exact in its first two
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
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

RATE_MODES = ("continuous", "discrete")
CSI_MODES = ("perfect", "imperfect")
CONSTRAINT_MODES = ("deterministic", "probabilistic")

# Upper bound below which the exponential BER envelope 0.3*exp(.) can be
# inverted for a constellation size; targets at or above it are meaningless.
BER_TARGET_CEILING = 0.3


def uniform_gain_means(num_users: int, num_subcarriers: int, seed: int) -> np.ndarray:
    """Draw per-link mean direct gains uniformly on (0, 2], floored at 1e-6."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6A1D5)))
    means = rng.uniform(0.0, 2.0, size=(num_users, num_subcarriers))
    return np.maximum(means, 1e-6)


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


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Full description of one allocation scenario.

    Power and interference quantities are in watts, bandwidth in hertz,
    noise PSD in dBm/Hz.  ``interference_limit_w`` and ``collision_limit``
    hold one entry per primary receiver; a single value serves every
    primary.  The fields are the config keys (``cross_mean`` is written as
    ``cross_mean_re`` and ``cross_mean_im``), each typed by
    :func:`parse_value`.  Two configs are equal when their resolved
    mappings are.
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
    # "explicit" when direct_gain_means was passed, else "uniform": drawn
    # from direct_gain_seed
    direct_gain_policy: str = field(default="uniform", init=False)
    direct_gain_seed: int = 0               # seed for the uniform policy
    direct_gain_means: np.ndarray | None = None  # (N, K) mean |H|^2; one value fills it
    cross_mean: complex = 0.05 + 0.0j       # mean of the true cross-link coefficient
    cross_var: float = 0.1                  # per-component variance of the true link
    error_var: float = 0.0                  # per-component variance of the estimate error
    correlation: float = 0.0                # rho between estimate and error components
    rate_mode: str = "continuous"
    csi_mode: str = "perfect"
    constraint_mode: str = "deterministic"
    rng_seed: int = 1

    def __post_init__(self):
        for f in dataclasses.fields(self):         # the lists go through _broadcast
            if f.init and _CASTERS[f.name] is not _float_list:
                object.__setattr__(self, f.name, parse_value(f.name, getattr(self, f.name)))
        for name, low in (("num_users", 1), ("num_primaries", 1), ("num_subcarriers", 1),
                          ("rng_seed", 0), ("direct_gain_seed", 0)):   # numpy seeds are >= 0
            if getattr(self, name) < low:
                raise ConfigError("%s must be >= %d, got %d" % (name, low, getattr(self, name)))
        if not math.isfinite(self.total_power_w) or self.total_power_w < 0.0:
            raise ConfigError("total_power_w must be finite and >= 0")
        finite = {name: getattr(self, name) for name in
                  ("bandwidth_hz", "noise_psd_dbm_hz", "cross_var", "error_var",
                   "cross_mean")}
        if self.primary_interference_w is not None:
            finite["primary_interference_w"] = self.primary_interference_w
        for name, value in finite.items():
            if not cmath.isfinite(value):
                raise ConfigError("%s must be finite, got %r" % (name, value))

        limits = self._broadcast("interference_limit_w", ("num_primaries",))
        if np.any(limits <= 0.0) or not np.all(np.isfinite(limits)):
            raise ConfigError("interference limits must be positive and finite")
        eps = self._broadcast("collision_limit", ("num_primaries",))
        if not np.all((eps > 0.0) & (eps < 1.0)):
            raise ConfigError("collision_limit entries must lie strictly inside (0, 1)")
        object.__setattr__(self, "interference_limit_w", tuple(limits.tolist()))
        object.__setattr__(self, "collision_limit", tuple(eps.tolist()))

        if not 0.0 < self.ber_target < BER_TARGET_CEILING:
            raise ConfigError(
                "ber_target must lie in (0, %.1f): the exponential BER envelope "
                "0.3*exp(-1.5*snr/(M-1)) cannot reach %g" % (BER_TARGET_CEILING, self.ber_target)
            )
        if self.bandwidth_hz <= 0.0:
            raise ConfigError("bandwidth_hz must be positive")
        if self.primary_interference_w is not None and self.primary_interference_w < 0.0:
            raise ConfigError("primary_interference_w must be >= 0")

        for name, modes in (("rate_mode", RATE_MODES), ("csi_mode", CSI_MODES),
                            ("constraint_mode", CONSTRAINT_MODES)):
            if getattr(self, name) not in modes:
                raise ConfigError("%s must be one of %s" % (name, modes))
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

        if self.direct_gain_means is None:
            means = uniform_gain_means(self.num_users, self.num_subcarriers,
                                       self.direct_gain_seed)
        else:
            object.__setattr__(self, "direct_gain_policy", "explicit")
            means = self._broadcast("direct_gain_means", ("num_users", "num_subcarriers"))
            if np.any(means <= 0.0) or not np.all(np.isfinite(means)):
                raise ConfigError("direct_gain_means must be positive and finite")
        means = means.copy()
        means.setflags(write=False)
        object.__setattr__(self, "direct_gain_means", means)

        # finite inputs can still overflow what the closed forms derive
        try:
            noise = self.total_noise_w
        except OverflowError:                   # 10 ** (psd / 10) past the float range
            noise = math.inf
        if not math.isfinite(noise):
            raise ConfigError("noise_psd_dbm_hz = %r over bandwidth_hz = %r gives a "
                              "non-finite noise power"
                              % (self.noise_psd_dbm_hz, self.bandwidth_hz))
        # the estimate's moments are bounded by the true link's (estimate_var <= cross_var)
        moments = gaussian_sum_params(self.cross_mean, self.cross_var, self.num_subcarriers)
        if self.csi_mode == "imperfect":
            moments += self.posterior_aggregate
        if not all(math.isfinite(v) for v in moments):
            raise ConfigError("cross_var = %r with cross_mean = %r gives non-finite "
                              "aggregate cross-gain moments" % (self.cross_var, self.cross_mean))

    def check_solvable(self) -> None:
        """Raise ConfigError if every solve of this scenario must fail.

        Probabilistic control divides by the posterior variance
        (1 - correlation^2) error_var, which correlation = 1 makes 0.
        """
        if self.constraint_mode == "probabilistic" and self.posterior_var == 0.0:
            raise ConfigError("correlation = %r leaves no posterior variance "
                              "(1 - correlation^2) error_var for probabilistic control"
                              % self.correlation)

    def _broadcast(self, name: str, dims: tuple) -> np.ndarray:
        """Field ``name`` as a float array shaped by the ``dims`` fields; one value fills it."""
        shape = tuple(getattr(self, dim) for dim in dims)
        values = parse_value(name, getattr(self, name))
        if values.size == 1:
            return np.full(shape, values.item())
        if values.ndim == 1 and values.size == math.prod(shape):
            values = values.reshape(shape)
        if values.shape != shape:
            raise ConfigError("%s needs one value or %s = %s values, got %s"
                              % (name, " x ".join(dims), " x ".join(map(str, shape)),
                                 " x ".join(map(str, values.shape))))
        return values

    def __eq__(self, other):
        if not isinstance(other, ScenarioConfig):
            return NotImplemented
        return self.to_mapping() == other.to_mapping()

    def __hash__(self):
        return hash(self.fingerprint())

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

    @property
    def posterior_aggregate(self) -> tuple:
        """Normal moments of the posterior aggregate gain before estimates arrive.

        The posterior aggregate is an affine map of sum_k |Hhat_k|^2, so its
        law across estimate draws follows from the Gaussian sum approximation
        applied to the estimates.
        """
        mu_hat, var_hat = gaussian_sum_params(self.cross_mean, self.estimate_var,
                                              self.num_subcarriers)
        scale = self.posterior_gain ** 2
        offset = 2.0 * self.num_subcarriers * self.posterior_var
        return scale * mu_hat + offset, scale * scale * var_hat

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
        mapping = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "cross_mean":
                mapping["cross_mean_re"], mapping["cross_mean_im"] = value.real, value.imag
            elif isinstance(value, (tuple, np.ndarray)):
                mapping[f.name] = np.asarray(value).tolist()
            else:
                mapping[f.name] = value
        return mapping

    def key_values(self) -> dict:
        """The key = value text view that ``build_config`` reads back as this scenario.

        Floats print with 17 significant digits, so they round-trip; a
        uniform gain matrix prints as ``uniform``.
        """
        mapping = self.to_mapping()
        if mapping.pop("direct_gain_policy") == "uniform":
            mapping["direct_gain_means"] = "uniform"
        view = {}
        for key, value in mapping.items():
            if value is None:
                view[key] = "auto"
            elif isinstance(value, list):
                view[key] = ",".join("%.17g" % v for v in np.ravel(value))
            elif isinstance(value, float):
                view[key] = "%.17g" % value
            else:
                view[key] = str(value)
        return view

    def fingerprint(self) -> str:
        """Stable hash of the resolved scenario including the seed."""
        payload = json.dumps(self.to_mapping(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# -- flat key=value files ---------------------------------------------------

def _int(value) -> int:
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        number = float(value)
        if not number.is_integer():
            raise ValueError("not an integer") from None
        return int(number)


def _float_list(value) -> np.ndarray:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    return np.asarray(value, dtype=float)


_CASTERS = {f.name: _int if type(f.default) is int
            else _float_list if isinstance(f.default, tuple) else type(f.default)
            for f in dataclasses.fields(ScenarioConfig)}
# the two fields whose None default means "derived", and the parts of cross_mean
_CASTERS.update(primary_interference_w=float, direct_gain_means=_float_list,
                cross_mean_re=float, cross_mean_im=float)
_NONE_TEXT = {"primary_interference_w": "auto", "direct_gain_means": "uniform"}
KNOWN_KEYS = frozenset(_CASTERS) - {"cross_mean"}


def parse_value(key: str, value):
    """Type one config value the way the ScenarioConfig field it sets holds it.

    ``interference_limit_w``, ``collision_limit`` and ``direct_gain_means``
    take a float list (comma-separated text, a number or a sequence) as a
    float array.  ``primary_interference_w`` takes a float or ``auto`` and
    ``direct_gain_means`` also ``uniform``, both read as None.  Every other
    key takes its default's type (``cross_mean_re``/``_im`` a float), and
    int keys reject non-integral values.
    """
    if key in _NONE_TEXT and (value is None or isinstance(value, str)
                              and value == _NONE_TEXT[key]):
        return None
    caster = _CASTERS[key]
    try:
        return caster(value)
    except (TypeError, ValueError):
        raise ConfigError("%s: cannot parse %r as %s"
                          % (key, value, caster.__name__.strip("_"))) from None


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


def build_config(raw: dict) -> ScenarioConfig:
    """Turn a key = value mapping (text or typed values) into a validated ScenarioConfig."""
    unknown = sorted(set(raw) - KNOWN_KEYS)
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    kwargs = {key: parse_value(key, value) for key, value in raw.items()}
    if "cross_mean_re" in kwargs or "cross_mean_im" in kwargs:
        kwargs["cross_mean"] = complex(kwargs.pop("cross_mean_re", 0.0),
                                       kwargs.pop("cross_mean_im", 0.0))
    policy = kwargs.pop("direct_gain_policy", None)
    # a resolved mapping carries both the policy and the drawn matrix; the
    # uniform policy wins so the seed regenerates the identical matrix
    if policy == "uniform":
        kwargs.pop("direct_gain_means", None)
    cfg = ScenarioConfig(**kwargs)
    if policy not in (None, cfg.direct_gain_policy):
        raise ConfigError("direct_gain_policy must be explicit with direct_gain_means "
                          "given, else uniform; got %r" % (policy,))
    return cfg


def load_config(path, overrides=None) -> ScenarioConfig:
    """Read a flat config file, apply overrides, validate."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    raw = apply_overrides(parse_config_text(text), overrides)
    return build_config(raw)
