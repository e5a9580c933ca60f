"""Scenario config construction, validation and the key=value schema."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdma_underlay.channel import sample_realizations
from ofdma_underlay.config import (CONSTRAINT_MODES, RATE_MODES, ScenarioConfig,
                                   apply_overrides, build_config, load_config,
                                   uniform_gain_means)
from ofdma_underlay.errors import ConfigError
from ofdma_underlay.optimizer import solve_dual
from ofdma_underlay.presets import deterministic_benchmark, get_preset, imperfect_benchmark
from ofdma_underlay.sinr import gaussian_sum_params


def test_preset_shapes_and_broadcast():
    cfg = deterministic_benchmark()
    assert cfg.direct_gain_means.shape == (3, 64)
    assert len(cfg.interference_limit_w) == cfg.num_primaries
    assert len(cfg.collision_limit) == cfg.num_primaries


def test_size_one_limits_broadcast_to_every_primary():
    cfg = deterministic_benchmark(num_primaries=3, interference_limit_w=(4.0,))
    assert cfg.interference_limit_w == (4.0, 4.0, 4.0)
    with pytest.raises(ConfigError):
        deterministic_benchmark(num_primaries=3, interference_limit_w=(1.0, 2.0))


def test_positivity_validation():
    with pytest.raises(ConfigError):
        deterministic_benchmark(total_power_w=-1.0)
    with pytest.raises(ConfigError):
        deterministic_benchmark(interference_limit_w=(0.0,))
    with pytest.raises(ConfigError):
        imperfect_benchmark(collision_limit=(1.0,))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, field", [
    ("bandwidth_hz", "bandwidth_hz"),
    ("noise_psd_dbm_hz", "noise_psd_dbm_hz"),
    ("primary_interference_w", "primary_interference_w"),
    ("cross_mean_re", "cross_mean"),
    ("cross_mean_im", "cross_mean"),
    ("cross_var", "cross_var"),
    ("error_var", "error_var"),
    ("collision_limit", "collision_limit"),
])
def test_non_finite_fields_are_rejected_by_name(key, field, value):
    raw = apply_overrides(imperfect_benchmark().to_mapping(), ["%s=%s" % (key, value)])
    with pytest.raises(ConfigError, match=field):
        build_config(raw)


@pytest.mark.parametrize("preset", [deterministic_benchmark, imperfect_benchmark])
@pytest.mark.parametrize("key, value, field", [
    ("noise_psd_dbm_hz", "4000", "noise_psd_dbm_hz"),
    ("cross_var", "1e300", "cross_var"),
    ("cross_mean_re", "1e200", "cross_mean"),
])
def test_overflowing_derived_quantities_are_rejected_by_name(preset, key, value, field):
    raw = apply_overrides(preset().to_mapping(), ["%s=%s" % (key, value)])
    with pytest.raises(ConfigError, match=field):
        build_config(raw)


@pytest.mark.parametrize("constraint_mode", CONSTRAINT_MODES)
def test_overflowing_posterior_aggregate_is_rejected(constraint_mode):
    # the true links' moments stay finite, so only the posterior term overflows
    mean, var = 2.1330449131466143e151, 1e-3
    assert all(map(math.isfinite, gaussian_sum_params(mean, var, 64)))
    with pytest.raises(ConfigError, match="gives non-finite aggregate cross-gain moments"):
        imperfect_benchmark(cross_mean=mean, cross_var=var, error_var=1e-4,
                            constraint_mode=constraint_mode)


def test_ber_target_bounds_name_the_envelope():
    # the exponential BER envelope has coefficient 0.3: targets at or
    # above it would flip the slope sign
    with pytest.raises(ConfigError, match="0.3"):
        deterministic_benchmark(ber_target=0.5)
    with pytest.raises(ConfigError):
        deterministic_benchmark(ber_target=0.0)
    deterministic_benchmark(ber_target=0.29)  # still legal


def test_mode_pairing_rules():
    with pytest.raises(ConfigError):
        deterministic_benchmark(constraint_mode="probabilistic")  # perfect CSI
    with pytest.raises(ConfigError):
        deterministic_benchmark(csi_mode="perfect", error_var=0.5)
    with pytest.raises(ConfigError):
        imperfect_benchmark(error_var=0.0)
    with pytest.raises(ConfigError):
        imperfect_benchmark(error_var=5.0, cross_var=3.0)  # error exceeds total


def test_noise_power_from_psd():
    cfg = deterministic_benchmark()
    per_hz = 10.0 ** (cfg.noise_psd_dbm_hz / 10.0) * 1e-3
    expected = per_hz * cfg.bandwidth_hz / cfg.num_subcarriers
    assert cfg.noise_power_w == pytest.approx(expected, rel=1e-12)
    # primary interference defaults to the same level, so the total doubles
    assert cfg.total_noise_w == pytest.approx(2.0 * expected, rel=1e-12)


def test_primary_interference_override():
    cfg = deterministic_benchmark(primary_interference_w=0.25)
    assert cfg.total_noise_w == pytest.approx(cfg.noise_power_w + 0.25, rel=1e-12)


def test_estimate_std_keeps_true_cross_variance():
    cfg = imperfect_benchmark()
    rho, d_err = cfg.correlation, math.sqrt(cfg.error_var)
    a = cfg.estimate_std
    total = a * a + cfg.error_var + 2.0 * rho * a * d_err
    assert total == pytest.approx(cfg.cross_var, rel=1e-12)
    assert cfg.posterior_var == pytest.approx((1 - rho ** 2) * cfg.error_var)


def test_uniform_gain_means_law():
    means = uniform_gain_means(250, 400, seed=7)
    assert means.shape == (250, 400)
    assert np.all(means > 0.0) and np.all(means <= 2.0)
    assert np.all(means >= 1e-6)
    # 1e5 draws of U(0, 2]: mean of means within 1% of 1
    assert abs(means.mean() - 1.0) < 0.01
    again = uniform_gain_means(250, 400, seed=7)
    np.testing.assert_array_equal(means, again)
    assert not np.array_equal(means, uniform_gain_means(250, 400, seed=8))


def test_with_updates_regenerates_means_at_new_shape():
    cfg = deterministic_benchmark()
    wider = cfg.with_updates(num_subcarriers=128)
    assert wider.direct_gain_means.shape == (3, 128)
    same = cfg.with_updates(total_power_w=12.0)
    np.testing.assert_array_equal(same.direct_gain_means, cfg.direct_gain_means)


def test_mapping_round_trip():
    cfg = imperfect_benchmark(total_power_w=17.5, collision_limit=(0.05,))
    rebuilt = build_config(cfg.to_mapping())
    assert rebuilt.total_power_w == cfg.total_power_w
    assert rebuilt.collision_limit == cfg.collision_limit
    assert rebuilt.cross_mean == cfg.cross_mean
    np.testing.assert_allclose(rebuilt.direct_gain_means, cfg.direct_gain_means)


def test_build_config_rejects_unknown_keys():
    base = deterministic_benchmark().to_mapping()
    base["bandwith_hz"] = 1e6  # typo must be named in the error
    with pytest.raises(ConfigError, match="bandwith_hz"):
        build_config(base)


def test_load_config_key_value_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# comment lines and blanks are ignored\n"
        "\n"
        "num_users = 2\n"
        "num_primaries = 1\n"
        "num_subcarriers = 8\n"
        "total_power_w = 4.0\n"
        "interference_limit_w = 1.5\n"
        "ber_target = 1e-3\n"
        "cross_mean_re = 0.05\n"
        "cross_mean_im = 0.0\n"
        "cross_var = 0.1\n"
        "csi_mode = perfect\n"
        "constraint_mode = deterministic\n",
        encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.num_subcarriers == 8
    assert cfg.interference_limit_w == (1.5,)
    assert cfg.cross_mean == 0.05 + 0.0j


def test_apply_overrides_parses_typed_values():
    raw = deterministic_benchmark().to_mapping()
    over = apply_overrides(raw, ["total_power_w=12", "rate_mode=discrete",
                                 "interference_limit_w=1,2",
                                 "num_primaries=2"])
    cfg = build_config(over)
    assert cfg.total_power_w == 12.0
    assert cfg.rate_mode == "discrete"
    assert cfg.interference_limit_w == (1.0, 2.0)


def test_numeric_fields_hold_their_type_so_equal_scenarios_hash_alike():
    as_int = deterministic_benchmark(total_power_w=30, rng_seed=1.0)
    as_float = deterministic_benchmark(total_power_w=30.0)
    assert type(as_int.total_power_w) is float and type(as_int.rng_seed) is int
    assert as_int.fingerprint() == as_float.fingerprint()
    assert json.dumps(as_int.to_mapping()) == json.dumps(as_float.to_mapping())
    with pytest.raises(ConfigError, match="num_subcarriers"):
        deterministic_benchmark(num_subcarriers=8.5)


def test_equality_and_hash_follow_the_resolved_mapping():
    cfg = deterministic_benchmark()
    assert cfg == deterministic_benchmark()
    assert hash(cfg) == hash(deterministic_benchmark(total_power_w=30))
    assert cfg != deterministic_benchmark(rng_seed=2)
    assert cfg != cfg.to_mapping()
    assert len({cfg, deterministic_benchmark(), imperfect_benchmark()}) == 2


def test_resizing_an_explicit_matrix_is_rejected():
    cfg = deterministic_benchmark(direct_gain_means=np.ones((3, 64)))
    assert cfg.direct_gain_policy == "explicit"
    with pytest.raises(ConfigError, match="explicit direct_gain_means"):
        cfg.with_updates(num_subcarriers=32)


def test_one_direct_gain_value_fills_the_matrix():
    cfg = build_config({"num_users": "2", "num_subcarriers": "5",
                        "direct_gain_means": "0.7"})
    assert cfg.direct_gain_policy == "explicit"
    np.testing.assert_array_equal(cfg.direct_gain_means, np.full((2, 5), 0.7))
    assert deterministic_benchmark(direct_gain_means=0.7) == \
        deterministic_benchmark(direct_gain_means=np.full((3, 64), 0.7))


@st.composite
def scenarios(draw):
    """Valid scenarios over both CSI and constraint modes, M = 1 to 3."""
    def real(lo, hi):
        return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))

    n, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    kwargs = dict(
        num_users=n, num_primaries=m, num_subcarriers=k,
        total_power_w=real(0.0, 100.0),
        interference_limit_w=tuple(real(1e-3, 50.0) for _ in range(m)),
        collision_limit=tuple(real(1e-3, 0.999) for _ in range(m)),
        ber_target=real(1e-8, 0.29), bandwidth_hz=real(1e3, 1e8),
        noise_psd_dbm_hz=real(-200.0, 0.0),
        primary_interference_w=draw(st.none() | st.floats(0.0, 1.0)),
        cross_mean=complex(real(-1.0, 1.0), real(-1.0, 1.0)),
        cross_var=real(1e-3, 5.0),
        rate_mode=draw(st.sampled_from(RATE_MODES)),
        direct_gain_seed=draw(st.integers(0, 2 ** 32)),
        rng_seed=draw(st.integers(0, 2 ** 63)))
    if draw(st.booleans()):
        kwargs.update(csi_mode="imperfect",
                      error_var=real(1e-3, 1.0) * kwargs["cross_var"],
                      correlation=real(0.0, 1.0),
                      constraint_mode=draw(st.sampled_from(CONSTRAINT_MODES)))
    if draw(st.booleans()):
        kwargs["direct_gain_means"] = np.array(
            [real(1e-3, 2.0) for _ in range(n * k)]).reshape(n, k)
    return ScenarioConfig(**kwargs)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(scenarios())
def test_key_value_view_and_mapping_rebuild_the_scenario(cfg):
    for rebuilt in (build_config(cfg.key_values()), build_config(cfg.to_mapping())):
        assert rebuilt == cfg
        assert rebuilt.fingerprint() == cfg.fingerprint()


@pytest.mark.parametrize("key", ["num_users", "num_primaries", "num_subcarriers"])
def test_zero_count_is_rejected_by_name(key):
    with pytest.raises(ConfigError, match=r"^%s must be >= 1, got 0$" % key):
        ScenarioConfig(**{key: 0})


@pytest.mark.parametrize("key", ["rng_seed", "direct_gain_seed"])
def test_negative_seed_is_rejected_by_name(key):
    with pytest.raises(ConfigError, match=r"^%s must be >= 0, got -1$" % key):
        deterministic_benchmark(**{key: -1})
    assert getattr(deterministic_benchmark(**{key: 0}), key) == 0


def test_full_correlation_cannot_be_solved_under_probabilistic_control():
    # the posterior variance (1 - rho^2) error_var is 0: no noncentrality
    cfg = imperfect_benchmark(correlation=1.0)
    assert cfg.posterior_var == 0.0
    batch = sample_realizations(cfg, range(4))
    for check in (cfg.check_solvable, lambda: solve_dual(cfg, batch)):
        with pytest.raises(ConfigError, match="^correlation = 1.0 leaves no posterior variance"):
            check()
    imperfect_benchmark(correlation=1.0, constraint_mode="deterministic").check_solvable()
    imperfect_benchmark(correlation=0.99).check_solvable()


@pytest.mark.parametrize("overrides, key", [
    ({"num_users": 0}, "num_users"),
    ({"num_primaries": 0}, "num_primaries"),
    ({"num_subcarriers": 0}, "num_subcarriers"),
    ({"bandwidth_hz": 0.0}, "bandwidth_hz"),
    ({"primary_interference_w": -1.0}, "primary_interference_w"),
    ({"rate_mode": "fractional"}, "rate_mode"),
    ({"csi_mode": "oracle"}, "csi_mode"),
    ({"constraint_mode": "strict"}, "constraint_mode"),
    ({"cross_var": 0.0}, "cross_var"),
    ({"error_var": -0.5}, "error_var"),
    ({"correlation": 1.5}, "correlation"),
    ({"correlation": -0.1}, "correlation"),
    ({"error_var": 0.05}, "error_var"),                 # perfect CSI has no error
    ({"direct_gain_means": 0.0}, "direct_gain_means"),
    ({"direct_gain_means": math.inf}, "direct_gain_means"),
])
def test_invalid_scenario_field_is_rejected_by_name(overrides, key):
    with pytest.raises(ConfigError, match=key):
        deterministic_benchmark(**overrides)


@pytest.mark.parametrize("text, overrides, match", [
    ("num_users = 2\nrate_mode\n", None, "line 2: .*'rate_mode'"),
    ("num_users = 2\nnum_users = 3\n", None, "line 2: duplicate key 'num_users'"),
    ("num_users = 2\n", ["total_power_w"], "override 'total_power_w'"),
    ("direct_gain_policy = explicit\n", None, "direct_gain_policy"),
    ("direct_gain_policy = random\n", None, "direct_gain_policy"),
], ids=["no-equals", "duplicate", "bare-override", "policy-without-matrix",
        "unknown-policy"])
def test_malformed_config_text_is_rejected_by_name(text, overrides, match, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        load_config(path, overrides)


@pytest.mark.parametrize("name", ["nonsense", "Deterministic", ""])
def test_unknown_preset_is_rejected_by_name(name):
    with pytest.raises(ConfigError, match="unknown preset %r" % name):
        get_preset(name)
