"""Experiment reports, sweeps and artifact serialization."""

import json
import logging
import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import ofdma_underlay.harness as harness_module
import ofdma_underlay.interference as interference_module
from ofdma_underlay.channel import posterior_stats, sample_realizations
from ofdma_underlay.config import build_config
from ofdma_underlay.errors import ConfigError, ShapeError
from ofdma_underlay.harness import (
    SWEEP_AXES,
    SWEEP_HEADER,
    TRACE_HEADER,
    format_float,
    plateau_flags,
    run_experiment,
    sweep,
    sweep_csv_rows,
    write_sweep_csv,
    write_sweep_json,
    write_trace_csv,
)
from ofdma_underlay.interference import (_collision_analytic, _worst_collisions,
                                         audit_collisions, audit_deterministic,
                                         audit_probabilistic, surrogate_budget)
from ofdma_underlay.optimizer import solve_dual
from ofdma_underlay.presets import deterministic_benchmark, imperfect_benchmark


def _cfg(**overrides):
    base = dict(num_users=2, num_primaries=1, num_subcarriers=8,
                total_power_w=8.0, interference_limit_w="2.0",
                ber_target=1e-3, bandwidth_hz=1e6, noise_psd_dbm_hz=-90.0,
                primary_interference_w=0.0, cross_mean_re=0.3, cross_var=0.2,
                csi_mode="perfect", constraint_mode="deterministic", rng_seed=5)
    base.update(overrides)
    return build_config(base)


def _small_imperfect(**overrides):
    cfg = imperfect_benchmark()
    return cfg.with_updates(**overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# run_experiment


def test_zero_power_budget_yields_empty_report():
    report = run_experiment(_cfg(total_power_w=0.0), 50)
    assert report.ase == 0.0 and report.ase_stderr == 0.0
    assert report.avg_power_w == 0.0 and report.power_gap_w == 0.0
    assert report.converged and report.iterations == 0
    assert report.budgets_w == [2.0]
    assert report.true_violation_rate == [0.0]
    assert report.collision_analytic_max is None


def test_zero_power_probabilistic_budget_is_surrogate():
    cfg = _small_imperfect(total_power_w=0.0)
    report = run_experiment(cfg, 50)
    expected = surrogate_budget(cfg.interference_limit_w[0],
                                cfg.collision_limit[0], cfg.num_subcarriers)
    assert report.budgets_w[0] == pytest.approx(expected, rel=1e-12)
    assert report.collision_analytic_max == [0.0]


def test_audit_arguments_rejected_with_config_error():
    cfg = _small_imperfect(num_subcarriers=8)
    for kwargs in ({"audit_samples": 0}, {"audit_samples": -5},
                   {"audit_states": -1}):
        with pytest.raises(ConfigError, match="audit"):
            run_experiment(cfg, 20, **kwargs)


def test_experiment_is_deterministic():
    cfg = _cfg()
    first = run_experiment(cfg, 120)
    second = run_experiment(cfg, 120)
    assert first.to_mapping() == second.to_mapping()
    assert first.fingerprint == cfg.fingerprint()


def test_report_summarizes_solved_batch():
    cfg = _cfg()
    report = run_experiment(cfg, 150)
    result = report.result
    assert report.ase == result.ase and report.ase >= 0.0
    assert report.avg_power_w <= cfg.total_power_w * (1.0 + 1e-3)
    assert report.power_gap_w == pytest.approx(
        result.avg_power_w - cfg.total_power_w)
    assert report.mu == result.dual.mu and report.converged

    # the true-gain audit columns are the deterministic audit of the batch
    batch = sample_realizations(cfg, range(150))
    interf = audit_deterministic(result.policies.power, batch.cross_true)
    assert report.true_interference_mean[0] == float(interf[:, 0].mean())
    assert report.true_interference_max[0] == float(interf[:, 0].max())
    assert 0.0 <= report.true_violation_rate[0] <= 1.0
    assert report.enforced_interference_max[0] <= report.budgets_w[0] * (1.0 + 1e-6)
    # perfect CSI, deterministic constraint: the enforced gains are the true ones
    assert report.true_violation_rate == [0.0]


@pytest.mark.parametrize("cfg", [_cfg(), _small_imperfect(num_subcarriers=16)],
                         ids=["deterministic", "probabilistic"])
def test_given_draw_equals_own_draw(cfg):
    given = run_experiment(cfg, 40, realizations=sample_realizations(cfg, range(40)),
                           audit_states=2, audit_samples=1000)
    own = run_experiment(cfg, 40, audit_states=2, audit_samples=1000)
    assert json.dumps(given.to_mapping()) == json.dumps(own.to_mapping())
    assert given.result.policies.power.tobytes() == own.result.policies.power.tobytes()


def test_given_draw_must_hold_num_states():
    cfg = _cfg()
    batch = sample_realizations(cfg, range(30))
    with pytest.raises(ConfigError, match=r"\b30\b.*\b10\b"):
        run_experiment(cfg, 10, realizations=batch)


_DET8 = deterministic_benchmark(num_subcarriers=8)


@pytest.mark.parametrize("cfg, drawn, error, message", [
    (_DET8, _DET8.with_updates(num_subcarriers=16), ShapeError,
     r"^batch direct_power has shape \(5, 3, 16\), not \(5, 3, 8\) for the "
     r"scenario's \(N, M, K\) = \(3, 1, 8\)$"),
    (_DET8, _DET8.with_updates(num_users=4), ShapeError,
     r"^batch direct_power has shape \(5, 4, 8\), not \(5, 3, 8\)"),
    (_DET8, _DET8.with_updates(num_primaries=2), ShapeError,
     r"^batch cross_true has shape \(5, 2, 8\), not \(5, 1, 8\)"),
    (imperfect_benchmark(num_subcarriers=16), deterministic_benchmark(num_subcarriers=16),
     ConfigError, "^the batch holds perfect-CSI cross links, but csi_mode is imperfect$"),
    (deterministic_benchmark(num_subcarriers=16), imperfect_benchmark(num_subcarriers=16),
     ConfigError, "^the batch holds imperfect-CSI cross links, but csi_mode is perfect$"),
], ids=["K", "N", "M", "perfect-batch", "imperfect-batch"])
@pytest.mark.parametrize("entry", ["solve_dual", "run_experiment"])
def test_batch_of_another_scenario_is_refused(cfg, drawn, error, message, entry):
    batch = sample_realizations(drawn, range(5))
    with pytest.raises(error, match=message):
        if entry == "solve_dual":
            solve_dual(cfg, batch)
        else:
            run_experiment(cfg, 5, realizations=batch)


def test_experiment_arguments_are_named_with_their_values():
    cfg = _cfg()
    for kwargs, message in (
            ({"num_states": 0}, "num_states must be >= 1, got 0"),
            ({"iterations": 0}, "iterations must be >= 1, got 0"),
            ({"audit_states": -1}, "audit_states must be >= 0, got -1"),
            ({"audit_samples": 0}, "audit_samples must be >= 1, got 0")):
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg, **{"num_states": 10, **kwargs})
        assert str(info.value) == message


def test_zero_power_report_keeps_its_scenario():
    cfg = _cfg(total_power_w=0.0)
    report = run_experiment(cfg, 50)
    assert report.cfg is cfg
    assert report.fingerprint == cfg.fingerprint()
    assert "cfg" not in report.to_mapping()


def test_experiment_rejects_empty_batch():
    with pytest.raises(ConfigError):
        run_experiment(_cfg(), 0)


def test_looser_ber_target_lifts_ase():
    cfg_tight = _cfg(ber_target=1e-3)
    cfg_loose = _cfg(ber_target=1e-2)
    tight = run_experiment(cfg_tight, 200)
    loose = run_experiment(cfg_loose, 200)
    assert loose.ase > tight.ase


def test_continuous_rate_dominates_discrete():
    cfg = _cfg(noise_psd_dbm_hz=-65.0, total_power_w=4.0)
    cont = run_experiment(cfg, 150)
    disc = run_experiment(cfg.with_updates(rate_mode="discrete"), 150)
    assert cont.ase >= disc.ase


def test_probabilistic_report_carries_collision_audits():
    cfg = _small_imperfect()
    report = run_experiment(cfg, 60, audit_states=4, audit_samples=4000)
    assert report.collision_analytic is not None
    assert report.collision_analytic.shape == (60, cfg.num_primaries)
    assert np.all((report.collision_analytic >= 0.0)
                  & (report.collision_analytic <= 1.0))
    assert len(report.collision_analytic_max) == cfg.num_primaries
    assert report.audited_states == 4
    assert len(report.collision_mc_max) == cfg.num_primaries
    assert 0.0 <= report.collision_mc_max[0] <= 1.0
    assert report.collision_mc_stderr >= 0.0

    skipped = run_experiment(cfg, 60, audit_states=0)
    assert skipped.collision_mc_max is None
    assert skipped.collision_analytic_max is not None


def test_collision_analytic_single_zero_mean_carrier_is_exact():
    cfg = _small_imperfect()
    k = cfg.num_subcarriers
    batch = SimpleNamespace(cross_est=np.zeros((1, 1, k), dtype=complex))
    power = np.zeros((1, k))
    power[0, 3] = 2.5
    got = _collision_analytic(posterior_stats(cfg, batch.cross_est), power,
                              cfg.interference_limit_w)
    expected = math.exp(-cfg.interference_limit_w[0]
                        / (2.0 * cfg.posterior_var * 2.5))
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(expected, rel=1e-12)


def test_collision_analytic_tracks_posterior_resampling():
    cfg = imperfect_benchmark(num_users=1, num_subcarriers=8)
    batch = sample_realizations(cfg, range(1))
    power = np.array([[0.2, 0.1, 0.0, 0.4, 0.0, 0.3, 0.14, 0.0]])
    analytic = _collision_analytic(posterior_stats(cfg, batch.cross_est), power,
                                   cfg.interference_limit_w)[0, 0]
    post = posterior_stats(cfg, batch.cross_est[0])
    prob, stderr = audit_probabilistic(power[0], post, cfg, samples=100_000, seed=7)
    assert 0.05 < prob[0] < 0.5
    assert abs(analytic - prob[0]) <= 3.0 * stderr[0]


def test_collision_mc_stderr_belongs_to_a_worst_state():
    rates = np.array([[0.1, 0.0], [0.0, 0.05]])
    samples = 20_000
    worst, stderr = _worst_collisions(rates, samples)
    np.testing.assert_array_equal(worst, [0.1, 0.05])
    assert stderr == math.sqrt(0.1 * 0.9 / samples)
    # a primary no audited state hits adds no 1/samples floor
    worst, stderr = _worst_collisions(np.array([[0.0, 1e-4], [0.0, 0.0]]), samples)
    np.testing.assert_array_equal(worst, [0.0, 1e-4])
    assert stderr == math.sqrt(1e-4 * (1.0 - 1e-4) / samples)
    worst, stderr = _worst_collisions(np.zeros((3, 2)), samples)
    np.testing.assert_array_equal(worst, [0.0, 0.0])
    assert stderr == 0.0


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rejects_bad_values():
    cfg = _cfg()
    with pytest.raises(ConfigError):
        sweep(cfg, "ith", [], 50)
    with pytest.raises(ConfigError, match="sorted"):
        sweep(cfg, "ith", [2.0, 1.0], 50)
    with pytest.raises(ConfigError, match="axis"):
        sweep(cfg, "bandwidth", [1.0], 50)


@pytest.mark.parametrize("threads", [0, -2])
def test_sweep_rejects_threads_below_one(threads):
    with pytest.raises(ConfigError, match=r"^threads must be >= 1, got %d$" % threads):
        sweep(_cfg(), "ith", [1.0, 2.0], 10, threads=threads)


@pytest.mark.parametrize("axis", ["epsilon", "collision_limit"])
def test_epsilon_sweep_needs_probabilistic_control(axis):
    # deterministic mode never reads collision_limit: every row would repeat
    with pytest.raises(ConfigError, match="axis %r .* deterministic mode" % axis):
        sweep(_cfg(), axis, [0.05, 0.1], 30)
    with pytest.raises(ConfigError, match="deterministic mode"):
        sweep(_small_imperfect(constraint_mode="deterministic"), axis, [0.05], 30)


def test_single_value_sweep_equals_run_experiment():
    cfg = _cfg()
    rows = sweep(cfg, "ith", [2.0], 80)
    direct = run_experiment(cfg.with_updates(interference_limit_w=(2.0,)), 80)
    assert len(rows) == 1
    assert rows[0].to_mapping() == direct.to_mapping()


def test_interference_sweep_monotone_with_plateau():
    cfg = _cfg()
    values = [0.25, 0.5, 1.0, 2.0, 4.0, 1e3]
    rows = sweep(cfg, "ith", values, 200)
    ases = np.array([r.ase for r in rows])
    stderrs = np.array([r.ase_stderr for r in rows])
    assert np.all(np.diff(ases) >= -(stderrs[1:] + stderrs[:-1]))
    flags = plateau_flags(rows)
    assert flags[0] is False
    assert flags[-1] is True            # 4 W -> 1 kW gain is under one percent
    expected = [False] + [(b - a) < 0.01 * max(abs(a), 1e-12)
                          for a, b in zip(ases, ases[1:])]
    assert flags == expected


def test_axis_aliases_resolve_to_same_field():
    cfg = _cfg()
    via_short = sweep(cfg, "ith", [1.0, 2.0], 60)
    via_long = sweep(cfg, "i_th", [1.0, 2.0], 60)
    assert [r.to_mapping() for r in via_short] == [r.to_mapping() for r in via_long]


def test_subcarrier_axis_casts_to_int():
    cfg = _cfg()
    rows = sweep(cfg, "k", [4.0, 8.0], 60)
    assert rows[0].fingerprint != rows[1].fingerprint
    assert rows[1].ase > rows[0].ase    # more subcarriers, more summed rate


def test_subcarrier_axis_rejects_non_integral_values():
    with pytest.raises(ConfigError, match="num_subcarriers"):
        sweep(_cfg(), "k", [8, 8.5, 16], 30)


def test_epsilon_sweep_probabilistic_nondecreasing():
    cfg = _small_imperfect()
    rows = sweep(cfg, "epsilon", [0.05, 0.2], 80, audit_states=0)
    assert rows[0].collision_limit == [0.05]
    assert rows[1].collision_limit == [0.2]
    assert rows[1].ase >= rows[0].ase - (rows[0].ase_stderr + rows[1].ase_stderr)


def test_threaded_sweep_matches_serial():
    cfg = _cfg()
    serial = sweep(cfg, "ith", [0.5, 1.0, 2.0], 80, threads=1)
    threaded = sweep(cfg, "ith", [0.5, 1.0, 2.0], 80, threads=3)
    assert [r.to_mapping() for r in serial] == [r.to_mapping() for r in threaded]


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_draws_the_states_once(monkeypatch, threads):
    draws = []

    def counting(cfg, streams):
        batch = sample_realizations(cfg, streams)
        draws.append((batch, [np.copy(a) for a in vars(batch).values()]))
        return batch

    monkeypatch.setattr(harness_module, "sample_realizations", counting)
    cases = [(_cfg(), "ith", [0.5, 1.0, 2.0], {}),
             (_small_imperfect(), "epsilon", [0.05, 0.2], {"audit_states": 4}),
             (_cfg(), "pt", [4.0, 8.0], {}),
             (_cfg(), "xi", [1e-3, 1e-2], {})]
    for cfg, axis, values, kwargs in cases:
        rows = sweep(cfg, axis, values, 60, threads=threads, **kwargs)
        assert len(draws) == 1
        batch, copies = draws.pop()
        for array, copy in zip(vars(batch).values(), copies):
            assert array.tobytes() == copy.tobytes()
        for value, row in zip(values, rows):
            updated = harness_module._axis_update(cfg, axis, value)
            assert updated == cfg.with_updates(**{SWEEP_AXES[axis]: value})
            assert row.fingerprint == updated.fingerprint()
            alone = run_experiment(harness_module._axis_update(cfg, axis, value), 60,
                                   **kwargs)
            draws.clear()
            assert json.dumps(row.to_mapping()) == json.dumps(alone.to_mapping())
            assert row.result.policies.power.tobytes() == alone.result.policies.power.tobytes()
    sweep(_cfg(), "k", [4, 8, 16], 30, threads=threads)
    assert sorted(batch.direct_power.shape[2] for batch, _ in draws) == [4, 8, 16]


# ---------------------------------------------------------------------------
# the collision audit: one shared posterior draw per audited point

AUDIT = {"audit_states": 4, "audit_samples": 2000}


class _CountingGenerator:
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
                        lambda *args: [_CountingGenerator(rng, counts)
                                       for rng in streams(*args)])
    return counts


def _audit_widths(rows) -> list:
    """Per row: the most links any of its audited states loads."""
    widths = []
    for row in rows:
        picks = np.argsort(np.max(row.collision_analytic, axis=1))[::-1]
        power = row.result.policies.power[picks[:row.audited_states]]
        widths.append(int(np.max(np.sum(power > 0.0, axis=1))))
    return widths


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("axis, values", [("epsilon", [0.05, 0.1, 0.2]),
                                          ("ith", [0.5, 1.0, 2.0]),
                                          ("pt", [5.0, 10.0, 20.0])])
def test_shared_audit_rows_equal_lone_runs(threads, axis, values):
    cfg = _small_imperfect()
    rows = sweep(cfg, axis, values, 60, threads=threads, **AUDIT)
    for value, row in zip(values, rows):
        alone = run_experiment(harness_module._axis_update(cfg, axis, value), 60,
                               **AUDIT)
        assert row.audited_states == 4 and row.collision_mc_max is not None
        assert json.dumps(row.to_mapping()) == json.dumps(alone.to_mapping())


def test_epsilon_sweep_draws_each_points_widest_state(monkeypatch):
    counts = _count_audit_normals(monkeypatch)
    cfg = _small_imperfect()
    rows = sweep(cfg, "epsilon", [0.05, 0.1, 0.2], 60, **AUDIT)
    samples, m = AUDIT["audit_samples"], cfg.num_primaries
    assert sum(counts) == sum(2 * samples * m * w for w in _audit_widths(rows)) > 0


def test_subcarrier_sweep_audits_each_point_on_its_own_draw(monkeypatch):
    counts = _count_audit_normals(monkeypatch)
    cfg = _small_imperfect()
    rows = sweep(cfg, "k", [8, 16], 60, **AUDIT)
    samples, m = AUDIT["audit_samples"], cfg.num_primaries
    assert sum(counts) == sum(2 * samples * m * w for w in _audit_widths(rows)) > 0
    for k, row in zip([8, 16], rows):
        alone = run_experiment(cfg.with_updates(num_subcarriers=k), 60, **AUDIT)
        assert json.dumps(row.to_mapping()) == json.dumps(alone.to_mapping())


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_audit_draws_on_the_sweep_workers(monkeypatch, threads):
    names = []
    streams = interference_module._audit_streams

    def record(*args):
        names.append(threading.current_thread().name)
        return streams(*args)

    monkeypatch.setattr(interference_module, "_audit_streams", record)
    sweep(_small_imperfect(), "epsilon", [0.05, 0.1, 0.2], 60, threads=threads,
          **AUDIT)
    main = threading.main_thread().name
    assert len(names) == 3
    assert all((name == main) == (threads == 1) for name in names)


def test_lone_audit_equals_audit_probabilistic():
    cfg = _small_imperfect()
    report = run_experiment(cfg, 60, audit_states=1)
    pick = int(np.argmax(np.max(report.collision_analytic, axis=1)))
    post = posterior_stats(cfg, sample_realizations(cfg, range(60)).cross_est[pick])
    prob, _ = audit_probabilistic(report.result.policies.power[pick], post, cfg,
                                  samples=20_000, seed=cfg.rng_seed)
    assert 0.0 < prob[0] < 1.0
    assert report.collision_mc_max == [float(x) for x in prob]


def test_report_carries_audit_collisions_byte_for_byte():
    cfg = _small_imperfect(num_primaries=2, interference_limit_w=(4.0, 6.0),
                           collision_limit=(0.05, 0.2))
    report = run_experiment(cfg, 60, **AUDIT)
    batch = sample_realizations(cfg, range(60))
    analytic, picks, worst, stderr = audit_collisions(
        cfg, batch.cross_est, report.result.policies.power, AUDIT["audit_states"],
        AUDIT["audit_samples"])
    assert len(picks) == report.audited_states == 4
    assert report.collision_analytic.tobytes() == analytic.tobytes()
    assert np.array(report.collision_analytic_max).tobytes() == \
        np.max(analytic, axis=0).tobytes()
    assert np.array(report.collision_mc_max).tobytes() == worst.tobytes()
    assert np.float64(report.collision_mc_stderr).tobytes() == np.float64(stderr).tobytes()
    assert len(worst) == 2 and 0.0 < stderr
    none = audit_collisions(cfg, batch.cross_est, report.result.policies.power, 0, 2000)
    assert none[0].tobytes() == analytic.tobytes()
    assert len(none[1]) == 0 and none[2:] == (None, None)


def test_audit_logs_pairs_width_and_normals(caplog, monkeypatch):
    counts = _count_audit_normals(monkeypatch)
    cfg = _small_imperfect()
    with caplog.at_level(logging.DEBUG, logger="ofdma_underlay.harness"):
        rows = sweep(cfg, "epsilon", [0.05, 0.1, 0.2], 60, **AUDIT)
        rows.append(run_experiment(cfg, 60, **AUDIT))
        sweep(_cfg(), "ith", [1.0, 2.0], 30)
    records = [r for r in caplog.records if r.name == "ofdma_underlay.harness"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 4   # the ith sweep logs none
    widths = _audit_widths(rows)
    for record, width in zip(records, widths):
        pairs, logged_width, normals, seconds = record.args
        assert (pairs, logged_width) == (4, width)
        assert normals == 2 * AUDIT["audit_samples"] * cfg.num_primaries * width
        assert seconds >= 0.0
    assert sum(r.args[2] for r in records) == sum(counts)


# ---------------------------------------------------------------------------
# artifacts


def test_sweep_csv_shape_deterministic_mode():
    cfg = _cfg()
    values = [1.0, 2.0]
    rows = sweep(cfg, "ith", values, 60)
    lines = sweep_csv_rows(values, rows)
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    for value, line, rep in zip(values, lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[0] == format_float(value)
        assert fields[1] == format_float(rep.ase)
        assert fields[6] == ""          # no epsilon in deterministic mode
        assert float(fields[4]) == pytest.approx(max(rep.true_interference_max))


def test_sweep_csv_probabilistic_epsilon_column():
    cfg = _small_imperfect()
    rows = sweep(cfg, "ith", [5.0], 40, audit_states=0)
    line = sweep_csv_rows([5.0], rows)[1]
    fields = line.split(",")
    assert fields[6] == format_float(min(rows[0].collision_limit))
    assert float(fields[5]) == pytest.approx(max(rows[0].collision_analytic_max))


def test_artifacts_are_byte_identical(tmp_path):
    cfg = _cfg()
    values = [1.0, 2.0]
    rows = sweep(cfg, "ith", values, 60)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(a, values, rows)
    write_sweep_csv(b, values, sweep(cfg, "ith", values, 60))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")

    j = tmp_path / "sweep.json"
    write_sweep_json(j, cfg, "ith", values, rows)
    payload = json.loads(j.read_text())
    assert payload["axis"] == "ith"
    assert payload["values"] == values
    assert payload["plateau"] == plateau_flags(rows)
    assert payload["config"]["rng_seed"] == cfg.rng_seed
    assert [r["ase"] for r in payload["rows"]] == [r.ase for r in rows]


def test_trace_csv_layout(tmp_path):
    cfg = _cfg()
    report = run_experiment(cfg, 60, iterations=5)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, report.result.dual)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 6
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4, 5]
    mu_column = [float(line.split(",")[1]) for line in lines[1:]]
    assert mu_column == pytest.approx(list(report.result.dual.trace["mu"]))
    write_trace_csv(path, None)         # no solve: the header alone
    assert path.read_text() == TRACE_HEADER + "\n"


def test_format_float_stability():
    assert format_float(None) == ""
    assert format_float(0.1) == "0.1"
    assert format_float(1e-12) == "1e-12"
    assert format_float(np.float64(2.5)) == "2.5"
