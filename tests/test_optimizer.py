"""Water-filling, assignment and dual-solve oracles."""

import gc
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import ofdma_underlay.optimizer as optimizer_module
from ofdma_underlay.channel import sample_realizations
from ofdma_underlay.config import build_config
from ofdma_underlay.errors import ConvergenceError, InfeasibleError, ShapeError
from ofdma_underlay.interference import audit_deterministic, surrogate_budget
from ofdma_underlay.modulation import ALLOWED_BITS, LN2, ber_slope
from ofdma_underlay.optimizer import (
    assign_subcarriers,
    per_link_lagrangian,
    reference_cutoff,
    selection_metric,
    solve_dual,
    waterfill_power,
)
from ofdma_underlay.presets import deterministic_benchmark, imperfect_benchmark
from ofdma_underlay.sinr import SinrDistribution, gaussian_sum_params, sinr_distribution


def _cfg(**overrides):
    base = dict(num_users=2, num_primaries=1, num_subcarriers=8,
                total_power_w=8.0, interference_limit_w="2.0",
                ber_target=1e-3, bandwidth_hz=1e6, noise_psd_dbm_hz=-90.0,
                primary_interference_w=0.0, cross_mean_re=0.3, cross_var=0.2,
                csi_mode="perfect", constraint_mode="deterministic", rng_seed=5)
    base.update(overrides)
    return build_config(base)


def _solve(cfg, states, **kwargs):
    """solve_dual on streams 0..states-1 of the scenario seed."""
    return solve_dual(cfg, sample_realizations(cfg, range(states)), **kwargs)


def _link_arrays(cfg, batch, result):
    """Per-candidate (gamma, density, weight) grids at the solved reference power."""
    s, n, k = len(batch), cfg.num_users, cfg.num_subcarriers
    p_ref = result.reference_power_w
    gamma = batch.direct_power * (p_ref / cfg.total_noise_w)[:, None, None]
    density = np.empty((s, n, k))
    for idx_n in range(n):
        for idx_k in range(k):
            dist = sinr_distribution(cfg, idx_n, idx_k, 0)
            density[:, idx_n, idx_k] = dist.pdf(gamma[:, idx_n, idx_k])
    weights = batch.cross_true.real ** 2 + batch.cross_true.imag ** 2
    return gamma, density, weights[:, 0, :]


# ---------------------------------------------------------------------------
# scalar water-filling


def test_waterfill_pinned_value():
    # eta = 0, mu = 1/ln2, zeta*gamma = 2, P_ref = 1: water level 1, cutoff 0.5
    p = waterfill_power(1.0, 1.0, 1.0 / LN2, 0.0, 0.0, 2.0, 1.0)
    assert p == pytest.approx(0.5, abs=1e-12)
    expected = 1.0 / (LN2 * 0.5) - 2.0 / 4.0
    assert waterfill_power(1.0, 1.0, 0.5, 0.0, 0.0, 4.0, 2.0) == pytest.approx(expected, rel=1e-12)


def test_waterfill_vanishing_gamma():
    assert waterfill_power(0.0, 1.0, 0.3, 0.1, 0.5, 0.4, 1.0) == 0.0
    assert waterfill_power(1e-12, 1.0, 1.0 / LN2, 0.0, 0.0, 2.0, 1.0) == 0.0


def test_waterfill_degenerate_multipliers():
    with pytest.raises(ValueError, match="unbounded"):
        waterfill_power(1.0, 1.0, 0.0, 0.0, 0.0, 0.4, 1.0)
    # eta alone does not price power when the cross weight vanishes
    with pytest.raises(ValueError, match="unbounded"):
        waterfill_power(1.0, 1.0, 0.0, 1.0, 0.0, 0.4, 1.0)


def test_waterfill_domain():
    with pytest.raises(ValueError):
        waterfill_power(-1.0, 1.0, 0.3, 0.0, 0.0, 0.4, 1.0)
    with pytest.raises(ValueError):
        waterfill_power(1.0, 1.0, 0.3, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        waterfill_power(1.0, 1.0, 0.3, 0.0, 0.0, 0.4, 0.0)


def test_waterfill_maximizes_lagrangian_on_grid():
    # the stationary power beats a 1e4-point grid over [0, 10/mu] on 1e3 draws
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        gamma = rng.uniform(0.01, 50.0)
        density = rng.uniform(0.01, 2.0)
        mu = rng.uniform(0.05, 2.0)
        eta = rng.uniform(0.0, 2.0) * rng.integers(0, 2)
        weight = rng.uniform(0.0, 3.0)
        slope = rng.uniform(0.1, 0.5)
        p_ref = rng.uniform(0.05, 2.0)
        p_star = waterfill_power(gamma, density, mu, eta, weight, slope, p_ref)
        l_star = per_link_lagrangian(gamma, density, p_star, mu, eta, weight,
                                     slope, p_ref)
        grid = np.linspace(0.0, 10.0 / mu, 10_000)
        x = slope * gamma * grid / p_ref
        l_grid = density * np.log2(1.0 + x) - mu * density * grid \
            - eta * weight * grid
        assert p_star <= 10.0 / mu
        assert l_grid.max() <= l_star + 1e-10 * max(1.0, abs(l_star))


# ---------------------------------------------------------------------------
# selection metric and assignment


def test_selection_metric_pinned_values():
    assert selection_metric(2.0, 1.3, 0.0, 0.4, 1.0) == 0.0
    value = selection_metric(1.0, 1.0, 1.0, 1.0, 1.0)     # x = 1, f = 1
    assert value == pytest.approx(1.72135, abs=5e-6)
    assert value == pytest.approx(1.0 / (2.0 * LN2) + 1.0, rel=1e-12)


def test_selection_metric_monotone_in_power():
    powers = np.geomspace(1e-4, 1e3, 200)
    values = [selection_metric(2.3, 0.7, p, 0.44, 1.0) for p in powers]
    assert np.all(np.diff(values) > 0.0)


def test_selection_metric_domain():
    with pytest.raises(ValueError):
        selection_metric(1.0, 1.0, -0.1, 0.4, 1.0)
    with pytest.raises(ValueError):
        selection_metric(1.0, 1.0, 1.0, 0.0, 1.0)


def test_assignment_tie_breaks_to_lowest_index():
    phi = assign_subcarriers(np.array([[0.2], [0.9], [0.9]]))
    assert phi[1, 0] == 1.0 and phi[0, 0] == 0.0 and phi[2, 0] == 0.0


def test_assignment_partition_and_argmax():
    rng = np.random.default_rng(3)
    metric = rng.uniform(size=(5, 12))
    phi = assign_subcarriers(metric)
    assert np.array_equal(np.unique(phi), np.array([0.0, 1.0]))
    assert np.all(phi.sum(axis=0) == 1.0)
    picked = (metric * phi).sum(axis=0)
    assert np.allclose(picked, metric.max(axis=0))
    single = assign_subcarriers(np.ones((1, 4)))
    assert np.all(single == 1.0)
    with pytest.raises(ShapeError):
        assign_subcarriers(np.ones(4))


# ---------------------------------------------------------------------------
# cutoff consistency and KKT stationarity on solved allocations


def test_cutoff_consistency_on_solved_states():
    cfg = _cfg()
    batch = sample_realizations(cfg, range(1000))
    result = solve_dual(cfg, batch)
    gamma, density, weights = _link_arrays(cfg, batch, result)
    slope = ber_slope(cfg.ber_target)
    mu = result.dual.mu
    checked = 0
    for s in range(len(batch)):
        eta = result.dual.eta[s, 0]
        p_ref = result.reference_power_w[s]
        for n in range(cfg.num_users):
            for k in range(cfg.num_subcarriers):
                g, f, w = gamma[s, n, k], density[s, n, k], weights[s, k]
                threshold = reference_cutoff(mu, eta, w, f, slope, p_ref)
                if abs(g - threshold) <= 1e-9 * max(g, threshold):
                    continue
                power = waterfill_power(g, f, mu, eta, w, slope, p_ref)
                assert (power > 0.0) == (g > threshold)
                checked += 1
    assert checked > 15_000


def test_kkt_perturbation_never_improves():
    cfg = _cfg()
    batch = sample_realizations(cfg, range(100))
    result = solve_dual(cfg, batch)
    gamma, density, weights = _link_arrays(cfg, batch, result)
    slope = ber_slope(cfg.ber_target)
    mu = result.dual.mu
    active = np.nonzero(result.policies.power > 0.0)
    rng = np.random.default_rng(11)
    picks = rng.choice(active[0].size, size=100, replace=False)
    for i in picks:
        s, k = active[0][i], active[1][i]
        n = result.policies.user[s, k]
        p_star = result.policies.power[s, k]
        args = (gamma[s, n, k], density[s, n, k], mu, result.dual.eta[s, 0],
                weights[s, k], slope, result.reference_power_w[s])
        base = per_link_lagrangian(args[0], args[1], p_star, *args[2:])
        for factor in (0.99, 1.01):
            bumped = per_link_lagrangian(args[0], args[1], factor * p_star,
                                         *args[2:])
            assert bumped <= base + 1e-10 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# inner interference multiplier


def _rebuild_power(cfg, real, mu, eta):
    """(K,) power of the stationary allocation of ``real``'s one state,
    evaluated through the public scalar pieces."""
    n, k = cfg.num_users, cfg.num_subcarriers
    weights = real.cross_true[0].real ** 2 + real.cross_true[0].imag ** 2
    n_ref = weights.sum()
    p_ref = min(cfg.total_power_w / k, cfg.interference_limit_w[0] / n_ref)
    slope = ber_slope(cfg.ber_target)
    power = np.zeros((n, k))
    metric = np.zeros((n, k))
    for idx_n in range(n):
        for idx_k in range(k):
            g = real.direct_power[0, idx_n, idx_k] * p_ref / cfg.total_noise_w
            f = sinr_distribution(cfg, idx_n, idx_k, 0).pdf(g)
            w = weights[0, idx_k]
            power[idx_n, idx_k] = waterfill_power(g, float(f), mu, eta, w,
                                                  slope, p_ref)
            metric[idx_n, idx_k] = selection_metric(g, float(f),
                                                    power[idx_n, idx_k],
                                                    slope, p_ref)
    return np.sum(assign_subcarriers(metric) * power, axis=0)


def _inner_eta(cfg, mu):
    """Tight interference multiplier of stream 0 at fixed mu (one primary)."""
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, [0]))
    *_, eta = optimizer_module._solve_states(ws, mu, np.zeros((1, 1)))
    return float(eta[0, 0])


def test_inner_multiplier_slack_budget():
    cfg = _cfg(interference_limit_w="1e9", total_power_w=0.8)
    assert _inner_eta(cfg, 0.3) == 0.0


def test_inner_multiplier_tightens_to_budget():
    mu = 0.02
    cfg0 = _cfg(interference_limit_w="1e9", total_power_w=0.8)
    real = sample_realizations(cfg0, [0])
    slack = audit_deterministic(_rebuild_power(cfg0, real, mu, 0.0),
                                real.cross_true[0])
    half = float(slack[0]) / 2.0
    cfg = cfg0.with_updates(interference_limit_w=(half,))
    # keep the reference power on the P_t/K branch so the halved budget binds
    n_ref = float((real.cross_true.real ** 2 + real.cross_true.imag ** 2).sum())
    assert half > n_ref * cfg.total_power_w / cfg.num_subcarriers
    eta = _inner_eta(cfg, mu)
    assert eta > 0.0
    audited = audit_deterministic(_rebuild_power(cfg, real, mu, eta),
                                  real.cross_true[0])
    assert audited[0] == pytest.approx(half, rel=2e-6)


def test_inner_multiplier_tiny_budget():
    cfg = _cfg(interference_limit_w="1e-9", total_power_w=0.8)
    real = sample_realizations(cfg, [0])
    eta = _inner_eta(cfg, 0.02)
    assert np.isfinite(eta) and eta > 0.0
    audited = audit_deterministic(_rebuild_power(cfg, real, 0.02, eta),
                                  real.cross_true[0])
    assert audited[0] <= 1e-9 * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# dual solve


def test_single_channel_matches_grid_oracle():
    # I_th huge, N = 1, K = 1: plain average-power water-filling
    cfg = _cfg(num_users=1, num_subcarriers=1, interference_limit_w="1e12",
               total_power_w=2.0, rng_seed=11)
    batch = sample_realizations(cfg, range(2000))
    result = solve_dual(cfg, batch)
    assert result.dual.converged
    assert result.avg_power_w <= cfg.total_power_w * 1.001

    slope = ber_slope(cfg.ber_target)
    p_ref = cfg.total_power_w
    gamma = batch.direct_power[:, 0, 0] * p_ref / cfg.total_noise_w
    pcut = np.sort(p_ref / (slope * gamma))
    cum = np.cumsum(pcut)
    waters = np.geomspace(pcut[0] * 1e-3, pcut[-1] * 1e3, 100_000)
    idx = np.searchsorted(pcut, waters)
    used = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    avg_power = (waters * idx - used) / len(batch)
    best = waters[np.argmin(np.abs(avg_power - cfg.total_power_w))]
    oracle = np.mean(np.log2(np.maximum(best / pcut, 1.0)))
    assert result.ase == pytest.approx(oracle, rel=0.01)


def test_infinite_power_budget_slackness():
    # P_t -> inf: power multiplier at zero, interference budgets tight
    cfg = _cfg(total_power_w=1e6, interference_limit_w="0.5")
    result = _solve(cfg, 300)
    assert result.dual.converged
    assert result.dual.mu == 0.0
    transmitting = result.policies.power.sum(axis=1) > 0.0
    gap = np.abs(result.enforced_interference[:, 0] - result.budgets_w[0])
    tight = gap <= 1e-5 * result.budgets_w[0]
    assert tight[transmitting].mean() >= 0.99


def test_ase_monotone_in_interference_budget():
    values = (0.25, 0.5, 1.0, 2.0, 4.0, 1e3)
    cfgs = [_cfg(interference_limit_w=str(v)) for v in values]
    batch = sample_realizations(cfgs[0], range(200))
    ases = [solve_dual(c, batch).ase for c in cfgs]
    assert np.all(np.diff(ases) >= -1e-9 * max(ases))


def test_ase_monotone_in_power_budget():
    cfgs = [_cfg(total_power_w=v) for v in (2.0, 4.0, 8.0)]
    batch = sample_realizations(cfgs[0], range(200))
    ases = [solve_dual(c, batch).ase for c in cfgs]
    assert np.all(np.diff(ases) >= -1e-9 * max(ases))


def test_discrete_rate_floors_continuous_solve():
    cfg = _cfg(noise_psd_dbm_hz=-65.0, total_power_w=4.0)
    batch = sample_realizations(cfg, range(150))
    cont = solve_dual(cfg, batch)
    disc = solve_dual(cfg.with_updates(rate_mode="discrete"), batch)
    assert disc.ase <= cont.ase + 1e-12
    assert set(np.unique(disc.policies.bits)).issubset(set(ALLOWED_BITS))
    assert np.all(2.0 ** disc.policies.bits <= 1.0 + disc.policies.x + 1e-9)
    assert np.allclose(disc.state_rates, disc.policies.bits.sum(axis=1))
    assert disc.ase == pytest.approx(np.mean(disc.state_rates))
    assert cont.policies.bits is None


def test_solve_is_deterministic():
    cfg = _cfg()
    first = _solve(cfg, 50)
    second = _solve(cfg, 50)
    explicit = solve_dual(cfg, sample_realizations(cfg, range(50)))
    assert first.ase == second.ase == explicit.ase
    assert np.array_equal(first.policies.user, explicit.policies.user)
    assert np.array_equal(first.dual.trace["mu"], second.dual.trace["mu"])
    assert np.array_equal(first.streams, np.arange(50))


def test_solve_validation():
    cfg = _cfg()
    with pytest.raises(ValueError, match="total_power_w"):
        _solve(_cfg(total_power_w=0.0), 10)
    with pytest.raises(ValueError, match="iterations"):
        _solve(cfg, 10, iterations=0)


def test_trace_rows_and_weak_duality():
    cfg = _cfg()
    result = _solve(cfg, 80, iterations=12)
    trace = result.dual.trace
    for key in ("iter", "mu", "primal_ase", "dual_value", "power_gap"):
        assert len(trace[key]) == 12
    assert np.array_equal(trace["iter"], np.arange(1, 13))
    assert result.dual.iterations == 12
    scale = np.abs(trace["dual_value"]).max()
    assert np.all(trace["dual_value"] >= trace["primal_ase"] - 1e-9 * scale)


def test_probabilistic_budget_is_collision_surrogate():
    cfg = imperfect_benchmark()
    result = _solve(cfg, 30)
    expected = surrogate_budget(cfg.interference_limit_w[0],
                                cfg.collision_limit[0], cfg.num_subcarriers)
    assert result.budgets_w[0] == pytest.approx(expected, rel=1e-12)
    assert np.all(result.enforced_interference <= result.budgets_w * (1.0 + 1e-6))
    assert result.ase > 0.0


def test_nonconvergence_attaches_partial_result(monkeypatch):
    # from a badly scaled mu the 1 / (P_t (10 + t)) steps do not close the
    # gap in four forced iterations: the result holds the last, unconverged
    # iterate and its trace
    cfg = _cfg(num_subcarriers=4, total_power_w=2.0, rng_seed=3,
               interference_limit_w="1e9")
    monkeypatch.setattr(
        optimizer_module, "_warm_start_mu",
        lambda ws, tol: (50.0, optimizer_module._solve_states(
            ws, 50.0, np.zeros((ws.count, ws.cfg.num_primaries)))))
    result = _solve(cfg, 6, iterations=4)
    assert not result.dual.converged
    trace = result.dual.trace
    assert len(trace["mu"]) == 4
    assert np.all(np.diff(trace["mu"]) < 0.0)
    p_t = cfg.total_power_w
    for t in range(1, 4):
        step = 1.0 / (p_t * (10.0 + t))
        predicted = max(trace["mu"][t - 1] + step * trace["power_gap"][t - 1], 0.0)
        assert trace["mu"][t] == pytest.approx(predicted, rel=1e-12)
    assert np.isfinite(result.ase)


# ---------------------------------------------------------------------------
# root search and work counters


def _falling(scale, offset=0.05, aim=1.0 - 5e-7):
    """y = scale x^-1.5 + offset / x per row: falls with x, not a pure power.

    The proposal is a Newton step in x towards y = aim.  y is convex, so
    from below the root the step stays below it, and from above it lands
    below the root, or below 0.
    """
    def evaluate(x, rows):
        c = scale if rows is None else scale[rows]
        y = c * x ** -1.5 + offset / x
        return y, lambda i: x[i] + (y[i] - aim) / (1.5 * c[i] * x[i] ** -2.5
                                                   + offset / x[i] ** 2)
    return evaluate


def _root(evaluate, start, active=None, y_hi=1.0):
    start = np.asarray(start, dtype=float)
    active = np.ones(start.size, dtype=bool) if active is None else active
    return optimizer_module._find_root(evaluate, start, y_hi * (1.0 - 1e-6), y_hi, active,
                                       lambda row: "row %d" % row,
                                       np.ones(start.size, dtype=bool))


def test_find_root_from_hints_above_and_below_the_root():
    scale = np.array([1.0, 40.0, 0.02, 3.0])
    trials = []

    def evaluate(x, rows):
        trials.append((x.copy(), rows))
        return _falling(scale)(x, rows)

    start = np.array([1.0, 1.0, 1.0, 50.0])    # below, below, above, above
    x = _root(evaluate, start)
    y = _falling(scale)(x, None)[0]
    assert np.all((y <= 1.0) & (y >= 1.0 - 1e-6))
    assert np.array_equal(trials[0][0], start) and trials[0][1] is None
    # a cold row above the window doubles before it takes a proposal
    assert np.array_equal(trials[1][0][:2], 2.0 * start[:2])
    assert x[1] > 1.0 and x[2] < 1.0 and x[3] < 50.0
    # a hint already in the window costs one evaluation
    trials.clear()
    assert np.array_equal(_root(evaluate, x), x)
    assert len(trials) == 1


def test_find_root_far_below_the_hint():
    # a tiny budget's root sits 60 halvings below the first trial
    x = _root(_falling(np.array([1e-9]), offset=0.0), [1e12])
    y = 1e-9 * x ** -1.5
    assert 1.0 - 1e-6 <= y[0] <= 1.0
    assert x[0] == pytest.approx(1e-6, rel=1e-6)


def test_find_root_leaves_inactive_rows_at_zero():
    with np.errstate(divide="ignore"):      # inactive rows are evaluated at 0
        x = _root(_falling(np.array([1.0, 40.0, 3.0])), np.ones(3),
                  active=np.array([True, False, True]))
    assert x[1] == 0.0 and x[0] > 0.0 and x[2] > 0.0


def test_find_root_keeps_no_state_between_calls():
    # a search run inside another's evaluations must not disturb either
    scale_a, scale_b = np.array([1.0, 40.0]), np.array([0.3, 7.0, 2.0, 0.01])
    alone_a = _root(_falling(scale_a), np.ones(2))
    alone_b = _root(_falling(scale_b, aim=2.0 - 1e-6), np.full(4, 3.0), y_hi=2.0)
    module_state = dict(vars(optimizer_module))
    inner = []

    def nested(x, rows):
        inner.append(_root(_falling(scale_a), np.ones(2)))
        return _falling(scale_b, aim=2.0 - 1e-6)(x, rows)

    assert np.array_equal(_root(nested, np.full(4, 3.0), y_hi=2.0), alone_b)
    assert len(inner) > 1 and all(np.array_equal(r, alone_a) for r in inner)
    assert vars(optimizer_module) == module_state


def test_find_root_error_names_row_and_bracket():
    def never_feasible(x, rows):
        return np.full(x.shape, 5.0), lambda i: x[i]

    with pytest.raises(InfeasibleError, match=r"row 1: 5 > 1 after 60 trials; "
                       r"final bracket \[5\.76461e\+17, inf\)"):
        _root(never_feasible, np.ones(3), active=np.array([False, True, False]))


def test_unbracketed_multiplier_names_state_stream_and_primary(monkeypatch):
    monkeypatch.setattr(optimizer_module, "_ETA_DOUBLINGS", 3)
    cfg = _cfg(interference_limit_w="1e-9", total_power_w=0.8)
    batch = sample_realizations(cfg, [4, 9, 13])
    with pytest.raises(InfeasibleError) as excinfo:
        solve_dual(cfg, batch)
    found = re.search(r"primary 0's budget at state (\d) \(stream (\d+)\): .* "
                      r"after 3 trials; final bracket \[4, inf\)", str(excinfo.value))
    assert found, str(excinfo.value)
    assert batch.streams[int(found.group(1))] == int(found.group(2))


def test_cold_start_and_carried_hint_agree():
    cfg = deterministic_benchmark(rng_seed=6, interference_limit_w=(2.0,))
    batch = sample_realizations(cfg, range(60))
    ws = optimizer_module._Workspace(cfg, batch)
    cold = optimizer_module._solve_states(ws, 0.5, np.zeros((60, 1)))
    assert np.sum(cold[4] > 0.0) >= 50
    for factor in (1.3, 0.6, 1e6):
        warm = optimizer_module._solve_states(ws, 0.5, factor * cold[4])
        assert np.array_equal(warm[4] > 0.0, cold[4] > 0.0)
        assert np.all(np.abs(warm[3] - cold[3]) <= 1e-6 * ws.budgets)
        # a winner switch inside the tightness window admits several roots
        same = np.all(warm[0] == cold[0], axis=1)
        assert np.sum(same) >= 58
        assert np.allclose(warm[4][same], cold[4][same], rtol=1e-6, atol=0.0)
        rates = [np.sum(np.log1p(alloc[2][same]), axis=1) for alloc in (cold, warm)]
        assert np.allclose(rates[1], rates[0], rtol=1e-6, atol=0.0)


def test_full_passes_at_a_binding_cap():
    cfg = deterministic_benchmark(rng_seed=6, interference_limit_w=(2.0,))
    result = _solve(cfg, 60)
    dual = result.dual
    assert dual.iterations == 1
    # exponential bracketing plus bisection spends 358 + 34 = 392 here
    assert dual.warm_start_passes + dual.iteration_passes <= 392 / 3
    assert dual.iteration_passes == 0.0
    assert set(dual.trace) == {"iter", "mu", "primal_ase", "dual_value", "power_gap"}


def _binding_m2():
    return deterministic_benchmark(rng_seed=6, num_primaries=2, interference_limit_w=(1.0, 3.0))


def test_full_passes_with_two_binding_primaries():
    dual = _solve(_binding_m2(), 60).dual
    assert np.all(dual.eta > 0.0)           # every state binds both primaries
    # a closing pass after each cyclic sweep spent 168.40 here
    assert dual.warm_start_passes + dual.iteration_passes <= 158.40


@pytest.mark.parametrize("cfg", [
    deterministic_benchmark(rng_seed=6, interference_limit_w=(2.0,)),
    _binding_m2(),
], ids=["ith2", "binding-m2"])
def test_states_with_a_multiplier_are_the_first_pass_violators(cfg):
    # the mu search tells a trial with states to tighten by its solved eta;
    # every state is over budget at mu <= 2, and 0 and 33 of 60 are at mu = 5
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, range(60)))
    for mu in (0.1, 0.5, 2.0, 5.0):
        eta = optimizer_module._solve_states(ws, mu, np.zeros((60, cfg.num_primaries)))[4]
        assert np.array_equal(np.any(eta > 0.0, axis=1), ws.first_pass(mu)[1])


def _two_sweep_allocate(mu, eta, *arrays):
    """A stand-in kernel whose primary-0 interference rises with eta_1.

    Budgets of 1 W take a second sweep that ends at eta = (2, 0), where
    primary 1 sits 5e-7 relative above its budget, inside the tightness
    window, so the eta_1 = 0 trial is the only one at the final eta.
    """
    e0, e1 = eta[:, 0], eta[:, 1]
    interference = np.stack([2.0 / (1.0 + e0) + 0.5 * e1 / (1.0 + e1),
                             np.where(e0 < 1.5, 3.0, 1.0 + 5e-7) / (1.0 + e1)], axis=1)
    return np.zeros((eta.shape[0], 2), dtype=int), eta.copy(), eta + 1.0, interference


def test_tighten_keeps_the_allocation_at_the_final_eta(monkeypatch):
    monkeypatch.setattr(optimizer_module, "_allocate", _two_sweep_allocate)
    cfg = deterministic_benchmark(num_primaries=2, interference_limit_w=(1.0, 1.0),
                                  num_subcarriers=2)
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, [0]))
    alloc, bad = ws.first_pass(0.5)
    assert bad[0]
    eta = optimizer_module._tighten(ws, 0.5, np.array([0]), np.zeros((1, 2)), alloc)
    np.testing.assert_allclose(eta, [[2.0, 0.0]])
    for kept, fresh in zip(alloc, _two_sweep_allocate(0.5, eta)):
        assert np.array_equal(kept, fresh)


def test_tightening_every_state_holds_no_second_links_stack():
    # at mu = 0.01 every imperfect-preset state breaks its budget, so the
    # tightening gathers all rows: it reads the workspace stack itself
    cfg = imperfect_benchmark()
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, range(200)))
    assert np.all(ws.first_pass(0.01)[1])
    tracemalloc.start()
    try:
        *_, eta = optimizer_module._solve_states(ws, 0.01, np.zeros((200, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(eta > 0.0)
    assert peak < 2 * ws.links.nbytes


def _candidates(mu, eta, inv_density, density, pcut, weights):
    """Every candidate's power, x and metric, by the stationary-allocation formulas."""
    priced = np.einsum("sm,smk->sk", eta, weights)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        power = np.maximum(1.0 / (LN2 * (mu + priced[:, None, :] * inv_density)) - pcut, 0.0)
        x = np.where(power > 0.0, power / pcut, 0.0)
        metric = density * (x / (LN2 * (1.0 + x)) + np.log1p(x) / LN2)
    return power, x, metric


@pytest.mark.parametrize("n, k, m", [(3, 6, 1), (1, 5, 1), (3, 1, 1), (4, 6, 2)],
                         ids=["base", "n1", "k1", "m2"])
def test_allocate_picks_the_argmax_winner(n, k, m):
    rng = np.random.default_rng(n * 100 + k * 10 + m)
    for trial in range(12):
        s = 4
        gamma = rng.exponential(1.0, (s, n, k))
        density = rng.uniform(0.01, 2.0, (s, n, k))
        if n > 1:       # tied users: the same candidate twice
            gamma[:, -1], density[:, -1] = gamma[:, 0], density[:, 0]
        gamma[rng.random((s, n, k)) < 0.25] = 0.0
        weights = rng.exponential(1.0, (s, m, k))
        weights[:, :, rng.integers(k)] = 0.0
        mu, eta = [(0.7, rng.exponential(1.0, (s, m))), (0.0, np.zeros((s, m))),
                   (0.0, rng.exponential(1.0, (s, m)))][trial % 3]
        with np.errstate(divide="ignore"):
            pcut = 0.5 / (1.3 * gamma)
        arrays = (1.0 / density, density, pcut, weights)
        with np.errstate(invalid="ignore"):
            winner, p_sel, x_sel, interference = optimizer_module._allocate(mu, eta, *arrays)
        power, x, metric = _candidates(mu, eta, *arrays)
        cols = np.arange(k)
        for state in range(s):
            users = np.argmax(assign_subcarriers(metric[state]), axis=0)
            assert np.array_equal(winner[state], users)
            assert p_sel[state].tobytes() == power[state, users, cols].tobytes()
            assert x_sel[state].tobytes() == x[state, users, cols].tobytes()
        with np.errstate(invalid="ignore"):
            expected = np.einsum("sk,smk->sm", p_sel, weights)
        assert interference.tobytes() == expected.tobytes()


def _wide_m2(**overrides):
    return deterministic_benchmark(num_users=8, num_subcarriers=256, num_primaries=2,
                                   interference_limit_w=(10.0, 10.0),
                                   rate_mode="discrete", **overrides)


@pytest.mark.parametrize("cfg, states", [
    (deterministic_benchmark(rng_seed=6, interference_limit_w=(10.0,)), 60),
    (_wide_m2(rng_seed=6), 20),
], ids=["deterministic", "wide-m2"])
def test_power_above_target_skips_the_mu_zero_probe(cfg, states):
    # probing mu = 0 first, the search spends 14.45 and 26.55 passes here
    dual = _solve(cfg, states).dual
    assert dual.mu > 0.0 and not np.any(dual.eta > 0.0)
    assert dual.warm_start_passes <= 8.0


@pytest.mark.parametrize("noise_psd_dbm_hz", [-15.0, 10.0])
def test_deferred_mu_zero_probe_matches_a_probe_run_first(noise_psd_dbm_hz):
    # at 10 dBm/Hz a trial's untightened power exceeds P_t while P(0) <= P_t
    cfg = deterministic_benchmark(noise_psd_dbm_hz=noise_psd_dbm_hz,
                                  interference_limit_w=(0.05,), total_power_w=100.0)
    batch = sample_realizations(cfg, range(40))
    ws = optimizer_module._Workspace(cfg, batch)
    mu0 = cfg.num_subcarriers / (cfg.total_power_w * LN2)
    *_, interference = ws.allocate(mu0, np.zeros((40, 1)), ws.subset(slice(None)))
    assert np.all(interference <= ws.budgets * (1.0 + 1e-6))   # no state to tighten
    # the probe from eta = 0, then iteration 1 at mu = 0 from its eta
    probe = optimizer_module._solve_states(ws, 0.0, np.zeros((40, 1)))
    assert np.mean(np.sum(probe[1], axis=1)) <= cfg.total_power_w
    first = optimizer_module._solve_states(ws, 0.0, probe[4])
    result = solve_dual(cfg, batch)
    assert result.dual.mu == 0.0 and result.dual.iterations == 1
    assert np.array_equal(result.dual.eta, first[4])
    assert np.array_equal(result.policies.power, first[1])
    assert result.avg_power_w == float(np.mean(np.sum(first[1], axis=1)))


@pytest.mark.parametrize("cfg, states", [
    *[(deterministic_benchmark(rng_seed=6, interference_limit_w=(ith,)), 60)
      for ith in (1.0, 2.0, 10.0)],
    (imperfect_benchmark(), 100),
    (_wide_m2(rng_seed=6), 20),
    (_binding_m2(), 60),
    *[(deterministic_benchmark(noise_psd_dbm_hz=noise, interference_limit_w=(0.05,),
                               total_power_w=100.0), 40) for noise in (-15.0, 10.0)],
], ids=["ith1", "ith2", "ith10", "imperfect", "wide-m2", "binding-m2", "mu0-15dbm",
        "mu0+10dbm"])
def test_reused_allocation_equals_a_fresh_pass(cfg, states):
    # the solve keeps the allocations its searches evaluated; one pass at the
    # final multipliers must give the same bytes
    batch = sample_realizations(cfg, range(states))
    result = solve_dual(cfg, batch)
    ws = optimizer_module._Workspace(cfg, batch)
    winner, power, x, interference = ws.allocate(result.dual.mu, result.dual.eta,
                                                 ws.subset())
    assert result.dual.iteration_passes == 0.0
    assert result.policies.user.tobytes() == winner.tobytes()
    assert result.policies.power.tobytes() == power.tobytes()
    assert result.policies.x.tobytes() == x.tobytes()
    assert result.enforced_interference.tobytes() == interference.tobytes()


@pytest.mark.parametrize("cfg", [
    deterministic_benchmark(),
    imperfect_benchmark(),
    deterministic_benchmark(num_subcarriers=1),
    _wide_m2(),
], ids=["deterministic", "imperfect", "k1", "m2"])
def test_power_search_starts_on_the_feasible_side(cfg):
    # no winner gets more than 1 / (ln2 mu0) = P_t / K, so the average is <= P_t
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, range(40)))
    k, p_t = cfg.num_subcarriers, cfg.total_power_w
    mu0 = k / (p_t * LN2)
    _, power, *_ = optimizer_module._solve_states(
        ws, mu0, np.zeros((40, cfg.num_primaries)))
    assert np.max(power) <= p_t / k * (1.0 + 1e-12)
    assert np.mean(np.sum(power, axis=1)) <= p_t


def test_solve_leaves_no_reference_cycles():
    # a cycle would keep a solve's (S, N, K) workspace arrays alive until the
    # cyclic collector runs, so back-to-back solves would pile them up
    for cfg in (deterministic_benchmark(interference_limit_w=(2.0,)),
                deterministic_benchmark(),
                deterministic_benchmark(noise_psd_dbm_hz=10.0, interference_limit_w=(0.05,),
                                        total_power_w=100.0)):
        _solve(cfg, 20)
        gc.collect()
        gc.disable()
        try:
            _solve(cfg, 20)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_work_counters_over_the_ith_sweep(monkeypatch):
    # deterministic preset, seed 6, 60 states: the doubling/halving search with
    # a mu = 0 probe first spent 192.68 passes and 318 _allocate calls here
    calls = []
    kernel = optimizer_module._allocate
    monkeypatch.setattr(optimizer_module, "_allocate",
                        lambda *args: calls.append(1) or kernel(*args))
    passes = {}
    for ith in (1.0, 2.0, 5.0, 10.0, 20.0):
        dual = _solve(deterministic_benchmark(rng_seed=6, interference_limit_w=(ith,)),
                     60).dual
        passes[ith] = dual.warm_start_passes + dual.iteration_passes
    assert sum(passes.values()) <= 135.0
    assert len(calls) <= 222
    assert passes[10.0] <= 6.0 and passes[20.0] <= 6.0


def _power_search(monkeypatch, power, binding=False):
    """``_warm_start_mu`` at P_t = 1 W, K = 1 and tol 5e-7 W on one stand-in state.

    Its average power is ``power(mu)``, with a state to tighten if
    ``binding``.  Returns (mu, solved, mus tried); the search starts at
    mu0 = 1 / ln2.
    """
    mus = []

    def solve_states(ws, mu, eta_start):
        mus.append(mu)
        return None, np.array([[power(mu)]]), None, None, np.full((1, 1), float(binding))

    monkeypatch.setattr(optimizer_module, "_solve_states", solve_states)
    ws = SimpleNamespace(cfg=SimpleNamespace(total_power_w=1.0, num_subcarriers=1,
                                             num_primaries=1),
                         count=1, budgets=np.array([1.0]), weights=np.full((1, 1, 1), 0.5))
    return (*optimizer_module._warm_start_mu(ws, 5e-7), mus)


def test_mu_search_brackets_a_power_law_in_one_step(monkeypatch):
    # along the exact slope a step lands _OVERSHOOT past the window, and the
    # line through the two trials then hits the aim; from below, the first
    # step doubles.  The prior slope is -0.5 once states bind, -1.5 before
    mu0 = 1.0 / LN2
    for exponent, binding in ((-1.5, False), (-0.5, True)):
        for start, count in ((0.2, 4), (9.0, 3)):
            root = mu0 / start

            def power(mu):
                return (mu / root) ** exponent

            mu, solved, mus = _power_search(monkeypatch, power, binding)
            assert abs(power(mu) - 1.0) <= 5e-7
            assert mu == mus[-1] and solved[1][0, 0] == power(mu)
            assert len(mus) == count
            base = mus[-3]
            past = base * math.exp(-(1.0 + optimizer_module._OVERSHOOT)
                                   * math.log(power(base)) / exponent)
            assert mus[-2] == pytest.approx(past, rel=1e-12)
            assert count == 3 or mus[1] == 2.0 * mus[0]


def test_mu_search_error_names_the_bracket(monkeypatch):
    # a power that never falls doubles mu up to mu0 2^59, then gives up
    with pytest.raises(ConvergenceError, match=r"cannot bracket the power multiplier: "
                       r"average power: 5 > 1 after 60 trials; "
                       r"final bracket \[8\.31657e\+17, inf\)$"):
        _power_search(monkeypatch, lambda mu: 5.0)


def test_mu_search_error_names_the_window_and_bracket(monkeypatch):
    # trials that run out inside a jump's bracket leave mu unsettled
    monkeypatch.setattr(optimizer_module, "_ETA_DOUBLINGS", 4)
    monkeypatch.setattr(optimizer_module, "_BISECT_STEPS", 2)
    jump = 3.7 / LN2
    with pytest.raises(ConvergenceError, match=r"power multiplier unsettled after 6 trials: "
                       r"average power 2 W not within 5e-07 W of 1 W; "
                       r"final bracket \[5\.29183, 5\.77078\]$"):
        _power_search(monkeypatch, lambda mu: 2.0 if mu < jump else 0.5)


def test_solve_keeps_the_feasible_end_of_a_power_jump():
    # one state's two subcarriers both switch winner at mu = 0.0255231, and
    # the average power jumps from 30.1055 W to 29.9535 W, across the whole
    # window: the solve keeps the feasible end
    cfg = deterministic_benchmark(num_subcarriers=2, num_users=2,
                                  interference_limit_w=(2.762,), rng_seed=112)
    result = _solve(cfg, 30)
    assert result.avg_power_w <= cfg.total_power_w
    assert result.dual.converged
    assert result.dual.iterations == 1 and result.dual.iteration_calls == 0
    assert result.dual.mu == pytest.approx(0.0255231, rel=1e-6)


def _jump(xstar, trials):
    """y = 2 below x* and 0.5 from x* on; a proposal aims past the jump."""
    def evaluate(x, rows):
        x = x.copy()
        xs = xstar if rows is None else xstar[rows]
        trials.append(x)
        y = np.where(x < xs, 2.0, 0.5)
        return y, lambda i: np.where(x[i] < xs[i], 1.5 * xs[i], 0.7 * xs[i])
    return evaluate


def _inside_the_bracket(trials, xstar):
    """Once a bracket is known, every trial lands strictly inside it."""
    lo, hi = 0.0, math.inf
    for trial in trials:
        if lo > 0.0 and hi < math.inf:
            assert lo < trial < hi
        if trial < xstar:
            lo = trial
        else:
            hi = trial


def test_find_root_across_a_jump():
    xstar = np.array([3.7, 0.02, 55.0, 1.0])
    trials = []
    x = _root(_jump(xstar, trials), np.ones(4))
    assert np.all((xstar <= x) & (x <= xstar + 1e-12 * np.maximum(xstar, 1.0)))
    assert len(trials) <= 50
    for one in xstar:
        trials = []
        _root(_jump(np.array([one]), trials), np.ones(1))
        _inside_the_bracket([float(t[0]) for t in trials], one)


def test_mu_search_across_a_jump(monkeypatch):
    # the power jumps from 2 W to 0.5 W across the window at mu*: the search
    # returns the feasible end of a 1e-12 bracket
    for ratio in (3.7, 0.02, 55.0, 1.0):
        jump = ratio / LN2
        mu, solved, mus = _power_search(monkeypatch, lambda mu: 2.0 if mu < jump else 0.5)
        assert jump <= mu <= jump + 1e-12 * max(jump, 1.0)
        assert solved[1][0, 0] == 0.5 and len(mus) <= 50
        _inside_the_bracket(mus, jump)


def test_single_subcarrier_solves_in_few_calls():
    # the Illinois and streak fallbacks spent 15-30 _allocate calls here
    for seed in range(1, 6):
        cfg = deterministic_benchmark(rng_seed=seed, num_subcarriers=1,
                                      interference_limit_w=(0.3,))
        dual = _solve(cfg, 60).dual
        assert dual.warm_start_calls + dual.iteration_calls <= 10


def test_zero_cross_gain_solves_at_every_correlation():
    # error_var == cross_var leaves a zero-mean estimate of variance 0 up to
    # rounding: exactly 0 at rho = 0 and 0.9, so the aggregate cross gain is 0
    ases = []
    for rho in (0.0, 0.5, 0.9):
        cfg = deterministic_benchmark(csi_mode="imperfect", error_var=0.1,
                                      cross_mean=0j, correlation=rho)
        ases.append(_solve(cfg, 50).ase)
    assert ases == pytest.approx([ases[0]] * 3, rel=1e-9, abs=0.0)


def test_power_bounds_under_the_budgets_set_mu_zero_without_a_trial():
    # each state puts at most budget / (least weight) into the band; on the
    # imperfect preset those bounds average below P_t, so the solve is the probe
    cfg = imperfect_benchmark()
    batch = sample_realizations(cfg, range(100))
    ws = optimizer_module._Workspace(cfg, batch)
    bound = np.min(ws.budgets / np.min(ws.weights, axis=2), axis=1)
    assert np.mean(bound) <= cfg.total_power_w
    probe = optimizer_module._solve_states(ws, 0.0, np.zeros((100, 1)))
    assert np.all(np.sum(probe[1], axis=1) <= bound * (1.0 + 1e-6))
    result = solve_dual(cfg, batch)
    assert result.dual.mu == 0.0 and result.dual.iteration_passes == 0.0
    assert result.dual.warm_start_passes == ws.evaluated / 100
    assert result.policies.power.tobytes() == probe[1].tobytes()


def test_mu_zero_probe_waits_for_two_tightened_trials(monkeypatch):
    # P(0) = 62.4 W <= P_t = 63 W, but the budget bounds average 63.6 W, so
    # the probe runs only after two trials with states to tighten
    cfg = deterministic_benchmark(noise_psd_dbm_hz=-15.0, interference_limit_w=(0.05,),
                                  total_power_w=63.0)
    batch = sample_realizations(cfg, range(40))
    trials = []
    solve_states = optimizer_module._solve_states
    monkeypatch.setattr(optimizer_module, "_solve_states", lambda ws, mu, *rest: (
        trials.append((mu, bool(np.any(ws.first_pass(mu)[1])) if mu > 0.0 else None))
        or solve_states(ws, mu, *rest)))
    result = solve_dual(cfg, batch)
    assert result.dual.mu == 0.0 and result.dual.iteration_passes == 0.0
    assert trials[-1][0] == 0.0 and all(mu > 0.0 for mu, _ in trials[:-1])
    assert sum(tight for _, tight in trials[:-1]) == 2
    ws = optimizer_module._Workspace(cfg, batch)
    probe = solve_states(ws, 0.0, np.zeros((40, 1)))
    assert result.policies.power.tobytes() == probe[1].tobytes()


def test_binding_points_skip_the_mu_zero_probe(monkeypatch):
    mus = []
    solve_states = optimizer_module._solve_states
    monkeypatch.setattr(optimizer_module, "_solve_states",
                        lambda ws, mu, *rest: mus.append(mu) or solve_states(ws, mu, *rest))
    for ith in (1.0, 2.0, 5.0):
        mus.clear()
        result = _solve(deterministic_benchmark(rng_seed=6, interference_limit_w=(ith,)),
                       60)
        assert np.any(result.dual.eta > 0.0) and result.dual.mu > 0.0
        assert 0.0 not in mus


def test_model_steps_over_the_ith_sweep(monkeypatch):
    # seed 6, 60 states: stepping along the line through the last two trials
    # spent 118.68 passes and 140 _allocate calls here
    calls = []
    kernel = optimizer_module._allocate
    monkeypatch.setattr(optimizer_module, "_allocate",
                        lambda *args: calls.append(1) or kernel(*args))
    passes = 0.0
    for ith in (1.0, 2.0, 5.0, 10.0, 20.0):
        dual = _solve(deterministic_benchmark(rng_seed=6, interference_limit_w=(ith,)),
                     60).dual
        passes += dual.warm_start_passes + dual.iteration_passes
    assert passes <= 85.0
    assert len(calls) <= 110


def test_model_steps_with_two_binding_primaries():
    # stepping along the line through the last two trials spent 81.93 here
    dual = _solve(_binding_m2(), 60).dual
    assert np.all(dual.eta > 0.0)
    assert dual.warm_start_passes + dual.iteration_passes <= 55.0


@pytest.mark.parametrize("factor", [0.6, 1.3])
def test_fixed_winners_reach_the_window_within_three_trials(monkeypatch, factor):
    # with one user no winner can switch, so each model root is the state's root
    cfg = deterministic_benchmark(num_users=1, rng_seed=6, interference_limit_w=(2.0,))
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, range(60)))
    roots = optimizer_module._solve_states(ws, 0.5, np.zeros((60, 1)))[4]
    bound = roots[:, 0] > 0.0
    assert np.sum(bound) >= 50
    calls = []
    kernel = optimizer_module._allocate
    monkeypatch.setattr(optimizer_module, "_allocate",
                        lambda *args: calls.append(1) or kernel(*args))
    alloc, bad = ws.first_pass(0.5)
    eta = optimizer_module._tighten(ws, 0.5, np.flatnonzero(bad), factor * roots[bad], alloc)
    assert len(calls) <= 1 + 3
    assert np.all(eta > 0.0)
    used = alloc[3][bad, 0]
    assert np.all((used <= ws.budgets[0]) & (used >= ws.budgets[0] * (1.0 - 1e-6)))


def _full_grid_bound(ws, mu, eta):
    """:func:`_dual_bound` with the maximum taken over every user of the grid."""
    priced = mu + np.einsum("sm,smk->sk", eta, ws.weights)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_level = 1.0 / (LN2 * priced)
        x = inv_level[:, None, :] / ws.pcut - 1.0
        np.maximum(x, 0.0, out=x)
        value = np.log1p(x) / LN2 - priced[:, None, :] * (x * ws.pcut)
    per_state = np.sum(np.max(value, axis=1), axis=1) + eta @ ws.budgets
    return mu * ws.cfg.total_power_w + float(np.mean(per_state))


@pytest.mark.parametrize("cfg, states", [
    (deterministic_benchmark(ber_target=1e-2), 100),
    (deterministic_benchmark(rng_seed=6, interference_limit_w=(2.0,)), 60),
    (imperfect_benchmark(), 100),
    (_wide_m2(rng_seed=6), 20),
    (_binding_m2(), 60),
], ids=["criterion-4", "ith2", "imperfect", "wide-m2", "binding-m2"])
def test_dual_bound_at_the_least_cut_user_matches_the_full_grid(cfg, states):
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, range(states)))
    rng = np.random.default_rng(states)
    m = cfg.num_primaries
    for point in range(30):
        mu = 0.0 if point % 3 == 0 else float(rng.uniform(0.01, 3.0))
        eta = rng.exponential(rng.choice([0.01, 1.0, 100.0]), (states, m))
        eta[rng.random(states) < 0.3] = 0.0
        fast, full = optimizer_module._dual_bound(ws, mu, eta), _full_grid_bound(ws, mu, eta)
        # mu = 0 with a row at eta = 0 is an unbounded state: NaN in both forms
        assert math.isnan(fast) == (mu == 0.0)
        assert np.float64(fast).tobytes() == np.float64(full).tobytes()


@pytest.mark.parametrize("mu", [0.9, 1.7, 3.3, 0.0])
def test_slack_states_share_one_water_level(mu):
    # with every eta at 0 the kernel skips the priced grid; the bytes stay
    cfg = deterministic_benchmark(num_subcarriers=16)
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, range(20)))
    arrays = ws.subset()
    eta = np.zeros((20, 1))
    with np.errstate(invalid="ignore"):
        winner, p_sel, x_sel, interference = optimizer_module._allocate(mu, eta, *arrays)
    power, x, metric = _candidates(mu, eta, *arrays)
    users = np.argmax(metric, axis=1)       # NaN, at mu = 0, is the maximum
    assert np.array_equal(winner, users)
    assert p_sel.tobytes() == np.take_along_axis(power, users[:, None], 1)[:, 0].tobytes()
    assert x_sel.tobytes() == np.take_along_axis(x, users[:, None], 1)[:, 0].tobytes()
    assert np.all(np.isinf(p_sel)) == (mu == 0.0)


def _reference_pass(mu, eta, arrays):
    """Winner, power, x and interference of every state by ``_candidates``."""
    power, x, metric = _candidates(mu, eta, *arrays)
    users = np.argmax(metric, axis=1)       # ties to the lowest user; NaN is the maximum
    p_sel = np.take_along_axis(power, users[:, None], 1)[:, 0]
    with np.errstate(invalid="ignore"):
        interference = np.einsum("sk,smk->sm", p_sel, arrays[3])
    return users, p_sel, np.take_along_axis(x, users[:, None], 1)[:, 0], interference


def _assert_same_bytes(got, want):
    for name, a, b in zip(("winner", "power", "x", "interference"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("cfg, states", [
    (deterministic_benchmark(rng_seed=6), 60),
    (_wide_m2(rng_seed=6), 20),
], ids=["deterministic", "wide-m2"])
def test_slack_passes_match_the_reference_kernel(cfg, states):
    # the kernel ranks on f (1 - t - ln t)+ with ln t from the stored ln pcut,
    # and builds power and x at the winners only; every byte must stay
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, range(states)))
    assert ws.log_pcut is None              # built by the first slack pass at mu > 0
    mu0 = cfg.num_subcarriers / (cfg.total_power_w * LN2)
    eta = np.zeros((states, cfg.num_primaries))
    loaded = []
    for mu in [*(mu0 * np.logspace(-3.0, 3.0, 25)), 0.0]:
        with np.errstate(invalid="ignore"):
            (winner, power, x, interference), _ = ws.first_pass(mu)
            want = _reference_pass(mu, eta, ws.subset())
            _assert_same_bytes((winner, power, x, interference), want)
            # without the stored logs the kernel takes them from pcut
            _assert_same_bytes(optimizer_module._allocate(mu, eta, *ws.subset()), want)
        assert (ws.log_pcut is None) == (mu == 0.0 and not loaded)
        loaded.append(np.mean(power > 0.0))
    assert loaded[0] == 1.0 and loaded[-2] == 0.0 and 0.0 < np.median(loaded) < 1.0


@pytest.mark.parametrize("n, m", [(3, 1), (5, 2)])
def test_priced_passes_match_the_reference_kernel(n, m):
    rng = np.random.default_rng(10 * n + m)
    s, k = 40, 12
    for trial in range(24):
        gamma = rng.exponential(1.0, (s, n, k))
        gamma[rng.random((s, n, k)) < 0.2] = 0.0
        gamma[:, :, 0] = 1e-9       # at mu > 0 no link of subcarrier 0 is loaded
        with np.errstate(divide="ignore"):
            pcut = 0.5 / (1.3 * gamma)
        density = rng.uniform(0.01, 2.0, (s, n, k))
        tiny = rng.random((s, n, k)) < 0.1
        density[tiny] = rng.choice([0.0, 1e-310, 1e-300], np.sum(tiny))
        with np.errstate(divide="ignore", over="ignore"):
            inv_density = np.where(density > 1e-300, 1.0 / density, 1e300)
        weights = rng.exponential(1.0, (s, m, k))
        weights[:, :, rng.integers(1, k)] = 0.0
        eta = rng.exponential(rng.choice([0.01, 1.0, 100.0]), (s, m))
        mu = 0.0 if trial % 2 == 0 else float(rng.uniform(0.01, 3.0))
        if mu == 0.0:
            # rows at eta = 0 price nothing; on row 0, user 0 has no cutoff
            # and user 1 a finite one at f = 0, which must still win
            eta[rng.random(s) < 0.3] = 0.0
            eta[0] = 0.0
            pcut[0, :2, 1] = np.inf, 0.7
            density[0, 1, 1], inv_density[0, 1, 1] = 0.0, 1e300
        arrays = (inv_density, density, pcut, weights)
        with np.errstate(invalid="ignore"):
            got = optimizer_module._allocate(mu, eta, *arrays)
            _assert_same_bytes(got, _reference_pass(mu, eta, arrays))
        if mu > 0.0:                # the tie at 0 goes to user 0
            assert np.all(got[0][:, 0] == 0) and np.all(got[1][:, 0] == 0.0)
        else:
            assert got[0][0, 1] == 1 and np.isinf(got[1][0, 1])


def test_call_counters_over_the_ith_sweep(monkeypatch):
    # a solve counts its _allocate calls beside its passes, split at the
    # end of the warm start like the passes
    calls, warm = [], []
    kernel, warm_start = optimizer_module._allocate, optimizer_module._warm_start_mu
    monkeypatch.setattr(optimizer_module, "_allocate",
                        lambda *args: calls.append(1) or kernel(*args))
    monkeypatch.setattr(optimizer_module, "_warm_start_mu",
                        lambda *args: (warm_start(*args), warm.append(len(calls)))[0])
    # the last solve forces two more iterations, one slack pass each
    for ith, more in ((1.0, 0), (2.0, 0), (5.0, 0), (10.0, 0), (20.0, 0), (10.0, 2)):
        calls.clear()
        dual = _solve(deterministic_benchmark(rng_seed=6, interference_limit_w=(ith,)),
                     60, iterations=1 + more).dual
        assert dual.warm_start_calls == warm[-1] > 0
        assert dual.iteration_calls == len(calls) - warm[-1]
        assert dual.iteration_calls == dual.iteration_passes == more


def test_workspace_density_equals_the_whole_pdf():
    # the pdf runs on blocks of 2^15 // (N K) = 16 rows of each binding
    # primary's states; the stack must hold the whole-array results
    cfg = _wide_m2(rng_seed=4)
    batch = sample_realizations(cfg, range(150))
    ws = optimizer_module._Workspace(cfg, batch)
    block = 2 ** 15 // (cfg.num_users * cfg.num_subcarriers)
    weights = batch.cross_true.real ** 2 + batch.cross_true.imag ** 2
    binding = np.argmin(ws.budgets / np.sum(weights, axis=2), axis=1)
    gamma = batch.direct_power * (ws.p_ref / cfg.total_noise_w)[:, None, None]
    agg_mean, agg_var = gaussian_sum_params(cfg.cross_mean, cfg.cross_var,
                                            cfg.num_subcarriers)
    for j in range(cfg.num_primaries):
        rows = binding == j
        assert np.sum(rows) > 3 * block
        dist = SinrDistribution(
            direct_mean=cfg.direct_gain_means, agg_mean=agg_mean, agg_var=agg_var,
            budget_w=float(ws.budgets[j]), total_power_w=cfg.total_power_w,
            noise_w=cfg.total_noise_w, num_subcarriers=cfg.num_subcarriers)
        assert ws.density[rows].tobytes() == dist.pdf(gamma[rows]).tobytes()
    density = ws.density.copy()
    with np.errstate(divide="ignore"):
        inv_density = np.where(density > 1e-300, 1.0 / density, 1e300)
    assert ws.inv_density.tobytes() == np.ascontiguousarray(inv_density).tobytes()
    pcut = ws.p_ref[:, None, None] / (ber_slope(cfg.ber_target) * gamma)
    assert np.ascontiguousarray(ws.pcut).tobytes() == pcut.tobytes()
    assert np.ascontiguousarray(ws.weights).tobytes() == weights.tobytes()


def test_workspace_build_peaks_near_the_links_stack():
    # the build writes into the (S, 3N + M, K) stack; only one block's pdf
    # temporaries and a few (S, M, K) arrays come on top
    cfg = _wide_m2()
    batch = sample_realizations(cfg, range(200))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ws = optimizer_module._Workspace(cfg, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ws.links.nbytes


def test_mu_zero_slack_pass_matches_the_priced_path():
    # at eta = 0 and mu = 0 the first user with a finite cutoff wins at power
    # inf - pcut, with no per-link metric; one priced row sends the same
    # arrays down the priced path, whose other rows must give the same bytes
    cfg = imperfect_benchmark()
    states = 200
    ws = optimizer_module._Workspace(cfg, sample_realizations(cfg, range(states)))
    arrays = tuple(a.copy() for a in ws.subset())
    pcut = arrays[2]
    pcut[0, :, 3] = np.inf          # no finite cutoff: user 0 at NaN power
    pcut[1, 0, 5] = np.inf          # user 1 has the first finite cutoff
    eta = np.zeros((states, cfg.num_primaries))
    priced = eta.copy()
    priced[-1] = 1.0
    with np.errstate(invalid="ignore"):
        got = optimizer_module._allocate(0.0, eta, *arrays)
        want = optimizer_module._allocate(0.0, priced, *arrays)
        _assert_same_bytes([a[:-1] for a in got], [a[:-1] for a in want])
        _assert_same_bytes(got, _reference_pass(0.0, eta, arrays))
    winner, power, x, interference = got
    assert winner[0, 3] == 0 and np.isnan(power[0, 3]) and x[0, 3] == 0.0
    assert np.all(np.isnan(interference[0]))
    assert winner[1, 5] == 1 and np.isinf(power[1, 5])
    assert np.all(np.isinf(power[2:])) and np.all(np.isinf(x[2:]))
    assert np.all(np.isinf(interference[1:]))
