"""Monte Carlo evaluation harness: experiments, audits, sweeps, artifacts.

An experiment draws a batch of fading states, solves the dual allocation,
then audits what the allocation actually does to the primaries: realized
interference with the true cross gains in every mode, plus per-state
collision probabilities (a two-moment scaled chi-square fit of the
weighted sum over the loaded subcarriers everywhere, posterior
resampling on the states that fit ranks worst) when the constraint is
probabilistic.  The resampling redraws only the loaded cross links: an
unloaded one adds exactly 0 to the interference, so the estimate has
the law of a redraw of all K links at L/K of the normals (L loaded).
Sweeps rerun the experiment along one scenario axis, on one shared
read-only draw unless the axis (the subcarrier count) changes the draw,
and serialize rows to a fixed-header CSV with a JSON sidecar.  A sweep
resamples after every point is solved, in one pass over all points: a
state's redraws depend only on its audit stream and its posterior on
the loaded links, so points that load a state alike share one draw of
it, the distinct draws run on the sweep's workers, and every row equals
the lone experiment.  All artifacts are deterministic for a given
config and seed: stable float formatting, sorted keys, no timestamps.
"""

from __future__ import annotations

import contextvars
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from ._special import gammaincc
from .channel import posterior_stats, sample_realizations
from .config import ScenarioConfig, parse_value
from .errors import ConfigError
from .interference import (_AUDIT_TAG, _hit_rates, _posterior_gains,
                           audit_deterministic, enforced_budgets, xi_means)
from .optimizer import SolveResult, solve_dual

__all__ = [
    "EvaluationReport",
    "run_experiment",
    "sweep",
    "plateau_flags",
    "SWEEP_AXES",
    "sweep_csv_rows",
    "write_sweep_csv",
    "write_sweep_json",
    "write_trace_csv",
    "format_float",
]

SWEEP_AXES = {
    "ith": "interference_limit_w",
    "i_th": "interference_limit_w",
    "pt": "total_power_w",
    "p_t": "total_power_w",
    "epsilon": "collision_limit",
    "xi": "ber_target",
    "k": "num_subcarriers",
}

SWEEP_HEADER = "axis_value,ase,ase_stderr,power_used,max_interf,collision,epsilon"
TRACE_HEADER = "iter,mu,primal_ase,dual_value,power_gap"
_PLATEAU_GAIN = 0.01    # a sweep row gaining less ASE than this share of the last is flat

_log = logging.getLogger(__name__)

# what a sweep shares with the run_experiment call of one point: the draw
# (None when each point draws its own) and the list that call leaves its
# pending collision audit on
_sweep_point = contextvars.ContextVar("sweep_point", default=None)


def format_float(value) -> str:
    """Stable float formatting for artifacts ('' for None)."""
    if value is None:
        return ""
    return "%.12g" % float(value)


@dataclass
class EvaluationReport:
    """Summary of one experiment; arrays live on ``result``, not in JSON."""

    fingerprint: str
    csi_mode: str
    constraint_mode: str
    rate_mode: str
    num_states: int
    total_power_w: float
    interference_limit_w: list
    collision_limit: list
    ber_target: float
    ase: float
    ase_stderr: float
    avg_power_w: float
    power_gap_w: float
    mu: float
    iterations: int
    converged: bool
    budgets_w: list
    enforced_interference_max: list
    true_interference_mean: list
    true_interference_max: list
    true_violation_rate: list
    collision_analytic_max: list | None = None
    collision_mc_max: list | None = None
    collision_mc_stderr: float | None = None
    audited_states: int = 0
    result: SolveResult | None = field(default=None, repr=False)
    collision_analytic: np.ndarray | None = field(default=None, repr=False)

    def to_mapping(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("result", "collision_analytic")}


def _zero_power_report(cfg: ScenarioConfig, num_states: int) -> EvaluationReport:
    m = cfg.num_primaries
    zeros = [0.0] * m
    budgets = [float(b) for b in enforced_budgets(cfg)]
    return EvaluationReport(
        fingerprint=cfg.fingerprint(), csi_mode=cfg.csi_mode,
        constraint_mode=cfg.constraint_mode, rate_mode=cfg.rate_mode,
        num_states=num_states, total_power_w=0.0,
        interference_limit_w=list(cfg.interference_limit_w),
        collision_limit=list(cfg.collision_limit), ber_target=cfg.ber_target,
        ase=0.0, ase_stderr=0.0, avg_power_w=0.0, power_gap_w=0.0,
        mu=0.0, iterations=0, converged=True, budgets_w=budgets,
        enforced_interference_max=zeros, true_interference_mean=zeros,
        true_interference_max=zeros, true_violation_rate=zeros,
        collision_analytic_max=(zeros if cfg.constraint_mode == "probabilistic"
                                else None),
        collision_mc_max=None, collision_mc_stderr=None, audited_states=0)


def _collision_analytic(cfg: ScenarioConfig, batch, power_sel: np.ndarray):
    """Per-state, per-primary collision probability of the solved powers.

    The interference given the estimate is sum_k lam_k chisq_2(delta_k)
    with lam_k = P_k * v.  A two-moment (Satterthwaite) fit matches it to
    scale * chisq_dof with mean sum lam (2 + delta) and variance
    sum 4 lam^2 (1 + delta), so only the loaded subcarriers count.  The
    fit is exact for one loaded subcarrier with a zero-mean posterior and
    approximate otherwise.
    """
    post = posterior_stats(cfg, batch.cross_est)                    # (S, M, K)
    delta = xi_means(post)
    lam = power_sel[:, None, :] * post.variance                     # (S, M, K)
    mean = np.sum(lam * (2.0 + delta), axis=2)                      # (S, M)
    var = np.sum(4.0 * lam * lam * (1.0 + delta), axis=2)
    limits = np.asarray(cfg.interference_limit_w)
    out = np.zeros_like(mean)
    live = var > 0.0
    if np.any(live):
        mean, var = mean[live], var[live]
        scale = var / (2.0 * mean)
        dof = 2.0 * mean * mean / var
        threshold = np.broadcast_to(limits, out.shape)[live] / scale
        out[live] = gammaincc(dof / 2.0, threshold / 2.0)
    return out


def _worst_collisions(prob: np.ndarray, samples: int):
    """Each primary's worst rate over the (picks, M) rates, taken in pick
    order, and the largest of the stderrs taken at those worst states."""
    worst = np.zeros(prob.shape[1])
    worst_stderr = np.zeros(prob.shape[1])
    for rate in prob:
        stderr = np.sqrt(np.maximum(rate * (1.0 - rate), 1.0 / samples) / samples)
        pick = rate > worst
        worst = np.where(pick, rate, worst)
        worst_stderr = np.where(pick, stderr, worst_stderr)
    return worst, float(np.max(worst_stderr))


def _pending_audit(report, cfg: ScenarioConfig, batch, picks, samples: int):
    """What the collision audit needs of one point, without its batch.

    Per pick, in pick order: the key its redraws depend on (run seed,
    stream, sample count, loaded support, posterior mean on it and
    variance), that mean and the loaded powers.
    """
    requests = []
    for s in picks:
        power = report.result.policies.power[s]
        loaded = power > 0.0
        post = posterior_stats(cfg, batch.cross_est[s])             # (M, K)
        mean = post.mean[:, loaded]
        key = (cfg.rng_seed, int(batch.streams[s]), samples, loaded.tobytes(),
               mean.tobytes(), post.variance)
        requests.append((key, mean, power[loaded]))
    return report, np.asarray(cfg.interference_limit_w), samples, requests


def _audit_collisions(audits, spread=map) -> None:
    """Posterior-resampled collision rates of every pending point's picks.

    ``audits`` holds one ``_pending_audit`` per point.  The (point, state)
    pairs that share a key share one draw, and each applies its own powers
    and limits to it; ``spread`` maps the draws over the distinct keys (a
    thread pool's ``map`` runs them side by side, each on its own stream).
    Fills each report's ``collision_mc_max`` and ``collision_mc_stderr``.
    """
    start = time.perf_counter()
    groups = {}
    rates = []
    for report, limits, samples, requests in audits:
        rates.append(np.zeros((len(requests), limits.size)))
        for row, (key, mean, power) in zip(rates[-1], requests):
            groups.setdefault(key, (mean, []))[1].append((row, power, limits))

    def draw(group):
        (seed, stream, samples, *_, variance), (mean, members) = group
        rng = np.random.default_rng(np.random.SeedSequence((seed, _AUDIT_TAG, stream)))
        rows, powers, limits = zip(*members)
        gains = _posterior_gains(rng, mean, variance, samples)
        for row, rate in zip(rows, _hit_rates(gains, powers, limits, samples)):
            row[:] = rate

    list(spread(draw, groups.items()))
    for (report, _, samples, _), prob in zip(audits, rates):
        worst, report.collision_mc_stderr = _worst_collisions(prob, samples)
        report.collision_mc_max = [float(x) for x in worst]
    _log.debug("collision audit: %d points, %d pairs, %d draws, %.3f s",
               len(audits), sum(r.shape[0] for r in rates), len(groups),
               time.perf_counter() - start)


def run_experiment(cfg: ScenarioConfig, num_states: int, *,
                   max_iterations: int = 500, run_all_iterations: bool = False,
                   audit_states: int = 32,
                   audit_samples: int = 20000) -> EvaluationReport:
    """Solve one scenario over ``num_states`` fading states and audit it.

    Probabilistic runs resample the ``audit_states`` analytically worst
    states from the posterior (0 skips that audit; the analytic column
    stays).  Inside a sweep the report comes back with ``audited_states``
    set and its resampled columns left for the sweep to fill; a lone run
    fills them itself through the same ``_audit_collisions``.  A zero
    power budget short-circuits to an all-zero report.
    """
    if num_states < 1:
        raise ConfigError("num_states must be >= 1")
    if audit_states < 0 or audit_samples < 1:
        raise ConfigError("audit_states must be >= 0 and audit_samples >= 1")
    if cfg.total_power_w == 0.0:
        return _zero_power_report(cfg, num_states)

    shared, pending = _sweep_point.get() or (None, None)
    batch = shared or sample_realizations(cfg, range(num_states))
    result = solve_dual(cfg, batch, max_iterations=max_iterations,
                        run_all_iterations=run_all_iterations)
    power_sel = result.policies.power                               # (S, K)

    true_interf = audit_deterministic(power_sel, batch.cross_true)  # (S, M)
    limits = np.asarray(cfg.interference_limit_w)
    violation = np.mean(true_interf > limits * (1.0 + 1e-6), axis=0)

    probabilistic = cfg.constraint_mode == "probabilistic"
    analytic = analytic_max = None
    picks = ()
    if probabilistic:
        analytic = _collision_analytic(cfg, batch, power_sel)
        analytic_max = [float(x) for x in np.max(analytic, axis=0)]
        if audit_states > 0:
            # audit the analytically worst states; the fit ranks states,
            # it does not bound them
            order = np.argsort(np.max(analytic, axis=1))[::-1]
            picks = order[:min(audit_states, num_states)]

    report = EvaluationReport(
        fingerprint=cfg.fingerprint(), csi_mode=cfg.csi_mode,
        constraint_mode=cfg.constraint_mode, rate_mode=cfg.rate_mode,
        num_states=num_states, total_power_w=cfg.total_power_w,
        interference_limit_w=list(cfg.interference_limit_w),
        collision_limit=list(cfg.collision_limit), ber_target=cfg.ber_target,
        ase=result.ase, ase_stderr=result.ase_stderr,
        avg_power_w=result.avg_power_w,
        power_gap_w=result.avg_power_w - cfg.total_power_w,
        mu=result.dual.mu, iterations=result.dual.iterations,
        converged=result.dual.converged,
        budgets_w=[float(x) for x in result.budgets_w],
        enforced_interference_max=[float(x) for x in
                                   np.max(result.enforced_interference, axis=0)],
        true_interference_mean=[float(x) for x in np.mean(true_interf, axis=0)],
        true_interference_max=[float(x) for x in np.max(true_interf, axis=0)],
        true_violation_rate=[float(x) for x in violation],
        collision_analytic_max=analytic_max, audited_states=len(picks),
        result=result, collision_analytic=analytic)
    if len(picks):
        audit = _pending_audit(report, cfg, batch, picks, audit_samples)
        if pending is None:
            _audit_collisions([audit])
        else:
            pending.append(audit)
    return report


def _axis_update(cfg: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    field_name = SWEEP_AXES.get(axis, axis)
    if field_name not in SWEEP_AXES.values():
        raise ConfigError("unknown sweep axis %r (choices: %s)"
                          % (axis, ", ".join(sorted(SWEEP_AXES))))
    return cfg.with_updates(**{field_name: parse_value(field_name, value)})


def sweep(cfg: ScenarioConfig, axis: str, values, num_states: int, *,
          threads: int = 1, **experiment_kwargs) -> list[EvaluationReport]:
    """Run one experiment per axis value; rows keep the input order.

    Values must be sorted nondecreasing so the monotonicity diagnostics
    (plateau flags, trend checks) read off the rows directly.  Every point
    is solved first (on ``threads`` workers); then one collision audit
    covers all points, drawing each state's posterior redraws once for
    every point that loads it alike, with the distinct draws spread over
    the same workers.
    """
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    if any(a > b for a, b in zip(values, values[1:])):
        raise ConfigError("sweep values must be sorted nondecreasing")
    configs = [_axis_update(cfg, axis, v) for v in values]
    shared = (None if SWEEP_AXES.get(axis, axis) == "num_subcarriers"
              else sample_realizations(configs[0], range(num_states)))

    def job(c):
        pending = []
        context = contextvars.copy_context()
        context.run(_sweep_point.set, (shared, pending))
        return context.run(run_experiment, c, num_states, **experiment_kwargs), pending

    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        spread = pool.map if threads > 1 else map
        points = list(spread(job, configs))
        audits = [audit for _, pending in points for audit in pending]
        if audits:
            _audit_collisions(audits, spread)
    return [report for report, _ in points]


def plateau_flags(reports) -> list:
    """Flag rows whose ASE gain over the previous row is below _PLATEAU_GAIN."""
    flags = [False]
    for prev, cur in zip(reports, reports[1:]):
        base = max(abs(prev.ase), 1e-12)
        flags.append((cur.ase - prev.ase) < _PLATEAU_GAIN * base)
    return flags


def sweep_csv_rows(values, reports) -> list[str]:
    rows = [SWEEP_HEADER]
    for value, rep in zip(values, reports):
        probabilistic = rep.constraint_mode == "probabilistic"
        if probabilistic:
            collision = max(rep.collision_analytic_max or [0.0])
            epsilon = min(rep.collision_limit)
        else:
            collision = max(rep.true_violation_rate or [0.0])
            epsilon = None
        rows.append(",".join([
            format_float(value), format_float(rep.ase),
            format_float(rep.ase_stderr), format_float(rep.avg_power_w),
            format_float(max(rep.true_interference_max or [0.0])),
            format_float(collision), format_float(epsilon)]))
    return rows


def write_sweep_csv(path, values, reports) -> None:
    text = "\n".join(sweep_csv_rows(values, reports)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_sweep_json(path, cfg: ScenarioConfig, axis: str, values,
                     reports) -> None:
    payload = {
        "config": cfg.to_mapping(),
        "axis": axis,
        "values": [float(v) for v in values],
        "plateau": plateau_flags(reports),
        "rows": [rep.to_mapping() for rep in reports],
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_csv(path, dual_state) -> None:
    trace = dual_state.trace
    lines = [TRACE_HEADER]
    for i in range(len(trace["iter"])):
        lines.append(",".join([
            "%d" % trace["iter"][i], format_float(trace["mu"][i]),
            format_float(trace["primal_ase"][i]),
            format_float(trace["dual_value"][i]),
            format_float(trace["power_gap"][i])]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
