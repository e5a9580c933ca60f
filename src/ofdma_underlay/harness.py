"""Monte Carlo evaluation harness: experiments, audits, sweeps, artifacts.

An experiment draws a batch of fading states, solves the dual allocation,
then audits what the allocation actually does to the primaries: realized
interference with the true cross gains in every mode and, when the
constraint is probabilistic, the collision judgement of
:func:`~ofdma_underlay.interference.audit_collisions`: a two-moment fit
of every state's collision probability, and posterior resampling of the
states the fit ranks worst.
Sweeps rerun the experiment along one scenario axis, on one shared
read-only draw unless the axis (the subcarrier count) changes the draw,
and serialize rows to a fixed-header CSV with a JSON sidecar.  Each point
is solved and audited on its sweep worker, so every row equals the lone
experiment.  All artifacts are deterministic for a given config and
seed: stable float formatting, sorted keys, no timestamps.
"""

from __future__ import annotations

import contextvars
import functools
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import sample_realizations
from .config import ScenarioConfig, parse_value
from .errors import ConfigError
from .interference import audit_collisions, audit_deterministic, enforced_budgets
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
    "write_json",
    "write_text",
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

# the draw a sweep shares with the run_experiment call of each point
# (None when each point draws its own)
_sweep_point = contextvars.ContextVar("sweep_point", default=None)


def format_float(value) -> str:
    """Stable float formatting for artifacts ('' for None)."""
    if value is None:
        return ""
    return "%.12g" % float(value)


@dataclass
class EvaluationReport:
    """Summary of one experiment; arrays live on ``result``, not in JSON.

    ``fingerprint`` hashes ``result.cfg`` on first read: only the JSON
    artifacts and the CLI summary show it.
    """

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

    @functools.cached_property
    def fingerprint(self) -> str:
        return self.result.cfg.fingerprint()

    def to_mapping(self) -> dict:
        return {"fingerprint": self.fingerprint,
                **{f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("result", "collision_analytic")}}


def _report(cfg: ScenarioConfig, num_states: int, **measured) -> EvaluationReport:
    """A report of ``cfg``'s scenario fields, plus the ``measured`` ones."""
    return EvaluationReport(
        csi_mode=cfg.csi_mode,
        constraint_mode=cfg.constraint_mode, rate_mode=cfg.rate_mode,
        num_states=num_states, total_power_w=cfg.total_power_w,
        interference_limit_w=list(cfg.interference_limit_w),
        collision_limit=list(cfg.collision_limit), ber_target=cfg.ber_target,
        **measured)


def run_experiment(cfg: ScenarioConfig, num_states: int, *, iterations: int = 1,
                   audit_states: int = 32,
                   audit_samples: int = 20000) -> EvaluationReport:
    """Solve one scenario over ``num_states`` fading states and audit it.

    ``iterations`` goes to :func:`solve_dual` (1: the settled warm start).
    Probabilistic runs judge collisions with one :func:`audit_collisions`
    call on ``audit_states`` and ``audit_samples`` (0 states skips the
    resampling; the analytic column stays).  Inside a sweep the point
    reuses the sweep's draw of the states.  A zero power budget
    short-circuits to an all-zero report.
    """
    if num_states < 1 or iterations < 1:
        raise ConfigError("num_states and iterations must be >= 1")
    if audit_states < 0 or audit_samples < 1:
        raise ConfigError("audit_states must be >= 0 and audit_samples >= 1")
    probabilistic = cfg.constraint_mode == "probabilistic"
    if cfg.total_power_w == 0.0:
        zeros = [0.0] * cfg.num_primaries
        report = _report(
            cfg, num_states, ase=0.0, ase_stderr=0.0, avg_power_w=0.0,
            power_gap_w=0.0, mu=0.0, iterations=0, converged=True,
            budgets_w=[float(b) for b in enforced_budgets(cfg)],
            enforced_interference_max=zeros, true_interference_mean=zeros,
            true_interference_max=zeros, true_violation_rate=zeros,
            collision_analytic_max=zeros if probabilistic else None)
        report.fingerprint = cfg.fingerprint()      # no solve holds the config here
        return report

    batch = _sweep_point.get() or sample_realizations(cfg, range(num_states))
    result = solve_dual(cfg, batch, iterations=iterations)
    power_sel = result.policies.power                               # (S, K)

    true_interf = audit_deterministic(power_sel, batch.cross_true)  # (S, M)
    limits = np.asarray(cfg.interference_limit_w)
    violation = np.mean(true_interf > limits * (1.0 + 1e-6), axis=0)

    analytic = analytic_max = worst = stderr = None
    picks = ()
    if probabilistic:
        start = time.perf_counter()
        analytic, picks, worst, stderr = audit_collisions(
            cfg, batch.cross_est, power_sel, audit_states, audit_samples)
        analytic_max = [float(x) for x in np.max(analytic, axis=0)]
        if len(picks):
            width = int(np.max(np.sum(power_sel[picks] > 0.0, axis=1)))
            _log.debug("collision audit: %d states, %d loaded links at most, "
                       "%d normals, %.3f s", len(picks), width,
                       2 * audit_samples * cfg.num_primaries * width,
                       time.perf_counter() - start)

    return _report(
        cfg, num_states, ase=result.ase, ase_stderr=result.ase_stderr,
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
        collision_analytic_max=analytic_max,
        collision_mc_max=None if worst is None else [float(x) for x in worst],
        collision_mc_stderr=stderr, audited_states=len(picks),
        result=result, collision_analytic=analytic)


def _axis_update(cfg: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    field_name = SWEEP_AXES.get(axis, axis)
    if field_name not in SWEEP_AXES.values():
        raise ConfigError("unknown sweep axis %r (choices: %s)"
                          % (axis, ", ".join(sorted(SWEEP_AXES))))
    if field_name == "collision_limit" and cfg.constraint_mode != "probabilistic":
        raise ConfigError("sweep axis %r sets collision_limit, which %s mode never "
                          "reads: every row would repeat" % (axis, cfg.constraint_mode))
    return cfg.with_updates(**{field_name: parse_value(field_name, value)})


def sweep(cfg: ScenarioConfig, axis: str, values, num_states: int, *,
          threads: int = 1, **experiment_kwargs) -> list[EvaluationReport]:
    """Run one experiment per axis value; rows keep the input order.

    Values must be sorted nondecreasing so the monotonicity diagnostics
    (plateau flags, trend checks) read off the rows directly; the
    ``epsilon`` axis needs probabilistic control.  Each point is solved
    and audited on one of ``threads`` workers, on the states the sweep
    draws once (per point when the axis is the subcarrier count), so
    every row equals ``run_experiment`` on that point.
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
        context = contextvars.copy_context()
        context.run(_sweep_point.set, shared)
        return context.run(run_experiment, c, num_states, **experiment_kwargs)

    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        return list((pool.map if threads > 1 else map)(job, configs))


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
        if rep.constraint_mode == "probabilistic":
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


def write_text(path, text: str) -> None:
    """Write an artifact as UTF-8 with the newlines as given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_sweep_csv(path, values, reports) -> None:
    write_text(path, "\n".join(sweep_csv_rows(values, reports)) + "\n")


def write_sweep_json(path, cfg: ScenarioConfig, axis: str, values,
                     reports) -> None:
    write_json(path, {
        "config": cfg.to_mapping(),
        "axis": axis,
        "values": [float(v) for v in values],
        "plateau": plateau_flags(reports),
        "rows": [rep.to_mapping() for rep in reports],
    })


def write_trace_csv(path, dual_state) -> None:
    """One row per iteration of ``dual_state``; the header alone for None."""
    lines = [TRACE_HEADER]
    if dual_state is not None:      # the header names the trace's columns in order
        columns = (dual_state.trace[name] for name in TRACE_HEADER.split(","))
        for it, *values in zip(*columns):
            lines.append(",".join(["%d" % it, *map(format_float, values)]))
    write_text(path, "\n".join(lines) + "\n")
