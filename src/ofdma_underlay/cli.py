"""Command line front end.

Subcommands:

* ``validate``   resolve a scenario (file, preset or defaults, plus
  overrides) and echo the resolved key=value view, which loads back
  through ``--config`` as the same scenario.
* ``run``        solve one scenario, print a summary; with ``--out DIR``
  also write ``report.json`` and the dual trace ``trace.csv`` there.
* ``sweep``      rerun the experiment along one axis and write
  ``sweep.csv`` plus the ``sweep.json`` sidecar into ``--out DIR``.
* ``dist-table`` tabulate the closed-form reference-SINR cdf/pdf on a
  gamma grid (``dist_table.csv`` under ``--out DIR``, else stdout),
  optionally with a Monte Carlo cdf column.
* ``selftest``   run the quick internal consistency battery.

Exit codes: 0 success, 2 configuration or usage problems, 3 the power
multiplier search or a special-function series did not converge, 4 an
interference budget cannot be met.
Failures print one line ``ERROR <code>: <message>`` to stderr.  Output
files carry no timestamps, so reruns with the same inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ScenarioConfig, apply_overrides, build_config, load_config
from .errors import ConfigError, ConvergenceError, InfeasibleError
from .harness import (SWEEP_AXES, format_float, run_experiment, sweep,
                      write_json, write_sweep_csv, write_sweep_json,
                      write_text, write_trace_csv)
from .presets import PRESETS, get_preset
from .selftest import run_selftest
from .sinr import sample_sinr_mc, sinr_distribution

__all__ = ["main", "build_parser"]


def _resolve_config(args) -> ScenarioConfig:
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append("rng_seed=%d" % args.seed)
    if args.mode:
        overrides.append("constraint_mode=%s" % args.mode)
    if args.rate:
        overrides.append("rate_mode=%s" % args.rate)
    if args.config:
        cfg = load_config(args.config, overrides)
    else:
        base = get_preset(args.preset) if args.preset else ScenarioConfig()
        cfg = build_config(apply_overrides(base.key_values(), overrides))
    cfg.check_solvable()
    return cfg


def _add_config_flags(sub):
    sub.add_argument("--config", metavar="PATH",
                     help="flat key=value scenario file")
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="named benchmark scenario")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    sub.add_argument("--seed", type=int, help="override rng_seed")
    sub.add_argument("--mode", choices=("deterministic", "probabilistic"),
                     help="override constraint_mode (probabilistic needs "
                          "imperfect CSI in the scenario)")
    sub.add_argument("--rate", choices=("continuous", "discrete"),
                     help="override rate_mode")


def _add_experiment_flags(sub):
    sub.add_argument("--states", type=int, default=2000,
                     help="number of fading states (default 2000)")
    sub.add_argument("--audit-states", type=int, default=32,
                     help="states resampled for the collision audit")
    sub.add_argument("--audit-samples", type=int, default=20000,
                     help="posterior draws per audited state")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdma-underlay",
        description="Resource allocation for an underlay OFDMA downlink "
                    "under interference constraints.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="resolve and echo a scenario")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("run", help="solve one scenario")
    _add_config_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--iterations", type=int, default=1,
                   help="dual iterations; each past the first is a projected "
                        "subgradient step, for convergence studies (default 1)")
    p.add_argument("--out", metavar="DIR",
                   help="write report.json and trace.csv into this directory")
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("sweep", help="sweep one scenario axis")
    _add_config_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES),
                   help="which scenario knob to sweep")
    p.add_argument("--values", required=True,
                   help="comma-separated axis values, sorted nondecreasing")
    p.add_argument("--threads", type=int, default=None,
                   help="parallel experiments (default: machine parallelism)")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for sweep.csv and sweep.json")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("dist-table",
                        help="tabulate one link's reference-SINR law (the "
                             "solver's only under perfect CSI, deterministic mode)")
    _add_config_flags(p)
    p.add_argument("--user", type=int, default=0)
    p.add_argument("--subcarrier", type=int, default=0)
    p.add_argument("--primary", type=int, default=0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--gamma-max", type=float, default=None,
                   help="grid end (default: 8x the typical SINR)")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="add a Monte Carlo cdf column from this many draws")
    p.add_argument("--out", metavar="DIR",
                   help="write dist_table.csv into this directory "
                        "(default: print to stdout)")
    p.set_defaults(func=_cmd_dist_table)

    p = subs.add_parser("selftest", help="quick internal consistency battery")
    p.set_defaults(func=_cmd_selftest)
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_validate(args) -> int:
    cfg = _resolve_config(args)
    for key, text in sorted(cfg.key_values().items()):
        print("%s = %s" % (key, text))
    print("# fingerprint = %s" % cfg.fingerprint())
    return 0


def _report_lines(cfg: ScenarioConfig, rep) -> list:
    lines = [
        "scenario %s  csi=%s constraint=%s rate=%s" % (
            rep.fingerprint, rep.csi_mode, rep.constraint_mode, rep.rate_mode),
        "states %d  users %d  primaries %d  subcarriers %d" % (
            rep.num_states, cfg.num_users, cfg.num_primaries, cfg.num_subcarriers),
        "ase %.6g +/- %.2g bits/s/Hz" % (rep.ase, rep.ase_stderr),
        "avg power %.6g W of %.6g W (gap %.3g W)" % (
            rep.avg_power_w, rep.total_power_w, rep.power_gap_w),
        "mu %.6g  iterations %d  converged %s" % (
            rep.mu, rep.iterations, rep.converged),
    ]
    for j in range(cfg.num_primaries):
        lines.append(
            "primary %d: budget %.6g W, enforced max %.6g W, "
            "true max %.6g W, violation rate %.3g" % (
                j, rep.budgets_w[j], rep.enforced_interference_max[j],
                rep.true_interference_max[j], rep.true_violation_rate[j]))
        if rep.collision_analytic_max is not None:
            mc = ("%.3g" % rep.collision_mc_max[j]
                  if rep.collision_mc_max is not None else "-")
            lines.append(
                "primary %d: collision limit %.3g, analytic max %.3g, "
                "MC max %s (%d states audited)" % (
                    j, rep.collision_limit[j], rep.collision_analytic_max[j],
                    mc, rep.audited_states))
    return lines


def _out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    rep = run_experiment(cfg, args.states, iterations=args.iterations,
                         audit_states=args.audit_states,
                         audit_samples=args.audit_samples)
    for line in _report_lines(cfg, rep):
        print(line)
    if args.out:
        out = _out_dir(args.out)
        report_path = os.path.join(out, "report.json")
        trace_path = os.path.join(out, "trace.csv")
        write_json(report_path, {"config": cfg.to_mapping(),
                                 "report": rep.to_mapping()})
        write_trace_csv(trace_path, rep.result.dual if rep.result else None)
        print("wrote %s and %s" % (report_path, trace_path))
    return 0


def _parse_values(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError("--values must be comma-separated numbers, got %r"
                          % text)


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    values = _parse_values(args.values)
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    if threads < 1:
        raise ConfigError("--threads must be >= 1")
    reports = sweep(cfg, args.axis, values, args.states, threads=threads,
                    audit_states=args.audit_states,
                    audit_samples=args.audit_samples)
    out = _out_dir(args.out)
    csv_path = os.path.join(out, "sweep.csv")
    json_path = os.path.join(out, "sweep.json")
    write_sweep_csv(csv_path, values, reports)
    write_sweep_json(json_path, cfg, args.axis, values, reports)
    print("wrote %s and %s (%d rows)" % (csv_path, json_path, len(values)))
    return 0


def _cmd_dist_table(args) -> int:
    cfg = _resolve_config(args)
    n, k, m = args.user, args.subcarrier, args.primary
    dist = sinr_distribution(cfg, n, k, m)
    if args.points < 2:
        raise ConfigError("--points must be >= 2")
    if args.mc_samples < 0:
        raise ConfigError("--mc-samples must be >= 0")
    gamma_max = args.gamma_max
    if gamma_max is None:
        gamma_max = 8.0 * dist.direct_mean * dist.ref_power_w / cfg.total_noise_w
    if not 0.0 < gamma_max < np.inf:
        raise ConfigError("--gamma-max must be positive and finite")
    grid = np.linspace(0.0, gamma_max, args.points)
    columns = ["gamma", "cdf_closed", "pdf_closed"]
    cdf = dist.cdf(grid)
    pdf = dist.pdf(grid)
    table = [grid, cdf, pdf]
    if args.mc_samples > 0:
        draws = sample_sinr_mc(cfg, n, k, m, args.mc_samples)
        table.append(np.searchsorted(draws, grid, side="right") / draws.size)
        columns.append("cdf_mc")
    lines = [",".join(columns)]
    for i in range(args.points):
        lines.append(",".join(format_float(col[i]) for col in table))
    text = "\n".join(lines) + "\n"
    if args.out:
        path = os.path.join(_out_dir(args.out), "dist_table.csv")
        write_text(path, text)
        print("wrote %s (%d points)" % (path, args.points))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest()
    failed = 0
    for name, passed, detail in results:
        print("%s %s: %s" % ("PASS" if passed else "FAIL", name, detail))
        failed += 0 if passed else 1
    print("%d/%d checks passed" % (len(results) - failed, len(results)))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print("ERROR 3: %s" % exc, file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print("ERROR 4: %s" % exc, file=sys.stderr)
        return 4
    except (ConfigError, ValueError, OSError) as exc:
        print("ERROR 2: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
