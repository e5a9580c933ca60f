"""Fast internal consistency battery behind the ``selftest`` subcommand.

Each check is a few seconds at most; together they exercise the moment
formulas, the closed-form SINR law against Monte Carlo, the modulation
inverses, the surrogate budget, and one small end-to-end solve per
constraint mode.  These are smoke checks with loose thresholds; the test
suite carries the tight tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .harness import run_experiment
from .interference import enforced_budgets
from .modulation import ber_bound, ber_slope, max_constellation
from .presets import deterministic_benchmark, imperfect_benchmark
from .sinr import gaussian_sum_params, sample_sinr_mc, sinr_distribution

__all__ = ["run_selftest", "CHECKS"]


def _check_moments():
    mu, var = gaussian_sum_params(0.05 + 0.0j, 0.1, 64)
    ok = abs(mu - 12.96) < 1e-9 and abs(var - 2.624) < 1e-9
    mu2, var2 = gaussian_sum_params(0.0 + 0.0j, 1.0, 64)
    ok = ok and abs(mu2 - 128.0) < 1e-9 and abs(var2 - 256.0) < 1e-9
    return ok, "aggregate moments (%.6g, %.6g) and (%.6g, %.6g)" % (mu, var, mu2, var2)


def _check_modulation():
    slope = ber_slope(1e-3)
    m_star = max_constellation(slope, 10.0, 1.0, 1.0)
    snr = 3.0  # places M* just under 2 bits at this slope
    m_at = 1.0 + slope * snr
    ok = abs(slope - 0.26298) < 5e-5 and abs(m_star - 3.6298) < 5e-4
    ok = ok and ber_bound(m_at, snr) <= 1e-3 + 1e-12
    return ok, "slope %.5f, M*(10, P=P_ref) = %.4f" % (slope, m_star)


def _check_surrogate():
    one = imperfect_benchmark(num_subcarriers=1, interference_limit_w=(2.0,),
                              collision_limit=(0.05,))
    k1 = enforced_budgets(one)[0]
    ok = abs(k1 - 2.0 / abs(math.log(0.05))) < 1e-12
    wide = imperfect_benchmark(interference_limit_w=(10.0,))
    seq = [enforced_budgets(wide.with_updates(collision_limit=(e,)))[0]
           for e in (0.02, 0.05, 0.1, 0.2)]
    ok = ok and all(a < b for a, b in zip(seq, seq[1:])) and seq[0] > 0.0
    return ok, "budget(10 W, eps=0.1, K=64) = %.4f W" % seq[2]


def _check_sinr_law():
    cfg = deterministic_benchmark()
    dist = sinr_distribution(cfg, 0, 0, 0)
    draws = sample_sinr_mc(cfg, 0, 0, 0, 200000)
    grid = np.quantile(draws, [0.1, 0.3, 0.5, 0.7, 0.9])
    emp = np.searchsorted(draws, grid, side="right") / draws.size
    gap = float(np.max(np.abs(dist.cdf(grid) - emp)))
    return gap < 0.01, "max |cdf - MC| over quantile grid = %.4f" % gap


def _check_deterministic_solve():
    cfg = deterministic_benchmark(num_subcarriers=16, total_power_w=8.0,
                                  interference_limit_w=(2.0,))
    rep = run_experiment(cfg, 200)
    ok = rep.converged and abs(rep.power_gap_w) <= 1e-3 * cfg.total_power_w + 1e-12
    budget = rep.budgets_w[0] * (1.0 + 1e-5)
    ok = ok and rep.enforced_interference_max[0] <= budget
    ok = ok and rep.true_violation_rate[0] == 0.0 and rep.ase > 0.0
    return ok, "ase %.3f b/s/Hz, gap %.2e W, max interference %.4f W" % (
        rep.ase, rep.power_gap_w, rep.enforced_interference_max[0])


def _check_probabilistic_solve():
    # full-band scenario: the surrogate budget's union-style construction
    # is only trustworthy when power spreads over many subcarriers
    cfg = imperfect_benchmark()
    rep = run_experiment(cfg, 100, audit_states=4, audit_samples=4000)
    eps = cfg.collision_limit[0]
    ok = rep.converged and rep.ase > 0.0
    ok = ok and max(rep.collision_analytic_max) <= eps + 1e-9
    ok = ok and max(rep.collision_mc_max) <= eps + 3.0 * (rep.collision_mc_stderr or 0.0) + 5e-3
    return ok, "ase %.3f b/s/Hz, worst collision %.2e (analytic) %.2e (MC)" % (
        rep.ase, max(rep.collision_analytic_max), max(rep.collision_mc_max))


CHECKS = [
    ("aggregate-moments", _check_moments),
    ("adaptive-modulation", _check_modulation),
    ("surrogate-budget", _check_surrogate),
    ("sinr-law-vs-mc", _check_sinr_law),
    ("deterministic-solve", _check_deterministic_solve),
    ("probabilistic-solve", _check_probabilistic_solve),
]


def run_selftest():
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for name, check in CHECKS:
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, "%s: %s" % (type(exc).__name__, exc)
        results.append((name, bool(passed), detail))
    return results
