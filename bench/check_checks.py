"""Smoke test of the workloads and mutation test of their output checks.

    python3 bench/check_checks.py

Runs every workload once at a small size and requires its checks to
pass.  Then it corrupts the result in the ways the checks must catch and
requires each corruption to be reported: one state's power raised by
1 %, a loaded subcarrier handed to another user, a bit load raised by
one step, and a collision budget above I_th / ln(1/eps).  Exits 1 if
any step goes the wrong way.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ofdma_underlay.channel import sample_realizations  # noqa: E402

SMOKE_STATES = {"det-ith-sweep": 60, "imp-eps-audit": 200, "wide-m2": 40}


def _with_policies(report, **arrays):
    result = report.result
    policies = replace(result.policies, **arrays)
    return replace(report, result=replace(result, policies=policies))


def _binding_state(batch, report) -> int:
    """State whose constrained interference is closest to its budget."""
    cfg = report.result.cfg
    budgets = (np.asarray(report.budgets_w) if cfg.constraint_mode == "probabilistic"
               else np.asarray(cfg.interference_limit_w))
    interf = np.einsum("sk,smk->sm", report.result.policies.power,
                       checks.constrained_weights(cfg, batch))
    return int(np.argmax(np.max(interf / budgets, axis=1)))


def power_raised(batch, report):
    power = report.result.policies.power.copy()
    power[_binding_state(batch, report)] *= 1.01
    return _with_policies(report, power=power)


def user_moved(batch, report):
    pol = report.result.policies
    s, k = np.argwhere(pol.power > 0.0)[0]
    user = pol.user.copy()
    user[s, k] = (user[s, k] + 1) % pol.num_users
    return _with_policies(report, user=user)


def bits_raised(batch, report):
    pol = report.result.policies
    s, k = np.argwhere((pol.bits > 0) & (pol.bits < 10))[0]
    bits = pol.bits.copy()
    bits[s, k] += 2
    return _with_policies(report, bits=bits)


def budget_raised(batch, report):
    return replace(report, budgets_w=[b * 1.2 for b in report.budgets_w])


MUTATIONS = {
    "det-ith-sweep": (power_raised, user_moved),
    "imp-eps-audit": (power_raised, user_moved, budget_raised),
    "wide-m2": (power_raised, user_moved, bits_raised),
}


def main() -> int:
    bad = 0
    for name, mutations in MUTATIONS.items():
        workload = workloads.make_workload(name, seed=1)
        workload.cfgs = workload.cfgs[:1]
        workload.states = SMOKE_STATES[name]
        batch = sample_realizations(workload.cfgs[0], range(workload.states))
        reports = workload.run()[0]
        errors = workload.check([reports])
        print("%-14s smoke at %d states: %s"
              % (name, workload.states, errors or "checks pass"))
        bad += bool(errors)
        for mutate in mutations:
            point = len(reports) // 2 if mutate is not budget_raised else 0
            corrupted = list(reports)
            corrupted[point] = mutate(batch, reports[point])
            caught = workload.check([corrupted])
            print("%-14s %-13s -> %s" % (name, mutate.__name__,
                                         " | ".join(caught) or "NOT CAUGHT"))
            bad += not caught
    print("FAIL" if bad else "all checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
