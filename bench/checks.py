"""Output checks of one benchmark operation.

Every check is a recomputation from the channel draws of
``sample_realizations`` or a property the method must have; none
compares against stored numbers.  Each function returns a list of
failure messages, empty when the output passes.
"""

from __future__ import annotations

import hashlib
import math
from statistics import NormalDist

import numpy as np

ALLOWED_BITS = (0, 2, 4, 6, 8, 10)
ASE_REL = 1e-9
POWER_REL = 1e-3
INTERF_REL = 1e-6


def _slope(ber_target: float) -> float:
    return -1.5 / math.log(ber_target / 0.3)


def _winner_sinr(cfg, batch, policies) -> np.ndarray:
    """SINR |H_ss|^2 P / noise of the winning user, shape (S, K)."""
    direct = np.take_along_axis(batch.direct_power, policies.user[:, None, :],
                                axis=1)[:, 0, :]
    return direct * policies.power / cfg.total_noise_w


def constrained_weights(cfg, batch) -> np.ndarray:
    """Per-state weights of the links the constraint mode limits, (S, M, K)."""
    if cfg.constraint_mode == "probabilistic":
        rho2 = cfg.correlation ** 2
        v = (1.0 - rho2) * cfg.error_var
        mean = (1.0 + rho2) * batch.cross_est
        return v * (2.0 + (mean.real ** 2 + mean.imag ** 2) / v)
    links = batch.cross_true if cfg.csi_mode == "perfect" else batch.cross_est
    return links.real ** 2 + links.imag ** 2


def check_point(batch, report) -> list:
    """Checks every sweep point or experiment must pass."""
    result = report.result
    cfg, pol = result.cfg, result.policies
    s, k = batch.direct_power.shape[0], cfg.num_subcarriers
    errors = []
    if not report.converged:
        errors.append("solve did not converge")
    if pol.user.shape != (s, k) or pol.power.shape != (s, k):
        return errors + ["policy shape %s, expected %s" % (pol.user.shape, (s, k))]
    if np.any(pol.user < 0) or np.any(pol.user >= cfg.num_users):
        errors.append("a subcarrier is assigned to no valid user")
    if not np.all(np.isfinite(pol.power)) or np.any(pol.power < 0.0):
        return errors + ["power is negative or not finite"]

    sinr = _winner_sinr(cfg, batch, pol)
    slope = _slope(cfg.ber_target)
    if cfg.rate_mode == "discrete":
        ase = float(np.mean(np.sum(pol.bits, axis=1)))
    else:
        ase = float(np.mean(np.sum(np.log1p(slope * sinr), axis=1))) / math.log(2.0)
    if abs(ase - report.ase) > ASE_REL * max(abs(ase), 1.0):
        errors.append("ASE %.15g, recomputed %.15g" % (report.ase, ase))

    p_t = cfg.total_power_w
    avg = float(np.mean(np.sum(pol.power, axis=1)))
    if avg > p_t * (1.0 + POWER_REL):
        errors.append("average power %.9g W over the budget %g W" % (avg, p_t))
    if report.mu > 0.0 and abs(avg - p_t) > POWER_REL * p_t:
        errors.append("mu = %g > 0 but average power %.9g W is not tight at %g W"
                      % (report.mu, avg, p_t))

    if cfg.constraint_mode == "probabilistic":
        budgets = np.asarray(report.budgets_w)
    else:
        budgets = np.asarray(cfg.interference_limit_w)
    interf = np.einsum("sk,smk->sm", pol.power, constrained_weights(cfg, batch))
    over = interf > budgets * (1.0 + INTERF_REL)
    if np.any(over):
        worst = float(np.max(interf / budgets))
        errors.append("%d state(s) over the interference budget (worst %.9g x)"
                      % (int(np.sum(np.any(over, axis=1))), worst))

    trace = result.dual.trace
    if trace["primal_ase"][-1] > trace["dual_value"][-1] * (1.0 + ASE_REL):
        errors.append("primal ASE %.12g above the dual value %.12g"
                      % (trace["primal_ase"][-1], trace["dual_value"][-1]))
    return errors


def check_probabilistic(batch, report) -> list:
    """Collision-limit checks of a probabilistic point."""
    cfg = report.result.cfg
    errors = []
    limits = np.asarray(cfg.interference_limit_w)
    eps = np.asarray(cfg.collision_limit)
    cap = limits / np.log(1.0 / eps)
    if np.any(np.asarray(report.budgets_w) > cap * (1.0 + 1e-12)):
        errors.append("budgets %s above I_th / ln(1/eps) = %s"
                      % (report.budgets_w, cap.tolist()))
    if report.collision_mc_max is None or report.audited_states < 1:
        errors.append("no posterior-resampling audit ran")
    else:
        # The worst of n audited estimates gets the allowance that keeps the
        # false-alarm rate of one 3-stderr test: at eps = 0.05 dozens of
        # states collide with probability eps itself, and their noisy
        # maximum passes eps + 3 stderr on about one seed in forty.
        unit = NormalDist()
        z = unit.inv_cdf(1.0 - unit.cdf(-3.0) / report.audited_states)
        allowed = eps + z * report.collision_mc_stderr
        if np.any(np.asarray(report.collision_mc_max) > allowed):
            errors.append("worst audited collision %s above eps + %.2f stderr %s"
                          % (report.collision_mc_max, z, allowed.tolist()))
    true_w = batch.cross_true.real ** 2 + batch.cross_true.imag ** 2
    interf = np.einsum("sk,smk->sm", report.result.policies.power, true_w)
    rate = np.mean(interf > limits, axis=0)
    if np.any(rate > eps):
        errors.append("realized violation rate %s above eps %s"
                      % (rate.tolist(), eps.tolist()))
    return errors


def check_discrete(batch, report) -> list:
    """Bit-load checks of a discrete-rate point."""
    cfg, pol = report.result.cfg, report.result.policies
    errors = []
    bits = pol.bits
    if bits is None or bits.shape != pol.power.shape:
        return ["discrete rates without a bit load per subcarrier"]
    if not np.all(np.isin(bits, ALLOWED_BITS)):
        errors.append("bit loads outside %s" % (ALLOWED_BITS,))
    sinr = _winner_sinr(cfg, batch, pol)
    slope = _slope(cfg.ber_target)
    if np.any(np.abs(pol.x - slope * sinr) > ASE_REL * np.maximum(pol.x, 1.0)):
        errors.append("constellation does not match 1 + slope * SINR of the power")
    loaded = bits > 0
    ber = 0.3 * np.exp(-1.5 * sinr[loaded] / (np.exp2(bits[loaded]) - 1.0))
    if np.any(ber > cfg.ber_target * (1.0 + ASE_REL)):
        errors.append("%d loaded subcarrier(s) above the BER target (worst %.6g)"
                      % (int(np.sum(ber > cfg.ber_target)), float(np.max(ber))))
    return errors


def digest(reports) -> str:
    """Hash of every point's ASE and power, to compare repeated operations."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(np.float64(rep.ase).tobytes())
        h.update(np.ascontiguousarray(rep.result.policies.power).tobytes())
    return h.hexdigest()
