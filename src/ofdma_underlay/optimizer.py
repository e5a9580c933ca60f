"""Dual-decomposition allocator for power, rate and subcarrier assignment.

The average-rate objective decomposes per fading state once the average
power constraint gets a multiplier ``mu``; each state keeps its own
multiplier vector ``eta`` (one entry per primary receiver) enforcing the
instantaneous interference budget.  For a candidate (user n, subcarrier
k) with reference SINR gamma, SINR density f and interference weight w,
the stationary transmit power is

    P* = [ f / (ln2 (mu f + eta w)) - P_ref / (slope gamma) ]+

which the code evaluates as 1 / (ln2 (mu + eta w / f)) minus the cutoff
term so that the f -> 0 tail stays finite.  Subcarriers go to the user
maximizing the selection metric

    Lambda = f * [ x / (ln2 (1 + x)) + log2(1 + x) ],  x = slope gamma P* / P_ref,

ties to the lowest user index.  ``eta`` is found one primary at a time,
sweeping the primaries cyclically until every budget holds, each by a
bracketed log-log root search (:func:`_find_root`), warm-started from the
last multipliers, until the realized budget use is tight to 1e-6 relative
(or zero if slack); a state keeps the allocation of the trials that set
its multipliers, and the first outer iteration takes the warm start's
solved states, so no allocation is evaluated twice.  ``mu`` follows a
projected subgradient with step 1 / (P_t (10 + t)), stopping when the
average-power gap is within 1e-3 P_t or the multiplier sits at zero with
slack power.

The average power used is continuous and decreasing in mu, so the same root
search on that gap initializes mu, down from K / (P_t ln2).  It probes mu = 0
before the first trial with states to tighten, unless a trial has shown power
above P_t: its states within budget at eta = 0 bound its power from below.
The 1/t steps then hold the iterate; from a badly scaled start they would need
thousands of iterations, past the cap, to close a watt-sized gap.

In deterministic mode the interference weights are the squared cross
links the transmitter knows (true under perfect CSI, estimates
otherwise) and the budget is the configured limit; in probabilistic mode
the weights are the certainty-equivalent posterior weights and the
budget is the collision surrogate from
:func:`ofdma_underlay.interference.surrogate_budget`.  The reported
average spectral efficiency sums log2 of the constellation over
subcarriers and averages over states; discrete mode floors each
constellation to the allowed bit loads after the continuous solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import BatchRealizations, posterior_stats, sample_realizations
from .config import ScenarioConfig
from .errors import ConvergenceError, InfeasibleError, ShapeError
from .interference import alpha_weights, enforced_budgets, posterior_aggregate_params
from .modulation import LN2, ber_slope, cutoff_threshold, discretize_rate
from .sinr import SinrDistribution, gaussian_sum_params

__all__ = [
    "PolicyBatch",
    "DualState",
    "SolveResult",
    "waterfill_power",
    "selection_metric",
    "per_link_lagrangian",
    "reference_cutoff",
    "assign_subcarriers",
    "solve_dual",
]

_ETA_DOUBLINGS = 60     # trials that may double a root's bracket
_BISECT_STEPS = 90      # further trials that may narrow it
_SECANT_STREAK = 3      # secant steps keeping one bracket end before a bisection
_TIGHT_REL = 1e-6
_POWER_GAP_REL = 1e-3   # the outer loop stops at |avg power - P_t| <= this * P_t


# ---------------------------------------------------------------------------
# scalar building blocks


def waterfill_power(gamma: float, density: float, mu: float, eta: float,
                    cross_weight: float, slope: float, p_ref: float) -> float:
    """Stationary power of one candidate link, clamped at zero."""
    if min(gamma, density, mu, eta, cross_weight) < 0.0:
        raise ValueError("gamma, density and multipliers must be >= 0")
    if slope <= 0.0 or p_ref <= 0.0:
        raise ValueError("slope and p_ref must be positive")
    if mu == 0.0 and eta * cross_weight == 0.0:
        raise ValueError("both multipliers vanish: power is unbounded")
    if gamma == 0.0:
        return 0.0
    inv_density = 1.0 / density if density > 1e-300 else 1e300
    price = mu + eta * cross_weight * inv_density
    return max(1.0 / (LN2 * price) - p_ref / (slope * gamma), 0.0)


def selection_metric(gamma: float, density: float, power: float,
                     slope: float, p_ref: float) -> float:
    """User-ranking metric of a candidate link at power ``power``."""
    if min(gamma, density, power) < 0.0:
        raise ValueError("gamma, density and power must be >= 0")
    if slope <= 0.0 or p_ref <= 0.0:
        raise ValueError("slope and p_ref must be positive")
    x = slope * gamma * power / p_ref
    if x == 0.0:
        return 0.0
    return density * (x / (LN2 * (1.0 + x)) + math.log1p(x) / LN2)


def per_link_lagrangian(gamma: float, density: float, power: float, mu: float,
                        eta: float, cross_weight: float, slope: float,
                        p_ref: float) -> float:
    """Per-state Lagrangian density of one link: rate term minus priced power."""
    x = slope * gamma * power / p_ref
    return density * math.log2(1.0 + x) - mu * density * power \
        - eta * cross_weight * power


def reference_cutoff(mu: float, eta: float, cross_weight: float, density: float,
                     slope: float, p_ref: float) -> float:
    """Reference-SINR threshold below which the stationary power is zero.

    Composes :func:`cutoff_threshold` with the reference-power scaling and
    the density weighting of the interference price implied by the
    stationary-power expression.
    """
    inv_density = 1.0 / density if density > 1e-300 else 1e300
    return cutoff_threshold(mu * p_ref, eta * p_ref, cross_weight * inv_density, slope)


def assign_subcarriers(metric: np.ndarray) -> np.ndarray:
    """0/1 assignment matrix picking argmax over users, ties to lowest index."""
    metric = np.asarray(metric, dtype=float)
    if metric.ndim != 2:
        raise ShapeError("metric must be (num_users, num_subcarriers)")
    winners = np.argmax(metric, axis=0)
    phi = np.zeros_like(metric)
    phi[winners, np.arange(metric.shape[1])] = 1.0
    return phi


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class PolicyBatch:
    """Compact allocation for every solved state.

    user/power/x are (S, K): winning user index, transmit power, and
    x = slope * gamma * P / P_ref of the winner (so constellation = 1 + x);
    bits (S, K) holds the discrete bit loads, None in continuous mode.
    """

    num_users: int
    user: np.ndarray
    power: np.ndarray
    x: np.ndarray
    bits: np.ndarray | None = None

    def __len__(self) -> int:
        return self.user.shape[0]


@dataclass
class DualState:
    """Multipliers, iteration trace and work counts of one solve.

    The work counts are full passes (``_allocate`` state-evaluations / S)
    in the warm start and in the outer iterations: hardware-independent.
    """

    mu: float
    eta: np.ndarray                 # (S, M)
    iterations: int
    converged: bool
    trace: dict = field(default_factory=dict)
    warm_start_passes: float = 0.0
    iteration_passes: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    """Solved allocation over a batch of fading states."""

    cfg: ScenarioConfig
    policies: PolicyBatch
    dual: DualState
    state_rates: np.ndarray         # (S,) per-state summed rate actually reported
    ase: float
    ase_stderr: float
    avg_power_w: float
    enforced_interference: np.ndarray   # (S, M) LHS the solver constrained
    budgets_w: np.ndarray               # (M,) per-state budget on that LHS
    reference_power_w: np.ndarray       # (S,)
    streams: np.ndarray                 # (S,) realization indices


# ---------------------------------------------------------------------------
# vectorized workspace


class _Workspace:
    """Per-solve precomputed arrays shared by every dual iteration."""

    __slots__ = ("cfg", "count", "density", "inv_density", "pcut", "weights",
                 "budgets", "p_ref", "streams", "evaluated")

    def __init__(self, cfg: ScenarioConfig, batch: BatchRealizations):
        self.cfg = cfg
        s = len(batch)
        n, m, k = cfg.num_users, cfg.num_primaries, cfg.num_subcarriers
        self.count = s
        self.streams = np.asarray(batch.streams)
        self.evaluated = 0          # state-evaluations of _allocate so far

        if cfg.constraint_mode == "probabilistic":
            weights = alpha_weights(posterior_stats(cfg, batch.cross_est))  # (S, M, K)
            agg_mean, agg_var = posterior_aggregate_params(cfg)
        else:
            known = batch.cross_true if cfg.csi_mode == "perfect" else batch.cross_est
            weights = known.real ** 2 + known.imag ** 2            # (S, M, K)
            var_src = cfg.cross_var if cfg.csi_mode == "perfect" else cfg.estimate_var
            agg_mean, agg_var = gaussian_sum_params(cfg.cross_mean, var_src, k)

        budgets = enforced_budgets(cfg)
        self.weights = weights
        self.budgets = budgets

        n_ref = np.sum(weights, axis=2)                            # (S, M)
        with np.errstate(divide="ignore"):
            caps = budgets / n_ref                                 # (S, M)
        cap_int = np.min(caps, axis=1)
        binding = np.argmin(caps, axis=1)
        self.p_ref = np.minimum(cfg.total_power_w / k, cap_int)    # (S,)

        noise = cfg.total_noise_w
        gamma = batch.direct_power * (self.p_ref / noise)[:, None, None]

        density = np.empty((s, n, k))
        for j in range(m):
            mask = binding == j
            if not np.any(mask):
                continue
            dist = SinrDistribution(
                direct_mean=cfg.direct_gain_means, agg_mean=agg_mean,
                agg_var=agg_var, budget_w=float(budgets[j]),
                total_power_w=cfg.total_power_w, noise_w=noise,
                num_subcarriers=k)
            density[mask] = dist.pdf(gamma[mask])
        self.density = density
        with np.errstate(divide="ignore"):
            self.inv_density = np.where(density > 1e-300, 1.0 / density, 1e300)
            self.pcut = self.p_ref[:, None, None] / (ber_slope(cfg.ber_target) * gamma)

    def subset(self, idx=slice(None)):
        return self.inv_density[idx], self.density[idx], self.pcut[idx], self.weights[idx]

    def allocate(self, mu, eta, arrays):
        """:func:`_allocate` on ``subset`` arrays, counted in ``evaluated``."""
        self.evaluated += eta.shape[0]
        return _allocate(mu, eta, *arrays)

    def first_pass(self, mu):
        """Every state's allocation at eta = 0, and the states it puts over budget."""
        alloc = self.allocate(mu, np.zeros((self.count, self.budgets.size)), self.subset())
        return alloc, np.any(alloc[3] > self.budgets * (1.0 + _TIGHT_REL), axis=1)


def _allocate(mu, eta, inv_density, density, pcut, weights):
    """Evaluate the stationary allocation for per-state multipliers.

    eta is (S, M); returns winner indices, winner power/x (S, K) and the
    enforced interference (S, M).  Winners are ``np.argmax`` over users:
    ties go to the lowest index, and NaN (the metric of an infinite x at a
    zero price, mu = 0 with no priced interference) is the maximum.
    """
    priced = np.einsum("sm,smk->sk", eta, weights)                 # (S, K)
    with np.errstate(over="ignore", divide="ignore"):
        power = np.multiply(priced[:, None, :], inv_density)       # (S, N, K)
        power += mu                                                # the price
        power *= LN2
        np.divide(1.0, power, out=power)
    power -= pcut
    np.maximum(power, 0.0, out=power)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = power / pcut        # NaN where power is NaN or 0 / 0, and x is 0 there
        np.fmax(x, 0.0, out=x)
        metric = np.log1p(x)
        metric /= LN2
        ratio = x + 1.0
        ratio *= LN2
        metric += np.divide(x, ratio, out=ratio)
        metric *= density
    s, n, k = metric.shape
    best = np.max(metric, axis=1)                                  # NaN if any is
    winner = np.full(best.shape, n - 1)
    for u in range(n - 2, -1, -1):          # from the last user down, so the first wins
        winner[(metric[:, u] == best) | np.isnan(metric[:, u])] = u
    flat = winner * k + np.arange(0, s * n * k, n * k)[:, None] + np.arange(k)
    p_sel = power.reshape(-1)[flat]
    x_sel = x.reshape(-1)[flat]
    interference = np.einsum("sk,smk->sm", p_sel, weights)
    return winner, p_sel, x_sel, interference


def _solve_states(ws: _Workspace, mu: float, eta_start: np.ndarray, first=None):
    """Per-state inner problem: allocation plus tight multipliers (reuses ``first``)."""
    eta = np.zeros((ws.count, ws.cfg.num_primaries))
    alloc, bad = first or ws.first_pass(mu)
    if np.any(bad):
        idx = np.nonzero(bad)[0]
        eta[idx] = _tighten(ws, mu, idx, eta_start[idx], alloc)
    return (*alloc, eta)


def _tighten(ws: _Workspace, mu: float, idx: np.ndarray, eta_hint: np.ndarray, alloc):
    """Multipliers of the violating states ``idx``; moves their rows of ``alloc`` there.

    ``alloc`` holds every state's allocation at eta = 0.  The primaries are
    swept cyclically, one root search each, until every budget holds
    (raising any multiplier only lowers all interference terms, so the
    sweep terminates; one primary takes one sweep).  Each trial writes
    back the rows whose multiplier for its primary is final for this step:
    a search trial the rows within budget, so a row keeps the allocation
    of its latest feasible trial, which is the root the search returns,
    and the eta = 0 trial the rows the search leaves at 0.  So ``alloc``
    always holds the allocation at the current ``eta``.
    """
    sub = ws.subset(idx)
    budgets = ws.budgets
    eta = np.zeros((idx.size, budgets.size))

    def interference(j, keep_below, eta_j, rows):
        trial = eta.copy() if rows is None else eta[rows]
        trial[:, j] = eta_j
        arrays = sub if rows is None else tuple(a[rows] for a in sub)
        part = ws.allocate(mu, trial, arrays)
        keep = part[3][:, j] <= keep_below
        at = idx[keep] if rows is None else idx[rows[keep]]
        for full, new in zip(alloc, part):
            full[at] = new[keep]
        return part[3][:, j]

    for sweep in range(8):
        for j, budget in enumerate(budgets):
            top = budget * (1.0 + _TIGHT_REL)
            at_zero = alloc[3][idx, j] if sweep == j == 0 else interference(j, top, 0.0, None)
            hint = np.where(eta[:, j] > 0.0, eta[:, j], eta_hint[:, j])
            eta[:, j] = _find_root(
                functools.partial(interference, j, budget), np.where(hint > 0.0, hint, 1.0),
                budget * (1.0 - _TIGHT_REL), budget, at_zero > top, InfeasibleError,
                lambda row: "no finite multiplier meets primary %d's budget at "
                "state %d (stream %d)" % (j, idx[row], ws.streams[idx[row]]))
        over = alloc[3][idx] > budgets * (1.0 + _TIGHT_REL)
        if not np.any(over):
            return eta
    row, j = np.argwhere(over)[0]
    raise InfeasibleError(
        "interference budgets remain violated after cyclic multiplier "
        "tightening: state %d (stream %d), primary %d at %.6g W of %g W"
        % (idx[row], ws.streams[idx[row]], j, alloc[3][idx[row], j], budgets[j]))


def _find_root(evaluate, start, y_lo, y_hi, active, error, where):
    """Per-row x > 0 with y(x) in [y_lo, y_hi], for a y that falls with x.

    ``evaluate(x, rows)`` gives y at x for the listed rows, or all rows
    when ``rows`` is None.  Rows flagged ``active`` need y(0) > y_hi; the
    rest return 0.  A row tries ``start``, doubles or halves it until y
    crosses y_hi, then narrows the bracket by Illinois regula falsi in
    (log x, log y), as y decays roughly as a power of x; after
    _SECANT_STREAK steps keeping one end it bisects, which bounds the cost
    of a jump in y.  It returns the least feasible x (y <= y_hi) once y is
    in the window or the bracket is 1e-12 wide.  ``error`` names
    ``where(row)`` and the bracket when _ETA_DOUBLINGS trials stay above.
    """
    log_aim = math.log(0.5 * (y_lo + y_hi))
    active = active.copy()
    x = np.where(active, start, 0.0)
    # bracket ends, log(y / aim) at each (Illinois-scaled), and the streak:
    # +n when hi was replaced n times running, -n for lo
    lo, hi, v_lo, v_hi, run = np.zeros((5, active.size))
    hi[active] = np.inf
    for _ in range(_ETA_DOUBLINGS + _BISECT_STEPS):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        xr, lo_r, hi_r, vl, vh, n = (a[rows] for a in (x, lo, hi, v_lo, v_hi, run))
        if 2 * rows.size <= active.size:        # a gather copies the arrays
            y = evaluate(xr, rows)
        else:
            y = evaluate(np.where(active, x, hi), None)[rows]
        feas = y <= y_hi
        with np.errstate(divide="ignore"):
            v = np.log(y) - log_aim
        vl = np.where(feas & (n > 0), 0.5 * vl, vl)
        vh = np.where(~feas & (n < 0), 0.5 * vh, vh)
        n = np.where(feas, np.maximum(n, 0) + 1, np.minimum(n, 0) - 1)
        n = np.where((lo_r > 0.0) & (hi_r < np.inf), n, 0)
        hi_r, vh = np.where(feas, xr, hi_r), np.where(feas, v, vh)
        lo_r, vl = np.where(feas, lo_r, xr), np.where(feas, vl, v)
        lo[rows], hi[rows], v_lo[rows], v_hi[rows], run[rows] = lo_r, hi_r, vl, vh, n

        narrow = (hi_r < np.inf) & (hi_r - lo_r <= 1e-12 * np.maximum(hi_r, 1.0))
        active[rows[(feas & (y >= y_lo)) | narrow]] = False
        stuck = lo_r >= start[rows] * 2.0 ** (_ETA_DOUBLINGS - 1)   # last doubling failed
        if np.any(stuck):
            pos = int(np.argmax(stuck))
            raise error("%s: %.6g > %.6g after %d trials; final bracket "
                        "[%.6g, inf)" % (where(rows[pos]), y[pos], y_hi,
                                         _ETA_DOUBLINGS, lo_r[pos]))
        with np.errstate(divide="ignore", invalid="ignore"):
            u_lo, u_hi = np.log(lo_r), np.log(hi_r)
            secant = u_hi - vh * (u_hi - u_lo) / (vh - vl)
            use = (secant > u_lo) & (secant < u_hi) & (np.abs(n) < _SECANT_STREAK)
            step = np.exp(np.where(use, secant, 0.5 * (u_lo + u_hi)))
        x[rows] = np.where(hi_r == np.inf, 2.0 * lo_r,
                           np.where(lo_r == 0.0, 0.5 * hi_r, step))
    return hi


class _SlackAtZero(Exception):
    """The mu = 0 probe kept the power within P_t: the search ends there."""


def _warm_start_mu(ws: _Workspace, tol_w: float):
    """Initialize the power multiplier by a root search on the power gap.

    Returns (mu0, solved) with |avg power - P_t| <= tol_w at mu0 (or mu0
    on the feasible side of a jump across that window), or 0 if
    P(0) <= P_t.  P(0) is probed before the first trial with states over
    budget, unless a trial's power exceeded P_t + tol_w, as its states
    within budget at eta = 0 already show.  ``solved`` is
    :func:`_solve_states` at mu0: the probe, or the latest trial within
    P_t + tol_w, which is the root the search returns.
    """
    p_t = ws.cfg.total_power_w
    eta = np.zeros((ws.count, ws.cfg.num_primaries))
    unproven = True         # no trial has shown P(0) > P_t yet
    kept = None             # the latest states solved within P_t + tol_w

    def power_at(mu, rows):
        nonlocal eta, unproven, kept
        alloc, bad = first = ws.first_pass(float(mu[0]))
        unproven = unproven and np.sum(alloc[1][~bad]) / ws.count <= p_t + tol_w
        if unproven and np.any(bad):
            alloc = first = None            # free this pass before the probe
            probe = _solve_states(ws, 0.0, np.zeros_like(eta))
            if np.mean(np.sum(probe[1], axis=1)) <= p_t:
                kept = probe
                raise _SlackAtZero
            eta, unproven = probe[4], False
        solved = _solve_states(ws, float(mu[0]), eta, first)
        eta, power = solved[4], np.mean(np.sum(solved[1], axis=1))
        kept = solved if power <= p_t + tol_w else kept
        return np.array([power])

    try:
        mu = float(_find_root(
            power_at, np.array([ws.cfg.num_subcarriers / (p_t * LN2)]),
            p_t - tol_w, p_t + tol_w, np.ones(1, dtype=bool), ConvergenceError,
            lambda row: "cannot bracket the power multiplier: average power")[0])
    except _SlackAtZero:
        mu = 0.0
    return mu, kept


def _dual_bound(ws: _Workspace, mu: float, eta: np.ndarray) -> float:
    """Weak-duality upper bound at (mu, eta): unweighted per-state maximum."""
    priced = mu + np.einsum("sm,smk->sk", eta, ws.weights)         # (S, K)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_level = 1.0 / (LN2 * priced)                           # (S, K)
        x = inv_level[:, None, :] / ws.pcut - 1.0
        np.maximum(x, 0.0, out=x)
        value = np.log1p(x) / LN2 - priced[:, None, :] * (x * ws.pcut)
    best = np.max(value, axis=1)                                   # (S, K)
    per_state = np.sum(best, axis=1) + eta @ ws.budgets
    return mu * ws.cfg.total_power_w + float(np.mean(per_state))


# ---------------------------------------------------------------------------
# public entry points


def solve_dual(cfg: ScenarioConfig, realizations=None, *, num_states: int = None,
               max_iterations: int = 500, run_all_iterations: bool = False) -> SolveResult:
    """Maximize average spectral efficiency over a batch of fading states.

    ``realizations`` may be a BatchRealizations; alternatively pass
    ``num_states`` to draw streams 0..num_states-1 of the scenario seed.
    The outer loop stops once |avg power - P_t| <= 1e-3 P_t or
    the power constraint is slack at mu = 0; ``run_all_iterations`` forces
    the full iteration count (for convergence studies).  A loop that ends
    without meeting either condition raises ConvergenceError carrying the
    partial result.
    """
    if cfg.total_power_w <= 0.0:
        raise ValueError("solve_dual needs total_power_w > 0; a zero budget "
                         "allocates nothing")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if realizations is None:
        if num_states is None:
            raise ValueError("pass realizations or num_states")
        realizations = sample_realizations(cfg, range(num_states))
    ws = _Workspace(cfg, realizations)
    s = ws.count
    p_t = cfg.total_power_w

    tol_w = _POWER_GAP_REL * p_t
    mu, solved = _warm_start_mu(ws, 0.5 * tol_w)
    warm_evaluated = ws.evaluated
    trace = {"iter": [], "mu": [], "primal_ase": [], "dual_value": [],
             "power_gap": []}
    for t in range(1, max_iterations + 1):
        if t > 1:
            solved = _solve_states(ws, mu, solved[4])
        winner, p_sel, x_sel, interf, eta = solved
        avg_power = float(np.mean(np.sum(p_sel, axis=1)))
        gap = avg_power - p_t
        primal = float(np.mean(np.sum(np.log1p(x_sel), axis=1))) / LN2
        dual = _dual_bound(ws, mu, eta)
        trace["iter"].append(t)
        trace["mu"].append(mu)
        trace["primal_ase"].append(primal)
        trace["dual_value"].append(dual)
        trace["power_gap"].append(gap)

        stop = abs(gap) <= tol_w or (mu == 0.0 and gap <= 0.0)
        if stop and not run_all_iterations:
            break
        mu = max(mu + gap / (p_t * (10.0 + t)), 0.0)
    converged = stop

    dual_state = DualState(
        mu=trace["mu"][-1], eta=eta, iterations=t, converged=converged,
        trace={key: np.asarray(val) for key, val in trace.items()},
        warm_start_passes=warm_evaluated / s,
        iteration_passes=(ws.evaluated - warm_evaluated) / s)

    bits = None
    if cfg.rate_mode == "discrete":
        bits = discretize_rate(1.0 + x_sel)
        state_rates = np.sum(bits, axis=1).astype(float)
    else:
        state_rates = np.sum(np.log1p(x_sel), axis=1) / LN2
    policies = PolicyBatch(num_users=cfg.num_users, user=winner, power=p_sel,
                           x=x_sel, bits=bits)
    result = SolveResult(
        cfg=cfg, policies=policies, dual=dual_state, state_rates=state_rates,
        ase=float(np.mean(state_rates)),
        ase_stderr=float(np.std(state_rates, ddof=1) / math.sqrt(s)) if s > 1 else 0.0,
        avg_power_w=float(np.mean(np.sum(p_sel, axis=1))),
        enforced_interference=interf, budgets_w=ws.budgets,
        reference_power_w=ws.p_ref, streams=ws.streams)

    if not converged and not run_all_iterations:
        raise ConvergenceError(
            "power gap %.3g W after %d iterations exceeds tolerance %.3g W"
            % (trace["power_gap"][-1], t, tol_w),
            result=result)
    return result
