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

ties to the lowest user index, and at mu = 0 a zero price at a finite
cutoff (x = inf, a NaN Lambda) is the maximum.  With pcut = P_ref /
(slope gamma), the water level L = 1 / (ln2 price) and t = pcut / L =
1 / (1 + x), Lambda = f (1 - t - ln t) / ln2 for t < 1 and 0 for t >= 1:
:func:`_allocate` builds t and that metric per link, and power and x only
at the winners.  ``eta`` is found one primary at a time,
sweeping the primaries cyclically until every budget holds, each by a
bracketed root search (:func:`_find_root`), warm-started from the last
multipliers, until the realized budget use is tight to 1e-6 relative (or
zero if slack); a state keeps the allocation of the trials that set its
multipliers, and the first outer iteration takes the warm start's solved
states, so no allocation is evaluated twice.  ``mu`` follows a projected
subgradient with step 1 / (P_t (10 + t)), stopping when the average-power
gap is within 1e-3 P_t or the multiplier sits at zero with slack power.

With the winners of an eta trial fixed, a state's interference at primary
j is G(e) = sum_k w_k [1 / (ln2 (b_k + e w_k / f_k)) - pcut_k]+, where b_k
folds mu and the other primaries' prices together; G is convex and
decreasing in e, so a few Newton steps on the trial's own (S, K) arrays
find its root (:func:`_model_root`), and that root is the next trial.
Only a winner switch moves the true root off the model's; a proposal
that leaves the bracket is then a bisection in log x.  Rows without a
hint start at 1 and double first.

The average power used falls with mu, so a scalar root search on that
gap initializes mu (:func:`_warm_start_mu`), down from K / (P_t ln2).  It
steps along the line in (log mu, log P) through its last two trials, the
first step along a prior slope of -0.5 once states bind and -1.5 before;
while it has no bracket, each step aims 30 % of its length past the
window, so one step usually brackets the root.  A state within
its budgets puts at most budget / (least weight) into the band, so when
those bounds average to P_t or less, P(0) <= P_t and mu = 0 without a
trial.  Otherwise mu = 0 is probed only once two trials with states to
tighten have both kept the power within P_t; at binding points the second
trial usually lands above P_t, which shows P(0) > P_t.  The 1/t steps
then hold the iterate; from a badly scaled start they would need
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

_ETA_DOUBLINGS = 60     # a root search tries x up to start * 2^(this - 1)
_BISECT_STEPS = 90      # further trials that may narrow the bracket
_OVERSHOOT = 0.3        # share of a one-sided step aimed past the window
_NEWTON_STEPS = 3       # Newton steps from an eta trial to its model's root
_MU_SLOPE_BINDING = -0.5    # prior log-log slope of power against mu once states bind,
_MU_SLOPE_FREE = -1.5       # and before them (faster than 1 / mu)
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
    and ``_allocate`` calls, in the warm start and in the outer iterations:
    hardware-independent.
    """

    mu: float
    eta: np.ndarray                 # (S, M)
    iterations: int
    converged: bool
    trace: dict = field(default_factory=dict)
    warm_start_passes: float = 0.0
    iteration_passes: float = 0.0
    warm_start_calls: int = 0
    iteration_calls: int = 0


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

    __slots__ = ("cfg", "count", "links", "density", "inv_density", "pcut", "pcut_min",
                 "log_pcut", "weights", "budgets", "p_ref", "streams", "evaluated", "calls")

    def __init__(self, cfg: ScenarioConfig, batch: BatchRealizations):
        self.cfg = cfg
        s = len(batch)
        n, m, k = cfg.num_users, cfg.num_primaries, cfg.num_subcarriers
        self.count = s
        self.streams = np.asarray(batch.streams)
        self.evaluated = self.calls = 0     # _allocate's state-evaluations and calls so far
        self.log_pcut = None        # ln pcut, once a slack pass at mu > 0 needs it

        if cfg.constraint_mode == "probabilistic":
            cfg.check_solvable()
            weights = alpha_weights(posterior_stats(cfg, batch.cross_est))  # (S, M, K)
            agg_mean, agg_var = posterior_aggregate_params(cfg)
        else:
            known = batch.cross_true if cfg.csi_mode == "perfect" else batch.cross_est
            weights = known.real ** 2 + known.imag ** 2            # (S, M, K)
            var_src = cfg.cross_var if cfg.csi_mode == "perfect" else cfg.estimate_var
            agg_mean, agg_var = gaussian_sum_params(cfg.cross_mean, var_src, k)

        budgets = enforced_budgets(cfg)
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
        # the four per-link arrays side by side, so a trial on some rows
        # gathers them at once; made after the pdf, whose temporaries set
        # the peak memory of the workspace
        self.links = np.empty((s, 3 * n + m, k))
        self.inv_density, self.density, self.pcut, self.weights = self.split(self.links)
        self.density[...] = density
        self.weights[...] = weights
        with np.errstate(divide="ignore"):
            np.divide(1.0, density, out=self.inv_density)
            np.copyto(self.inv_density, 1e300, where=~(density > 1e-300))
            np.multiply(ber_slope(cfg.ber_target), gamma, out=self.pcut)
            np.divide(self.p_ref[:, None, None], self.pcut, out=self.pcut)
        self.pcut_min = np.min(self.pcut, axis=1)                  # (S, K)

    def split(self, links):
        """(inv_density, density, pcut, weights) views of stacked ``links`` rows."""
        n = self.cfg.num_users
        return links[:, :n], links[:, n:2 * n], links[:, 2 * n:3 * n], links[:, 3 * n:]

    def subset(self, idx=slice(None)):
        return self.split(self.links[idx])

    def allocate(self, mu, eta, arrays):
        """:func:`_allocate` on ``subset`` arrays, counted in ``evaluated`` and ``calls``."""
        self.evaluated += eta.shape[0]
        self.calls += 1
        return _allocate(mu, eta, *arrays)

    def first_pass(self, mu):
        """Every state's allocation at eta = 0, and the states it puts over budget."""
        if mu > 0.0 and self.log_pcut is None:     # the slack kernel ranks on it
            self.log_pcut = np.log(self.pcut)
        alloc = self.allocate(mu, np.zeros((self.count, self.budgets.size)),
                              (*self.subset(), self.log_pcut))
        return alloc, np.any(alloc[3] > self.budgets * (1.0 + _TIGHT_REL), axis=1)


def _allocate(mu, eta, inv_density, density, pcut, weights, log_pcut=None):
    """Evaluate the stationary allocation for per-state multipliers.

    eta is (S, M); returns winner indices, winner power/x (S, K) and the
    enforced interference (S, M).  With a link's price q, water level
    L = 1 / (ln2 q) and t = pcut / L = 1 / (1 + x), the selection metric is
    f (1 - t - ln t) / ln2, or 0 for t >= 1.  Only t and f (1 - t - ln t)+
    are built per link, power and x only at the (S, K) winners, by the
    stationary-power formula.  At eta = 0 and mu > 0, ln t = ln pcut +
    ln(ln2 mu), from ``log_pcut`` if given.  Winners are ``np.argmax`` over
    users: ties go to the lowest index (user 0 where no link is loaded),
    and at mu = 0 a zero price at a finite cutoff (x = inf, the metric NaN
    even where f = 0) is the maximum.
    """
    s, n, k = pcut.shape
    slack = mu > 0.0 and not eta.any()      # every price is mu: one level for all links
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if slack:
            scale = np.float64(mu) * LN2
            metric = np.multiply(pcut, scale)                      # t, (S, N, K)
            metric += np.log(pcut) if log_pcut is None else log_pcut
            np.subtract(1.0 - np.log(scale), metric, out=metric)
        else:
            priced = np.einsum("sm,smk->sk", eta, weights)         # (S, K)
            t = np.multiply(priced[:, None, :], inv_density)       # (S, N, K)
            t += mu                                                # the price
            t *= LN2
            t *= pcut
            metric = np.log(t)
            metric += t
            np.subtract(1.0, metric, out=metric)
        metric *= density
        np.fmax(metric, 0.0, out=metric)    # t >= 1 is unloaded; a NaN t has pcut = inf
        if mu == 0.0:                       # a zero price: x = inf, the maximum at any f
            metric[t == 0.0] = np.inf
        hit = metric == np.max(metric, axis=1, keepdims=True)
        rank = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))[:, None]
        winner = n - np.max(hit * rank, axis=1).astype(int)    # the first hit ranks highest
        at = np.arange(s)[:, None], winner, np.arange(k)          # the winners' links
        pcut_sel = pcut[at]
        level = 1.0 / scale if slack else 1.0 / ((priced * inv_density[at] + mu) * LN2)
        p_sel = np.maximum(level - pcut_sel, 0.0)
        x_sel = np.fmax(p_sel / pcut_sel, 0.0)      # NaN (power NaN, or 0 / 0) gives 0
        interference = np.einsum("sk,smk->sm", p_sel, weights)
    return winner, p_sel, x_sel, interference


def _solve_states(ws: _Workspace, mu: float, eta_start: np.ndarray):
    """Per-state allocation and tight eta; eta > 0 only where eta = 0 breaks a budget."""
    eta = np.zeros((ws.count, ws.cfg.num_primaries))
    alloc, bad = ws.first_pass(mu)
    if np.any(bad):
        idx = np.nonzero(bad)[0]
        eta[idx] = _tighten(ws, mu, idx, eta_start[idx], alloc)
    return (*alloc, eta)


def _tighten(ws: _Workspace, mu: float, idx: np.ndarray, eta_hint: np.ndarray, alloc):
    """Multipliers of the violating states ``idx``; moves their rows of ``alloc`` there.

    ``alloc`` holds every state's allocation at eta = 0.  The primaries are
    swept cyclically, one root search each, until every budget holds
    (raising any multiplier only lowers all interference terms, so the
    sweep terminates; one primary takes one sweep).  After each search
    trial the next one is proposed at the root of that trial's water-fill
    with its winners fixed (:func:`_model_root`); rows without a hint start
    at 1 and double first.  Each trial writes back the rows whose
    multiplier for its primary is final for this step: a search trial the
    rows within budget, so a row keeps the allocation of its latest
    feasible trial, which is the root the search returns, and the eta = 0
    trial the rows the search leaves at 0.  So ``alloc`` always holds the
    allocation at the current ``eta``.
    """
    links = ws.links[idx]
    budgets = ws.budgets
    eta = np.zeros((idx.size, budgets.size))

    def interference(j, keep_below, eta_j, rows):
        trial = eta.copy() if rows is None else eta[rows]
        trial[:, j] = eta_j
        arrays = ws.split(links if rows is None else links[rows])
        part = ws.allocate(mu, trial, arrays)
        keep = part[3][:, j] <= keep_below
        at = idx[keep] if rows is None else idx[rows[keep]]
        for full, new in zip(alloc, part):
            full[at] = new[keep]
        return part, trial, arrays

    def search(j, budget, eta_j, rows):
        (winner, *_, used), trial, arrays = interference(j, budget, eta_j, rows)
        return used[:, j], functools.partial(_model_root, budget * (1.0 - 0.5 * _TIGHT_REL),
                                             mu, j, eta_j, trial, winner, arrays)

    for sweep in range(8):
        for j, budget in enumerate(budgets):
            top = budget * (1.0 + _TIGHT_REL)
            at_zero = alloc[3][idx, j] if sweep == j == 0 else \
                interference(j, top, 0.0, None)[0][3][:, j]
            hint = np.where(eta[:, j] > 0.0, eta[:, j], eta_hint[:, j])
            eta[:, j] = _find_root(
                functools.partial(search, j, budget), np.where(hint > 0.0, hint, 1.0),
                budget * (1.0 - _TIGHT_REL), budget, at_zero > top,
                lambda row: "no finite multiplier meets primary %d's budget at "
                "state %d (stream %d)" % (j, idx[row], ws.streams[idx[row]]),
                hint == 0.0)
        over = alloc[3][idx] > budgets * (1.0 + _TIGHT_REL)
        if not np.any(over):
            return eta
    row, j = np.argwhere(over)[0]
    raise InfeasibleError(
        "interference budgets remain violated after cyclic multiplier "
        "tightening: state %d (stream %d), primary %d at %.6g W of %g W"
        % (idx[row], ws.streams[idx[row]], j, alloc[3][idx[row], j], budgets[j]))


def _model_root(aim, mu, j, eta_j, trial, winner, arrays, sel):
    """Next eta_j of the trial rows ``sel``: Newton steps from ``eta_j`` to G(e) = aim.

    G is a state's interference at primary j with the trial's winners
    fixed: with w the winners' weights to j, f their densities and pcut
    their cutoffs, and b = mu + sum over the other primaries i of
    eta_i w_i / f,

        G(e) = sum_k w_k [1 / (ln2 (b_k + e w_k / f_k)) - pcut_k]+.

    G is convex and decreasing, so a step from below the root does not
    pass it, and one from above lands below it (or at a quarter of e, if
    higher, which keeps e positive).  ``arrays`` are the trial rows'
    (inv_density, density, pcut, weights).
    """
    inv_density, _, pcut, weights = arrays
    at = sel[:, None], winner[sel], np.arange(winner.shape[1])     # the winners' links
    inv_density, pcut, weights = inv_density[at], pcut[at], weights[sel]
    price = mu
    if trial.shape[1] > 1:                      # the other primaries' prices
        others = trial[sel]
        others[:, j] = 0.0
        price = mu + np.einsum("sm,smk->sk", others, weights) * inv_density
    weight = weights[:, j]
    coef = LN2 * weight * inv_density
    base = LN2 * price
    slope = coef * weight
    e = eta_j[sel]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            level = coef * e[:, None]
            level += base
            np.divide(1.0, level, out=level)
            power = level - pcut
            np.maximum(power, 0.0, out=power)
            gap = np.einsum("sk,sk->s", weight, power)
            gap -= aim
            level *= level
            level *= power > 0.0
            e = np.fmax(e + gap / np.einsum("sk,sk->s", slope, level), 0.25 * e)
    return e


def _find_root(evaluate, start, y_lo, y_hi, active, where, cold):
    """Per-row x > 0 with y(x) in [y_lo, y_hi], for a y that falls with x.

    ``evaluate(x, rows)`` gives (y, propose) for the listed rows, or all
    rows when ``rows`` is None: y at x, and ``propose(i)``, the next trial
    of the evaluated rows ``i``.  Rows flagged ``active`` need
    y(0) > y_hi; the rest return 0.  A row tries ``start``, then the
    proposed x; a row flagged ``cold`` that is above the window at
    ``start`` doubles it first.  A proposal that does not land strictly
    inside the row's bracket is a bisection in log x, which bounds the
    cost of a jump in y, and while the bracket is open that doubles or
    halves x.  It returns the least feasible x (y <= y_hi) once y is in
    the window or the bracket is 1e-12 wide, and raises InfeasibleError
    naming ``where(row)`` and the bracket when a row is still above y_hi
    at start * 2^(_ETA_DOUBLINGS - 1), the highest x it may try.
    """
    out = np.zeros(active.size)             # the roots; inactive rows stay at 0
    rows = np.flatnonzero(active)
    # the active rows' state, one field per row of ``st``: the trial x, the
    # bracket ends (0 and inf while open), and the highest x to try
    st = np.zeros((4, rows.size))
    st[0] = start[rows]
    st[2] = np.inf
    st[3] = st[0] * 2.0 ** (_ETA_DOUBLINGS - 1)
    cold = cold[rows]
    for trial in range(1, _ETA_DOUBLINGS + _BISECT_STEPS + 1):
        if rows.size == 0:
            break
        x, lo, hi, top = st
        if 2 * rows.size <= active.size:        # a gather copies the arrays
            (y, propose), at = evaluate(x, rows), np.arange(rows.size)
        else:
            full = out.copy()
            full[rows] = x
            (y, propose), at = evaluate(full, None), rows
        y = y[at]
        feas = y <= y_hi
        np.copyto(hi, x, where=feas)
        np.copyto(lo, x, where=~feas)
        if (lo >= top).any():
            pos = int(np.argmax(lo >= top))
            raise InfeasibleError("%s: %.6g > %.6g after %d trials; final bracket [%.6g, inf)"
                                  % (where(rows[pos]), y[pos], y_hi, trial, lo[pos]))
        narrow = (hi - lo <= 1e-12 * np.maximum(hi, 1.0)) & (hi < np.inf)
        done = (feas & (y >= y_lo)) | narrow
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u_lo, u_hi = np.log(st[1:3])
            line = np.full(rows.size, np.nan)
            if not done.all():
                line[~done] = np.log(propose(at[~done]))
            propose = None              # frees the trial's arrays before the next one
            step = np.exp(np.where((line > u_lo) & (line < u_hi), line, 0.5 * (u_lo + u_hi)))
        # an open row bisects to 0 or inf: it halves or doubles instead
        step = np.where(step == 0.0, 0.5 * hi, np.where(step == np.inf, 2.0 * lo, step))
        if trial == 1:                  # a cold row's first step up doubles
            step = np.where(feas | ~cold, step, 2.0 * lo)
        np.minimum(step, top, out=x)
        if done.any():
            out[rows[done]] = hi[done]
            keep = ~done
            rows, st = rows[keep], st[:, keep]
    out[rows] = st[2]
    return out


def _warm_start_mu(ws: _Workspace, tol_w: float):
    """Initialize the power multiplier by a root search on the power gap.

    Returns (mu0, solved) with |avg power - P_t| <= tol_w at mu0 (or mu0
    on the feasible side of a jump across that window), or 0 if
    P(0) <= P_t.  That holds without a trial when the states' power bounds
    under their budgets average to P_t or less.  Otherwise the search
    starts at K / (P_t ln2), on the feasible side (above the window there,
    it doubles mu first), and steps along the line in (log mu, log P)
    through its last two trials, or through the first along a slope of
    -0.5 if it has states to tighten and -1.5 if not.  Until it has a
    bracket a step aims _OVERSHOOT of its length past the window; a step
    that does not land strictly inside the bracket is a bisection in
    log mu, which halves or doubles mu while the bracket is open.  P(0) is
    probed (from eta = 0) once two trials with states to tighten have both
    kept the power within P_t; a trial above P_t shows that P(0) > P_t, so
    binding points skip the probe.  ``solved`` is :func:`_solve_states` at
    mu0: the probe, or the latest trial within P_t + tol_w, which is the
    least such mu tried once the power is in the window or the bracket is
    1e-12 wide.  ConvergenceError names the bracket when the power is still
    above the window at K / (P_t ln2) 2^(_ETA_DOUBLINGS - 1).
    """
    p_t = ws.cfg.total_power_w
    eta = np.zeros((ws.count, ws.cfg.num_primaries))
    # a state within its budgets puts at most budget / (least weight) into
    # the band, so this bound on P(0) needs no trial at all
    with np.errstate(divide="ignore"):
        most = np.min(ws.budgets / np.min(ws.weights, axis=2), axis=1)
    if np.mean(most) <= p_t:
        return 0.0, _solve_states(ws, 0.0, eta)
    y_lo, y_hi = p_t - tol_w, p_t + tol_w
    log_aim = math.log(0.5 * (y_lo + y_hi))
    mu = ws.cfg.num_subcarriers / (p_t * LN2)
    top = mu * 2.0 ** (_ETA_DOUBLINGS - 1)
    lo, hi = 0.0, math.inf      # the bracket: power above y_hi at lo, within it at hi
    below = 0               # tightened trials within P_t; -1 once P(0) > P_t is shown
    kept = None             # the latest states solved within y_hi
    for trial in range(1, _ETA_DOUBLINGS + _BISECT_STEPS + 1):
        solved = _solve_states(ws, mu, eta)
        eta, power = solved[4], np.mean(np.sum(solved[1], axis=1))
        if power <= y_hi:
            kept, hi = solved, mu
        else:
            lo = mu
            if lo >= top:
                raise ConvergenceError(
                    "cannot bracket the power multiplier: average power: %.6g > %.6g "
                    "after %d trials; final bracket [%.6g, inf)" % (power, y_hi, trial, lo))
        if power > p_t:
            below = -1
        elif below >= 0 and eta.any():
            below += 1
            if below == 2:
                probe = _solve_states(ws, 0.0, np.zeros_like(eta))
                if np.mean(np.sum(probe[1], axis=1)) <= p_t:
                    return 0.0, probe
                below = -1
        if y_lo <= power <= y_hi or (hi - lo <= 1e-12 * max(hi, 1.0) and hi < math.inf):
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u, u_lo, u_hi, v = np.log(mu), np.log(lo), np.log(hi), np.log(power) - log_aim
            if trial == 1:      # P falls about as mu^-0.5 once states bind, faster before
                inv = 1.0 / (_MU_SLOPE_BINDING if eta.any() else _MU_SLOPE_FREE)
            else:
                inv = (u - up) / (v - vp)
            line = u - (1.0 + _OVERSHOOT * (lo == 0.0 or hi == math.inf)) * v * inv
            step = np.exp(line if u_lo < line < u_hi else 0.5 * (u_lo + u_hi))
        if step == 0.0:         # an open bracket bisects to 0 or inf: halve or double
            step = 0.5 * hi
        elif step == math.inf:
            step = 2.0 * lo
        if trial == 1 and power > y_hi:     # the first step up doubles
            step = 2.0 * lo
        mu, up, vp = float(min(step, top)), u, v
        solved = None           # hold only ``kept`` through the next trial
    return hi, kept


def _dual_bound(ws: _Workspace, mu: float, eta: np.ndarray) -> float:
    """Weak-duality upper bound at (mu, eta): unweighted per-state maximum.

    Every user of a subcarrier sees its price q, and a link's value
    log2(L / pcut) - q (L - pcut), L = 1 / (ln2 q), falls as pcut rises, so
    the user with the least pcut attains each subcarrier's maximum.
    """
    priced = mu + np.einsum("sm,smk->sk", eta, ws.weights)         # (S, K)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = 1.0 / (LN2 * priced) / ws.pcut_min - 1.0
        np.maximum(x, 0.0, out=x)
        best = np.log1p(x) / LN2 - priced * (x * ws.pcut_min)      # (S, K)
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
    warm_evaluated, warm_calls = ws.evaluated, ws.calls
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
        iteration_passes=(ws.evaluated - warm_evaluated) / s,
        warm_start_calls=warm_calls, iteration_calls=ws.calls - warm_calls)

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
        avg_power_w=avg_power,
        enforced_interference=interf, budgets_w=ws.budgets,
        reference_power_w=ws.p_ref, streams=ws.streams)

    if not converged and not run_all_iterations:
        raise ConvergenceError(
            "power gap %.3g W after %d iterations exceeds tolerance %.3g W"
            % (trace["power_gap"][-1], t, tol_w),
            result=result)
    return result
