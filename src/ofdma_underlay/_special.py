"""Special functions in numpy: erfcx, erfc, the Normal cdf and Q(a, x).

``erfcx(y) = exp(y^2) erfc(y)`` for y >= 0 follows W. J. Cody, "Rational
Chebyshev approximations for the error function", Math. Comp. 23 (1969),
with his three ranges: y <= 0.46875 (1 - erf through a rational in y^2),
0.46875 < y <= 4 (a rational in y) and y > 4 (an asymptotic rational in
1/y^2), each evaluated only on its own elements (an array whose min and
max fall in one range skips the masks); erfcx(inf) = 0.
``erfc`` multiplies by exp(-y^2) split as exp(-t^2) exp(-(y - t)(y + t)),
t = y rounded down to a multiple of 1/16, so the square loses no bits.

``gammaincc(a, x)``, the regularized upper incomplete gamma function, sums
the series of P(a, x) for x < a + 1 and returns 1 - P, and evaluates the
continued fraction of Q(a, x) by the modified Lentz method otherwise.
Both stop once a step changes the result by less than 3e-16 relative (a
1e-16 test never holds: a step of one ulp around 1 is 1.1e-16 or 2.2e-16)
or raise ConvergenceError after 20 000 steps; near x = a they take about
9 sqrt(a) steps, so the cap covers a up to about 4e6.  The prefactor
x^a e^-x / Gamma(a) takes ``math.lgamma`` for a < 20 and, above,
Stirling's series around a, so that no logs near a ln a cancel.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

__all__ = ["erfcx", "erfc", "ndtr", "gammaincc"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRTPI = 1.0 / math.sqrt(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Cody (1969), erf on |y| <= 0.46875: y * A(y^2) / B(y^2)
_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
      3.20937758913846947e03, 1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
# erfcx on 0.46875 < y <= 4: C(y) / D(y)
_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
      2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
# erfcx on y > 4: (1/sqrt(pi) - z P(z) / Q(z)) / y with z = 1 / y^2
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)

_SMALL, _MEDIUM = 0.46875, 4.0
_ERFC_ZERO = 30.0   # erfc underflows to 0 from about 27.3 on
_STOP = 3e-16
_MAX_STEPS = 20_000
_STIRLING_FROM = 20.0
# Stirling's series of lgamma(a) - (a - 1/2) ln a + a - ln(2 pi)/2 in 1/a^2
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0)


def _rational(y, num, den):
    """Cody's Horner form: (((n_last y + n0) y + n1) y ...) / ((y + d0) y ...)."""
    top = num[-1] * y
    bottom = y.copy()
    for n_i, d_i in zip(num[:len(den) - 1], den[:-1]):
        top += n_i
        top *= y
        bottom += d_i
        bottom *= y
    top += num[len(den) - 1]
    bottom += den[-1]
    top /= bottom
    return top


def _erfcx_small(y):
    sq = y * y
    return np.exp(sq) * (1.0 - y * _rational(sq, _A, _B))


def _erfcx_medium(y):
    return _rational(y, _C, _D)


def _erfcx_large(y):
    with np.errstate(over="ignore"):
        z = 1.0 / (y * y)
    return (_INV_SQRTPI - z * _rational(z, _P, _Q)) / y


def erfcx(y):
    """Scaled complementary error function exp(y^2) erfc(y) for y >= 0."""
    y = np.asarray(y, dtype=float)
    lo, hi = (np.min(y), np.max(y)) if y.size else (0.0, 0.0)
    if hi <= _SMALL:            # every argument in one range (a NaN takes the masks)
        out = _erfcx_small(y)
    elif _SMALL < lo and hi <= _MEDIUM:
        out = _erfcx_medium(y)
    elif lo > _MEDIUM:
        out = _erfcx_large(y)
    else:
        small, large = y <= _SMALL, y > _MEDIUM
        out = np.empty(y.shape)
        for part, kernel in ((small, _erfcx_small), (~(small | large), _erfcx_medium),
                             (large, _erfcx_large)):
            if part.any():
                out[part] = kernel(y[part])
    return out if out.ndim else float(out)


def erfc(x):
    """Complementary error function on the real line."""
    x = np.asarray(x, dtype=float)
    y = np.minimum(np.abs(x), _ERFC_ZERO)
    t = np.floor(y * 16.0) / 16.0
    out = np.exp(-t * t) * np.exp(-(y - t) * (y + t)) * erfcx(y)
    out = np.where(x < 0.0, 2.0 - out, out)
    return out if out.ndim else float(out)


def ndtr(x: float) -> float:
    """Standard Normal cdf of a scalar."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _log_prefactor(a, x):
    """ln(x^a e^-x / Gamma(a)) for a > 0, x > 0 (arrays of one shape)."""
    out = np.empty(a.shape)
    low = a < _STIRLING_FROM
    if np.any(low):
        al, xl = a[low], x[low]
        out[low] = (al * np.log(xl) - xl
                    - np.array([math.lgamma(v) for v in al.tolist()]))
    high = ~low
    if np.any(high):
        ah, xh = a[high], x[high]
        d = (xh - ah) / ah
        inv2 = 1.0 / (ah * ah)
        series = np.zeros(ah.shape)
        for coef in reversed(_STIRLING):
            series *= inv2
            series += coef
        # -a (d - ln(1 + d)) + ln(a) / 2 - ln(2 pi) / 2 - Stirling's remainder
        out[high] = (-ah * (d - np.log1p(d)) + 0.5 * np.log(ah) - _HALF_LOG_2PI
                     - series / ah)
    return out


def _too_slow(a, x):
    return ConvergenceError("gammaincc took over %d steps at a = %r, x = %r"
                            % (_MAX_STEPS, float(a), float(x)))


def _lower_series(a, x):
    """Sum_{n >= 0} x^n / (a (a + 1) ... (a + n)), so that P(a, x) = prefactor * sum."""
    out = np.empty(a.shape)
    live = np.arange(a.size)
    total = 1.0 / a
    term, denom, x_live = total.copy(), a.copy(), x
    for _ in range(_MAX_STEPS):
        denom += 1.0
        term *= x_live / denom
        total += term
        done = np.abs(term) < total * _STOP
        if np.any(done):
            out[live[done]] = total[done]
            keep = ~done
            if not np.any(keep):
                return out
            live, total, term, denom, x_live = (
                live[keep], total[keep], term[keep], denom[keep], x_live[keep])
    raise _too_slow(a[live[0]], x[live[0]])


def _upper_fraction(a, x):
    """Q(a, x) / prefactor = 1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...)), by modified Lentz."""
    tiny = 1e-300
    out = np.empty(a.shape)
    live = np.arange(a.size)
    a_live = a
    b = x + 1.0 - a
    c = np.full(a.shape, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_STEPS + 1):
        an = -i * (i - a_live)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        done = np.abs(step - 1.0) < _STOP
        if np.any(done):
            out[live[done]] = h[done]
            keep = ~done
            if not np.any(keep):
                return out
            live, a_live, b, c, d, h = (live[keep], a_live[keep], b[keep], c[keep],
                                        d[keep], h[keep])
    raise _too_slow(a[live[0]], x[live[0]])


def gammaincc(a, x):
    """Regularized upper incomplete gamma function Q(a, x) for a > 0, x >= 0."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if not (np.all((a > 0.0) & np.isfinite(a)) and np.all(x >= 0.0)):
        raise ValueError("gammaincc needs finite a > 0 and x >= 0")
    out = np.where(x > 0.0, 0.0, 1.0)
    series = (x > 0.0) & (x < a + 1.0)
    fraction = np.isfinite(x) & (x >= a + 1.0)
    if np.any(series):
        a_s, x_s = a[series], x[series]
        out[series] = 1.0 - np.exp(_log_prefactor(a_s, x_s)) * _lower_series(a_s, x_s)
    if np.any(fraction):
        a_f, x_f = a[fraction], x[fraction]
        out[fraction] = np.exp(_log_prefactor(a_f, x_f)) * _upper_fraction(a_f, x_f)
    return out if out.ndim else float(out)
