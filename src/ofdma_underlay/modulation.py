"""Adaptive MQAM rate rules under an uncoded BER ceiling.

Square-MQAM BER over an AWGN-equivalent channel at SINR ``snr``:

    exact:  (4 / log2 M) (1 - 1/sqrt(M)) Q(sqrt(3 snr / (M - 1)))
    bound:  0.3 exp(-1.5 snr / (M - 1))

Inverting the bound at a target ber gives the largest usable
constellation 1 + slope * snr with slope = -1.5 / ln(target / 0.3); the
package carries the slope around as the single number characterizing the
BER ceiling.  The bound dominates the exact expression for M >= 4 once
snr is above roughly 0 dB, which covers every operating point the
allocator can select (transmission starts at M >= 4, i.e.
slope * snr >= 3).
"""

from __future__ import annotations

import math

import numpy as np

from ._special import erfc

__all__ = [
    "ALLOWED_BITS",
    "ber_slope",
    "ber_exact",
    "ber_bound",
    "max_constellation",
    "discretize_rate",
    "cutoff_threshold",
]

ALLOWED_BITS = (0, 2, 4, 6, 8, 10)
LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


def ber_slope(ber_target: float) -> float:
    """Constellation-size slope implied by the exponential BER envelope."""
    if not 0.0 < ber_target < 0.3:
        raise ValueError("ber_target must lie in (0, 0.3), got %g" % ber_target)
    return -1.5 / math.log(ber_target / 0.3)


def ber_exact(m_size: float, snr) -> float:
    """Uncoded square-MQAM BER, clamped to [0, 1].  Requires m_size >= 2."""
    if m_size < 2.0:
        raise ValueError("MQAM BER needs a constellation of at least 2 points")
    snr = np.asarray(snr, dtype=float)
    if np.any(snr < 0.0):
        raise ValueError("SINR must be >= 0")
    q_arg = np.sqrt(3.0 * snr / (m_size - 1.0))
    q_tail = 0.5 * erfc(q_arg / _SQRT2)
    ber = (4.0 / math.log2(m_size)) * (1.0 - 1.0 / math.sqrt(m_size)) * q_tail
    ber = np.clip(ber, 0.0, 1.0)
    return ber if ber.ndim else float(ber)


def ber_bound(m_size: float, snr) -> float:
    """Exponential BER envelope; identically 0 at m_size = 1 (no transmission)."""
    if m_size < 1.0:
        raise ValueError("constellation size must be >= 1")
    snr = np.asarray(snr, dtype=float)
    if np.any(snr < 0.0):
        raise ValueError("SINR must be >= 0")
    if m_size == 1.0:
        out = np.zeros(snr.shape)
        return out if out.ndim else 0.0
    out = 0.3 * np.exp(-1.5 * snr / (m_size - 1.0))
    return out if out.ndim else float(out)


def max_constellation(slope: float, gamma, power, p_ref: float):
    """Largest constellation meeting the BER ceiling at power ``power``.

    ``gamma`` is the reference SINR at transmit power ``p_ref``; the
    operating SINR is gamma * power / p_ref, hence M = 1 + slope * gamma
    * power / p_ref.
    """
    if slope <= 0.0 or p_ref <= 0.0:
        raise ValueError("slope and p_ref must be positive")
    gamma = np.asarray(gamma, dtype=float)
    power = np.asarray(power, dtype=float)
    if np.any(gamma < 0.0) or np.any(power < 0.0):
        raise ValueError("gamma and power must be >= 0")
    m = 1.0 + slope * gamma * power / p_ref
    return m if m.ndim else float(m)


def discretize_rate(m_size):
    """Largest bit load b of ALLOWED_BITS with 2**b <= m_size (0 means silence)."""
    m = np.asarray(m_size, dtype=float)
    if np.any(m < 1.0):
        raise ValueError("constellation size must be >= 1")
    bits = np.zeros(m.shape, dtype=int)
    for b in ALLOWED_BITS[1:]:          # ascending, after the silent 0
        bits = np.where(m >= float(1 << b), b, bits)
    return bits if bits.ndim else int(bits)


def cutoff_threshold(mu: float, eta: float, cross_weight: float, slope: float) -> float:
    """Reference-SINR cutoff below which water-filling allocates zero power."""
    if mu < 0.0 or eta < 0.0 or cross_weight < 0.0:
        raise ValueError("multipliers and cross weight must be >= 0")
    if slope <= 0.0:
        raise ValueError("slope must be positive")
    if mu == 0.0 and eta == 0.0:
        raise ValueError("both multipliers vanish: no finite cutoff exists")
    return LN2 * (mu + eta * cross_weight) / slope
