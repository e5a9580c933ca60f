"""Adaptive MQAM sizing rules and their algebraic inverses."""

import math

import numpy as np
import pytest

from ofdma_underlay.modulation import (ALLOWED_BITS, LN2, ber_bound,
                                       ber_exact, ber_slope,
                                       cutoff_threshold, discretize_rate,
                                       max_constellation)


def test_slope_reference_values():
    assert ber_slope(1e-2) == pytest.approx(0.44102, abs=5e-6)
    assert ber_slope(1e-3) == pytest.approx(0.26298, abs=5e-6)
    assert ber_slope(1e-2) == pytest.approx(-1.5 / math.log(1e-2 / 0.3), rel=1e-14)


def test_slope_strictly_increasing_in_target():
    targets = np.geomspace(1e-6, 0.299, 40)
    slopes = [ber_slope(t) for t in targets]
    assert np.all(np.diff(slopes) > 0.0)
    for bad in (0.0, 0.3, 0.5, -1e-3):
        with pytest.raises(ValueError):
            ber_slope(bad)


def test_constellation_reference_values():
    assert max_constellation(ber_slope(1e-2), 10.0, 1.0, 1.0) == \
        pytest.approx(5.4102, abs=5e-5)
    assert max_constellation(ber_slope(1e-3), 10.0, 1.0, 1.0) == \
        pytest.approx(3.6298, abs=5e-5)
    # zero power transmits nothing: constellation collapses to 1
    assert max_constellation(0.3, 25.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        max_constellation(0.3, 10.0, 1.0, 0.0)


def test_bound_inversion_round_trip():
    # the sizing rule inverts the envelope exactly: plugging M* back in
    # returns the BER target whenever the link transmits at all
    for target in (1e-5, 1e-3, 1e-2, 0.1, 0.29):
        slope = ber_slope(target)
        for snr in (0.05, 0.5, 3.0, 10.0, 250.0):
            m_star = max_constellation(slope, snr, 2.0, 2.0)
            assert m_star > 1.0
            assert ber_bound(m_star, snr) == pytest.approx(target, abs=1e-9)


def test_ber_exact_reference_point_and_clamp():
    assert ber_exact(4.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert 0.0 <= ber_exact(4.0, 1e-9) <= 1.0
    snr = np.geomspace(1e-3, 1e4, 64)
    assert np.all(ber_exact(16.0, snr) <= 1.0)
    with pytest.raises(ValueError):
        ber_exact(1.5, 1.0)


def test_bound_dominates_exact_on_square_constellations():
    snr = np.geomspace(1.0, 1e4, 120)            # 0 dB to 40 dB
    for m in (4.0, 16.0, 64.0, 256.0, 1024.0):
        assert np.all(ber_bound(m, snr) >= ber_exact(m, snr) - 1e-15)


def test_bound_silent_constellation():
    assert ber_bound(1.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        ber_bound(0.5, 1.0)


def test_discretize_floor_to_allowed_set():
    assert ALLOWED_BITS == (0, 2, 4, 6, 8, 10)
    assert discretize_rate(1.0) == 0
    assert discretize_rate(5.41) == 2
    assert discretize_rate(4.0) == 2
    assert discretize_rate(4.0 - 1e-9) == 0      # below the smallest square
    assert discretize_rate(16.0) == 4
    assert discretize_rate(255.0) == 6
    assert discretize_rate(1024.0) == 10
    assert discretize_rate(1e9) == 10            # saturates at the largest set entry
    np.testing.assert_array_equal(discretize_rate([1.0, 64.0, 300.0]),
                                  [0, 6, 8])
    with pytest.raises(ValueError):
        discretize_rate(0.5)


def test_discrete_rate_never_exceeds_continuous():
    rng = np.random.default_rng(5)
    m_star = 1.0 + rng.exponential(20.0, size=2000)
    bits = discretize_rate(m_star)
    assert np.all(bits <= np.log2(m_star) + 1e-12)


def test_cutoff_threshold_algebra():
    slope = ber_slope(1e-3)
    assert cutoff_threshold(slope / LN2, 0.0, 0.0, slope) == pytest.approx(1.0)
    one = cutoff_threshold(0.3, 0.2, 1.5, slope)
    two = cutoff_threshold(0.6, 0.4, 1.5, slope)
    assert two == pytest.approx(2.0 * one, rel=1e-14)
    with pytest.raises(ValueError):
        cutoff_threshold(0.0, 0.0, 1.0, slope)
    with pytest.raises(ValueError):
        cutoff_threshold(-0.1, 0.0, 0.0, slope)
