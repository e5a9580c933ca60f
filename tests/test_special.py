"""The numpy special functions against SciPy, exact arithmetic and closed forms."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import special

from ofdma_underlay import _special
from ofdma_underlay._special import erfc, erfcx, gammaincc, ndtr
from ofdma_underlay.errors import ConvergenceError

TINY = np.finfo(float).tiny     # below it a float has lost relative precision


def assert_close(ours, ref, rtol):
    """Within rtol relative where both are normal floats; both subnormal or 0 otherwise."""
    ours, ref = np.broadcast_arrays(np.asarray(ours, float), np.asarray(ref, float))
    normal = (ours >= TINY) | (ref >= TINY)
    assert np.all((ours[~normal] < TINY) & (ref[~normal] < TINY))
    rel = np.abs(ours[normal] - ref[normal]) / np.maximum(ours[normal], ref[normal])
    assert rel.max(initial=0.0) <= rtol


def test_erfcx_at_range_edges_and_limits():
    edges = [0.0, 0.46875, 4.0, 1e8]
    points = np.array(edges + [np.nextafter(v, np.inf) for v in edges])
    assert_close(erfcx(points), special.erfcx(points), 1e-12)
    assert erfcx(np.inf) == 0.0
    assert erfcx(0.0) == 1.0


def _masked_erfcx(y):
    """erfcx with each of Cody's kernels on its own elements only."""
    small, large = y <= _special._SMALL, y > _special._MEDIUM
    out = np.empty(y.shape)
    for part, kernel in ((small, _special._erfcx_small),
                         (~(small | large), _special._erfcx_medium),
                         (large, _special._erfcx_large)):
        out[part] = kernel(y[part])
    return out


@pytest.mark.parametrize("lo, hi", [(0.0, 0.46875), (np.nextafter(0.46875, 1.0), 4.0),
                                    (np.nextafter(4.0, 5.0), 1e8), (0.0, 30.0),
                                    (0.3, 2.0), (1.0, 9.0)],
                         ids=["small", "medium", "large", "all", "small-medium",
                              "medium-large"])
def test_erfcx_one_range_equals_the_masked_path(lo, hi):
    # an array inside one of Cody's ranges skips the masks; the bytes stay
    y = np.concatenate([[lo, hi], np.random.default_rng(3).uniform(lo, hi, 997)])
    assert erfcx(y).tobytes() == _masked_erfcx(y).tobytes()
    assert erfcx(y[:1]).tobytes() == _masked_erfcx(y[:1]).tobytes()
    if hi > 4.0:
        y[-1] = np.inf
        assert erfcx(y).tobytes() == _masked_erfcx(y).tobytes()


def test_erfcx_on_log_grid():
    y = np.logspace(-8, 8, 4001)
    assert_close(erfcx(y), special.erfcx(y), 1e-12)


def test_erfc_on_both_signs():
    x = np.linspace(-30.0, 30.0, 6001)
    assert_close(erfc(x), special.erfc(x), 1e-12)
    assert erfc(-np.inf) == 2.0 and erfc(np.inf) == 0.0


def test_ndtr_scalar():
    for v in (-30.0, -5.0, -0.5, 0.0, 0.7, 3.0, 9.0):
        assert_close(ndtr(v), special.ndtr(v), 1e-12)


def test_gammaincc_grid_against_scipy():
    a = np.geomspace(0.5, 1e3, 60)[:, None]
    x = a * np.geomspace(1e-3, 1e2, 120)[None, :]
    ours, ref = gammaincc(a, x), special.gammaincc(a, x)
    # SciPy itself strays up to 1.9e-12 in the far tail at a > 600 (against
    # 30-digit references); the Poisson test below holds that region to 1e-12
    far = ref < 1e-20
    assert_close(ours[~far], ref[~far], 1e-12)
    assert_close(ours[far], ref[far], 2.5e-12)


def _poisson_tail(n: int, x: float) -> float:
    """Q(n, x) = e^-x sum_{k < n} x^k / k!, in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        xd = Decimal(x)
        term, total = Decimal(1), Decimal(0)
        for k in range(n):
            total += term
            term = term * xd / (k + 1)
        return float((-xd).exp() * total)


@pytest.mark.parametrize("n", [1, 2, 7, 20, 21, 150, 700, 1000])
def test_gammaincc_integer_shape_is_a_poisson_sum(n):
    x = n * np.geomspace(1e-3, 1e2, 41)
    ref = [_poisson_tail(n, v) for v in x]
    assert_close(gammaincc(float(n), x), ref, 1e-12)


def test_gammaincc_shape_one_is_exponential():
    x = np.geomspace(1e-6, 700.0, 200)
    assert_close(gammaincc(1.0, x), np.exp(-x), 1e-12)


def test_gammaincc_edges():
    assert gammaincc(3.0, 0.0) == 1.0
    assert gammaincc(3.0, np.inf) == 0.0
    assert isinstance(gammaincc(2.0, 1.0), float)
    assert gammaincc(np.array([2.0]), 1.0).shape == (1,)
    with pytest.raises(ValueError):
        gammaincc(0.0, 1.0)
    with pytest.raises(ValueError):
        gammaincc(1.0, -1.0)


def test_gammaincc_iteration_cap_raises():
    # about 9 sqrt(a) steps are needed near x = a: 2.8e5 here, past the cap
    with pytest.raises(ConvergenceError, match=r"a = 1000000000\.0"):
        gammaincc(1e9, 1e9)
    assert math.isfinite(gammaincc(1e5, 1e5))
