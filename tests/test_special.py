"""``_special.ndtri`` and ``_special.ndtri_exp`` return ``scipy.special``'s
bits.  Both are transcriptions of the Cephes quantile that scipy compiles,
so each finite result must equal scipy's as a 64-bit pattern, on every
branch: the central rational function, the upper tail flipped to 1 - p,
and the tail forms for x = sqrt(-2 log p) below 8 (P1/Q1) and from 8 on
(P2/Q2).  A nan may differ in sign or payload, so nan is compared by
``np.isnan``.  Out-of-range and nan inputs give nan without a
RuntimeWarning, as scipy's do.
"""

import math
import sys
import warnings

import numpy as np
import pytest
import scipy.special

from erlangdiff import _special

EXP_M2 = math.exp(-2.0)
# arguments whose logarithm numpy's SIMD np.log can round differently from
# libm on some hosts; the second lies on the x >= 8 branch
LIBM_LOG = (4.900646215320258e-10, 1.0959710871448526e-18)
MAX = sys.float_info.max


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    same = np.isnan(want) | (got.view(np.int64) == want.view(np.int64))
    assert same.all(), list(zip(got[~same][:5].tolist(), want[~same][:5].tolist()))


def _neighbours(points):
    """Each point with the doubles next to it on either side."""
    points = np.asarray(points, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)])


def _ndtri(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _special.ndtri(p)


def _ndtri_exp(ys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.array([_special.ndtri_exp(float(y)) for y in ys])


def _branches(p):
    """How many of p take each branch: the central form, then P1/Q1 and
    P2/Q2 in the lower tail and in the upper tail, flipped to 1 - p."""
    upper = p > 1.0 - _special._EXP_M2
    y = np.where(upper, 1.0 - p, p)
    mid = y > _special._EXP_M2
    far = np.sqrt(-2.0 * np.log(y)) >= 8.0
    tails = [side & cut for side in (~upper, upper) for cut in (~mid & ~far, ~mid & far)]
    return [int(np.sum(branch)) for branch in [mid, *tails]]


def test_ndtri_samples_reach_every_branch_with_scipys_bits():
    rng = np.random.default_rng(20260)
    p = np.concatenate(
        [
            rng.random(200_000),
            np.exp(-745.0 * rng.random(200_000)),  # log-uniform down to the subnormals
            1.0 - np.exp(-37.0 * rng.random(100_000)),  # the flipped upper tail
        ]
    )
    assert min(_branches(p)) > 10_000
    _assert_same_bits(_ndtri(p), scipy.special.ndtri(p))


def test_ndtri_edges_and_out_of_range():
    points = _neighbours(
        [
            EXP_M2, 1.0 - EXP_M2, _special._EXP_M2, 1.0 - _special._EXP_M2,
            math.exp(-32.0), 0.5, 5e-324, 1e-310, sys.float_info.min,
            0.0, 1.0, -1e-300, np.inf, -np.inf, np.nan, *LIBM_LOG,
        ]
    )
    assert np.isnan(_ndtri(points[(points < 0.0) | (points > 1.0)])).all()
    _assert_same_bits(_ndtri(points), scipy.special.ndtri(points))


@pytest.mark.parametrize("p", [0.3, 0.0, 1.0, 2.0, math.nan])
def test_ndtri_scalar_is_a_float64(p):
    got = _ndtri(p)
    assert type(got) is np.float64
    _assert_same_bits(got, scipy.special.ndtri(p))


@pytest.mark.parametrize("p", LIBM_LOG)
def test_ndtri_takes_its_logs_from_libm(p):
    # an np.log port reads the first -6.112612892063991 against scipy's
    # -6.112612892063992 where np.log rounds differently from libm
    _assert_same_bits(_ndtri(p), scipy.special.ndtri(p))
    _assert_same_bits(_ndtri([p, 0.5]), scipy.special.ndtri([p, 0.5]))


def test_ndtri_exp_samples_reach_every_branch_with_scipys_bits():
    rng = np.random.default_rng(20261)
    ys = np.concatenate(
        [
            -4.0 * rng.random(4_000),  # ndtri(exp(y)), -ndtri(-expm1(y)) and x < 8
            -np.exp(6.0 * rng.random(2_000)),  # x past 8
            -np.exp(709.0 * rng.random(2_000)),
        ]
    )
    x = np.sqrt(-2.0 * ys[ys < -2.0])
    assert min(np.sum(ys > _special._LOG1M_EXP_M2), np.sum(x < 8.0), np.sum(x >= 8.0)) > 100
    _assert_same_bits(_ndtri_exp(ys), scipy.special.ndtri_exp(ys))


def test_ndtri_exp_edges():
    ys = _neighbours(
        [
            -2.0, math.log1p(-EXP_M2), -32.0, -MAX / 2.0, -MAX, -np.inf,
            0.0, -0.0, 1.0, 1e300, np.inf, np.nan, -5e-324,
        ]
    )
    assert np.isnan(_ndtri_exp(ys[ys > 0.0])).all()
    _assert_same_bits(_ndtri_exp(ys), scipy.special.ndtri_exp(ys))
