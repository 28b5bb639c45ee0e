"""Exact (non-differentiable) correlation coefficients used for measurement.

All three coefficients use population (divide-by-n) moments; both arguments
always come from the same paired sample, so only internal consistency
matters.  Degenerate inputs raise :class:`DegenerateInput` -- callers decide
the skip policy.  The coefficients do not depend on the scale of the
input: a series whose largest magnitude reaches 2**200 is divided by a
power of two before any moment is formed, so no moment overflows (or
warns), and a moment that would lose precision as a subnormal is
recomputed on the series divided by a power of two.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DegenerateInput

__all__ = ["pearson", "spearman", "concordance", "average_ranks"]

FloatArray = np.ndarray
_NORMAL_MIN = sys.float_info.min
# Below this magnitude no moment can overflow: a variance stays under
# 2**402, a product of two under 2**804, an n-sample sum under n * 2**402.
_PRESCALE_AT = 2.0**200


def _peak(a: FloatArray) -> float:
    """Largest magnitude in a (0 when empty); non-finite exactly when an entry is."""
    return float(np.abs(a).max()) if a.size else 0.0


def _prescale(a: FloatArray, peak: float) -> tuple[FloatArray, int]:
    """``(a / 2**e, e)``: e = 0 below _PRESCALE_AT, else the e that brings
    ``peak`` into [0.5, 1).  Exact, so no coefficient changes."""
    if peak < _PRESCALE_AT:
        return a, 0
    e = math.frexp(peak)[1]
    return np.ldexp(a, -e), e


def _as_series(x, name: str) -> tuple[FloatArray, float]:
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    peak = _peak(a)
    if not math.isfinite(peak):
        raise DegenerateInput(f"{name} contains non-finite values")
    return a, peak


def _check_pair(x, y) -> tuple[FloatArray, FloatArray, float, float]:
    a, peak_a = _as_series(x, "x")
    b, peak_b = _as_series(y, "y")
    if a.size != b.size:
        raise DegenerateInput(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise DegenerateInput(f"need at least 2 samples, got {a.size}")
    return a, b, peak_a, peak_b


def average_ranks(x) -> FloatArray:
    """Fractional ranks with average tie handling; smallest value gets rank 1.

    Same values as ``scipy.stats.rankdata(x, method="average")``: a tie
    group spanning sorted positions i..j (1-based) gets (i + j) / 2, which
    is exact in float64.  Any NaN makes every rank NaN.
    """
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    n = a.shape[0]
    order = np.argsort(a, kind="stable")
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.arange(n)
    ordered = a[order]
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    dense = np.cumsum(starts)[inverse]
    count = np.concatenate((np.flatnonzero(starts), [n]))
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def _unit_exponent(*series: FloatArray) -> int:
    """The e with 2**(e-1) <= max |value| < 2**e (0 when all are zero).

    Dividing by 2**e (``np.ldexp(a, -e)``) is exact and brings the largest
    magnitude into [0.5, 1), where no moment of an n-sample series can
    overflow and the variance of a non-constant one stays a normal float.
    """
    return math.frexp(max(float(np.max(np.abs(a))) for a in series))[1]


def _unit_scaled(a: FloatArray) -> FloatArray:
    return np.ldexp(a, -_unit_exponent(a))


def _pearson_terms(a: FloatArray, b: FloatArray):
    """Centered series, population variances and covariance of a and b."""
    ac = a - a.mean()
    bc = b - b.mean()
    return ac, bc, float(np.mean(ac * ac)), float(np.mean(bc * bc)), float(np.mean(ac * bc))


def pearson(x, y) -> float:
    """Pearson correlation: cov(x, y) / (sigma_x * sigma_y).

    Raises DegenerateInput when either variance is zero (also when it
    underflows to zero) or n < 2.  A series with magnitudes from 2**200
    up, or one whose variance product falls below the normal float range
    (spreads below about 1e-77), is divided by a power of two, which is
    exact and leaves r unchanged; other inputs are computed as they come.
    """
    a, b, peak_a, peak_b = _check_pair(x, y)
    _, _, var_a, var_b, cov = _pearson_terms(_prescale(a, peak_a)[0], _prescale(b, peak_b)[0])
    if var_a == 0.0 or var_b == 0.0:
        raise DegenerateInput("zero variance in at least one series")
    if var_a * var_b < _NORMAL_MIN:
        _, _, var_a, var_b, cov = _pearson_terms(_unit_scaled(a), _unit_scaled(b))
    r = cov / float(np.sqrt(var_a * var_b))
    return min(1.0, max(-1.0, r))


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson applied to average-tie ranks.

    Raises DegenerateInput when all values tie in either series or n < 2.
    """
    a, b, _, _ = _check_pair(x, y)
    return pearson(average_ranks(a), average_ranks(b))


def _concordance_terms(a: FloatArray, b: FloatArray):
    """Centered series, mean gap mu_a - mu_b, covariance and the
    concordance denominator var_a + var_b + gap^2."""
    mu_a = float(a.mean())
    mu_b = float(b.mean())
    ac = a - mu_a
    bc = b - mu_b
    var_a = float(np.mean(ac * ac))
    var_b = float(np.mean(bc * bc))
    gap = mu_a - mu_b
    return ac, bc, gap, float(np.mean(ac * bc)), var_a + var_b + gap**2


def concordance(x, y) -> float:
    """Concordance correlation: 2*cov(x, y) / (var_x + var_y + (mu_x - mu_y)^2).

    Stricter than Pearson -- maximized only when the two series agree in
    value, not merely in trend.  Raises DegenerateInput when the denominator
    is zero (both series constant and equal, or so close that it
    underflows) or n < 2.  When either series has magnitudes from 2**200
    up, or the denominator falls below the normal float range, both series
    are divided by the same power of two, which is exact and leaves the
    coefficient unchanged.
    """
    a, b, peak_a, peak_b = _check_pair(x, y)
    peak = max(peak_a, peak_b)
    a, b = _prescale(a, peak)[0], _prescale(b, peak)[0]
    _, _, _, cov, denom = _concordance_terms(a, b)
    if denom == 0.0:
        raise DegenerateInput("zero denominator: both series constant and equal")
    if denom < _NORMAL_MIN:
        e = _unit_exponent(a, b)
        _, _, _, cov, denom = _concordance_terms(np.ldexp(a, -e), np.ldexp(b, -e))
    g = 2.0 * cov / denom
    return min(1.0, max(-1.0, g))
