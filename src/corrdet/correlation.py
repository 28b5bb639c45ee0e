"""Exact (non-differentiable) correlation coefficients used for measurement.

All three coefficients use population (divide-by-n) moments; both arguments
always come from the same paired sample, so only internal consistency
matters.  Degenerate inputs raise :class:`DegenerateInput` -- callers decide
the skip policy.  The coefficients do not depend on the scale of the
input: a series whose largest magnitude reaches 2**200 is divided by a
power of two before any moment is formed, so no moment overflows (or
warns), and a moment that would lose precision as a subnormal is
recomputed on the series divided by a power of two.  The Correlation
Loss reads its coefficient and gradient terms from the same two kernels.
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


def _scaled(a: FloatArray, peak: float, at: float) -> tuple[FloatArray, int]:
    """``(a / 2**e, e)``: e = 0 when ``peak < at``, else the e that brings
    ``peak`` into [0.5, 1).  Exact, so no coefficient changes."""
    if peak < at:
        return a, 0
    e = math.frexp(peak)[1]
    return np.ldexp(a, -e), e


def _constant(a: FloatArray) -> bool:
    """All entries equal.  Not a variance test: the mean of [0.1] * 3 rounds,
    which leaves a variance near 1e-34, not 0."""
    return bool(a.min() == a.max())


def _clip(r: float) -> float:
    return min(1.0, max(-1.0, r))


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


def _coefficient(terms) -> float:
    """The clipped coefficient of a kernel result; raises on None."""
    if terms is None:
        raise DegenerateInput("a variance or the denominator is zero")
    return _clip(terms[0])


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


def _pearson_moments(a: FloatArray, b: FloatArray):
    """Centered series, population variances and covariance of a and b."""
    ac = a - a.mean()
    bc = b - b.mean()
    return ac, bc, float(np.mean(ac * ac)), float(np.mean(bc * bc)), float(np.mean(ac * bc))


def _pearson_kernel(a: FloatArray, b: FloatArray, peak_a: float, peak_b: float):
    """``(r, ac, bc, var_a, var_b, e_b)``: unclipped Pearson r and the
    centered series and variances it came from, b divided by 2**e_b.

    ``peak_a``/``peak_b`` bound the magnitudes.  A series whose peak
    reaches 2**200 is divided by a power of two first; when a variance or
    their product falls below the normal range, both are recomputed with
    their peaks in [0.5, 1).  Exact, so r does not change.  None when a
    variance is zero, as an underflow makes it for [0, 5e-324].
    """
    b_s, e_b = _scaled(b, peak_b, _PRESCALE_AT)
    ac, bc, var_a, var_b, cov = _pearson_moments(_scaled(a, peak_a, _PRESCALE_AT)[0], b_s)
    if var_a == 0.0 or var_b == 0.0:
        return None
    if min(var_a, var_b, var_a * var_b) < _NORMAL_MIN:
        b_s, e_b = _scaled(b, peak_b, 0.0)
        ac, bc, var_a, var_b, cov = _pearson_moments(_scaled(a, peak_a, 0.0)[0], b_s)
    return cov / math.sqrt(var_a * var_b), ac, bc, var_a, var_b, e_b


def pearson(x, y) -> float:
    """Pearson correlation: cov(x, y) / (sigma_x * sigma_y).

    Raises DegenerateInput when either series is constant, when a variance
    underflows to zero, or when n < 2.  A series with magnitudes from
    2**200 up, or one whose variance falls below the normal float range
    (spreads below about 1e-154), is divided by a power of two, which is
    exact and leaves r unchanged; other inputs are computed as they come.
    """
    a, b, peak_a, peak_b = _check_pair(x, y)
    if _constant(a) or _constant(b):
        raise DegenerateInput("at least one series is constant")
    return _coefficient(_pearson_kernel(a, b, peak_a, peak_b))


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson applied to average-tie ranks.

    Raises DegenerateInput when all values tie in either series or n < 2.
    """
    a, b, _, _ = _check_pair(x, y)
    # Ranks lie in [1, n], so n bounds their peaks.  All-tied ranks equal
    # (n + 1) / 2, whose mean is exact: their variance is 0.
    n = float(a.size)
    return _coefficient(_pearson_kernel(average_ranks(a), average_ranks(b), n, n))


def _concordance_moments(a: FloatArray, b: FloatArray):
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


def _concordance_kernel(a: FloatArray, b: FloatArray, peak_a: float, peak_b: float):
    """``(gamma, ac, bc, gap, denom, e)``: unclipped Concordance and the
    terms it came from, both series divided by 2**e.

    e brings the larger peak into [0.5, 1) when that peak reaches 2**200
    or the denominator falls below the normal range, else e = 0; exact, so
    gamma does not change.  None when the denominator is zero.
    """
    peak = max(peak_a, peak_b)
    a_s, e = _scaled(a, peak, _PRESCALE_AT)
    ac, bc, gap, cov, denom = _concordance_moments(a_s, _scaled(b, peak, _PRESCALE_AT)[0])
    if denom == 0.0:
        return None
    if denom < _NORMAL_MIN:
        a_s, e = _scaled(a, peak, 0.0)
        ac, bc, gap, cov, denom = _concordance_moments(a_s, _scaled(b, peak, 0.0)[0])
    return 2.0 * cov / denom, ac, bc, gap, denom, e


def concordance(x, y) -> float:
    """Concordance correlation: 2*cov(x, y) / (var_x + var_y + (mu_x - mu_y)^2).

    Stricter than Pearson -- maximized only when the two series agree in
    value, not merely in trend.  Raises DegenerateInput when both series
    are constant and equal, when the denominator underflows to zero, or
    when n < 2; a single constant series gives 0.  When either series has
    magnitudes from 2**200 up, or the denominator falls below the normal
    float range, both series are divided by the same power of two, which
    is exact and leaves the coefficient unchanged.
    """
    a, b, peak_a, peak_b = _check_pair(x, y)
    constant_a, constant_b = _constant(a), _constant(b)
    if constant_a and constant_b and a[0] == b[0]:
        raise DegenerateInput("both series constant and equal")
    if constant_a or constant_b:
        return 0.0  # cov is 0; a mean that rounds would leave a residue near 1e-32
    return _coefficient(_concordance_kernel(a, b, peak_a, peak_b))
