"""Exact (non-differentiable) correlation coefficients used for measurement.

All three coefficients use population (divide-by-n) moments; both arguments
always come from the same paired sample, so only internal consistency
matters.  Degenerate inputs raise :class:`DegenerateInput` -- callers decide
the skip policy.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput

__all__ = ["pearson", "spearman", "concordance", "average_ranks"]

FloatArray = np.ndarray


def _as_series(x, name: str) -> FloatArray:
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise DegenerateInput(f"{name} contains non-finite values")
    return a


def _check_pair(x, y) -> tuple[FloatArray, FloatArray]:
    a = _as_series(x, "x")
    b = _as_series(y, "y")
    if a.size != b.size:
        raise DegenerateInput(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise DegenerateInput(f"need at least 2 samples, got {a.size}")
    return a, b


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


def pearson(x, y) -> float:
    """Pearson correlation: cov(x, y) / (sigma_x * sigma_y).

    Raises DegenerateInput when either variance is zero or n < 2.
    """
    a, b = _check_pair(x, y)
    ac = a - a.mean()
    bc = b - b.mean()
    var_a = float(np.mean(ac * ac))
    var_b = float(np.mean(bc * bc))
    if var_a == 0.0 or var_b == 0.0:
        raise DegenerateInput("zero variance in at least one series")
    r = float(np.mean(ac * bc)) / float(np.sqrt(var_a * var_b))
    return min(1.0, max(-1.0, r))


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson applied to average-tie ranks.

    Raises DegenerateInput when all values tie in either series or n < 2.
    """
    a, b = _check_pair(x, y)
    return pearson(average_ranks(a), average_ranks(b))


def concordance(x, y) -> float:
    """Concordance correlation: 2*cov(x, y) / (var_x + var_y + (mu_x - mu_y)^2).

    Stricter than Pearson -- maximized only when the two series agree in
    value, not merely in trend.  Raises DegenerateInput when the denominator
    is zero (both series constant and equal) or n < 2.
    """
    a, b = _check_pair(x, y)
    mu_a = float(a.mean())
    mu_b = float(b.mean())
    ac = a - mu_a
    bc = b - mu_b
    var_a = float(np.mean(ac * ac))
    var_b = float(np.mean(bc * bc))
    denom = var_a + var_b + (mu_a - mu_b) ** 2
    if denom == 0.0:
        raise DegenerateInput("zero denominator: both series constant and equal")
    g = 2.0 * float(np.mean(ac * bc)) / denom
    return min(1.0, max(-1.0, g))
