"""Exact (non-differentiable) correlation coefficients used for measurement.

All three coefficients use population (divide-by-n) moments; both arguments
always come from the same paired sample, so only internal consistency
matters.  Degenerate inputs (n < 2 or a constant series) raise
:class:`DegenerateInput` -- callers decide the skip policy.  The
coefficients do not depend on the scale of the input: a series whose
largest magnitude lies outside [2**-100, 2**100] is divided by the power
of two that brings it into [0.5, 1) before any moment is formed.  That is
exact, and inside the window every moment of a non-constant series is a
normal float, so one pass never overflows, underflows to zero or warns.
The coefficients and the Correlation Loss share every step: one series
check (``_extent``, whose min/max pair gives finiteness, peak and
constancy), one centering (``_centered``, or for Spearman the rank core's
centered ranks and closed-form variance), one Pearson step
(``_pearson_of``) and one Concordance kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInput

__all__ = ["pearson", "spearman", "concordance", "average_ranks"]

FloatArray = np.ndarray
# A non-constant series whose peak lies in this window has a variance in
# about [2**-306 / n, 2**202]: its peak differs from some other entry by at
# least an ulp of 2**-101.  No moment, product or sum of two then leaves
# the normal range.
_WINDOW = (2.0**-100, 2.0**100)


def _extent(a: FloatArray) -> tuple[float, float]:
    """``(min, max)`` of a, ``(0.0, 0.0)`` when empty: the one series check.

    Both ends are finite exactly when every entry is (NaN and inf reach an
    end), the peak magnitude is ``max(-min, max)``, and a is constant
    exactly when ``min == max``.  Not a variance test: the mean of
    [0.1] * 3 rounds, which leaves a variance near 1e-34, not 0.
    """
    return (float(a.min()), float(a.max())) if a.size else (0.0, 0.0)


def _scaled(a: FloatArray, peak: float) -> tuple[FloatArray, int]:
    """``(a / 2**e, e)``: e = 0 when ``peak`` lies in ``_WINDOW``, else the
    e that brings ``peak`` into [0.5, 1).  Exact, so no coefficient changes."""
    if _WINDOW[0] <= peak <= _WINDOW[1]:
        return a, 0
    e = math.frexp(peak)[1]
    return np.ldexp(a, -e), e


def _clip(r: float) -> float:
    return min(1.0, max(-1.0, r))


def _check_pair(x, y) -> tuple[FloatArray, FloatArray, tuple[float, float], tuple[float, float]]:
    """``(a, b, extent_a, extent_b)``: x and y as float64 vectors of one
    length n >= 2 with finite entries, and their ``_extent``."""
    series = []
    for v, name in ((x, "x"), (y, "y")):
        a = np.asarray(v, dtype=np.float64).reshape(-1)
        lo, hi = _extent(a)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DegenerateInput(f"{name} contains non-finite values")
        series.append((a, (lo, hi)))
    (a, extent_a), (b, extent_b) = series
    if a.size != b.size:
        raise DegenerateInput(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise DegenerateInput(f"need at least 2 samples, got {a.size}")
    return a, b, extent_a, extent_b


def _centered_ranks(a: FloatArray) -> tuple[FloatArray, float]:
    """``(ranks - (n + 1) / 2, variance)``: the average-tie ranks of the
    float64 vector ``a`` (see :func:`average_ranks`), centered on their
    mean, and their population variance.

    The ranks of any n values sum to n(n + 1) / 2, so their mean is exactly
    (n + 1) / 2 and the centered ranks are multiples of 1/2: sorted
    position p (0-based) gets p - (n - 1) / 2 without ties, and a tie group
    at sorted positions i..j (1-based) gets (i + j - n - 1) / 2.  Without
    ties the variance is (n^2 - 1) / 12 for n >= 1.  Both are the bits of
    two ``np.mean`` passes over the ranks: every partial sum numpy forms is
    a multiple of 1/2 below n(n + 1) / 2 (the ranks) or of 1/4 below
    n(n^2 - 1) / 12 (the squared centered ranks), so it is exact while
    those totals stay below 2**52 (n up to about 9.5e7) and 2**51 (n up to
    300,079), and the one division that follows rounds the same real
    number as the closed form.  Past the second bound (at n = 10**6 the
    closed form differs in the last bit), and with ties, the variance is
    ``np.mean`` of the squared centered ranks.

    One default sort: the ranks do not depend on the order within a tie
    group.  NaN sorts last under it, and any NaN makes every centered rank
    and the variance NaN.  Only input with a tie (``0.0 == -0.0`` and equal
    infinities count) builds the groups: each group's centered rank is
    repeated over its span in sorted order and scattered once.
    """
    n = a.shape[0]
    order = np.argsort(a)
    ordered = a[order]
    if n and np.isnan(ordered[-1]):
        return np.full(n, np.nan), math.nan
    centered = np.empty(n)
    rises = ordered[1:] != ordered[:-1]
    if rises.all():
        centered[order] = np.arange((1 - n) / 2, (n + 1) / 2)
        if n * (n * n - 1) < 12 * 2**51:
            return centered, (n * n - 1) / 12
    else:
        bounds = np.concatenate(([0], np.flatnonzero(rises) + 1, [n]))
        centered[order] = np.repeat(0.5 * (bounds[1:] + bounds[:-1] - n), np.diff(bounds))
    return centered, float(np.mean(centered * centered))


def average_ranks(x) -> FloatArray:
    """Fractional ranks with average tie handling; smallest value gets rank 1.

    Same values as ``scipy.stats.rankdata(x, method="average")``: a tie
    group spanning sorted positions i..j (1-based) gets (i + j) / 2, which
    is exact in float64.  Any NaN makes every rank NaN.  The ranks are
    ``_centered_ranks`` plus their mean (n + 1) / 2, which is exact; the
    Spearman coefficient and loss read the centered ranks and their
    closed-form variance directly.
    """
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    return _centered_ranks(a)[0] + (a.shape[0] + 1) / 2


def _centered(a: FloatArray, peak: float) -> tuple[FloatArray, float, int]:
    """``(ac, var, e)``: ``a`` divided by 2**e (``_scaled``), centered on its
    mean, and its population variance."""
    a_s, e = _scaled(a, peak)
    ac = a_s - a_s.mean()
    return ac, float(np.mean(ac * ac)), e


def _pearson_of(ac: FloatArray, var_a: float, bc: FloatArray, var_b: float) -> float | None:
    """Unclipped Pearson r of two centered series from their population
    variances: the one Pearson step of the coefficients and the loss.  None
    when a variance is zero: all-tied ranks (callers rule out other
    constant series first), or soft ranks that round to one value, which
    the loss guards against though no input is known to produce them."""
    if var_a == 0.0 or var_b == 0.0:
        return None
    return float(np.mean(ac * bc)) / math.sqrt(var_a * var_b)


def pearson(x, y) -> float:
    """Pearson correlation: cov(x, y) / (sigma_x * sigma_y).

    Raises DegenerateInput when either series is constant or n < 2.  Each
    series is scaled on its own by a power of two (see the module
    docstring), which is exact and leaves r unchanged.
    """
    a, b, (lo_a, hi_a), (lo_b, hi_b) = _check_pair(x, y)
    if lo_a == hi_a or lo_b == hi_b:
        raise DegenerateInput("at least one series is constant")
    ac, var_a, _ = _centered(a, max(-lo_a, hi_a))
    bc, var_b, _ = _centered(b, max(-lo_b, hi_b))
    return _clip(_pearson_of(ac, var_a, bc, var_b))


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson applied to average-tie ranks.

    Raises DegenerateInput when all values tie in either series or n < 2.
    """
    a, b, _, _ = _check_pair(x, y)
    # All-tied ranks center to zeros: their variance is 0.
    r = _pearson_of(*_centered_ranks(a), *_centered_ranks(b))
    if r is None:
        raise DegenerateInput("all values tie in at least one series")
    return _clip(r)


def _concordance_kernel(a: FloatArray, b: FloatArray, peak: float):
    """``(gamma, ac, bc, gap, denom, e)``: unclipped Concordance, the
    centered series, mean gap mu_a - mu_b and denominator
    var_a + var_b + gap^2 it came from, both series divided by 2**e.

    ``peak`` is the larger of the two peaks, and e its ``_scaled``
    exponent, so the series stay in proportion.  Callers rule out a
    constant series first; the larger peak's series then keeps the
    denominator normal.
    """
    a_s, e = _scaled(a, peak)
    b_s = _scaled(b, peak)[0]
    mu_a = float(a_s.mean())
    mu_b = float(b_s.mean())
    ac = a_s - mu_a
    bc = b_s - mu_b
    gap = mu_a - mu_b
    denom = float(np.mean(ac * ac)) + float(np.mean(bc * bc)) + gap**2
    return 2.0 * float(np.mean(ac * bc)) / denom, ac, bc, gap, denom, e


def concordance(x, y) -> float:
    """Concordance correlation: 2*cov(x, y) / (var_x + var_y + (mu_x - mu_y)^2).

    Stricter than Pearson -- maximized only when the two series agree in
    value, not merely in trend.  Raises DegenerateInput when both series
    are constant and equal, or when n < 2; a single constant series
    gives 0.  Both series are scaled by the same power of two (see the
    module docstring), which is exact and leaves the coefficient unchanged.
    """
    a, b, (lo_a, hi_a), (lo_b, hi_b) = _check_pair(x, y)
    constant_a, constant_b = lo_a == hi_a, lo_b == hi_b
    if constant_a and constant_b and lo_a == lo_b:
        raise DegenerateInput("both series constant and equal")
    if constant_a or constant_b:
        return 0.0  # cov is 0; a mean that rounds would leave a residue near 1e-32
    return _clip(_concordance_kernel(a, b, max(-lo_a, hi_a, -lo_b, hi_b))[0])
