"""Brute-force reference for soft ranks.

``soft_rank``, ``_pav_decreasing`` and ``soft_rank_vjp`` are the original
implementation: pool-adjacent-violators over one point per sorted entry,
on a stack of numpy scalars, with a second loop that fills each block and
a ``descending`` flag that negates the scaled input.  On every input whose
scaled values have no ties the library must return the same bits.

``isotonic_ranks`` is a second, independent reference for the ranks:
the same projection solved by ``scipy.optimize.isotonic_regression``, a
test-only dependency (the ``test`` extra) that corrdet never imports.

``spearman_loss`` is the Spearman Correlation Loss composed the long way,
for every batch: soft ranks of the scores, the Pearson gradient terms of
the IoUs' average ranks against them, and the soft-rank backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from corrdet import DegenerateInput, average_ranks


@dataclass(frozen=True)
class SoftRankResult:
    """Soft ranks plus everything the backward pass needs.

    ranks        soft ranks in input order; their sum is n(n+1)/2 within
                 rounding while |values| / epsilon <= 2**14, and farther
                 out the rounding of values / epsilon, which PAV fits
                 against the hard ranks, moves it (by tens near 1e17)
    permutation  stable descending sort of the scaled input
    blocks       PAV block id per sorted position (non-decreasing)
    epsilon      regularization strength used
    sign         -1.0 when ``descending`` flipped the input, else +1.0
    """

    ranks: np.ndarray
    permutation: np.ndarray
    blocks: np.ndarray
    epsilon: float
    sign: float

    def __len__(self) -> int:
        return int(self.ranks.shape[0])


def _pav_decreasing(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares non-increasing fit of y; returns (fit, block ids).

    Classic stack-based pool-adjacent-violators: adjacent blocks merge
    (weighted mean) while they violate the non-increasing order.
    """
    n = y.shape[0]
    means = np.empty(n, dtype=np.float64)
    counts = np.empty(n, dtype=np.int64)
    starts = np.empty(n, dtype=np.int64)
    top = 0
    for i in range(n):
        means[top] = y[i]
        counts[top] = 1
        starts[top] = i
        top += 1
        while top > 1 and means[top - 2] < means[top - 1]:
            total = counts[top - 2] + counts[top - 1]
            means[top - 2] += counts[top - 1] * (means[top - 1] - means[top - 2]) / total
            counts[top - 2] = total
            top -= 1

    fit = np.empty(n, dtype=np.float64)
    blocks = np.empty(n, dtype=np.int64)
    for b in range(top):
        lo = starts[b]
        hi = lo + counts[b]
        fit[lo:hi] = means[b]
        blocks[lo:hi] = b
    return fit, blocks


def soft_rank(values, epsilon: float = 1.0, descending: bool = False) -> SoftRankResult:
    """Differentiable ranks of ``values``; the largest value gets rank n.

    With ``descending=True`` the convention flips: the largest value gets
    rank 1.  Requires n >= 1 and epsilon > 0.
    """
    if epsilon <= 0.0 or not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    n = v.shape[0]
    if n == 0:
        raise DegenerateInput("need at least 1 value to rank")
    if not np.all(np.isfinite(v)):
        raise DegenerateInput("values contain non-finite entries")

    sign = -1.0 if descending else 1.0
    theta = (sign / epsilon) * v
    perm = np.argsort(-theta, kind="stable")
    s = theta[perm]
    w = np.arange(n, 0, -1, dtype=np.float64)
    y = s - w
    fit, blocks = _pav_decreasing(y)
    # w + (y - fit) equals s - fit but is bit-exact in the hard-rank limit,
    # where fit == y within each singleton block.
    ranks_sorted = w + (y - fit)
    ranks = np.empty(n, dtype=np.float64)
    ranks[perm] = ranks_sorted
    return SoftRankResult(ranks, perm, blocks, float(epsilon), sign)


def isotonic_ranks(values, epsilon: float) -> np.ndarray:
    """Soft ranks of ``values`` (the largest gets rank n) as
    ``s - isotonic_regression(s - w, increasing=False)``, with s the
    values / epsilon sorted descending and w = (n, ..., 1): the projection
    of s onto the permutahedron, reduced to isotonic regression as in
    Blondel et al. 2020.  Equal values get one rank, as the exact fit
    pools them."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    n = v.shape[0]
    perm = np.argsort(-v, kind="stable")
    s = v[perm] / epsilon
    w = np.arange(n, 0, -1, dtype=np.float64)
    ranks = np.empty(n, dtype=np.float64)
    ranks[perm] = s - isotonic_regression(s - w, increasing=False).x
    return ranks


def soft_rank_vjp(result: SoftRankResult, upstream) -> np.ndarray:
    """Jacobian-transpose product of soft_rank at the forward-pass point.

    In sorted coordinates the Jacobian is block-diagonal with centered
    averaging blocks, so the pullback of ``upstream`` is its per-block
    centering, rescaled by sign/epsilon and scattered back through the
    sort permutation.
    """
    g = np.asarray(upstream, dtype=np.float64).reshape(-1)
    n = len(result)
    if g.shape[0] != n:
        raise ValueError(f"upstream length {g.shape[0]} does not match n={n}")
    gs = g[result.permutation]
    sums = np.bincount(result.blocks, weights=gs)
    counts = np.bincount(result.blocks)
    centered = gs - (sums / counts)[result.blocks]
    out = np.empty(n, dtype=np.float64)
    out[result.permutation] = centered * (result.sign / result.epsilon)
    return out


def spearman_loss(ious, scores, epsilon: float) -> tuple[float, np.ndarray]:
    """``(1 - rho, -d rho / d scores)`` through soft ranks, for finite
    unit-scale inputs: rho is the Pearson coefficient of the hard ranks of
    the IoUs and the soft ranks of the scores.  Degenerate batches (n < 2
    or a constant series) give 0 and a zero gradient; n = 2 gives a zero
    gradient, since rho is +-1 for every non-constant pair."""
    x = np.asarray(ious, dtype=np.float64).reshape(-1)
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    if n < 2 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return 0.0, np.zeros(n)
    soft = soft_rank(y, epsilon)
    xc = average_ranks(x) - (n + 1) / 2.0
    yc = soft.ranks - soft.ranks.mean()
    var_x, var_y = np.mean(xc * xc), np.mean(yc * yc)
    rho = np.mean(xc * yc) / np.sqrt(var_x * var_y)
    if n == 2:
        return 1.0 - float(rho), np.zeros(n)
    grad_rho = xc / (n * np.sqrt(var_x * var_y)) - rho * yc / (n * var_y)
    return 1.0 - float(rho), -soft_rank_vjp(soft, grad_rho)
