"""Differentiable soft ranking via projection onto the permutahedron.

``soft_rank(values, epsilon)`` is the Euclidean projection of
``values / epsilon`` onto the permutahedron generated by (1, ..., n): sort
descending, run pool-adjacent-violators isotonic regression against the
hard-rank vector, undo the sort.  Each run of equal values enters PAV as
one point at its mean hard rank, so tied entries always share one block
and one rank, at any epsilon.  As epsilon shrinks the result converges to
hard fractional ranks; as it grows, all ranks flatten toward the common
mean (n+1)/2.  The largest value gets rank n; ``soft_rank(-v)`` flips the
order, so the largest gets rank 1.

Every finite input takes the same single PAV pass.  A gap of more than
n * epsilon between adjacent values seals the blocks on either side, as
exact PAV would, so a value whose ``values / epsilon`` overflows is its
own block at its hard rank.

The projection is piecewise affine, so the backward pass is exact inside
each linear piece: within a PAV block the Jacobian is the centered
identity (I - 1/|B|), across blocks it is zero.  At block boundaries the
function has kinks and the block structure of the forward pass acts as a
subgradient choice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput

__all__ = ["SoftRankResult", "soft_rank", "soft_rank_vjp"]


@dataclass(frozen=True)
class SoftRankResult:
    """Soft ranks plus everything the backward pass needs.

    ranks        soft ranks in input order; their sum is n(n+1)/2 within
                 rounding while |values| / epsilon <= 2**14, and farther
                 out the rounding of values / epsilon, which PAV fits
                 against the hard ranks, moves it (by tens near 1e17)
    permutation  stable descending sort of the values
    blocks       PAV block id per sorted position (non-decreasing)
    epsilon      regularization strength used
    """

    ranks: np.ndarray
    permutation: np.ndarray
    blocks: np.ndarray
    epsilon: float

    def __len__(self) -> int:
        return int(self.ranks.shape[0])


def _check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless ``epsilon`` is finite and at least the
    smallest normal float, ``sys.float_info.min``, so that ``1 / epsilon``
    is finite.  Little is lost below it: there, scores 1e-290 apart already
    lie over 1e17 epsilons apart, so they have hard ranks at any size."""
    if not sys.float_info.min <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and at least {sys.float_info.min}, got {epsilon}")


def soft_rank(values, epsilon: float = 1.0) -> SoftRankResult:
    """Differentiable ranks of ``values``; the largest value gets rank n.

    Requires n >= 1 and a finite epsilon >= ``sys.float_info.min``.
    """
    _check_epsilon(epsilon)
    epsilon = float(epsilon)
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    n = v.shape[0]
    if n == 0:
        raise DegenerateInput("need at least 1 value to rank")
    if not np.isfinite(v).all():
        raise DegenerateInput("values contain non-finite entries")

    # Stable: ties keep index order in the public permutation, which gradcheck compares.
    perm = np.argsort(-v, kind="stable")
    ranks_sorted, blocks = _pav(v[perm], epsilon)
    ranks = np.empty(n, dtype=np.float64)
    ranks[perm] = ranks_sorted
    return SoftRankResult(ranks, perm, blocks, epsilon)


def _pav(v: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """``(ranks, blocks)`` in sorted order: the pool-adjacent-violators loop
    over the runs of equal values in the descending ``v``.

    PAV is the least-squares non-increasing fit of y = s - w, s = v / epsilon
    and w = (n, ..., 1) the hard ranks.  Each run of equal values enters as
    one point (entries, mean hard rank w, y there), and a block pools into
    the one above it while its mean is strictly above that block's:
    adjacent blocks with equal means stay apart.  A run more than
    n * epsilon below the previous one seals the blocks above it.  Every y
    above such a gap exceeds every y below it by at least 1, so exact PAV
    never pools across it either; and a value whose s overflows (inf, in
    Python floats without a warning) is its own block.
    """
    n = v.shape[0]
    scale, gap = 1.0 / epsilon, n * epsilon
    v = v.tolist()
    v.append(None)  # ends the last run
    points: list[tuple[int, float, float]] = []
    sealed: list[tuple[float, int, int]] = []
    stack: list[tuple[float, int, int]] = []  # blocks: mean y, entries, runs
    start = 0
    for end in range(1, n + 1):
        if v[end] == v[start]:
            continue
        if start and v[start - 1] - v[start] > gap:
            sealed += stack
            stack = []
        count = end - start
        w = n - start - 0.5 * (count - 1)
        y = v[start] * scale - w
        points.append((count, w, y))
        mean, runs = y, 1
        while stack and stack[-1][0] < mean:
            lower, size, lower_runs = stack.pop()
            total = size + count
            mean = lower + count * (mean - lower) / total
            count = total
            runs += lower_runs
        stack.append((mean, count, runs))
        start = end
    stack = sealed + stack
    fit = [mean for mean, _, runs in stack for _ in range(runs)]
    # w + (y - fit) equals s - fit but is bit-exact in the hard-rank limit;
    # a run fitted at its own y gets w, which also holds where y is infinite.
    run_ranks = np.array([w if y == f else w + (y - f) for (_, w, y), f in zip(points, fit)])
    ranks = run_ranks.repeat([p[0] for p in points]) if len(points) < n else run_ranks
    blocks = np.arange(len(stack)).repeat([b[1] for b in stack])
    return ranks, blocks


def soft_rank_vjp(result: SoftRankResult, upstream) -> np.ndarray:
    """Jacobian-transpose product of soft_rank at the forward-pass point.

    In sorted coordinates the Jacobian is block-diagonal with centered
    averaging blocks, so the pullback of ``upstream`` is its per-block
    centering, rescaled by 1/epsilon and scattered back through the sort
    permutation.
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
    out[result.permutation] = centered * (1.0 / result.epsilon)
    return out
