"""Differentiable soft ranking via projection onto the permutahedron.

``soft_rank(values, epsilon)`` is the Euclidean projection of
``values / epsilon`` onto the permutahedron generated by (1, ..., n): sort
descending, run pool-adjacent-violators isotonic regression against the
hard-rank vector, undo the sort.  Each run of equal scaled values enters
PAV as one point at its mean hard rank, so tied entries always share one
block and one rank, at any epsilon.  As epsilon shrinks the result
converges to hard fractional ranks; as it grows, all ranks flatten toward
the common mean (n+1)/2.  The largest value gets rank n; ``soft_rank(-v)``
flips the order, so the largest gets rank 1.

Most inputs never reach the PAV loop: when PAV would pool every entry
into one block, which a spread of ``values / epsilon`` below n / 2 always
does (scores in [0, 1] at the default epsilon = 1, or at 0.01 above 200
entries), a few array passes decide so and fit that block, and the ranks
are the scaled values shifted by one constant.  The loop runs for inputs
with several blocks, for magnitudes too large for that decision, and where
it lies within rounding.

The projection is piecewise affine, so the backward pass is exact inside
each linear piece: within a PAV block the Jacobian is the centered
identity (I - 1/|B|), across blocks it is zero.  At block boundaries the
function has kinks and the block structure of the forward pass acts as a
subgradient choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import average_ranks
from .errors import DegenerateInput

__all__ = ["SoftRankResult", "soft_rank", "soft_rank_vjp"]


@dataclass(frozen=True)
class SoftRankResult:
    """Soft ranks plus everything the backward pass needs.

    ranks        soft ranks in input order; their sum is n(n+1)/2 within
                 rounding while |values| / epsilon <= 2**14, and farther
                 out the rounding of values / epsilon moves it (by tens
                 near 1e17)
    permutation  stable descending sort of the scaled input
    blocks       PAV block id per sorted position (non-decreasing)
    epsilon      regularization strength used
    """

    ranks: np.ndarray
    permutation: np.ndarray
    blocks: np.ndarray
    epsilon: float

    def __len__(self) -> int:
        return int(self.ranks.shape[0])


def soft_rank(values, epsilon: float = 1.0) -> SoftRankResult:
    """Differentiable ranks of ``values``; the largest value gets rank n.

    Requires n >= 1 and epsilon > 0.
    """
    if epsilon <= 0.0 or not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    n = v.shape[0]
    if n == 0:
        raise DegenerateInput("need at least 1 value to rank")
    if not np.isfinite(v).all():
        raise DegenerateInput("values contain non-finite entries")

    theta = (1.0 / epsilon) * v
    perm = np.argsort(-theta, kind="stable")
    s = theta[perm]
    ranks_sorted, blocks = _one_block(s) or _pav(s)
    ranks = np.empty(n, dtype=np.float64)
    ranks[perm] = ranks_sorted
    return SoftRankResult(ranks, perm, blocks, float(epsilon))


def _one_block(s: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(ranks, blocks)`` in sorted order when PAV pools all of the
    descending ``s`` into one block, else None; decided without the loop.

    With ``y = s - w`` (``w`` the hard ranks n..1, a run's mean for tied
    entries), PAV returns one block exactly when every prefix of whole runs
    sums to at most ``k * mean(y)``, k its length.  The ends settle most
    inputs: such a prefix falls short of the chord by at least
    ``(n - k) * (1/2 - spread / n)`` per entry, so a spread below n / 2 is
    one block; and one block puts the first run at or below ``mean(y)`` and
    the last at or above it, so a spread above n - 1 is not.  Only a
    decision clear of rounding counts: ``tol`` bounds, per entry, the
    rounding of the block means the loop forms and of the prefix sums here
    (32 n u max|y|, u = 2**-53).  An input within it, or one so large that
    ``tol`` reaches 1 (max|y| near 2**48 / n), is left to the loop.
    """
    n = s.shape[0]
    first, last = float(s[0]), float(s[-1])
    spread = first - last
    tol = n * (max(abs(first), abs(last)) + n) * 2.0**-48
    if spread > n - 1 or not tol < 1.0:
        return None
    new_run = s[1:] != s[:-1]
    w = np.arange(n, 0, -1.0) if np.count_nonzero(new_run) == n - 1 else average_ranks(s)
    y = s - w
    d = y - y[0]
    mean = float(d.sum()) / n
    if spread >= n * (0.5 - tol):
        chord = np.arange(1, n) * (mean - tol)
        if not (np.cumsum(d[:-1]) < chord)[new_run].all():
            return None
    # The fit relative to the first run keeps an all-tied input at w exactly.
    fit = y[0] + mean
    return w + (y - fit), np.zeros(n, dtype=np.intp)


def _pav(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ranks, blocks)`` in sorted order: the pool-adjacent-violators loop
    over the runs of equal values in the descending ``s``."""
    n = s.shape[0]
    s = s.tolist()
    s.append(None)  # ends the last run
    # PAV: least-squares non-increasing fit of y = s - w, w = (n, ..., 1) the
    # hard ranks.  Each run of equal s enters as one point (entries, mean
    # hard rank w, y there); adjacent blocks (mean y, entries, runs) pool
    # into their weighted mean while they violate the order.
    points: list[tuple[int, float, float]] = []
    stack: list[tuple[float, int, int]] = []
    start = 0
    for end in range(1, n + 1):
        if s[end] == s[start]:
            continue
        count = end - start
        w = n - start - 0.5 * (count - 1)
        y = s[start] - w
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
    fit = [mean for mean, _, runs in stack for _ in range(runs)]
    # w + (y - fit) equals s - fit but is bit-exact in the hard-rank limit,
    # where fit == y within each singleton block.
    run_ranks = np.array([w + (y - f) for (_, w, y), f in zip(points, fit)])
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
