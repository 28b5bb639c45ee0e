"""Correlation Loss: 1 - rho(IoUs, scores), gradients through scores only.

Three coefficient variants share one contract: the loss value is
``1 - rho`` and the gradient covers the classification scores alone; IoUs
are treated as constants (no localization gradient exists, by design).
The Spearman variant pairs hard average ranks of the IoUs with soft ranks
of the scores, so its gradient flows through the soft-rank operator,
except on a batch whose soft ranks pool into one block: they are the
scores / epsilon shifted by a constant there, so the loss pairs the ranks
with the scores themselves and calls no soft-rank code.  The Pearson and
Concordance variants differentiate their closed forms.  The loss runs
the steps of :mod:`corrdet.correlation`'s coefficients: their series
check reads finiteness, peaks and constancy, their centering and Pearson
step or Concordance kernel give rho and the terms of its gradient, so
the Pearson and Concordance variants' value is ``1 - coefficient`` bit
for bit.

Degenerate batches (fewer than two positives, or a constant series) yield
zero loss and zero gradient rather than an error: a training-loop plug-in
must never crash mid-epoch, and a degenerate batch simply carries no
correlation signal.  The kernels' one scaling rule (a series whose peak
lies outside [2**-100, 2**100] is divided by the power of two that brings
it into [0.5, 1)) holds here too, so the Pearson and Concordance values do
not depend on scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correlation import (
    _centered,
    _centered_ranks,
    _clip,
    _concordance_kernel,
    _extent,
    _pearson_of,
    spearman,
)
from .errors import DegenerateInput
from .geometry import MatchSet
from .softrank import _check_epsilon, soft_rank, soft_rank_vjp

__all__ = [
    "COEFFICIENTS",
    "LossConfig",
    "LossResult",
    "MultiStageLossResult",
    "DescentTrace",
    "correlation_loss",
    "loss_from_arrays",
    "total_loss",
    "multi_stage_loss",
    "descend_demo",
]

COEFFICIENTS = ("spearman", "concordance", "pearson")


@dataclass(frozen=True)
class LossConfig:
    """Choice of coefficient plus the soft-rank regularization strength
    ``epsilon``, which the Spearman variant alone reads; it must be finite
    and at least ``sys.float_info.min``, as in :func:`soft_rank`.

    Degenerate batches always yield zero loss and zero gradient; the
    weight of the term inside a total loss is :func:`total_loss`'s
    argument (commonly swept over {0.1, ..., 0.6}).
    """

    coefficient: str = "spearman"
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        if self.coefficient not in COEFFICIENTS:
            raise ValueError(f"unknown coefficient {self.coefficient!r}, expected one of {COEFFICIENTS}")
        _check_epsilon(self.epsilon)


@dataclass(frozen=True)
class LossResult:
    """Loss value in [0, 2] and its gradient over the positive scores.

    There is deliberately no IoU gradient: the loss backpropagates through
    the classifier only.
    """

    value: float
    grad_scores: np.ndarray


@dataclass(frozen=True)
class MultiStageLossResult:
    """Sum of per-stage loss values; gradients stay per stage."""

    value: float
    stages: tuple[LossResult, ...]


@dataclass(frozen=True)
class DescentTrace:
    """Per-step record of a descend_demo run, plus the final scores.

    ``spearmans[t]`` is the exact (hard) Spearman coefficient between the
    IoUs and the step-t scores; NaN where it is undefined.
    """

    losses: np.ndarray
    spearmans: np.ndarray
    final_scores: np.ndarray


def loss_from_arrays(ious, scores, cfg: LossConfig) -> LossResult:
    """Correlation Loss on bare (IoU, score) arrays.

    Returns value 1 - rho and grad_scores = -d rho / d scores with the IoUs
    held constant.  Degenerate inputs (n < 2, all IoUs equal or all scores
    equal) return value 0 and an all-zero gradient.  A Spearman batch
    whose scores span less than n / 2 in units of epsilon pools its soft
    ranks into one block, where they are scores / epsilon shifted by one
    constant; such a batch skips the soft ranks and gets the loss
    1 - pearson(average_ranks(ious), scores) and its gradient bit for bit,
    at any epsilon.  Either Spearman path takes the IoU ranks centered on
    their mean (n + 1) / 2, which is exact for any finite input, with their
    variance, (n^2 - 1) / 12 when no IoUs tie: the bits that centering
    ``average_ranks(ious)`` gives in two ``np.mean`` passes, since those
    passes are exact while n(n^2 - 1) / 12 < 2**51 (n up to 300,079); a
    larger or tied batch gets its variance from ``np.mean``.  At n = 2 the
    Pearson and Spearman gradients are exactly 0, since rho is +-1 for
    every non-constant pair.  Any other finite input gives a value in
    [0, 2] and a finite gradient at any magnitude: the coefficient kernels
    divide a series outside [2**-100, 2**100] by a power of two (exact),
    and the gradient is scaled back by it, with 0 for an entry that would
    leave the float range.
    """
    x = np.asarray(ious, dtype=np.float64).reshape(-1)
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    if n != y.shape[0]:
        raise ValueError(f"length mismatch: {n} ious vs {y.shape[0]} scores")
    # The coefficients' series check, one min/max pair per series: finiteness, peaks, constancy, spread.
    (lo_x, hi_x), (lo_y, hi_y) = _extent(x), _extent(y)
    if not all(map(math.isfinite, (lo_x, hi_x, lo_y, hi_y))):
        raise ValueError("ious and scores must be finite")
    if n < 2 or lo_x == hi_x or lo_y == hi_y:
        return LossResult(0.0, np.zeros(n, dtype=np.float64))
    peak_x, peak_y = max(-lo_x, hi_x), max(-lo_y, hi_y)

    if cfg.coefficient == "concordance":
        rho, xc, yc, gap, denom, shift = _concordance_kernel(x, y, max(peak_x, peak_y))
        grad_rho = (2.0 / (n * denom)) * (xc - rho * (yc - gap))
    else:
        soft = None
        if cfg.coefficient == "spearman":
            # Hard ranks of the IoUs against soft ranks of the scores, both in
            # [1, n].  With s the scores / epsilon sorted descending and
            # y = s - (n, ..., 1), PAV makes one block exactly when no prefix
            # of y averages above the whole; the first k entries average at
            # least (n - k)(1/2 - spread / n) below it, so a spread of s below
            # n / 2 is one block.  The margin 2**-40 covers the rounding of
            # the spread (an overflow reads inf, in Python floats without a
            # warning).  In one block the soft ranks are s minus a constant,
            # so use the scores.
            if not (hi_y - lo_y) / float(cfg.epsilon) < (n / 2) * (1 - 2.0**-40):
                soft = soft_rank(y, cfg.epsilon)
                y, peak_y = soft.ranks, float(n)
            xc, var_x = _centered_ranks(x)
        else:
            xc, var_x, _ = _centered(x, peak_x)
        yc, var_y, shift = _centered(y, peak_y)
        rho = _pearson_of(xc, var_x, yc, var_y)
        if rho is None:  # soft ranks that all round to one value; no input is known to get here
            return LossResult(0.0, np.zeros(n, dtype=np.float64))
        if n == 2:  # r is +-1 for every non-constant pair: exactly flat, not rounding residue
            grad_rho = np.zeros(n, dtype=np.float64)
        else:
            grad_rho = xc / (n * math.sqrt(var_x * var_y)) - rho * yc / (n * var_y)
            if soft is not None:
                grad_rho = soft_rank_vjp(soft, grad_rho)
    # The kernel divided the scores by 2**shift; scale the gradient back.
    # Scores whose peak lies below 2**-100 scale it up, which can push an
    # entry past the float range; such an entry carries no usable step, so
    # it becomes 0.
    if shift:
        with np.errstate(over="ignore"):
            grad_rho = np.ldexp(grad_rho, -shift)
        grad_rho[np.isinf(grad_rho)] = 0.0
    return LossResult(1.0 - _clip(rho), -grad_rho)


def correlation_loss(matches: MatchSet, cfg: LossConfig) -> LossResult:
    """Correlation Loss over a batch of positives (Spearman by default).

    grad_scores[i] corresponds to matches.entries[i].score.
    """
    return loss_from_arrays(matches.ious(), matches.scores(), cfg)


def total_loss(l_od: float, l_corr: float, lambda_corr: float) -> float:
    """Total training loss: base detection loss plus the weighted term."""
    for name, v in (("l_od", l_od), ("l_corr", l_corr), ("lambda_corr", lambda_corr)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return l_od + lambda_corr * l_corr


def multi_stage_loss(stages: Sequence[MatchSet], cfg: LossConfig) -> MultiStageLossResult:
    """Apply the loss independently at every stage and sum the values.

    Degenerate stages contribute zero; gradients are reported per stage
    because each stage owns a different score vector.
    """
    if len(stages) == 0:
        raise ValueError("need at least one stage")
    results = tuple(correlation_loss(s, cfg) for s in stages)
    return MultiStageLossResult(sum(r.value for r in results), results)


def descend_demo(init_scores, ious, cfg: LossConfig, steps: int, lr: float) -> DescentTrace:
    """Plain gradient descent on the scores under the configured loss.

    The IoUs never move.  Scores are unconstrained reals here; the loss
    only reads their ordering and relative spread.  The trace has
    ``steps + 1`` entries: state before each update plus the final state.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not math.isfinite(lr):
        raise ValueError(f"lr must be finite, got {lr}")
    x = np.asarray(ious, dtype=np.float64).reshape(-1)
    y = np.array(init_scores, dtype=np.float64).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} ious vs {y.shape[0]} scores")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples to descend")

    losses = np.empty(steps + 1, dtype=np.float64)
    spearmans = np.empty(steps + 1, dtype=np.float64)
    for t in range(steps + 1):
        res = loss_from_arrays(x, y, cfg)
        losses[t] = res.value
        try:
            spearmans[t] = spearman(x, y)
        except DegenerateInput:
            spearmans[t] = math.nan
        if t < steps:
            y = y - lr * res.grad_scores
    return DescentTrace(losses, spearmans, y)
