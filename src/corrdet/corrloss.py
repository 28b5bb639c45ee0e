"""Correlation Loss: 1 - rho(IoUs, scores), gradients through scores only.

Three coefficient variants share one contract: the loss value is
``1 - rho`` and the gradient covers the classification scores alone; IoUs
are treated as constants (no localization gradient exists, by design).
The Spearman variant pairs hard average ranks of the IoUs with soft ranks
of the scores, so its gradient flows through the soft-rank operator; the
Pearson and Concordance variants differentiate their closed forms.

Degenerate batches (fewer than two positives, or a constant series) yield
zero loss and zero gradient rather than an error: a training-loop plug-in
must never crash mid-epoch, and a degenerate batch simply carries no
correlation signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correlation import (
    _NORMAL_MIN,
    _concordance_terms,
    _peak,
    _pearson_terms,
    _prescale,
    _unit_exponent,
    _unit_scaled,
    average_ranks,
    spearman,
)
from .errors import DegenerateInput
from .geometry import MatchSet
from .softrank import soft_rank, soft_rank_vjp

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
    ``epsilon``, which the Spearman variant alone reads.

    Degenerate batches always yield zero loss and zero gradient; the
    weight of the term inside a total loss is :func:`total_loss`'s
    argument (commonly swept over {0.1, ..., 0.6}).
    """

    coefficient: str = "spearman"
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        if self.coefficient not in COEFFICIENTS:
            raise ValueError(f"unknown coefficient {self.coefficient!r}, expected one of {COEFFICIENTS}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")


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


def _pearson_value_grad(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Population Pearson rho(x, y) and d rho / d y.

    None when a variance is zero, which one that underflows (e.g. scores
    [0, 5e-324]) makes so even when neither series is constant.  x and y
    stay below ``_PRESCALE_AT`` in magnitude.  When a denominator falls
    below the normal float range, x and y are each divided by a power of
    two: rho does not change and the gradient scales back exactly.
    """
    n = x.shape[0]
    xc, yc, var_x, var_y, cov = _pearson_terms(x, y)
    if var_x == 0.0 or var_y == 0.0:
        return None
    sx = math.sqrt(var_x)
    sy = math.sqrt(var_y)
    shift = 0
    if sx * sy < _NORMAL_MIN or n * var_y < _NORMAL_MIN:
        shift = _unit_exponent(y)
        xc, yc, var_x, var_y, cov = _pearson_terms(_unit_scaled(x), np.ldexp(y, -shift))
        sx = math.sqrt(var_x)
        sy = math.sqrt(var_y)
    rho = cov / (sx * sy)
    grad = xc / (n * sx * sy) - rho * yc / (n * var_y)
    if shift:
        grad = np.ldexp(grad, -shift)
    return rho, grad


def _concordance_value_grad(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Concordance gamma(x, y) and d gamma / d y; None when the
    denominator underflows to zero.  x and y stay below ``_PRESCALE_AT``
    in magnitude.  When the denominator falls below the normal float range,
    both series are divided by the same power of two: gamma does not
    change and the gradient scales back exactly."""
    n = x.shape[0]
    xc, yc, gap, cov, denom = _concordance_terms(x, y)
    if denom == 0.0:
        return None
    shift = 0
    if denom < _NORMAL_MIN:
        shift = _unit_exponent(x, y)
        xc, yc, gap, cov, denom = _concordance_terms(np.ldexp(x, -shift), np.ldexp(y, -shift))
    gamma = 2.0 * cov / denom
    grad = (2.0 / (n * denom)) * (xc - gamma * (yc - gap))
    if shift:
        grad = np.ldexp(grad, -shift)
    return gamma, grad


def loss_from_arrays(ious, scores, cfg: LossConfig) -> LossResult:
    """Correlation Loss on bare (IoU, score) arrays.

    Returns value 1 - rho and grad_scores = -d rho / d scores with the IoUs
    held constant.  Degenerate inputs (n < 2, all IoUs equal, all scores
    equal, or a spread so small that a variance underflows to zero) return
    value 0 and an all-zero gradient.  Any other finite input gives a value
    in [0, 2] and a finite gradient, also at magnitudes near 1e300, where
    the Pearson and Concordance variants first divide the series by a power
    of two (exact), so no step overflows.
    """
    x = np.asarray(ious, dtype=np.float64).reshape(-1)
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} ious vs {y.shape[0]} scores")
    peak_x, peak_y = _peak(x), _peak(y)
    if not (math.isfinite(peak_x) and math.isfinite(peak_y)):
        raise ValueError("ious and scores must be finite")
    n = x.shape[0]
    if n < 2 or x.min() == x.max() or y.min() == y.max():
        return LossResult(0.0, np.zeros(n, dtype=np.float64))

    shift = 0  # scores divided by 2**shift, so the gradient is scaled back by it
    if cfg.coefficient == "pearson":
        y, shift = _prescale(y, peak_y)
        value_grad = _pearson_value_grad(_prescale(x, peak_x)[0], y)
    elif cfg.coefficient == "concordance":
        peak = max(peak_x, peak_y)
        y, shift = _prescale(y, peak)
        value_grad = _concordance_value_grad(_prescale(x, peak)[0], y)
    else:
        # Soft Spearman surrogate: hard ranks of the constant IoUs against
        # soft ranks of the scores.  epsilon applies at raw score scale, so
        # the default 1.0 pools [0,1]-valued scores into broad blocks and
        # keeps the landscape smooth; the correlation itself is scale-free.
        rank_x = average_ranks(x)
        soft = soft_rank(y, cfg.epsilon)
        value_grad = _pearson_value_grad(rank_x, soft.ranks)
        if value_grad is not None:
            value_grad = (value_grad[0], soft_rank_vjp(soft, value_grad[1]))
    if value_grad is None:
        return LossResult(0.0, np.zeros(n, dtype=np.float64))

    rho, grad_rho = value_grad
    if shift:
        grad_rho = np.ldexp(grad_rho, -shift)
    value = 1.0 - min(1.0, max(-1.0, rho))
    return LossResult(value, -grad_rho)


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
