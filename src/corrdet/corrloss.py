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

from .correlation import average_ranks, spearman
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
    """Choice of coefficient plus the knobs that govern it.

    ``lambda_corr`` weights the term inside a total loss (default 0.2,
    commonly swept over {0.1, ..., 0.6}); ``epsilon`` is the soft-rank
    regularization strength, used by the Spearman variant only.
    ``degenerate_policy`` currently admits only "skip".
    """

    coefficient: str = "spearman"
    lambda_corr: float = 0.2
    epsilon: float = 1.0
    degenerate_policy: str = "skip"

    def __post_init__(self) -> None:
        if self.coefficient not in COEFFICIENTS:
            raise ValueError(f"unknown coefficient {self.coefficient!r}, expected one of {COEFFICIENTS}")
        if not (math.isfinite(self.lambda_corr) and self.lambda_corr >= 0.0):
            raise ValueError(f"lambda_corr must be finite and >= 0, got {self.lambda_corr}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.degenerate_policy != "skip":
            raise ValueError(f"unsupported degenerate_policy {self.degenerate_policy!r}")


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

    None when the product of the standard deviations is zero, which a
    variance that underflows (e.g. scores [0, 5e-324]) makes so even when
    neither series is constant.
    """
    n = x.shape[0]
    xc = x - x.mean()
    yc = y - y.mean()
    var_x = float(np.mean(xc * xc))
    var_y = float(np.mean(yc * yc))
    cov = float(np.mean(xc * yc))
    sx = math.sqrt(var_x)
    sy = math.sqrt(var_y)
    if sx * sy == 0.0:
        return None
    rho = cov / (sx * sy)
    grad = xc / (n * sx * sy) - rho * yc / (n * var_y)
    return rho, grad


def _concordance_value_grad(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Concordance gamma(x, y) and d gamma / d y; None when the
    denominator underflows to zero."""
    n = x.shape[0]
    mu_x = float(x.mean())
    mu_y = float(y.mean())
    xc = x - mu_x
    yc = y - mu_y
    var_x = float(np.mean(xc * xc))
    var_y = float(np.mean(yc * yc))
    cov = float(np.mean(xc * yc))
    denom = var_x + var_y + (mu_x - mu_y) ** 2
    if denom == 0.0:
        return None
    gamma = 2.0 * cov / denom
    grad = (2.0 / (n * denom)) * (xc - gamma * (yc - (mu_x - mu_y)))
    return gamma, grad


def loss_from_arrays(ious, scores, cfg: LossConfig) -> LossResult:
    """Correlation Loss on bare (IoU, score) arrays.

    Returns value 1 - rho and grad_scores = -d rho / d scores with the IoUs
    held constant.  Degenerate inputs (n < 2, all IoUs equal, all scores
    equal, or a spread so small that a variance underflows to zero) return
    value 0 and an all-zero gradient.
    """
    x = np.asarray(ious, dtype=np.float64).reshape(-1)
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} ious vs {y.shape[0]} scores")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("ious and scores must be finite")
    n = x.shape[0]
    if n < 2 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return LossResult(0.0, np.zeros(n, dtype=np.float64))

    if cfg.coefficient == "pearson":
        value_grad = _pearson_value_grad(x, y)
    elif cfg.coefficient == "concordance":
        value_grad = _concordance_value_grad(x, y)
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
