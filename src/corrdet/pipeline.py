"""Post-processing chain: score filter, greedy class-wise NMS, top-k.

Raw detections carry a score vector over all classes; the pipeline expands
them into per-class candidates, prunes, and returns scalar-scored final
detections sorted by descending score.  An NMS-free mode skips the middle
step (useful for NMS-free detector outputs).

The work is columnar: one image's boxes become an ``(n, 4)`` array and its
scores an ``(n, C)`` array, the score filter is one comparison over that
array, each class's NMS reads one thresholded IoU matrix
(:func:`~corrdet.geometry.iou_matrix`, bit-identical to ``iou``), and
``FinalDetection`` objects are built for the top-k survivors only.  The
contract is that of a plain loop over candidates: the filter keeps scores
strictly above ``score_thr``, NMS suppresses overlaps strictly above
``nms_iou``, and every tie breaks by ``(-score, detection index, class
index)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box, _box_array, iou_matrix

__all__ = ["RawDetection", "FinalDetection", "PipelineConfig", "nms", "postprocess"]


@dataclass(frozen=True)
class RawDetection:
    """Pre-post-processing detection: one box, one score per class.

    ``class_scores`` accepts any iterable of reals and is stored as a
    tuple of floats, so instances stay hashable and safely shareable.
    There is at least one score, and each lies in [0, 1].
    """

    box: Box
    class_scores: tuple[float, ...]

    def __post_init__(self) -> None:
        scores = tuple(map(float, self.class_scores))
        if not scores:
            raise ValueError("class_scores must have at least one entry")
        for s in scores:
            if not 0.0 <= s <= 1.0:  # rejects NaN too
                raise ValueError(f"class scores must lie in [0, 1], got {s}")
        object.__setattr__(self, "class_scores", scores)


@dataclass(frozen=True)
class FinalDetection:
    """Post-processing detection: box, class id, scalar score in [0, 1]."""

    box: Box
    class_id: int
    score: float
    image_id: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:  # rejects NaN too
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


@dataclass(frozen=True)
class PipelineConfig:
    score_thr: float = 0.05
    nms_iou: float = 0.6
    top_k: int = 100
    nms_enabled: bool = True

    def __post_init__(self) -> None:
        for name, v in (("score_thr", self.score_thr), ("nms_iou", self.nms_iou)):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


def _score_array(dets: Sequence[RawDetection]) -> np.ndarray:
    """(n, C) class scores; a shorter score vector is padded with 0, which
    no filter lets through (score_thr >= 0, comparison strict)."""
    rows = [d.class_scores for d in dets]
    width = max(map(len, rows), default=0)
    if all(len(r) == width for r in rows):
        return np.array(rows, dtype=np.float64).reshape(len(rows), width)
    scores = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        scores[i, : len(r)] = r
    return scores


def _nms_core(boxes: np.ndarray, scores: np.ndarray, iou_thr: float) -> np.ndarray:
    """Positions surviving greedy NMS, in keep order.

    Boxes are visited by descending score, ties by lower position; each
    one still alive is kept and suppresses every later box whose IoU with
    it exceeds iou_thr.  Only boxes with such a neighbour need that row
    update.
    """
    order = np.argsort(-scores, kind="stable")
    ranked = boxes[order]
    over = np.triu(iou_matrix(ranked, ranked) > iou_thr, 1)
    keep = np.ones(order.size, dtype=bool)
    for i in np.flatnonzero(over.any(axis=1)).tolist():
        if keep[i]:
            keep &= ~over[i]
    return order[keep]


def nms(dets: Sequence[FinalDetection], iou_thr: float) -> list[FinalDetection]:
    """Greedy non-maximum suppression over single-class detections.

    Repeatedly keeps the highest-scoring remaining detection (score ties
    by lower index) and removes every remaining one overlapping it with
    IoU > iou_thr.  Returns the kept detections in keep order.
    """
    scores = np.array([d.score for d in dets], dtype=np.float64)
    kept = _nms_core(_box_array([d.box for d in dets]), scores, iou_thr)
    return [dets[i] for i in kept.tolist()]


def postprocess(
    dets: Sequence[RawDetection],
    cfg: PipelineConfig,
    image_id: int = 0,
) -> list[FinalDetection]:
    """Standard detector post-processing of one image's raw detections.

    (i) every (box, class) candidate with score > score_thr survives the
    filter, (ii) greedy NMS runs per class when enabled, (iii) the top_k
    highest-scoring candidates overall are kept, sorted by descending
    score.  All ties break by candidate enumeration order (detection
    index, then class index), which makes the output deterministic.
    """
    scores = _score_array(dets)
    # Row-major, so candidates come in (detection index, class index) order.
    rows, cols = np.nonzero(scores > cfg.score_thr)
    if rows.size == 0:
        return []
    cand_scores = scores[rows, cols]

    if cfg.nms_enabled:
        boxes = _box_array([d.box for d in dets])
        by_class = np.argsort(cols, kind="stable")
        groups = np.split(by_class, np.flatnonzero(np.diff(cols[by_class])) + 1)
        kept = np.concatenate(
            [g[_nms_core(boxes[rows[g]], cand_scores[g], cfg.nms_iou)] for g in groups]
        )
    else:
        kept = np.arange(rows.size)

    top = kept[np.lexsort((kept, -cand_scores[kept]))[: cfg.top_k]]
    return [
        FinalDetection(dets[r].box, c, dets[r].class_scores[c], image_id)
        for r, c in zip(rows[top].tolist(), cols[top].tolist())
    ]
