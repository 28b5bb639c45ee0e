"""Correlation measures over detections, PR curves, and COCO-style AP.

Two correlation levels exist:

* image level: Spearman between IoUs and GT-class scores of each image's
  positives (training-style matching on raw detections), averaged over
  images;
* class level: Spearman between IoUs and scores of each class's true
  positives pooled over the whole dataset (evaluation-style matching on
  final detections), averaged over classes.

Groups with fewer than two samples, or with degenerate ranks, are skipped
and counted; the averages cover the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correlation import spearman
from .errors import DegenerateInput, EmptyEvaluation, NoGroundTruth
from .geometry import GtObject, MatchSet, _score_order, match_positives, match_tp_multi
from .pipeline import FinalDetection, RawDetection

__all__ = [
    "COCO_THRESHOLDS",
    "CorrelationReport",
    "ApResult",
    "beta_img",
    "beta_cls",
    "pr_curve",
    "pr_curves",
    "average_precision",
    "coco_ap",
]

COCO_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))

_RECALL_GRID = np.arange(101) / 100.0


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation summary; image- and class-level halves fill separately."""

    beta_img: float | None = None
    beta_cls: float | None = None
    per_image: tuple[tuple[int, float], ...] = ()
    per_class: tuple[tuple[int, float], ...] = ()
    skipped_images: int = 0
    skipped_classes: int = 0


@dataclass(frozen=True)
class ApResult:
    """COCO-style AP: per class, per IoU threshold, and averaged.

    per_threshold pairs each threshold with the class-mean AP at it;
    per_class holds one (class_id, per-threshold AP row) entry per
    evaluated class; ap_c is the grand mean.
    """

    ap_c: float
    per_threshold: tuple[tuple[float, float], ...]
    per_class: tuple[tuple[int, tuple[float, ...]], ...]


def beta_img(
    images: Sequence[tuple[Sequence[RawDetection], Sequence[GtObject]]],
    iou_floor: float = 0.5,
) -> CorrelationReport:
    """Mean per-image Spearman between positives' IoUs and GT-class scores.

    Each image contributes one coefficient over its positives (greedy
    one-to-one matching at ``iou_floor``).  Images with fewer than two
    positives or degenerate ranks are skipped and counted.  Raises
    EmptyEvaluation when every image is skipped.
    """
    per_image: list[tuple[int, float]] = []
    skipped = 0
    for idx, (dets, gts) in enumerate(images):
        image_id = gts[0].image_id if len(gts) > 0 else idx
        matches = match_positives(dets, gts, iou_floor)
        if len(matches) < 2:
            skipped += 1
            continue
        try:
            b = spearman(matches.ious(), matches.scores())
        except DegenerateInput:
            skipped += 1
            continue
        per_image.append((image_id, b))

    if not per_image:
        raise EmptyEvaluation(f"no image yielded a correlation ({skipped} skipped)")
    mean = float(np.mean([b for _, b in per_image]))
    return CorrelationReport(beta_img=mean, per_image=tuple(per_image), skipped_images=skipped)


def _by_class(items: Sequence) -> dict[int, list]:
    """Split detections or GTs by class_id, keeping their order."""
    out: dict[int, list] = {}
    for item in items:
        out.setdefault(item.class_id, []).append(item)
    return out


# class_id -> (class dets, class gts, one MatchSet per threshold)
_ClassMatches = dict[int, tuple[list[FinalDetection], list[GtObject], tuple[MatchSet, ...]]]


def _match_classes(
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    thresholds: Sequence[float],
) -> _ClassMatches:
    """One matching-core call per class (classes of gts and dets alike)."""
    dets_by_class = _by_class(dets)
    gts_by_class = _by_class(gts)
    table: _ClassMatches = {}
    for c in sorted(dets_by_class.keys() | gts_by_class.keys()):
        cdets = dets_by_class.get(c, [])
        cgts = gts_by_class.get(c, [])
        table[c] = (cdets, cgts, match_tp_multi(cdets, cgts, thresholds))
    return table


def _beta_cls_from(table: _ClassMatches, k: int) -> CorrelationReport:
    """beta_cls over the TPs of threshold number ``k`` of each class."""
    per_class: list[tuple[int, float]] = []
    skipped = 0
    for c, (_, _, sets) in table.items():
        matches = sets[k]
        if len(matches) < 2:
            skipped += 1
            continue
        try:
            b = spearman(matches.ious(), matches.scores())
        except DegenerateInput:
            skipped += 1
            continue
        per_class.append((c, b))

    if not per_class:
        raise EmptyEvaluation(f"no class yielded a correlation ({skipped} skipped)")
    mean = float(np.mean([b for _, b in per_class]))
    return CorrelationReport(beta_cls=mean, per_class=tuple(per_class), skipped_classes=skipped)


def beta_cls(
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    tp_iou: float = 0.5,
) -> CorrelationReport:
    """Mean per-class Spearman between TP IoUs and scores, dataset-wide.

    True positives come from COCO-style matching at ``tp_iou`` within each
    class, pooled over all images.  Skip policy mirrors beta_img; raises
    EmptyEvaluation when every class is skipped.
    """
    return _beta_cls_from(_match_classes(dets, gts, (tp_iou,)), 0)


def _curves(
    dets: Sequence[FinalDetection], n_gt: int, match_sets: Sequence[MatchSet]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(recall, precision) arrays of one class's walk per TP set.

    Detections are visited in descending score order (ties by lower
    index); all sets share that order.
    """
    n = len(dets)
    rank = np.empty(n, dtype=np.intp)
    rank[_score_order(dets)] = np.arange(n)
    seen = np.arange(1, n + 1)
    curves = []
    for matches in match_sets:
        is_tp = np.zeros(n, dtype=np.int64)
        is_tp[rank[matches.detection_indices()]] = 1
        tp = np.cumsum(is_tp)
        curves.append((tp / n_gt, tp / seen))
    return curves


def pr_curves(
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    thresholds: Sequence[float] = COCO_THRESHOLDS,
) -> list[list[tuple[float, float]]]:
    """One :func:`pr_curve` per threshold, from a single matching pass."""
    if len(gts) == 0:
        raise NoGroundTruth("pr_curve needs at least one ground-truth object")
    return [
        list(zip(r.tolist(), p.tolist()))
        for r, p in _curves(dets, len(gts), match_tp_multi(dets, gts, thresholds))
    ]


def pr_curve(
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    iou_thr: float,
) -> list[tuple[float, float]]:
    """Cumulative (recall, precision) walk over one class's detections.

    Detections are visited in descending score order (ties by lower
    index); TP status comes from COCO-style matching at ``iou_thr``.
    Raises NoGroundTruth when gts is empty.
    """
    return pr_curves(dets, gts, (iou_thr,))[0]


def _interpolated_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """average_precision on a curve given as two arrays."""
    if recalls.shape[0] == 0:
        return 0.0
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    idx = np.searchsorted(recalls, _RECALL_GRID, side="left")
    valid = idx < recalls.shape[0]
    return float(envelope[idx[valid]].sum() / _RECALL_GRID.shape[0])


def average_precision(curve: Sequence[tuple[float, float]]) -> float:
    """101-point interpolated AP of a PR curve.

    Mean over the recall grid {0.00, 0.01, ..., 1.00} of the maximum
    precision among curve points with recall at or above the grid point;
    grid points beyond the final recall contribute zero.
    """
    recalls = np.asarray([r for r, _ in curve], dtype=np.float64)
    precisions = np.asarray([p for _, p in curve], dtype=np.float64)
    return _interpolated_ap(recalls, precisions)


def _coco_ap_from(table: _ClassMatches, thresholds: Sequence[float]) -> ApResult:
    """COCO AP from the first len(thresholds) TP sets of each class."""
    per_class: list[tuple[int, tuple[float, ...]]] = []
    for c, (cdets, cgts, sets) in table.items():
        if not cgts:
            continue
        curves = _curves(cdets, len(cgts), sets[: len(thresholds)])
        per_class.append((c, tuple(_interpolated_ap(r, p) for r, p in curves)))
    if not per_class:
        raise EmptyEvaluation("no class has ground-truth objects")

    matrix = np.asarray([row for _, row in per_class], dtype=np.float64)
    threshold_means = matrix.mean(axis=0)
    per_threshold = tuple((float(t), float(m)) for t, m in zip(thresholds, threshold_means))
    return ApResult(float(threshold_means.mean()), per_threshold, tuple(per_class))


def coco_ap(
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    thresholds: Sequence[float] = COCO_THRESHOLDS,
) -> ApResult:
    """AP per class and IoU threshold, plus the grand mean ap_c.

    Classes without ground truth are excluded; a class with gts but no
    detections scores zero.  Raises EmptyEvaluation when there is no
    ground truth at all.
    """
    return _coco_ap_from(_match_classes(dets, gts, thresholds), thresholds)
