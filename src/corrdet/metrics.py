"""Correlation measures over detections, PR curves, and COCO-style AP.

Two correlation levels exist:

* image level: Spearman between IoUs and GT-class scores of each image's
  positives (training-style matching on raw detections), averaged over
  images;
* class level: Spearman between IoUs and scores of each class's true
  positives pooled over the whole dataset (evaluation-style matching on
  final detections), averaged over classes.

Both levels report a :class:`CorrelationReport`.  Groups with fewer than
two samples, or with degenerate ranks, are skipped and counted; the mean
covers the rest.

The class-level measures and AP read one matching table per detection
list (:func:`_match_classes`): the matched gt and IoU of every detection
at every threshold, as arrays, with each class's detections in score
order.  PR curves are cumulative sums over those arrays, all thresholds
of a class at once, and no ``Match`` objects are built on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .correlation import spearman
from .errors import DegenerateInput, EmptyEvaluation, NoGroundTruth
from .geometry import FinalBatch, FinalDetection, GtBatch, GtObject, RawBatch, RawDetection, _match_tp_arrays, _positives

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
    """``beta``, the mean Spearman over ``per_group``, its ``(image id or
    class index, value)`` pairs, and the number of groups ``skipped``."""

    beta: float
    per_group: tuple[tuple[int, float], ...]
    skipped: int


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


def _spearman_mean(groups: Iterable[tuple[int, Sequence[float], Sequence[float]]], unit: str) -> CorrelationReport:
    """Mean Spearman between IoUs and scores over ``(group id, ious, scores)``.

    A group where :func:`spearman` raises DegenerateInput (fewer than two
    matches or degenerate ranks) is skipped and counted.  Raises
    EmptyEvaluation when every group is skipped (``unit`` names a group in
    the message).
    """
    per_group: list[tuple[int, float]] = []
    skipped = 0
    for group_id, ious, scores in groups:
        try:
            per_group.append((group_id, spearman(ious, scores)))
        except DegenerateInput:
            skipped += 1

    if not per_group:
        raise EmptyEvaluation(f"no {unit} yielded a correlation ({skipped} skipped)")
    return CorrelationReport(float(np.mean([b for _, b in per_group])), tuple(per_group), skipped)


def beta_img(
    images: Iterable[tuple[int, Sequence[RawDetection], Sequence[GtObject]]],
    iou_floor: float = 0.5,
) -> CorrelationReport:
    """Mean per-image Spearman between positives' IoUs and GT-class scores.

    ``images`` holds ``(image id, raw detections, GTs)`` triples, as
    :meth:`Dataset.per_image` yields them.  Each image contributes one
    coefficient over its positives (greedy one-to-one matching at
    ``iou_floor``), under its id.  Images with fewer than two positives or
    degenerate ranks are skipped and counted.  Raises EmptyEvaluation when
    every image is skipped.
    """
    groups = []
    for image_id, dets, gts in images:
        _, _, ious, scores, _ = _positives(RawBatch.of(dets), GtBatch.of(gts), iou_floor)
        groups.append((image_id, ious, scores))
    return _spearman_mean(groups, "image")


@dataclass(frozen=True)
class _MatchTable:
    """One detection list, as a batch, matched at several IoU thresholds.

    ``gt[k, i]`` is the gt that detection i matches at threshold number
    k (-1 for none) and ``iou[k, i]`` their IoU.  ``classes`` holds, for
    every class of the detections and gts in ascending order, ``(class
    id, the class's detection indices in score order, its gt count)``;
    score order is descending, ties by lower index.
    """

    dets: FinalBatch
    gt: np.ndarray
    iou: np.ndarray
    classes: tuple[tuple[int, np.ndarray, int], ...]


def _match_classes(
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    thresholds: Sequence[float],
) -> _MatchTable:
    """One matching-core call for the whole list, split by class."""
    dets, gts = FinalBatch.of(dets), GtBatch.of(gts)
    gt, iou = _match_tp_arrays(dets, gts, thresholds)
    class_ids = dets.class_ids
    gt_classes, gt_counts = np.unique(gts.class_ids, return_counts=True)
    n_gt = dict(zip(gt_classes.tolist(), gt_counts.tolist()))

    # Stable, both: each class's detections by score, equal scores by index; AP and --pr-csv read this walk.
    by_score = np.argsort(-dets.scores, kind="stable")
    by_class = by_score[np.argsort(class_ids[by_score], kind="stable")]
    ids = np.union1d(class_ids, gt_classes)
    lo = np.searchsorted(class_ids[by_class], ids, side="left")
    hi = np.searchsorted(class_ids[by_class], ids, side="right")
    classes = tuple((c, by_class[a:b], n_gt.get(c, 0)) for c, a, b in zip(ids.tolist(), lo, hi))
    return _MatchTable(dets, gt, iou, classes)


def _beta_cls_from(table: _MatchTable, k: int) -> CorrelationReport:
    """beta_cls over the TPs of threshold number ``k`` of each class,
    each class's TPs in detection order."""
    groups = []
    for c, ranked, _ in table.classes:
        members = np.sort(ranked)
        tp = members[table.gt[k, members] >= 0]
        groups.append((c, table.iou[k, tp], table.dets.scores[tp]))
    return _spearman_mean(groups, "class")


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


def _curves(is_tp: np.ndarray, n_gt: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(recall, precision) arrays of one class's walk per row of ``is_tp``,
    a TP mask with the detections in score order."""
    tp = np.cumsum(is_tp, axis=1)
    seen = np.arange(1, is_tp.shape[1] + 1)
    return [(row / n_gt, row / seen) for row in tp]


def pr_curves(
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    thresholds: Sequence[float] = COCO_THRESHOLDS,
) -> list[list[tuple[float, float]]]:
    """One :func:`pr_curve` per threshold, from a single matching pass."""
    if len(gts) == 0:
        raise NoGroundTruth("pr_curve needs at least one ground-truth object")
    dets = FinalBatch.of(dets)
    gt, _ = _match_tp_arrays(dets, gts, thresholds)
    # Stable: equal scores by index, the walk whose points pr_curve returns, as in coco_ap.
    by_score = np.argsort(-dets.scores, kind="stable")
    return [list(zip(r.tolist(), p.tolist())) for r, p in _curves(gt[:, by_score] >= 0, len(gts))]


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


def _coco_ap_from(
    table: _MatchTable, thresholds: Sequence[float]
) -> tuple[ApResult, list[list[tuple[np.ndarray, np.ndarray]]]]:
    """COCO AP from the first len(thresholds) thresholds of the table, and
    the (recall, precision) curves it was read from: one list per entry of
    ``per_class``, one curve per threshold.  Raises ValueError for no
    thresholds, whose mean AP does not exist."""
    if len(thresholds) == 0:
        raise ValueError("coco_ap needs at least one IoU threshold")
    per_class: list[tuple[int, tuple[float, ...]]] = []
    class_curves = []
    for c, ranked, n_gt in table.classes:
        if not n_gt:
            continue
        curves = _curves(table.gt[: len(thresholds), ranked] >= 0, n_gt)
        per_class.append((c, tuple(_interpolated_ap(r, p) for r, p in curves)))
        class_curves.append(curves)
    if not per_class:
        raise EmptyEvaluation("no class has ground-truth objects")

    matrix = np.asarray([row for _, row in per_class], dtype=np.float64)
    threshold_means = matrix.mean(axis=0)
    per_threshold = tuple((float(t), float(m)) for t, m in zip(thresholds, threshold_means))
    return ApResult(float(threshold_means.mean()), per_threshold, tuple(per_class)), class_curves


def coco_ap(
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    thresholds: Sequence[float] = COCO_THRESHOLDS,
) -> ApResult:
    """AP per class and IoU threshold, plus the grand mean ap_c.

    Classes without ground truth are excluded; a class with gts but no
    detections scores zero.  Raises EmptyEvaluation when there is no
    ground truth at all, and ValueError when ``thresholds`` is empty.

    Two constants differ from pycocotools' in the last bit.  The recall
    grid ``np.arange(101) / 100`` differs from its ``np.linspace(0, 1,
    101)`` at 10 points (0.35, 0.41, 0.47, 0.57, 0.69, 0.70, 0.82, 0.83,
    0.94, 0.95), so a recall landing exactly on one of them can pick the
    next precision; and ``COCO_THRESHOLDS`` has 0.9 where its
    ``np.linspace(.5, .95, 10)`` has 0.8999999999999999.
    """
    return _coco_ap_from(_match_classes(dets, gts, thresholds), thresholds)[0]
