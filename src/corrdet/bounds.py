"""Score re-ranking oracles: correlation upper/lower bounds for AP and beta.

Direction +1 permutes the positives' (or TPs') score multiset so that
score order perfectly follows IoU order; -1 makes it perfectly oppose.
Nothing else moves: boxes, negative detections, false positives, and
non-GT-class score entries stay bit-identical.  Because only a multiset
permutation happens, the overall score histogram is preserved.

A consequence worth spelling out: with class-level re-ranking at the
matching threshold 0.50, the set of detections that are TPs at 0.50 is
unchanged whenever each GT has at most one detection above the threshold
(post-NMS-like finals), and since the TP score multiset is preserved, the
ranked TP/FP pattern, the PR curve and AP_50 are all bit-identical.  At
stricter thresholds the pattern does shuffle, which is exactly what the
bounds measure.  With duplicate candidates above the threshold the 0.50
matching itself can flip, so the invariance is a property of the usual
deduplicated regime, not of arbitrary detection sets.

Both levels assign scores through one rule (:func:`_rescored`).  The
class-level report matches the whole final list once, re-ranks every
class from that table's arrays, and matches the re-ranked list once more:
two matching passes per report, whatever the number of classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyEvaluation
from .geometry import FinalBatch, FinalDetection, MatchSet, RawBatch, RawDetection, _positives
from .ingest import Dataset
from .metrics import (
    COCO_THRESHOLDS,
    ApResult,
    CorrelationReport,
    _beta_cls_from,
    _coco_ap_from,
    _match_classes,
    _MatchTable,
    _spearman_mean,
    coco_ap,
)
from .pipeline import PipelineConfig, _postprocess_images

__all__ = ["BoundReport", "rerank_image_level", "rerank_class_level", "bound_report"]


def _check_direction(direction: int) -> None:
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")


def _rescored(
    scores: np.ndarray, at: tuple[np.ndarray, ...], ious: np.ndarray, groups: np.ndarray, direction: int
) -> np.ndarray:
    """A copy of ``scores`` in which the entries ``scores[at]`` are
    re-ranked within each group; ``at`` is a tuple of index arrays whose
    first holds the detection indices.

    Within each group, the entries sorted by descending IoU (ties by lower
    detection index) receive the group's score multiset sorted descending
    (+1) or ascending (-1), equal scores by lower detection index.
    """
    det_idx, values = at[0], scores[at]
    by_iou = np.lexsort((det_idx, -ious, groups))
    by_score = np.lexsort((det_idx, -direction * values, groups))
    out = scores.copy()
    out[tuple(i[by_iou] for i in at)] = values[by_score]
    return out


def _rerank_raw(dets: RawBatch, det_idx: np.ndarray, ious: np.ndarray, classes: np.ndarray, direction: int) -> RawBatch:
    """:func:`rerank_image_level` of positives given as aligned arrays: the
    same boxes, and a copy of the score array in which only the positives'
    ``classes`` entries change (``dets`` itself for fewer than two)."""
    if det_idx.shape[0] <= 1:
        return dets
    return RawBatch(dets.boxes, _rescored(dets.scores, (det_idx, classes), ious, np.zeros_like(det_idx), direction))


def rerank_image_level(
    dets: Sequence[RawDetection],
    matches: MatchSet,
    direction: int,
) -> RawBatch:
    """Permute positives' GT-class scores along (+1) or against (-1) IoU order.

    ``matches`` must come from match_positives on ``dets``.  Returns the
    detections as a :class:`~corrdet.geometry.RawBatch`: the same boxes,
    and a copy of the score array in which only the matched detections'
    GT-class entries change.
    """
    _check_direction(direction)
    det_idx = np.array(matches.detection_indices(), dtype=np.intp)
    classes = np.array([m.class_id for m in matches], dtype=np.intp)
    return _rerank_raw(RawBatch.of(dets), det_idx, np.array(matches.ious()), classes, direction)


def rerank_class_level(
    dets: Sequence[FinalDetection],
    matches: MatchSet,
    direction: int,
) -> FinalBatch:
    """Permute TP scores per IoU order; FPs and boxes stay untouched.

    ``matches`` must come from match_tp on ``dets`` (single class).
    Returns the detections as a :class:`~corrdet.geometry.FinalBatch`: the
    same columns, and a copy of the score array in which only the TPs
    change.
    """
    _check_direction(direction)
    dets = FinalBatch.of(dets)
    det_idx = np.array(matches.detection_indices(), dtype=np.intp)
    scores = _rescored(dets.scores, (det_idx,), np.array(matches.ious()), np.zeros_like(det_idx), direction)
    return FinalBatch(dets.boxes, dets.class_ids, scores, dets.images, dets.image_ids)


def _reranked(table: _MatchTable, direction: int) -> FinalBatch:
    """The table's detections with every class's TPs at its last threshold
    re-ranked as :func:`rerank_class_level` does one class."""
    dets, tp = table.dets, np.flatnonzero(table.gt[-1] >= 0)
    scores = _rescored(dets.scores, (tp,), table.iou[-1, tp], dets.class_ids[tp], direction)
    return FinalBatch(dets.boxes, dets.class_ids, scores, dets.images, dets.image_ids)


@dataclass(frozen=True)
class BoundReport:
    """Metrics before and after one re-ranking pass.

    Correlation halves are None when every group was skipped (e.g. no TPs
    at all); the re-rank itself is then an identity.
    """

    direction: int
    level: str
    ap_before: ApResult
    ap_after: ApResult
    corr_before: CorrelationReport | None
    corr_after: CorrelationReport | None


def _or_none(report: Callable[..., CorrelationReport], *args) -> CorrelationReport | None:
    """``report(*args)``, or None when every group is skipped."""
    try:
        return report(*args)
    except EmptyEvaluation:
        return None


def bound_report(
    dataset: Dataset,
    direction: int,
    level: str = "class",
    tp_iou: float = 0.5,
    iou_floor: float = 0.5,
    pipeline: PipelineConfig | None = None,
) -> BoundReport:
    """Re-rank the dataset in one direction and re-evaluate AP and beta.

    Class level permutes TP scores of the final detections per class.
    Image level permutes positives' GT-class scores in the raw detections,
    then runs post-processing to obtain comparable final detections; its
    correlation halves report the image-level measure.

    Each level reads its own parameters: class level reads ``tp_iou`` (the
    TP threshold of the re-rank and of beta_cls); image level reads
    ``iou_floor`` (the positive-matching floor) and ``pipeline`` (default
    ``PipelineConfig()``).  The other level's parameters are ignored.
    """
    _check_direction(direction)
    if level not in ("class", "image"):
        raise ValueError(f"level must be 'class' or 'image', got {level}")

    if level == "class":
        if dataset.final_dets is None:
            raise ValueError("class-level bounds need final detections")
        # One matching pass per detection list: the COCO thresholds for AP
        # plus tp_iou (last) for beta_cls and the re-rank itself.
        thresholds = (*COCO_THRESHOLDS, tp_iou)
        before = _match_classes(dataset.final_dets, dataset.gts, thresholds)
        after = _match_classes(_reranked(before, direction), dataset.gts, thresholds)
        return BoundReport(
            direction,
            level,
            ap_before=_coco_ap_from(before, COCO_THRESHOLDS)[0],
            ap_after=_coco_ap_from(after, COCO_THRESHOLDS)[0],
            # beta_cls at tp_iou, the last threshold of each table
            corr_before=_or_none(_beta_cls_from, before, -1),
            corr_after=_or_none(_beta_cls_from, after, -1),
        )

    cfg = pipeline if pipeline is not None else PipelineConfig()
    # Matching reads only the boxes, so the re-ranked detections pair up
    # exactly as before; only the matched scores change.
    before, after, reranked = [], [], {}
    for image_id, raw, gts in dataset.per_image():
        det_idx, _, ious, scores, classes = _positives(raw, gts, iou_floor)
        reranked[image_id] = _rerank_raw(raw, det_idx, ious, classes, direction)
        before.append((image_id, ious, scores))
        after.append((image_id, ious, reranked[image_id].scores[det_idx, classes]))
    image_ids = [iid for iid, _, _ in dataset.images]

    return BoundReport(
        direction,
        level,
        ap_before=coco_ap(_postprocess_images(dataset.raw_dets, image_ids, cfg), dataset.gts),
        ap_after=coco_ap(_postprocess_images(reranked, image_ids, cfg), dataset.gts),
        corr_before=_or_none(_spearman_mean, before, "image"),
        corr_after=_or_none(_spearman_mean, after, "image"),
    )
