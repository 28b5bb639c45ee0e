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

Both levels assign scores through one rule (:func:`_ranked_scores`).  The
class-level report matches the whole final list once, re-ranks every
class from that table's arrays, and matches the re-ranked list once more:
two matching passes per report, whatever the number of classes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import EmptyEvaluation
from .geometry import MatchSet, match_positives
from .metrics import (
    COCO_THRESHOLDS,
    ApResult,
    CorrelationReport,
    _beta_cls_from,
    _beta_img_from,
    _coco_ap_from,
    _match_classes,
    _MatchTable,
    coco_ap,
)
from .pipeline import FinalDetection, PipelineConfig, RawDetection, postprocess

if TYPE_CHECKING:
    from .ingest import Dataset

__all__ = ["BoundReport", "rerank_image_level", "rerank_class_level", "bound_report"]


def _check_direction(direction: int) -> None:
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")


def _ranked_scores(
    det_idx: np.ndarray, ious: np.ndarray, scores: np.ndarray, classes: np.ndarray, direction: int
) -> tuple[np.ndarray, np.ndarray]:
    """Re-ranked scores of positives: ``(detection indices, new scores)``.

    Within each class, the positives sorted by descending IoU (ties by
    lower detection index) receive the class's score multiset sorted
    descending (+1) or ascending (-1), equal scores by lower detection
    index.  The arrays are aligned: entry j of each describes one positive.
    """
    by_iou = np.lexsort((det_idx, -ious, classes))
    by_score = np.lexsort((det_idx, -direction * scores, classes))
    return det_idx[by_iou], scores[by_score]


def _assign_scores(matches: MatchSet, direction: int) -> dict[int, float]:
    """Map detection index -> re-ranked score, for one group of positives."""
    det_idx = np.array(matches.detection_indices(), dtype=np.intp)
    targets, values = _ranked_scores(
        det_idx,
        np.array(matches.ious(), dtype=np.float64),
        np.array(matches.scores(), dtype=np.float64),
        np.zeros_like(det_idx),
        direction,
    )
    return dict(zip(targets.tolist(), values.tolist()))


def rerank_image_level(
    dets: Sequence[RawDetection],
    matches: MatchSet,
    direction: int,
) -> list[RawDetection]:
    """Permute positives' GT-class scores along (+1) or against (-1) IoU order.

    ``matches`` must come from match_positives on ``dets``.  Only the
    matched detections' GT-class score entries change; every other
    detection object is returned as-is.
    """
    _check_direction(direction)
    if len(matches) <= 1:
        return list(dets)
    new_scores = _assign_scores(matches, direction)
    target_class = {m.detection_index: m.class_id for m in matches}
    out: list[RawDetection] = []
    for di, det in enumerate(dets):
        if di in new_scores:
            scores = list(det.class_scores)
            scores[target_class[di]] = new_scores[di]
            out.append(RawDetection(det.box, tuple(scores)))
        else:
            out.append(det)
    return out


def rerank_class_level(
    dets: Sequence[FinalDetection],
    matches: MatchSet,
    direction: int,
) -> list[FinalDetection]:
    """Permute TP scores per IoU order; FPs and boxes stay untouched.

    ``matches`` must come from match_tp on ``dets`` (single class).
    """
    _check_direction(direction)
    if len(matches) <= 1:
        return list(dets)
    new_scores = _assign_scores(matches, direction)
    return [
        FinalDetection(d.box, d.class_id, new_scores[di], d.image_id) if di in new_scores else d
        for di, d in enumerate(dets)
    ]


def _reranked(table: _MatchTable, direction: int) -> list[FinalDetection]:
    """The table's detections with every class's TPs at its last threshold
    re-ranked as :func:`rerank_class_level` does one class."""
    tp = np.flatnonzero(table.gt[-1] >= 0)
    targets, values = _ranked_scores(tp, table.iou[-1, tp], table.scores[tp], table.class_ids[tp], direction)
    out = list(table.dets)
    for di, score in zip(targets.tolist(), values.tolist()):
        d = out[di]
        out[di] = FinalDetection(d.box, d.class_id, score, d.image_id)
    return out


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
    dataset: "Dataset",
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
    gts = list(dataset.gts)

    if level == "class":
        if dataset.final_dets is None:
            raise ValueError("class-level bounds need final detections")
        # One matching pass per detection list: the COCO thresholds for AP
        # plus tp_iou (last) for beta_cls and the re-rank itself.
        thresholds = (*COCO_THRESHOLDS, tp_iou)
        before = _match_classes(dataset.final_dets, gts, thresholds)
        after = _match_classes(_reranked(before, direction), gts, thresholds)
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
    positives_before: list[tuple[int, MatchSet]] = []
    positives_after: list[tuple[int, MatchSet]] = []
    finals_before: list[FinalDetection] = []
    finals_after: list[FinalDetection] = []
    for image_id, raw, image_gts in dataset.per_image():
        matches = match_positives(raw, image_gts, iou_floor)
        raw_after = rerank_image_level(raw, matches, direction)
        rescored = MatchSet(
            tuple(replace(m, score=raw_after[m.detection_index].class_scores[m.class_id]) for m in matches)
        )
        positives_before.append((image_id, matches))
        positives_after.append((image_id, rescored))
        finals_before.extend(postprocess(raw, cfg, image_id))
        finals_after.extend(postprocess(raw_after, cfg, image_id))

    return BoundReport(
        direction,
        level,
        ap_before=coco_ap(finals_before, gts),
        ap_after=coco_ap(finals_after, gts),
        corr_before=_or_none(_beta_img_from, positives_before),
        corr_after=_or_none(_beta_img_from, positives_after),
    )
