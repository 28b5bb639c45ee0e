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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import EmptyEvaluation
from .geometry import GtObject, MatchSet, match_positives
from .metrics import (
    COCO_THRESHOLDS,
    ApResult,
    CorrelationReport,
    _beta_cls_from,
    _coco_ap_from,
    _match_classes,
    beta_img,
    coco_ap,
)
from .pipeline import FinalDetection, PipelineConfig, RawDetection, postprocess

if TYPE_CHECKING:
    from .ingest import Dataset

__all__ = ["BoundReport", "rerank_image_level", "rerank_class_level", "bound_report"]


def _check_direction(direction: int) -> None:
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")


def _assign_scores(matches: MatchSet, direction: int) -> dict[int, float]:
    """Map detection index -> re-ranked score.

    Positives sorted by descending IoU (ties by lower detection index)
    receive the score multiset sorted descending (+1) or ascending (-1).
    """
    order = sorted(matches, key=lambda m: (-m.iou, m.detection_index))
    ranked = sorted((m.score for m in matches), reverse=(direction == 1))
    return {m.detection_index: s for m, s in zip(order, ranked)}


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


def _beta_cls_or_none(table) -> CorrelationReport | None:
    """beta_cls at tp_iou, the last threshold of ``table``."""
    try:
        return _beta_cls_from(table, -1)
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
        reranked_by_class = {
            c: iter(rerank_class_level(cdets, sets[-1], direction))
            for c, (cdets, _, sets) in before.items()
        }
        reranked = [next(reranked_by_class[d.class_id]) for d in dataset.final_dets]
        after = _match_classes(reranked, gts, thresholds)
        return BoundReport(
            direction,
            level,
            ap_before=_coco_ap_from(before, COCO_THRESHOLDS),
            ap_after=_coco_ap_from(after, COCO_THRESHOLDS),
            corr_before=_beta_cls_or_none(before),
            corr_after=_beta_cls_or_none(after),
        )

    if dataset.raw_dets is None:
        raise ValueError("image-level bounds need raw detections")
    cfg = pipeline if pipeline is not None else PipelineConfig()
    by_image: dict[int, list[GtObject]] = {}
    for g in gts:
        by_image.setdefault(g.image_id, []).append(g)

    pairs_before: list[tuple[list[RawDetection], list[GtObject]]] = []
    pairs_after: list[tuple[list[RawDetection], list[GtObject]]] = []
    finals_before: list[FinalDetection] = []
    finals_after: list[FinalDetection] = []
    for image_id, _, _ in dataset.images:
        raw = list(dataset.raw_dets.get(image_id, ()))
        img_gts = by_image.get(image_id, [])
        matches = match_positives(raw, img_gts, iou_floor)
        raw_after = rerank_image_level(raw, matches, direction)
        pairs_before.append((raw, img_gts))
        pairs_after.append((raw_after, img_gts))
        finals_before.extend(postprocess(raw, cfg, image_id))
        finals_after.extend(postprocess(raw_after, cfg, image_id))

    def _beta_img_or_none(pairs):
        try:
            return beta_img(pairs, iou_floor)
        except EmptyEvaluation:
            return None

    return BoundReport(
        direction,
        level,
        ap_before=coco_ap(finals_before, gts),
        ap_after=coco_ap(finals_after, gts),
        corr_before=_beta_img_or_none(pairs_before),
        corr_after=_beta_img_or_none(pairs_after),
    )
