"""Brute-force reference for the post-processing chain.

``_nms_keep``, ``nms`` and ``postprocess`` are the original per-object
implementations: every kept box rescans the whole class list with the
scalar ``iou``, and candidates are ``FinalDetection`` objects from the
start.  The library's columnar versions must return equal results.
"""

from typing import Sequence

from corrdet import Box, FinalDetection, PipelineConfig, RawDetection, iou


def _nms_keep(boxes: Sequence[Box], scores: Sequence[float], iou_thr: float) -> list[int]:
    """Indices surviving greedy NMS, in keep (descending score) order.

    Score ties break by lower index.  Suppression is strict: overlap must
    exceed iou_thr.
    """
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    alive = [True] * len(boxes)
    kept = []
    for i in order:
        if not alive[i]:
            continue
        kept.append(i)
        for j in order:
            if alive[j] and j != i and iou(boxes[i], boxes[j]) > iou_thr:
                alive[j] = False
    return kept


def nms(dets: Sequence[FinalDetection], iou_thr: float) -> list[FinalDetection]:
    """Greedy non-maximum suppression over single-class detections.

    Repeatedly keeps the highest-scoring remaining detection and removes
    every remaining one overlapping it with IoU > iou_thr.
    """
    kept = _nms_keep([d.box for d in dets], [d.score for d in dets], iou_thr)
    return [dets[i] for i in kept]


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
    candidates: list[FinalDetection] = []
    for det in dets:
        for c, s in enumerate(det.class_scores):
            if s > cfg.score_thr:
                candidates.append(FinalDetection(det.box, c, s, image_id))

    if cfg.nms_enabled:
        survivors: list[tuple[int, FinalDetection]] = []
        by_class: dict[int, list[int]] = {}
        for seq, cand in enumerate(candidates):
            by_class.setdefault(cand.class_id, []).append(seq)
        for _, seqs in sorted(by_class.items()):
            kept = _nms_keep(
                [candidates[s].box for s in seqs],
                [candidates[s].score for s in seqs],
                cfg.nms_iou,
            )
            survivors.extend((seqs[k], candidates[seqs[k]]) for k in kept)
    else:
        survivors = list(enumerate(candidates))

    survivors.sort(key=lambda item: (-item[1].score, item[0]))
    return [det for _, det in survivors[: cfg.top_k]]
