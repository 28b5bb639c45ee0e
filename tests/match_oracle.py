"""Brute-force references for matching and what builds on it.

``match_positives_oracle`` is the original positive matcher: a scalar
``iou`` for every (detection, gt) pair, candidates sorted as
``(-IoU, detection index, gt index)`` tuples, then the greedy pass.
``match_tp_oracle`` is the original all-pairs matcher: every detection, in
score order, scans every gt and skips those of another image or class.
The other references rebuild PR curves, AP, beta_cls and the class-level
bound report from it the way the library did before matching was grouped
per image, filtering the full lists once per class and matching once per
threshold.  ``image_corr_oracle`` gives the image-level bound report's
correlation halves as they were computed before each image was matched
once: ``beta_img`` matches the re-ranked detections again.
``detection_sets`` and ``raw_detection_sets`` draw inputs that stress the
tie-breaks: several images and classes, duplicate boxes, equal scores,
equal IoUs.
"""

import numpy as np
from hypothesis import strategies as st

from corrdet import (
    COCO_THRESHOLDS,
    ApResult,
    Box,
    BoundReport,
    CorrelationReport,
    DegenerateInput,
    EmptyEvaluation,
    FinalDetection,
    GtObject,
    Match,
    MatchSet,
    RawDetection,
    average_precision,
    beta_img,
    iou,
    match_positives,
    rerank_class_level,
    rerank_image_level,
    spearman,
)


def match_positives_oracle(dets, gts, iou_floor):
    candidates = []
    for di, det in enumerate(dets):
        for gi, gt in enumerate(gts):
            v = iou(det.box, gt.box)
            if v >= iou_floor:
                candidates.append((-v, di, gi))
    candidates.sort()

    used_det = set()
    used_gt = set()
    matches = []
    for neg_iou, di, gi in candidates:
        if di in used_det or gi in used_gt:
            continue
        used_det.add(di)
        used_gt.add(gi)
        score = float(dets[di].class_scores[gts[gi].class_id])
        matches.append(Match(di, gi, -neg_iou, score, gts[gi].class_id))
    matches.sort(key=lambda m: m.detection_index)
    return MatchSet(tuple(matches))


def match_tp_oracle(dets, gts, iou_thr):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    used_gt = set()
    matches = []
    for di in order:
        det = dets[di]
        best_gi = -1
        best_iou = 0.0
        for gi, gt in enumerate(gts):
            if gi in used_gt or gt.image_id != det.image_id or gt.class_id != det.class_id:
                continue
            v = iou(det.box, gt.box)
            if v >= iou_thr and v > best_iou:
                best_iou = v
                best_gi = gi
        if best_gi >= 0:
            used_gt.add(best_gi)
            matches.append(Match(di, best_gi, best_iou, float(det.score), det.class_id))
    matches.sort(key=lambda m: m.detection_index)
    return MatchSet(tuple(matches))


def pr_curve_oracle(dets, gts, iou_thr):
    tp_indices = set(match_tp_oracle(dets, gts, iou_thr).detection_indices())
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    curve = []
    tp = 0
    for k, di in enumerate(order, start=1):
        if di in tp_indices:
            tp += 1
        curve.append((tp / len(gts), tp / k))
    return curve


def _class_split(dets, gts, c):
    return [d for d in dets if d.class_id == c], [g for g in gts if g.class_id == c]


def coco_ap_oracle(dets, gts, thresholds=COCO_THRESHOLDS):
    class_ids = sorted({g.class_id for g in gts})
    if not class_ids:
        raise EmptyEvaluation("no class has ground-truth objects")
    per_class = []
    for c in class_ids:
        cdets, cgts = _class_split(dets, gts, c)
        per_class.append((c, tuple(average_precision(pr_curve_oracle(cdets, cgts, t)) for t in thresholds)))
    means = np.asarray([row for _, row in per_class], dtype=np.float64).mean(axis=0)
    per_threshold = tuple((float(t), float(m)) for t, m in zip(thresholds, means))
    return ApResult(float(means.mean()), per_threshold, tuple(per_class))


def beta_cls_oracle(dets, gts, tp_iou=0.5):
    per_class = []
    skipped = 0
    for c in sorted({g.class_id for g in gts} | {d.class_id for d in dets}):
        matches = match_tp_oracle(*_class_split(dets, gts, c), tp_iou)
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
    return CorrelationReport(mean, tuple(per_class), skipped)


def _or_none(fn, *args):
    try:
        return fn(*args)
    except EmptyEvaluation:
        return None


def bound_report_class_oracle(dets, gts, direction, tp_iou=0.5):
    reranked = list(dets)
    for c in sorted({d.class_id for d in dets}):
        idxs = [i for i, d in enumerate(dets) if d.class_id == c]
        sub = [dets[i] for i in idxs]
        cgts = [g for g in gts if g.class_id == c]
        for i, d in zip(idxs, rerank_class_level(sub, match_tp_oracle(sub, cgts, tp_iou), direction)):
            reranked[i] = d
    return BoundReport(
        direction,
        "class",
        ap_before=coco_ap_oracle(dets, gts),
        ap_after=coco_ap_oracle(reranked, gts),
        corr_before=_or_none(beta_cls_oracle, dets, gts, tp_iou),
        corr_after=_or_none(beta_cls_oracle, reranked, gts, tp_iou),
    )


def image_corr_oracle(dataset, direction, iou_floor=0.5):
    """(corr_before, corr_after) of ``bound_report(level="image")``."""
    before, after = [], []
    for image_id, _, _ in dataset.images:
        raw = list(dataset.raw_dets.get(image_id, ()))
        gts = [g for g in dataset.gts if g.image_id == image_id]
        before.append((image_id, raw, gts))
        after.append((image_id, rerank_image_level(raw, match_positives(raw, gts, iou_floor), direction), gts))
    return _or_none(beta_img, before, iou_floor), _or_none(beta_img, after, iou_floor)


def achieved_ious(dets, gts):
    """Every IoU value some (det, gt) pair reaches, 0 included."""
    return sorted({iou(d.box, g.box) for d in dets for g in gts})


# Small integer boxes: duplicates and equal IoUs are common.
_BOX = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(1, 4),
    st.integers(1, 4),
)
_SCORE = st.sampled_from((0.0, 0.3, 0.5, 0.9, 1.0)) | st.floats(0.0, 1.0)


@st.composite
def detection_sets(draw, max_gts=10, max_dets=14):
    """(dets, gts) over up to 3 images and 3 classes."""
    pool = draw(st.lists(_BOX, min_size=1, max_size=4))
    box = st.sampled_from(pool) | _BOX
    image_id = st.integers(1, 3)
    class_id = st.integers(0, 2)
    gts = draw(st.lists(st.builds(GtObject, box, class_id, image_id), max_size=max_gts))
    dets = draw(st.lists(st.builds(FinalDetection, box, class_id, _SCORE, image_id), max_size=max_dets))
    return dets, gts


@st.composite
def raw_detection_sets(draw, max_gts=8, max_dets=10):
    """(raw detections by image id, gts) over 3 images and 3 classes."""
    pool = draw(st.lists(_BOX, min_size=1, max_size=4))
    box = st.sampled_from(pool) | _BOX
    gts = draw(st.lists(st.builds(GtObject, box, st.integers(0, 2), st.integers(1, 3)), max_size=max_gts))
    det = st.builds(RawDetection, box, st.tuples(_SCORE, _SCORE, _SCORE))
    raw = {i: tuple(draw(st.lists(det, max_size=max_dets))) for i in (1, 2, 3)}
    return raw, gts
