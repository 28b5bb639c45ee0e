"""Evaluation metrics: PR curves, interpolated AP, correlation summaries."""

import pytest
from hypothesis import given, settings

from corrdet import (
    Box,
    COCO_THRESHOLDS,
    EmptyEvaluation,
    FinalDetection,
    GtObject,
    NoGroundTruth,
    RawDetection,
    average_precision,
    beta_cls,
    beta_img,
    coco_ap,
    pr_curve,
    pr_curves,
    synth,
)
from match_oracle import (
    achieved_ious,
    beta_cls_oracle,
    coco_ap_oracle,
    detection_sets,
    pr_curve_oracle,
)


def test_coco_thresholds():
    assert COCO_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)


def make_image(ious_scores, cell=0, class_id=0, image_id=1):
    """One gt per entry, one detection over it with the requested IoU.

    Boxes are 10 px tall and laid out 30 px apart, so entries never
    interact; the detection's IoU is set by truncating its height.
    """
    gts, dets = [], []
    for k, (u, s) in enumerate(ious_scores):
        x = 30.0 * (k + 20 * cell)
        gt = Box(x, 0.0, x + 10.0, 10.0)
        gts.append(GtObject(gt, class_id, image_id))
        dets.append(FinalDetection(Box(x, 0.0, x + 10.0, 10.0 * u), class_id, s, image_id))
    return dets, gts


def test_pr_curve_hand_case():
    # two gts; detections in score order: TP, FP, TP
    gts = [GtObject(Box(0, 0, 10, 10), 0, 1), GtObject(Box(30, 0, 40, 10), 0, 1)]
    dets = [
        FinalDetection(Box(0, 0, 10, 9), 0, 0.9, 1),
        FinalDetection(Box(60, 0, 70, 10), 0, 0.8, 1),
        FinalDetection(Box(30, 0, 40, 9), 0, 0.7, 1),
    ]
    curve = pr_curve(dets, gts, 0.5)
    assert curve == [(0.5, 1.0), (0.5, 0.5), (1.0, 2.0 / 3.0)]


def test_pr_curve_needs_ground_truth():
    with pytest.raises(NoGroundTruth):
        pr_curve([], [], 0.5)


def test_average_precision_hand_values():
    assert average_precision([]) == 0.0
    # single detection covering the single gt
    assert average_precision([(1.0, 1.0)]) == 1.0
    # worked three-detection pattern: (51 + 50 * 2/3) / 101
    ap = average_precision([(0.5, 1.0), (0.5, 0.5), (1.0, 2.0 / 3.0)])
    assert abs(ap - (51 + 50 * 2.0 / 3.0) / 101) < 1e-15
    assert round(ap, 4) == 0.8350
    # no recall beyond 0.5: only grid points up to 0.5 contribute
    assert abs(average_precision([(0.5, 1.0)]) - 51.0 / 101.0) < 1e-15


def test_average_precision_uses_envelope():
    # later higher precision lifts earlier recall levels
    curve = [(0.25, 0.4), (0.5, 0.8)]
    assert abs(average_precision(curve) - (51 * 0.8) / 101.0) < 1e-15


def test_coco_ap_perfect_detections():
    dets, gts = make_image([(1.0, 0.9), (1.0, 0.6)])
    res = coco_ap(dets, gts)
    assert res.ap_c == 1.0
    assert all(v == 1.0 for _, v in res.per_threshold)


def test_coco_ap_threshold_sensitivity():
    # iou 0.7 counts at thresholds 0.5-0.7 only
    dets, gts = make_image([(0.7, 0.9)])
    res = coco_ap(dets, gts)
    by_thr = dict(res.per_threshold)
    assert by_thr[0.5] == 1.0
    assert by_thr[0.7] == 1.0
    assert by_thr[0.75] == 0.0
    assert abs(res.ap_c - 5.0 / 10.0) < 1e-15


def test_coco_ap_classes_partition():
    d0, g0 = make_image([(1.0, 0.9)], cell=0, class_id=0)
    d1, g1 = make_image([(0.6, 0.8)], cell=1, class_id=1)
    res = coco_ap(d0 + d1, g0 + g1)
    per_class = dict(res.per_class)
    assert per_class[0] == tuple([1.0] * 10)
    assert per_class[1] == tuple([1.0] * 3 + [0.0] * 7)
    # class without detections scores zero but still participates
    d2, g2 = [], [GtObject(Box(500, 0, 510, 10), 2, 1)]
    res2 = coco_ap(d0 + d1, g0 + g1 + g2)
    assert dict(res2.per_class)[2] == tuple([0.0] * 10)
    assert abs(res2.ap_c - (10 + 3 + 0) / 30.0) < 1e-15


def test_coco_ap_needs_ground_truth():
    with pytest.raises(EmptyEvaluation):
        coco_ap([], [])


def test_coco_ap_ignores_detections_of_unknown_class():
    dets, gts = make_image([(1.0, 0.9)], class_id=0)
    stray = FinalDetection(Box(900, 0, 910, 10), 5, 0.99, 1)
    assert coco_ap(dets + [stray], gts).ap_c == 1.0


def test_beta_img_signs_on_synthetic_knob():
    for knob, expected in ((1.0, 1.0), (-1.0, -1.0)):
        ds = synth(2, knob=knob)
        by_image = {image_id: [] for image_id, _, _ in ds.images}
        for g in ds.gts:
            by_image[g.image_id].append(g)
        pairs = [
            (ds.raw_dets.get(i, ()), tuple(by_image[i])) for i, _, _ in ds.images
        ]
        rep = beta_img(pairs)
        assert rep.beta_img == expected
        assert all(b == expected for _, b in rep.per_image)


def test_beta_img_skips_small_images():
    # image 1 has two positives, image 2 only one
    d1, g1 = make_image([(0.9, 0.8), (0.6, 0.3)], image_id=1)
    d2, g2 = make_image([(0.9, 0.8)], cell=1, image_id=2)
    raw1 = [RawDetection(d.box, (d.score,)) for d in d1]
    raw2 = [RawDetection(d.box, (d.score,)) for d in d2]
    rep = beta_img([(raw1, g1), (raw2, g2)])
    assert rep.skipped_images == 1
    assert [i for i, _ in rep.per_image] == [1]
    assert rep.beta_img == 1.0


def test_beta_img_raises_when_all_skipped():
    d, g = make_image([(0.9, 0.8)])
    raw = [RawDetection(det.box, (det.score,)) for det in d]
    with pytest.raises(EmptyEvaluation):
        beta_img([(raw, g)])


def test_beta_cls_signs_on_synthetic_knob():
    for knob, expected in ((1.0, 1.0), (-1.0, -1.0)):
        ds = synth(3, knob=knob)
        rep = beta_cls(ds.final_dets, ds.gts)
        assert rep.beta_cls == expected


def test_beta_cls_pools_across_images():
    # per-image pairs are too small to correlate, pooling makes them count
    d1, g1 = make_image([(0.9, 0.9)], image_id=1)
    d2, g2 = make_image([(0.5, 0.4)], cell=1, image_id=2)
    rep = beta_cls(d1 + d2, g1 + g2)
    assert rep.beta_cls == 1.0
    assert rep.per_class == ((0, 1.0),)


def test_beta_cls_counts_skipped_classes():
    d1, g1 = make_image([(0.9, 0.9), (0.5, 0.4)], class_id=0)
    d2, g2 = make_image([(0.8, 0.7)], cell=1, class_id=1)
    rep = beta_cls(d1 + d2, g1 + g2)
    assert rep.skipped_classes == 1
    assert [c for c, _ in rep.per_class] == [0]


def outcome(fn, *args):
    """fn's result, or the type of the EmptyEvaluation it raised."""
    try:
        return fn(*args)
    except EmptyEvaluation as e:
        return type(e)


@settings(max_examples=200, deadline=None)
@given(detection_sets())
def test_pr_ap_and_beta_cls_equal_oracle(case):
    dets, gts = case
    thresholds = COCO_THRESHOLDS + tuple(achieved_ious(dets, gts))
    for thr_set in (COCO_THRESHOLDS, thresholds):
        assert outcome(coco_ap, dets, gts, thr_set) == outcome(coco_ap_oracle, dets, gts, thr_set)
    for thr in thresholds:
        assert outcome(beta_cls, dets, gts, thr) == outcome(beta_cls_oracle, dets, gts, thr)
    for c in {g.class_id for g in gts}:
        cdets = [d for d in dets if d.class_id == c]
        cgts = [g for g in gts if g.class_id == c]
        expected = [pr_curve_oracle(cdets, cgts, t) for t in thresholds]
        assert pr_curves(cdets, cgts, thresholds) == expected
        assert [pr_curve(cdets, cgts, t) for t in thresholds] == expected
