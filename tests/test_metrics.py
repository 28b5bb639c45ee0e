"""Evaluation metrics: PR curves, interpolated AP, correlation summaries."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdet import (
    Box,
    COCO_THRESHOLDS,
    EmptyEvaluation,
    FinalBatch,
    FinalDetection,
    GtBatch,
    GtObject,
    NoGroundTruth,
    RawBatch,
    RawDetection,
    average_precision,
    beta_cls,
    beta_img,
    coco_ap,
    match_tp_multi,
    pr_curve,
    pr_curves,
    synth,
)
from corrdet.metrics import _match_classes
from match_oracle import (
    achieved_ious,
    beta_cls_oracle,
    coco_ap_oracle,
    detection_sets,
    match_tp_oracle,
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


def test_coco_ap_needs_a_threshold():
    # an empty threshold list has no mean AP; the curves and matches stay empty
    dets, gts = make_image([(1.0, 0.9)])
    with pytest.raises(ValueError, match="at least one IoU threshold"):
        coco_ap(dets, gts, thresholds=())
    assert pr_curves(dets, gts, ()) == []
    assert match_tp_multi(dets, gts, ()) == ()


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
        triples = [
            (i, ds.raw_dets.get(i, ()), tuple(by_image[i])) for i, _, _ in ds.images
        ]
        rep = beta_img(triples)
        assert rep.beta == expected
        assert all(b == expected for _, b in rep.per_group)


def test_beta_img_skips_small_images():
    # image 1 has two positives, image 2 only one
    d1, g1 = make_image([(0.9, 0.8), (0.6, 0.3)], image_id=1)
    d2, g2 = make_image([(0.9, 0.8)], cell=1, image_id=2)
    raw1 = [RawDetection(d.box, (d.score,)) for d in d1]
    raw2 = [RawDetection(d.box, (d.score,)) for d in d2]
    rep = beta_img([(1, raw1, g1), (2, raw2, g2)])
    assert rep.skipped == 1
    assert [i for i, _ in rep.per_group] == [1]
    assert rep.beta == 1.0


def test_beta_img_raises_when_all_skipped():
    d, g = make_image([(0.9, 0.8)])
    raw = [RawDetection(det.box, (det.score,)) for det in d]
    with pytest.raises(EmptyEvaluation):
        beta_img([(1, raw, g)])


def test_beta_img_refuses_a_gt_class_beyond_the_score_width():
    # triples built in code, not by a Dataset: image 1 has a gt of class 2
    # and its detections one score each; the check ends the call, where a
    # positive of class 2 once ended it in a bare IndexError
    iid, raw, gts = synth(0, 2, 3, 0.3).per_image()[0]
    assert iid == 1 and gts.class_ids.max() == 2
    with pytest.raises(ValueError, match=r"gt classes must lie in \[0, 1\)"):
        beta_img([(iid, RawBatch(raw.boxes, raw.scores[:, :1]), gts)])


def test_beta_cls_signs_on_synthetic_knob():
    for knob, expected in ((1.0, 1.0), (-1.0, -1.0)):
        ds = synth(3, knob=knob)
        rep = beta_cls(ds.final_dets, ds.gts)
        assert rep.beta == expected


def test_beta_cls_pools_across_images():
    # per-image pairs are too small to correlate, pooling makes them count
    d1, g1 = make_image([(0.9, 0.9)], image_id=1)
    d2, g2 = make_image([(0.5, 0.4)], cell=1, image_id=2)
    rep = beta_cls(d1 + d2, g1 + g2)
    assert rep.beta == 1.0
    assert rep.per_group == ((0, 1.0),)


def test_beta_cls_counts_skipped_classes():
    d1, g1 = make_image([(0.9, 0.9), (0.5, 0.4)], class_id=0)
    d2, g2 = make_image([(0.8, 0.7)], cell=1, class_id=1)
    rep = beta_cls(d1 + d2, g1 + g2)
    assert rep.skipped == 1
    assert [c for c, _ in rep.per_group] == [0]


@pytest.mark.parametrize("knob", (-1.0, 0.3, 1.0))
@pytest.mark.parametrize("seed", range(4))
def test_correlation_report_accounts_for_every_group(seed, knob):
    # every group given is reported or skipped, in input order for images
    # and by class index for classes, and beta is the mean of the values;
    # 12 classes make some classes skip, and seed 3 has one with no GTs
    ds = synth(seed, n_classes=12, knob=knob)
    triples = ds.per_image()
    classes = set(ds.gts.class_ids.tolist()) | set(ds.final_dets.class_ids.tolist())
    for rep, n_groups, order in (
        (beta_img(triples), len(triples), [i for i, _, _ in triples]),
        (beta_cls(ds.final_dets, ds.gts), len(classes), sorted(classes)),
    ):
        ids = [g for g, _ in rep.per_group]
        assert len(ids) + rep.skipped == n_groups
        assert ids == [g for g in order if g in set(ids)]
        assert len(set(ids)) == len(ids)
        assert repr(rep.beta) == repr(float(np.mean([b for _, b in rep.per_group])))


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


@settings(max_examples=150, deadline=None)
@given(detection_sets())
def test_match_table_equals_oracle_class_by_class(case):
    dets, gts = case
    thresholds = (0.0, 1.0, math.nan) + COCO_THRESHOLDS + tuple(achieved_ious(dets, gts))
    table = _match_classes(dets, gts, thresholds)
    classes = sorted({d.class_id for d in dets} | {g.class_id for g in gts})
    assert [c for c, _, _ in table.classes] == classes
    # a mixed list: every image and class in one call
    for thr, got in zip(thresholds, match_tp_multi(dets, gts, thresholds)):
        assert got == match_tp_oracle(dets, gts, thr)

    for c, ranked, n_gt in table.classes:
        det_idx = [i for i, d in enumerate(dets) if d.class_id == c]
        gt_idx = [i for i, g in enumerate(gts) if g.class_id == c]
        assert n_gt == len(gt_idx)
        assert ranked.tolist() == sorted(det_idx, key=lambda i: (-dets[i].score, i))
        for k, thr in enumerate(thresholds):
            expected = match_tp_oracle([dets[i] for i in det_idx], [gts[i] for i in gt_idx], thr)
            hits = [i for i in det_idx if table.gt[k, i] >= 0]
            got = [(i, int(table.gt[k, i]), float(table.iou[k, i]).hex()) for i in hits]
            assert got == [(det_idx[m.detection_index], gt_idx[m.gt_index], m.iou.hex()) for m in expected]


def _batch_columns(items, table):
    """Boxes, class ids and image positions in ``table`` of objects."""
    position = {iid: k for k, iid in enumerate(table)}
    boxes = np.array([(x.box.x1, x.box.y1, x.box.x2, x.box.y2) for x in items], dtype=np.float64).reshape(-1, 4)
    return boxes, np.array([x.class_id for x in items]), np.array([position[x.image_id] for x in items], dtype=np.intp)


def _table_bits(table):
    return (
        table.gt.tolist(),
        table.iou.view(np.int64).tolist(),
        table.dets.scores.view(np.int64).tolist(),
        [(c, ranked.tolist(), n_gt) for c, ranked, n_gt in table.classes],
    )


@settings(max_examples=150, deadline=None)
@given(detection_sets(), st.data())
def test_match_table_of_batches_equals_that_of_objects(case, data):
    # image ids beyond 64 bits; the batches index image id tuples of their
    # own, in any order and with ids no row uses, shared or not
    dets, gts = case
    ids = dict(zip((1, 2, 3), data.draw(st.permutations([2**64 + 1, -(2**70), 2**63, 5]))))
    dets = [replace(d, image_id=ids[d.image_id]) for d in dets]
    gts = [replace(g, image_id=ids[g.image_id]) for g in gts]
    gt_table = tuple(data.draw(st.permutations(list(ids.values()) + [11])))
    det_table = data.draw(st.sampled_from([gt_table, tuple(data.draw(st.permutations(gt_table)))]))
    gt_batch = GtBatch(*_batch_columns(gts, gt_table), gt_table)
    boxes, classes, images = _batch_columns(dets, det_table)
    det_batch = FinalBatch(boxes, classes, np.array([d.score for d in dets], dtype=np.float64), images, det_table)
    assert gt_batch == gts and det_batch == dets

    thresholds = (0.0, math.nan) + COCO_THRESHOLDS + tuple(achieved_ious(dets, gts))
    expected = _table_bits(_match_classes(tuple(dets), tuple(gts), thresholds))
    for d, g in ((det_batch, gt_batch), (det_batch, tuple(gts)), (tuple(dets), gt_batch)):
        assert _table_bits(_match_classes(d, g, thresholds)) == expected
