import pytest
from hypothesis import given, settings

from corrdet import COCO_THRESHOLDS, Box, GtObject, iou, match_positives, match_tp, match_tp_multi
from corrdet.pipeline import FinalDetection, RawDetection
from match_oracle import achieved_ious, detection_sets, match_tp_oracle


def test_box_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        Box(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Box(3.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Box(0.0, 0.0, float("nan"), 1.0)
    with pytest.raises(ValueError):
        Box(0.0, 0.0, float("inf"), 1.0)


def test_box_conversions_and_area():
    b = Box.from_xywh(2.0, 3.0, 4.0, 5.0)
    assert b == Box(2.0, 3.0, 6.0, 8.0)
    assert b.to_xywh() == (2.0, 3.0, 4.0, 5.0)
    assert b.area == 20.0


def test_iou_hand_values():
    # quarter overlap of two 2x2 squares: 1 / (4 + 4 - 1)
    assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == 1.0 / 7.0
    # containment: 1x1 inside 4x4
    assert iou(Box(0, 0, 4, 4), Box(1, 1, 2, 2)) == 1.0 / 16.0
    assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0
    # shared edge has zero intersection area
    assert iou(Box(0, 0, 1, 1), Box(1, 0, 2, 1)) == 0.0
    a, b = Box(0, 0, 3, 3), Box(2, 1, 5, 4)
    assert iou(a, b) == iou(b, a)
    assert iou(a, a) == 1.0


def test_match_positives_greedy_one_to_one():
    gts = [GtObject(Box(0, 0, 10, 10), 0), GtObject(Box(20, 0, 30, 10), 1)]
    dets = [
        RawDetection(Box(0, 0, 10, 9), (0.9, 0.1)),   # iou 0.9 with gt0
        RawDetection(Box(0, 0, 10, 8), (0.7, 0.2)),   # iou 0.8 with gt0 only
        RawDetection(Box(20, 0, 30, 9), (0.3, 0.6)),  # iou 0.9 with gt1
    ]
    ms = match_positives(dets, gts, iou_floor=0.5)
    assert [(m.detection_index, m.gt_index) for m in ms] == [(0, 0), (2, 1)]
    # score read from the gt's class entry
    assert ms.entries[0].score == 0.9
    assert ms.entries[1].score == 0.6
    assert ms.entries[0].iou == 0.9
    assert ms.entries[0].class_id == 0
    assert ms.entries[1].class_id == 1


def test_match_positives_floor_is_inclusive():
    gts = [GtObject(Box(0, 0, 10, 10), 0)]
    dets = [RawDetection(Box(0, 0, 10, 5), (0.8,))]
    assert len(match_positives(dets, gts, iou_floor=0.5)) == 1
    assert len(match_positives(dets, gts, iou_floor=0.50001)) == 0


def test_match_positives_prefers_higher_iou_pair():
    # det1 fits gt0 better than det0 does; greedy gives det1 the gt
    gts = [GtObject(Box(0, 0, 10, 10), 0)]
    dets = [
        RawDetection(Box(0, 0, 10, 7), (0.5,)),
        RawDetection(Box(0, 0, 10, 10), (0.4,)),
    ]
    ms = match_positives(dets, gts)
    assert [(m.detection_index, m.gt_index) for m in ms] == [(1, 0)]


def test_match_positives_empty_inputs():
    assert len(match_positives([], [], 0.5)) == 0
    assert len(match_positives([], [GtObject(Box(0, 0, 1, 1), 0)], 0.5)) == 0


def test_match_tp_score_order_wins():
    # both dets clear the threshold on the single gt; higher score matches
    gts = [GtObject(Box(0, 0, 10, 10), 0, image_id=1)]
    dets = [
        FinalDetection(Box(0, 0, 10, 8), 0, 0.3, 1),
        FinalDetection(Box(0, 0, 10, 9), 0, 0.8, 1),
    ]
    ms = match_tp(dets, gts, 0.5)
    assert [(m.detection_index, m.gt_index) for m in ms] == [(1, 0)]
    assert ms.entries[0].score == 0.8


def test_match_tp_respects_class_and_image():
    gts = [GtObject(Box(0, 0, 10, 10), 0, image_id=1)]
    wrong_class = FinalDetection(Box(0, 0, 10, 10), 1, 0.9, 1)
    wrong_image = FinalDetection(Box(0, 0, 10, 10), 0, 0.9, 2)
    right = FinalDetection(Box(0, 0, 10, 10), 0, 0.2, 1)
    ms = match_tp([wrong_class, wrong_image, right], gts, 0.5)
    assert [(m.detection_index, m.gt_index) for m in ms] == [(2, 0)]


def test_match_tp_picks_best_iou_gt():
    gts = [
        GtObject(Box(0, 0, 10, 10), 0, image_id=1),
        GtObject(Box(0, 0, 10, 12), 0, image_id=1),
    ]
    det = FinalDetection(Box(0, 0, 10, 12), 0, 0.9, 1)
    ms = match_tp([det], gts, 0.5)
    assert [(m.detection_index, m.gt_index) for m in ms] == [(0, 1)]
    assert ms.entries[0].iou == 1.0


def test_match_tp_one_to_one():
    gts = [GtObject(Box(0, 0, 10, 10), 0, image_id=1)]
    dets = [
        FinalDetection(Box(0, 0, 10, 10), 0, 0.9, 1),
        FinalDetection(Box(0, 0, 10, 9), 0, 0.8, 1),
    ]
    ms = match_tp(dets, gts, 0.5)
    assert [(m.detection_index, m.gt_index) for m in ms] == [(0, 0)]


def test_match_tp_multi_tie_breaks():
    gts = [
        GtObject(Box(0, 0, 10, 10), 0, image_id=1),
        GtObject(Box(0, 0, 10, 10), 0, image_id=1),  # duplicate: equal IoU
        GtObject(Box(50, 0, 60, 10), 0, image_id=1),
    ]
    dets = [
        FinalDetection(Box(0, 0, 10, 8), 0, 0.5, 1),
        FinalDetection(Box(0, 0, 10, 9), 0, 0.5, 1),  # equal score, higher index
        FinalDetection(Box(0, 0, 10, 10), 0, 0.2, 1),
        FinalDetection(Box(80, 0, 90, 10), 0, 0.9, 1),  # disjoint from every gt
    ]
    at_half, at_zero, strict = match_tp_multi(dets, gts, (0.5, 0.0, 0.85))
    # det0 goes first on the score tie and takes the lower of two equal-IoU gts
    assert [(m.detection_index, m.gt_index) for m in at_half] == [(0, 0), (1, 1)]
    # IoU 0 never matches, even at threshold 0
    assert at_zero == at_half
    # det0 (IoU 0.8) fails 0.85, so det1 and det2 take gts 0 and 1 in score order
    assert [(m.detection_index, m.gt_index) for m in strict] == [(1, 0), (2, 1)]
    assert match_tp_multi(dets, gts, ()) == ()
    for thr, ms in zip((0.5, 0.0, 0.85), (at_half, at_zero, strict)):
        assert match_tp(dets, gts, thr) == ms


@settings(max_examples=300, deadline=None)
@given(detection_sets())
def test_match_tp_multi_equals_oracle(case):
    dets, gts = case
    thresholds = COCO_THRESHOLDS + tuple(achieved_ious(dets, gts))
    got = match_tp_multi(dets, gts, thresholds)
    assert len(got) == len(thresholds)
    for thr, ms in zip(thresholds, got):
        expected = match_tp_oracle(dets, gts, thr)
        assert ms == expected
        assert match_tp(dets, gts, thr) == expected
