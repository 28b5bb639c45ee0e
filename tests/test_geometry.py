import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdet import COCO_THRESHOLDS, Box, GtObject, iou, iou_matrix, match_positives, match_tp, match_tp_multi
from corrdet.geometry import _area, _iou_of
from corrdet.pipeline import FinalDetection, RawDetection
from match_oracle import achieved_ious, detection_sets, match_positives_oracle, match_tp_oracle, raw_detection_sets


def test_box_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        Box(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Box(3.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Box(0.0, 0.0, float("nan"), 1.0)
    with pytest.raises(ValueError):
        Box(0.0, 0.0, float("inf"), 1.0)
    with pytest.raises(ValueError):  # positive sides, but the area underflows to 0
        Box(0.0, 0.0, 1e-200, 1e-200)
    with pytest.raises(ValueError):  # finite corners, but the width and area overflow
        Box(-1e308, 0.0, 1e308, 1.0)


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


@pytest.mark.parametrize("class_id", [1, 2, -1])
def test_match_positives_refuses_a_gt_class_beyond_the_score_width(class_id):
    # the gt's class would index no entry of the score vectors
    dets = [RawDetection(Box(0, 0, 10, 10), (0.5,))]
    with pytest.raises(ValueError, match=r"^gt classes must lie in \[0, 1\), the detections' score width$"):
        match_positives(dets, [GtObject(Box(0, 0, 10, 10), class_id, 1)])
    assert len(match_positives([], [GtObject(Box(0, 0, 10, 10), class_id, 1)])) == 0


@settings(max_examples=300, deadline=None)
@given(raw_detection_sets())
def test_match_positives_equals_oracle(case):
    raw, gts = case
    for image_id, dets in raw.items():
        # per image, as callers match, and against every image's gts at once
        for cand_gts in ([g for g in gts if g.image_id == image_id], gts):
            floors = [0.0, -0.5, 1.0 + 2.0**-52, 1.5, float("nan"), *achieved_ious(dets, cand_gts)]
            for floor in floors:
                assert match_positives(dets, cand_gts, floor) == match_positives_oracle(dets, cand_gts, floor)


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


@st.composite
def box_sets(draw):
    """Boxes with 1/64-px corners, plus identical copies and boxes that
    touch another along an edge or at a corner."""
    px = st.integers(-640, 640).map(lambda v: v / 64.0)
    extent = st.integers(1, 640).map(lambda v: v / 64.0)
    boxes = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "copy", "touch"])) if boxes else "new"
        if kind == "new":
            x, y = draw(px), draw(px)
            boxes.append(Box(x, y, x + draw(extent), y + draw(extent)))
        else:
            b = draw(st.sampled_from(boxes))
            if kind == "copy":
                boxes.append(Box(b.x1, b.y1, b.x2, b.y2))
            else:
                y = draw(st.sampled_from([b.y1, b.y2, b.y1 - 1.0]))
                boxes.append(Box(b.x2, y, b.x2 + draw(extent), y + draw(extent)))
    return boxes


def _float_box(x, y, w, h):
    return Box(x, y, x + w, y + h)


# arbitrary float corners, where the order of the float operations shows
_FLOAT_BOXES = st.lists(
    st.builds(_float_box, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    max_size=6,
)


def _corners(boxes):
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _assert_bitwise(m, rows, cols):
    assert m.shape == (len(rows), len(cols)) and m.dtype == np.float64
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            assert m[i, j].tobytes() == np.float64(iou(a, b)).tobytes()


@settings(max_examples=300, deadline=None)
@given(box_sets() | _FLOAT_BOXES, box_sets() | _FLOAT_BOXES, st.data())
def test_iou_matrix_equals_iou_bitwise(boxes, others, data):
    # the second set shares a tail of the first, so copies and touching
    # boxes also meet across the two operands
    others = others + boxes[data.draw(st.integers(0, len(boxes))):]
    _assert_bitwise(iou_matrix(_corners(boxes), _corners(others)), boxes, others)
    m = iou_matrix(_corners(boxes), _corners(boxes))
    _assert_bitwise(m, boxes, boxes)
    # symmetric bit for bit
    assert m.tobytes() == np.ascontiguousarray(m.T).tobytes()


@settings(max_examples=300, deadline=None)
@given(box_sets() | _FLOAT_BOXES, box_sets() | _FLOAT_BOXES)
def test_iou_row_equals_iou_matrix_bitwise(boxes, others):
    # box_sets() gives copies and boxes touching along an edge or at a
    # corner; the rows also meet boxes that miss each other entirely
    others = others + boxes
    columns = _corners(others).T.copy()
    areas = _area(columns)
    for b in boxes:
        a = [b.x1, b.y1, b.x2, b.y2]
        with np.errstate(all="ignore"):
            row = _iou_of(a, columns, _area(a), areas)
        assert row.tobytes() == iou_matrix(_corners([b]), _corners(others))[0].tobytes()


@st.composite
def _near_identical_boxes(draw):
    # one box at a scale of 10**e, and copies of it whose corners lie a few ulps off its own
    scale = 10.0 ** draw(st.integers(-150, 150))
    x1, y1, w, h = (scale * draw(st.floats(1.0, 4.0)) for _ in range(4))
    base = np.array([x1, y1, x1 + w, y1 + h])
    steps = draw(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=1, max_size=8))
    # positive floats order as their bits do, so adding k to the bits moves k ulps
    return (base.view(np.int64) + np.array(steps, dtype=np.int64)).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(_near_identical_boxes())
def test_iou_never_exceeds_1(boxes):
    """Rounding is monotone, so no computed IoU exceeds 1.  Each computed
    intersection side is at most either box's computed side, so the
    intersection is at most either computed area.  The computed union,
    area_a + area_b - inter, is then at least 2 * inter - inter = inter,
    and the quotient at most 1.  Near-identical boxes, at scales from
    1e-150 to 1e150, come as close to 1 as boxes can; a box with itself
    gives exactly 1.
    """
    ious = iou_matrix(boxes, boxes)
    assert ((0.0 < ious) & (ious <= 1.0)).all()
    assert (np.diag(ious) == 1.0).all()


def test_iou_row_hand_values():
    boxes = [Box(0, 0, 2, 2), Box(1, 1, 3, 3), Box(2, 0, 4, 2), Box(2, 2, 4, 4), Box(5, 5, 6, 6)]
    columns = _corners(boxes).T.copy()
    a = [0.0, 0.0, 2.0, 2.0]
    row = _iou_of(a, columns, _area(a), _area(columns))
    # itself, overlap, shared edge, shared corner, far away
    assert row.tolist() == [1.0, 1.0 / 7.0, 0.0, 0.0, 0.0]


def test_iou_matrix_hand_values():
    boxes = [Box(0, 0, 2, 2), Box(1, 1, 3, 3), Box(2, 0, 4, 2), Box(0, 0, 2, 2)]
    m = iou_matrix(_corners(boxes), _corners(boxes))
    assert m[0, 1] == 1.0 / 7.0
    assert m[0, 2] == 0.0  # shared edge
    assert m[0, 3] == m[0, 0] == 1.0  # identical boxes
    assert iou_matrix(np.empty((0, 4)), np.empty((0, 4))).shape == (0, 0)
    assert iou_matrix(np.empty((0, 4)), _corners(boxes)).shape == (0, 4)
