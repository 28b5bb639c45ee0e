import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeline_oracle as oracle
from corrdet import Box, FinalDetection, PipelineConfig, RawDetection, iou, nms, postprocess


def box_at(x, size=10.0):
    return Box(x, 0.0, x + size, size)


def test_raw_detection_validation():
    with pytest.raises(ValueError):
        RawDetection(box_at(0), ())
    with pytest.raises(ValueError):
        RawDetection(box_at(0), (1.2,))
    with pytest.raises(ValueError):
        RawDetection(box_at(0), (-0.1, 0.5))
    d = RawDetection(box_at(0), [0.2, 0.3])
    assert d.class_scores == (0.2, 0.3)


def test_final_detection_validation():
    with pytest.raises(ValueError):
        FinalDetection(box_at(0), 0, 1.5)
    with pytest.raises(ValueError):
        FinalDetection(box_at(0), 0, float("nan"))


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(score_thr=-0.1)
    with pytest.raises(ValueError):
        PipelineConfig(nms_iou=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(top_k=0)


def test_nms_keeps_highest_and_suppresses_overlaps():
    dets = [
        FinalDetection(box_at(0.0), 0, 0.6),
        FinalDetection(box_at(1.0), 0, 0.9),   # overlaps det0 heavily
        FinalDetection(box_at(50.0), 0, 0.3),  # far away
    ]
    kept = nms(dets, 0.5)
    assert [d.score for d in kept] == [0.9, 0.3]


def test_nms_suppression_is_strict():
    # identical overlap exactly at the threshold survives
    a = FinalDetection(Box(0, 0, 10, 10), 0, 0.9)
    b = FinalDetection(Box(0, 0, 10, 5), 0, 0.8)  # iou exactly 0.5
    assert len(nms([a, b], 0.5)) == 2
    assert len(nms([a, b], 0.49)) == 1


def test_nms_score_ties_break_by_index():
    a = FinalDetection(box_at(0.0), 0, 0.7)
    b = FinalDetection(box_at(0.5), 0, 0.7)
    kept = nms([a, b], 0.3)
    assert kept == [a]


def test_nms_chain_not_transitive():
    # b overlaps a and c; a and c do not overlap each other. Keeping a
    # removes b, which leaves c alive.
    a = FinalDetection(Box(0, 0, 10, 10), 0, 0.9)   # iou(a,b) = 6/14
    b = FinalDetection(Box(4, 0, 14, 10), 0, 0.8)   # iou(b,c) = 6/14
    c = FinalDetection(Box(8, 0, 18, 10), 0, 0.7)   # iou(a,c) = 1/9
    kept = nms([a, b, c], 0.3)
    assert kept == [a, c]


def test_postprocess_score_filter_is_strict():
    dets = [RawDetection(box_at(0), (0.05, 0.4)), RawDetection(box_at(50), (0.0500001, 0.02))]
    out = postprocess(dets, PipelineConfig(score_thr=0.05))
    assert [(d.class_id, d.score) for d in out] == [(1, 0.4), (0, 0.0500001)]


def test_postprocess_nms_is_per_class():
    # same two boxes appear as candidates of both classes; NMS must not
    # suppress across classes
    dets = [
        RawDetection(box_at(0.0), (0.9, 0.3)),
        RawDetection(box_at(1.0), (0.7, 0.6)),
    ]
    out = postprocess(dets, PipelineConfig(nms_iou=0.5))
    assert sorted((d.class_id, d.score) for d in out) == [(0, 0.9), (1, 0.6)]


def test_postprocess_top_k_and_order():
    dets = [RawDetection(box_at(20.0 * i), (0.1 * (i + 1),)) for i in range(5)]
    out = postprocess(dets, PipelineConfig(top_k=3))
    assert [round(d.score, 1) for d in out] == [0.5, 0.4, 0.3]


def test_postprocess_nms_free_keeps_duplicates():
    dets = [
        RawDetection(box_at(0.0), (0.9,)),
        RawDetection(box_at(0.5), (0.8,)),
    ]
    cfg_on = PipelineConfig(nms_iou=0.5)
    cfg_off = PipelineConfig(nms_iou=0.5, nms_enabled=False)
    assert len(postprocess(dets, cfg_on)) == 1
    assert len(postprocess(dets, cfg_off)) == 2


def test_postprocess_stamps_image_id():
    out = postprocess([RawDetection(box_at(0), (0.5,))], PipelineConfig(), image_id=7)
    assert out[0].image_id == 7


def test_postprocess_empty():
    assert postprocess([], PipelineConfig()) == []
    # nothing clears the default threshold
    assert postprocess([RawDetection(box_at(0), (0.01,))], PipelineConfig()) == []


# Inputs for the differential and property tests.  Boxes on a small integer
# grid, drawn from a short pool, give duplicate boxes and IoUs that repeat
# and equal simple fractions; scores drawn from a short list tie and hit
# the filter threshold exactly.  Thresholds are drawn from the values the
# input actually achieves as well as from the edges 0 and 1.
_SCORES = st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.7, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _box_pools(draw):
    def box(x, y, w, h):
        return Box(float(x), float(y), float(x + w), float(y + h))

    cell = st.integers(0, 6)
    side = st.integers(1, 5)
    return draw(st.lists(st.builds(box, cell, cell, side, side), min_size=1, max_size=5))


@st.composite
def raw_cases(draw):
    pool = draw(_box_pools())
    n_classes = draw(st.integers(1, 3))
    # a few score vectors are shorter than the rest: the old loop accepted them
    width = st.integers(1, n_classes) if draw(st.booleans()) else st.just(n_classes)
    dets = [
        RawDetection(draw(st.sampled_from(pool)), draw(st.lists(_SCORES, min_size=w, max_size=w)))
        for w in draw(st.lists(width, max_size=12))
    ]
    return dets, pool


def _threshold(draw, achieved):
    return draw(st.sampled_from(sorted(set(achieved) | {0.0, 0.5, 1.0})) | st.floats(0.0, 1.0))


def _ious(boxes):
    return [iou(a, b) for a in boxes for b in boxes]


def _assert_python_fields(dets):
    assert all(type(d.class_id) is int and type(d.score) is float for d in dets)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_postprocess_equals_oracle(data):
    dets, pool = data.draw(raw_cases())
    cfg = PipelineConfig(
        score_thr=_threshold(data.draw, [s for d in dets for s in d.class_scores]),
        nms_iou=_threshold(data.draw, _ious(pool)),
        top_k=data.draw(st.integers(1, 15)),
        nms_enabled=data.draw(st.booleans()),
    )
    image_id = data.draw(st.integers(0, 3))
    got = postprocess(dets, cfg, image_id)
    assert got == oracle.postprocess(dets, cfg, image_id)
    _assert_python_fields(got)
    boxes = {id(d.box) for d in dets}
    assert all(id(d.box) in boxes for d in got)


@st.composite
def final_cases(draw):
    pool = draw(_box_pools())
    dets = draw(st.lists(st.builds(FinalDetection, st.sampled_from(pool), st.just(0), _SCORES), max_size=12))
    return dets, _threshold(draw, _ious(pool))


@settings(max_examples=400, deadline=None)
@given(final_cases())
def test_nms_equals_oracle(case):
    dets, thr = case
    kept = nms(dets, thr)
    want = oracle.nms(dets, thr)
    assert [id(d) for d in kept] == [id(d) for d in want]


@settings(max_examples=300, deadline=None)
@given(final_cases())
def test_nms_properties(case):
    dets, thr = case
    kept = nms(dets, thr)
    kept_ids = {id(d) for d in kept}
    # a subsequence of the input taken in (-score, index) order
    by_score = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    assert [id(d) for d in kept] == [id(dets[i]) for i in by_score if id(dets[i]) in kept_ids]
    assert len(kept_ids) == len(kept)
    # a second pass changes nothing
    assert nms(kept, thr) == kept
    # no two kept boxes overlap above the threshold ...
    assert all(not iou(a.box, b.box) > thr for i, a in enumerate(kept) for b in kept[i + 1 :])
    # ... and every suppressed box overlaps a kept box ranked above it
    rank = {id(dets[i]): r for r, i in enumerate(by_score)}
    for d in dets:
        if id(d) not in kept_ids:
            assert any(rank[id(k)] < rank[id(d)] and iou(k.box, d.box) > thr for k in kept)


def test_postprocess_equals_oracle_detector_shaped():
    # ~200 boxes x 12 classes jittered around 4 objects, 1/64-px corners
    rng = np.random.default_rng(11)
    n, n_classes = 200, 12
    centers = rng.uniform(100.0, 500.0, size=(4, 2))
    sizes = rng.uniform(40.0, 160.0, size=(4, 2))
    obj = rng.integers(0, 4, size=n)
    center = centers[obj] + rng.normal(0.0, 6.0, size=(n, 2))
    half = 0.5 * sizes[obj] * rng.uniform(0.8, 1.25, size=(n, 2))
    corners = np.round(np.hstack([center - half, center + half]) * 64.0) / 64.0
    scores = np.minimum(rng.exponential(0.05, size=(n, n_classes)), 1.0)
    scores[np.arange(n), obj] = rng.uniform(0.05, 1.0, size=n)
    dets = [RawDetection(Box(*map(float, c)), s) for c, s in zip(corners, scores)]
    for cfg in (
        PipelineConfig(),
        PipelineConfig(score_thr=0.0, nms_iou=0.3, top_k=1000),
        PipelineConfig(score_thr=0.1, nms_iou=0.8, top_k=50),
        PipelineConfig(nms_enabled=False, top_k=400),
    ):
        got = postprocess(dets, cfg, 5)
        assert got == oracle.postprocess(dets, cfg, 5)
        _assert_python_fields(got)
