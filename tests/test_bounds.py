"""Re-ranking oracles: assignment rules, identity cases, report plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdet import (
    COCO_THRESHOLDS,
    Box,
    EmptyEvaluation,
    FinalDetection,
    GtObject,
    Match,
    MatchSet,
    RawDetection,
    beta_cls,
    bound_report,
    rerank_class_level,
    rerank_image_level,
    spearman,
    synth,
)
from corrdet.ingest import Dataset
from match_oracle import achieved_ious, bound_report_class_oracle, detection_sets


def final(score, x=0.0, class_id=0, image_id=1):
    return FinalDetection(Box(x, 0, x + 10, 10), class_id, score, image_id)


def test_direction_validation():
    with pytest.raises(ValueError):
        rerank_class_level([], MatchSet(), 0)
    with pytest.raises(ValueError):
        rerank_image_level([], MatchSet(), 2)


def test_class_rerank_hand_case():
    # ious by det: [0.6, 0.9, 0.3]; +1 pairs best score with best iou
    dets = [final(0.2, 0), final(0.5, 30), final(0.8, 60)]
    matches = MatchSet(
        (Match(0, 0, 0.6, 0.2), Match(1, 1, 0.9, 0.5), Match(2, 2, 0.3, 0.8))
    )
    plus = rerank_class_level(dets, matches, 1)
    assert [d.score for d in plus] == [0.5, 0.8, 0.2]
    minus = rerank_class_level(dets, matches, -1)
    assert [d.score for d in minus] == [0.5, 0.2, 0.8]
    # boxes, classes, image ids untouched
    assert [d.box for d in plus] == [d.box for d in dets]
    assert [d.class_id for d in plus] == [d.class_id for d in dets]


def test_rerank_preserves_score_multiset():
    rng = np.random.default_rng(12)
    scores = rng.uniform(0.1, 0.9, size=9)
    ious = rng.uniform(0.3, 1.0, size=9)
    dets = [final(float(s), 30.0 * i) for i, s in enumerate(scores)]
    matches = MatchSet(
        tuple(Match(i, i, float(ious[i]), float(scores[i])) for i in range(9))
    )
    for direction in (1, -1):
        out = rerank_class_level(dets, matches, direction)
        assert sorted(d.score for d in out) == sorted(scores.tolist())


def test_rerank_leaves_fps_alone():
    dets = [final(0.2, 0), final(0.9, 30), final(0.5, 60)]
    # only dets 0 and 2 are matched
    matches = MatchSet((Match(0, 0, 0.4, 0.2), Match(2, 1, 0.8, 0.5)))
    out = rerank_class_level(dets, matches, 1)
    assert out[1] is dets[1]
    assert [d.score for d in out] == [0.2, 0.9, 0.5]


def test_rerank_identity_when_too_few_matches():
    dets = [final(0.2, 0), final(0.9, 30)]
    assert rerank_class_level(dets, MatchSet(), 1) == dets
    one = MatchSet((Match(0, 0, 0.4, 0.2),))
    assert rerank_class_level(dets, one, -1) == dets


def test_image_rerank_touches_only_gt_class_entry():
    dets = [
        RawDetection(Box(0, 0, 10, 10), (0.6, 0.3)),
        RawDetection(Box(30, 0, 40, 10), (0.2, 0.7)),
    ]
    matches = MatchSet((Match(0, 0, 0.9, 0.6, 0), Match(1, 1, 0.5, 0.2, 0)))
    out = rerank_image_level(dets, matches, -1)
    # det0 has the higher iou, so -1 hands it the lower score
    assert out[0].class_scores == (0.2, 0.3)
    assert out[1].class_scores == (0.6, 0.7)
    assert [d.box for d in out] == [d.box for d in dets]


def test_rerank_achieves_perfect_agreement():
    rng = np.random.default_rng(13)
    ious = rng.uniform(0.0, 1.0, size=8)
    scores = rng.uniform(0.0, 1.0, size=8)
    dets = [final(float(s), 30.0 * i) for i, s in enumerate(scores)]
    matches = MatchSet(
        tuple(Match(i, i, float(ious[i]), float(scores[i])) for i in range(8))
    )
    plus = rerank_class_level(dets, matches, 1)
    minus = rerank_class_level(dets, matches, -1)
    assert spearman(ious, [d.score for d in plus]) == 1.0
    assert spearman(ious, [d.score for d in minus]) == -1.0


def test_bound_report_class_level_on_synth():
    ds = synth(21, knob=0.0)
    rep = bound_report(ds, 1, level="class")
    assert rep.direction == 1
    assert rep.level == "class"
    base = beta_cls(ds.final_dets, ds.gts).beta_cls
    assert rep.corr_before.beta_cls == base
    assert rep.corr_after.beta_cls == 1.0
    assert rep.ap_after.per_threshold[0][1] == rep.ap_before.per_threshold[0][1]

    rep_minus = bound_report(ds, -1, level="class")
    assert rep_minus.corr_after.beta_cls == -1.0
    assert rep_minus.corr_before.beta_cls == base


def test_bound_report_image_level_on_synth():
    ds = synth(22, knob=0.0)
    rep = bound_report(ds, 1, level="image")
    assert rep.corr_after.beta_img == 1.0
    assert rep.corr_before.beta_img < 1.0
    rep_minus = bound_report(ds, -1, level="image")
    assert rep_minus.corr_after.beta_img == -1.0


def test_bound_report_identity_without_positives():
    # detections exist but none overlaps any gt
    from corrdet.ingest import Dataset

    gt = GtObject(Box(0, 0, 20, 20), 0, 1)
    stray = final(0.9, x=400.0)
    ds = Dataset(
        categories=((1, "thing"),),
        images=((1, 512, 512),),
        gts=(gt,),
        final_dets=(stray,),
    )
    rep = bound_report(ds, 1, level="class")
    assert rep.corr_before is None
    assert rep.corr_after is None
    assert rep.ap_before == rep.ap_after
    assert rep.ap_before.ap_c == 0.0


def test_bound_report_requires_matching_inputs():
    ds = synth(23)
    from dataclasses import replace

    with pytest.raises(ValueError):
        bound_report(replace(ds, final_dets=None), 1, level="class")
    with pytest.raises(ValueError):
        bound_report(replace(ds, raw_dets=None), 1, level="image")
    with pytest.raises(ValueError):
        bound_report(ds, 1, level="box")


@settings(max_examples=150, deadline=None)
@given(detection_sets(), st.sampled_from((1, -1)), st.data())
def test_bound_report_class_level_equals_oracle(case, direction, data):
    dets, gts = case
    tp_iou = data.draw(st.sampled_from(COCO_THRESHOLDS + tuple(achieved_ious(dets, gts))))
    ds = Dataset(
        categories=((1, "a"), (2, "b"), (3, "c")),
        images=tuple((i, 8, 8) for i in (1, 2, 3)),
        gts=tuple(gts),
        final_dets=tuple(dets),
    )
    if not gts:
        with pytest.raises(EmptyEvaluation):
            bound_report_class_oracle(dets, gts, direction, tp_iou)
        with pytest.raises(EmptyEvaluation):
            bound_report(ds, direction, level="class", tp_iou=tp_iou)
        return
    got = bound_report(ds, direction, level="class", tp_iou=tp_iou)
    assert got == bound_report_class_oracle(dets, gts, direction, tp_iou)
