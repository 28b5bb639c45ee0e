"""Re-ranking oracles: assignment rules, identity cases, report plumbing."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdet import (
    COCO_THRESHOLDS,
    Box,
    EmptyEvaluation,
    FinalBatch,
    FinalDetection,
    GtBatch,
    GtObject,
    Match,
    MatchSet,
    RawBatch,
    RawDetection,
    beta_cls,
    bound_report,
    rerank_class_level,
    rerank_image_level,
    spearman,
    synth,
)
from corrdet.ingest import Dataset
from match_oracle import (
    achieved_ious,
    bound_report_class_oracle,
    detection_sets,
    image_corr_oracle,
    raw_detection_sets,
)


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
    assert out[1] == dets[1]
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


def test_image_rerank_returns_a_batch_with_a_new_score_array():
    dets = [
        RawDetection(Box(0, 0, 10, 10), (0.6, 0.3)),
        RawDetection(Box(30, 0, 40, 10), (0.2, 0.7)),
        RawDetection(Box(60, 0, 70, 10), (0.1, 0.1)),
    ]
    batch = RawBatch.of(dets)
    matches = MatchSet((Match(0, 0, 0.9, 0.6, 0), Match(1, 1, 0.5, 0.7, 1)))
    for given_dets in (dets, batch):
        # +1: det0, the higher IoU, takes the higher of the two matched
        # scores (0.7) into its class-0 entry, det1 the lower into class 1;
        # the input's own scores stay as they were
        out = rerank_image_level(given_dets, matches, 1)
        assert isinstance(out, RawBatch)
        assert out.scores.tolist() == [[0.7, 0.3], [0.2, 0.6], [0.1, 0.1]]
        assert out.boxes.tolist() == batch.boxes.tolist()
    assert batch.scores.tolist() == [[0.6, 0.3], [0.2, 0.7], [0.1, 0.1]]
    # too few matches: the same arrays
    assert rerank_image_level(batch, MatchSet(matches.entries[:1]), 1).scores.base is batch.scores.base


@pytest.mark.parametrize("direction, want", [(1, [0.8, 0.5, 0.0, -0.0]), (-1, [0.0, -0.0, 0.5, 0.8])])
def test_rerank_breaks_iou_and_score_ties_by_lower_detection_index(direction, want):
    # dets 1 and 2 tie at IoU 0.7, and dets 0 and 1 at a score of 0 (0.0
    # and -0.0, which sort as equal); the matches come in no index order.
    # The earlier detection of a tie goes first on either side, which only
    # the bits of the returned scores show: AP and beta read no sign of 0.
    ious, scores = [0.9, 0.7, 0.7, 0.6], [0.0, -0.0, 0.5, 0.8]
    order = (3, 1, 2, 0)
    finals = [final(s, 30.0 * i) for i, s in enumerate(scores)]
    matches = MatchSet(tuple(Match(i, i, ious[i], scores[i]) for i in order))
    got = rerank_class_level(finals, matches, direction).scores
    raws = [RawDetection(Box(30.0 * i, 0, 30.0 * i + 10, 10), (0.25, s)) for i, s in enumerate(scores)]
    matches = MatchSet(tuple(Match(i, i, ious[i], scores[i], 1) for i in order))
    got_raw = rerank_image_level(raws, matches, direction).scores
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert [v.hex() for v in got_raw[:, 1].tolist()] == [v.hex() for v in want]
    assert got_raw[:, 0].tolist() == [0.25] * 4


def test_bound_report_image_level_reads_batches_as_objects():
    for seed, knob in ((22, 0.0), (24, 0.3)):
        ds = synth(seed, knob=knob)
        batches = replace(ds, raw_dets={i: RawBatch.of(d) for i, d in ds.raw_dets.items()})
        for direction in (1, -1):
            assert bound_report(batches, direction, level="image") == bound_report(ds, direction, level="image")


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
    base = beta_cls(ds.final_dets, ds.gts).beta
    assert rep.corr_before.beta == base
    assert rep.corr_after.beta == 1.0
    assert rep.ap_after.per_threshold[0][1] == rep.ap_before.per_threshold[0][1]

    rep_minus = bound_report(ds, -1, level="class")
    assert rep_minus.corr_after.beta == -1.0
    assert rep_minus.corr_before.beta == base


def test_bound_report_image_level_on_synth():
    ds = synth(22, knob=0.0)
    rep = bound_report(ds, 1, level="image")
    assert rep.corr_after.beta == 1.0
    assert rep.corr_before.beta < 1.0
    rep_minus = bound_report(ds, -1, level="image")
    assert rep_minus.corr_after.beta == -1.0


def test_bound_report_image_level_equals_rematching_on_synth():
    for seed, knob in ((22, 0.0), (24, 0.3)):
        ds = synth(seed, knob=knob)
        for direction in (1, -1):
            rep = bound_report(ds, direction, level="image")
            assert (rep.corr_before, rep.corr_after) == image_corr_oracle(ds, direction)


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


def test_bound_report_class_level_matches_twice(monkeypatch):
    # one matching pass for the final list and one for the re-ranked list,
    # whatever the number of classes
    import corrdet.bounds as bounds_module

    calls = []
    real = bounds_module._match_classes

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(bounds_module, "_match_classes", counted)
    ds = synth(25, n_images=12, n_classes=5)
    bound_report(ds, 1, level="class")
    assert calls == [len(ds.final_dets)] * 2


@pytest.mark.parametrize("level", ["class", "image"])
def test_bound_report_converts_nothing_on_a_synth_dataset(monkeypatch, level):
    # synth, like the loaders, gives a Dataset of batches, so neither level
    # turns objects into columns; a Dataset given the same data as objects
    # converts them once, at entry, and gives the same report
    ds = synth(25, n_images=12, n_classes=5)
    raw = {iid: list(dets) for iid, dets in ds.raw_dets.items()}
    want = bound_report(Dataset(ds.categories, ds.images, list(ds.gts), raw, list(ds.final_dets)), 1, level=level)
    calls = []
    for batch in (GtBatch, FinalBatch, RawBatch):

        def counted(cls, items, real=batch._from_objects.__func__):
            calls.append(cls.__name__)
            return real(cls, items)

        monkeypatch.setattr(batch, "_from_objects", classmethod(counted))
    assert bound_report(ds, 1, level=level) == want
    assert calls == []


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


@settings(max_examples=150, deadline=None)
@given(raw_detection_sets(), st.sampled_from((1, -1)), st.data())
def test_bound_report_image_level_equals_rematching(case, direction, data):
    # Duplicate boxes and equal IoUs: matching the re-ranked detections
    # again must pair them exactly as the one matching pass did.
    raw, gts = case
    all_raw = [d for dets in raw.values() for d in dets]
    iou_floor = data.draw(st.sampled_from((0.5,) + tuple(v for v in achieved_ious(all_raw, gts) if v > 0.0)))
    ds = Dataset(
        categories=((1, "a"), (2, "b"), (3, "c")),
        images=tuple((i, 8, 8) for i in (1, 2, 3)),
        gts=tuple(gts),
        raw_dets=raw,
    )
    if not gts:
        with pytest.raises(EmptyEvaluation):
            bound_report(ds, direction, level="image", iou_floor=iou_floor)
        return
    rep = bound_report(ds, direction, level="image", iou_floor=iou_floor)
    assert (rep.corr_before, rep.corr_after) == image_corr_oracle(ds, direction, iou_floor)
