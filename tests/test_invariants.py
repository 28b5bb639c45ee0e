"""Dataset-level relations that must hold bit for bit (metamorphic tests).

Each relation changes a small synth dataset in a way that keeps every
IoU and every score order, so no measure may move in any bit:

* (a) every coordinate and image side times 2, or times 0.5 (synth sides
  are 512, so they stay integers): powers of two scale the IoU's
  numerator and denominator alike, exactly;
* (b) every score and ``score_thr`` halved: exact for normal floats, so
  order, ties and the strict ``> score_thr`` filter stay as they were;
* (c) image ids relabeled by an injective map (``7 * id + 3``, or one that
  reverses their order) and category ids reversed over the categories:
  rows group by their image's position and their class index, never by
  an id, so only ``per_image``'s ids change, each to its image's new id
  (category ids reach no measure: ``per_class`` names class indices);
* (e) one raw detection added whose every score is at or below
  ``score_thr``: the strict filter drops all of its candidates, so the
  final detections post-processing makes (``_postprocess_images``, as
  ``eval --raw-dets`` runs it) keep their bits, and so do ``coco_ap``,
  ``beta_cls`` and the class-level ``bound_report`` read from them.  The
  image level is exempt: it matches raw detections before any filter, so
  the new one can become a positive and enter ``beta_img`` and the
  image-level re-rank.

Compared, field by field (``repr`` tells every bit, and -0.0 from 0.0):
``coco_ap`` on the final detections (``ApResult``: ``ap_c``,
``per_threshold``, ``per_class``), ``beta_cls`` on them and ``beta_img``
on the raw detections (``CorrelationReport``: ``beta_img``, ``beta_cls``,
``per_image``, ``per_class``, ``skipped_images``, ``skipped_classes``), and
``bound_report`` for directions +1 and -1 at the class and image levels
(``BoundReport``: those fields of ``ap_before``, ``ap_after``,
``corr_before`` and ``corr_after``); (e) compares the class-level ones
and the final detections' columns.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdet import (
    Dataset,
    FinalBatch,
    GtBatch,
    PipelineConfig,
    RawBatch,
    beta_cls,
    beta_img,
    bound_report,
    coco_ap,
    synth,
)
from corrdet.pipeline import _postprocess_images

AP_FIELDS = ("ap_c", "per_threshold", "per_class")
CORR_FIELDS = ("beta_img", "beta_cls", "per_image", "per_class", "skipped_images", "skipped_classes")
BOUND_FIELDS = {"ap_before": AP_FIELDS, "ap_after": AP_FIELDS, "corr_before": CORR_FIELDS, "corr_after": CORR_FIELDS}

# Small synth datasets: 60 images x 5 classes with a partial score-IoU
# correlation, so the bounds re-rank and the correlations are not +-1.
SEEDS = st.integers(0, 3)


def _dataset(seed: int) -> Dataset:
    return synth(seed, n_images=60, n_classes=5, knob=0.3)


def _fields(prefix: str, result, names, image_id=None) -> dict[str, str]:
    """The ``repr`` of each field ``names`` of ``result``; ``per_image``'s
    ids go through ``image_id`` first, when given."""
    if result is None:  # a correlation half whose groups were all skipped
        return {prefix: "None"}
    out = {f"{prefix}.{name}": repr(getattr(result, name)) for name in names}
    if image_id is not None and "per_image" in names:
        out[f"{prefix}.per_image"] = repr(tuple((image_id(i), v) for i, v in result.per_image))
    return out


def _measures(ds: Dataset, score_thr: float = PipelineConfig().score_thr, image_id=None) -> dict[str, str]:
    """Every compared field, keyed by the measure and field it comes from;
    ``image_id`` maps the image ids that ``per_image`` fields name."""
    out = {
        **_class_measures(ds),
        **_fields("beta_img", beta_img([(raw, gts) for _, raw, gts in ds.per_image()]), CORR_FIELDS, image_id),
    }
    pipeline = PipelineConfig(score_thr=score_thr)
    for direction in (1, -1):
        report = bound_report(ds, direction, "image", pipeline=pipeline)
        for half, names in BOUND_FIELDS.items():
            out |= _fields(f"bound_report[image, {direction:+d}].{half}", getattr(report, half), names, image_id)
    return out


def _class_measures(ds: Dataset) -> dict[str, str]:
    """The compared fields read from the final detections: ``coco_ap``,
    ``beta_cls`` and the class-level ``bound_report`` +-1."""
    out = {
        **_fields("coco_ap", coco_ap(ds.final_dets, ds.gts), AP_FIELDS),
        **_fields("beta_cls", beta_cls(ds.final_dets, ds.gts), CORR_FIELDS),
    }
    for direction in (1, -1):
        report = bound_report(ds, direction, "class")
        for half, names in BOUND_FIELDS.items():
            out |= _fields(f"bound_report[class, {direction:+d}].{half}", getattr(report, half), names)
    return out


def _resized(ds: Dataset, k: float) -> Dataset:
    gts, finals = ds.gts, ds.final_dets
    return Dataset(
        ds.categories,
        tuple((iid, int(w * k), int(h * k)) for iid, w, h in ds.images),
        GtBatch(gts.boxes * k, gts.class_ids, gts.images, gts.image_ids),
        {iid: RawBatch(raw.boxes * k, raw.scores) for iid, raw in ds.raw_dets.items()},
        FinalBatch(finals.boxes * k, finals.class_ids, finals.scores, finals.images, finals.image_ids),
    )


def _halved_scores(ds: Dataset) -> Dataset:
    finals = ds.final_dets
    return Dataset(
        ds.categories,
        ds.images,
        ds.gts,
        {iid: RawBatch(raw.boxes, raw.scores / 2) for iid, raw in ds.raw_dets.items()},
        FinalBatch(finals.boxes, finals.class_ids, finals.scores / 2, finals.images, finals.image_ids),
    )


@settings(max_examples=8, deadline=None)
@given(SEEDS, st.sampled_from((2.0, 0.5)))
def test_resizing_by_a_power_of_two_keeps_every_measure(seed, k):
    ds = _dataset(seed)
    assert all(w * k == int(w * k) and h * k == int(h * k) for _, w, h in ds.images)
    assert _measures(_resized(ds, k)) == _measures(ds)


@settings(max_examples=4, deadline=None)
@given(SEEDS)
def test_halving_scores_and_score_thr_keeps_every_measure(seed):
    ds = _dataset(seed)
    thr = PipelineConfig().score_thr
    assert _measures(_halved_scores(ds), thr / 2) == _measures(ds, thr)


def _relabeled(ds: Dataset, image_id) -> Dataset:
    """``ds`` with each image id ``i`` renamed ``image_id(i)`` and the
    category ids in reverse order over the same categories."""
    new = {iid: image_id(iid) for iid, _, _ in ds.images}
    gts, finals = ds.gts, ds.final_dets
    category_ids = [cid for cid, _ in ds.categories][::-1]
    return Dataset(
        tuple(zip(category_ids, (name for _, name in ds.categories))),
        tuple((new[iid], w, h) for iid, w, h in ds.images),
        GtBatch(gts.boxes, gts.class_ids, gts.images, [new[i] for i in gts.image_ids]),
        {new[iid]: raw for iid, raw in ds.raw_dets.items()},
        FinalBatch(finals.boxes, finals.class_ids, finals.scores, finals.images, [new[i] for i in finals.image_ids]),
    )


@settings(max_examples=6, deadline=None)
@given(SEEDS, st.sampled_from((lambda i: 7 * i + 3, lambda i: 10**6 - i)))
def test_relabeling_image_and_category_ids_keeps_every_measure_but_the_ids(seed, image_id):
    ds = _dataset(seed)
    relabeled = _relabeled(ds, image_id)
    original = {image_id(iid): iid for iid, _, _ in ds.images}
    assert len(original) == len(ds.images)  # the map is injective on these ids
    assert _measures(relabeled, image_id=original.__getitem__) == _measures(ds)


def _with_raw_detection(ds: Dataset, image_id: int, at: int, box: np.ndarray, scores: np.ndarray) -> Dataset:
    """``ds`` with one raw detection inserted at row ``at`` of image ``image_id``."""
    raw = ds.raw_dets[image_id]
    added = RawBatch(np.insert(raw.boxes, at, box, axis=0), np.insert(raw.scores, at, scores, axis=0))
    return replace(ds, raw_dets={**ds.raw_dets, image_id: added})


def _pipeline_measures(ds: Dataset) -> tuple[list[bytes], dict[str, str]]:
    """The columns of the final detections that post-processing makes of
    the raw ones, and the class-level measures read from them."""
    finals = _postprocess_images(ds.raw_dets, [iid for iid, _, _ in ds.images], PipelineConfig())
    columns = [getattr(finals, name).tobytes() for name in FinalBatch._COLUMNS]
    return columns, _class_measures(replace(ds, final_dets=finals))


@settings(max_examples=6, deadline=None)
@given(SEEDS, st.data())
def test_a_raw_detection_at_or_below_score_thr_changes_no_class_level_measure(seed, data):
    ds = _dataset(seed)
    thr = PipelineConfig().score_thr
    image_id = data.draw(st.sampled_from([iid for iid, _, _ in ds.images]))
    raw = ds.raw_dets[image_id]
    # the box of one of the image's raw detections: above score_thr it
    # would be an NMS duplicate, or a match of that detection's GT
    box = raw.boxes[data.draw(st.integers(0, len(raw) - 1))]
    at = data.draw(st.integers(0, len(raw)))
    n_classes = len(ds.categories)
    scores = np.array(data.draw(st.lists(st.sampled_from((0.0, thr / 2, thr)), min_size=n_classes, max_size=n_classes)))
    assert _pipeline_measures(_with_raw_detection(ds, image_id, at, box, scores)) == _pipeline_measures(ds)
