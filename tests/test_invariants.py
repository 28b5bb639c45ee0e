"""Dataset-level relations that must hold bit for bit (metamorphic tests).

Each relation changes a small synth dataset in a way that keeps every
IoU and every score order, so no measure may move in any bit:

* (a) every coordinate and image side times 2, or times 0.5 (synth sides
  are 512, so they stay integers): powers of two scale the IoU's
  numerator and denominator alike, exactly;
* (b) every score and ``score_thr`` halved: exact for normal floats, so
  order, ties and the strict ``> score_thr`` filter stay as they were.

Compared, field by field (``repr`` tells every bit, and -0.0 from 0.0):
``coco_ap`` on the final detections (``ApResult``: ``ap_c``,
``per_threshold``, ``per_class``), ``beta_cls`` on them and ``beta_img``
on the raw detections (``CorrelationReport``: ``beta_img``, ``beta_cls``,
``per_image``, ``per_class``, ``skipped_images``, ``skipped_classes``), and
``bound_report`` for directions +1 and -1 at the class and image levels
(``BoundReport``: those fields of ``ap_before``, ``ap_after``,
``corr_before`` and ``corr_after``).
"""

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

AP_FIELDS = ("ap_c", "per_threshold", "per_class")
CORR_FIELDS = ("beta_img", "beta_cls", "per_image", "per_class", "skipped_images", "skipped_classes")
BOUND_FIELDS = {"ap_before": AP_FIELDS, "ap_after": AP_FIELDS, "corr_before": CORR_FIELDS, "corr_after": CORR_FIELDS}

# Small synth datasets: 60 images x 5 classes with a partial score-IoU
# correlation, so the bounds re-rank and the correlations are not +-1.
SEEDS = st.integers(0, 3)


def _dataset(seed: int) -> Dataset:
    return synth(seed, n_images=60, n_classes=5, knob=0.3)


def _fields(prefix: str, result, names) -> dict[str, str]:
    if result is None:  # a correlation half whose groups were all skipped
        return {prefix: "None"}
    return {f"{prefix}.{name}": repr(getattr(result, name)) for name in names}


def _measures(ds: Dataset, score_thr: float = PipelineConfig().score_thr) -> dict[str, str]:
    """Every compared field, keyed by the measure and field it comes from."""
    out = {
        **_fields("coco_ap", coco_ap(ds.final_dets, ds.gts), AP_FIELDS),
        **_fields("beta_cls", beta_cls(ds.final_dets, ds.gts), CORR_FIELDS),
        **_fields("beta_img", beta_img([(raw, gts) for _, raw, gts in ds.per_image()]), CORR_FIELDS),
    }
    pipeline = PipelineConfig(score_thr=score_thr)
    for level in ("class", "image"):
        for direction in (1, -1):
            report = bound_report(ds, direction, level, pipeline=pipeline)
            for half, names in BOUND_FIELDS.items():
                out |= _fields(f"bound_report[{level}, {direction:+d}].{half}", getattr(report, half), names)
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
