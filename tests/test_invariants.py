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
  an id, so only the image-level ``per_group`` ids change, each to its
  image's new id (category ids reach no measure: ``per_class`` and the
  class-level ``per_group`` name class indices);
* (d) the images listed in another order, each image's rows moved with
  it, or the categories listed in another order: every per-image and
  per-class value, keyed by image id and category id, keeps its bits.
  Per-class AP counts TPs, integers, and its rows keep their score
  order; Spearman's centered ranks are multiples of 1/2, so the sums
  behind a class's coefficient are exact in any row order.  Only the
  means over the groups that moved may round differently: under an image
  permutation the ``beta_img`` means, under a category permutation the
  class means ``per_threshold``, ``ap_c`` and ``beta_cls``.  A mean of n
  values computed in any order lies within ``γ_n · mean(|x|)`` of the
  exact mean (γ_n = n·u / (1 − n·u), u = 2**-53: the sum's rounding in
  any order and the division's), so two orders differ by at most twice
  that; ``ap_c``, a mean of class means, takes n = classes + thresholds.
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
on the raw detections (``CorrelationReport``: ``beta``, ``per_group``,
``skipped``), and ``bound_report`` for directions +1 and -1 at the class
and image levels (``BoundReport``: those fields of ``ap_before``,
``ap_after``, ``corr_before`` and ``corr_after``); (d) compares the same
fields value by value, and (e) the class-level ones and the final
detections' columns.

(a) and (b) also hold through the CLI's bytes, on a small synth dataset
and on detector-shaped raw detections from ``bench/rawgen.py`` (with the
finals that post-processing makes of them): ``eval`` (with
``--pr-csv``), ``corr`` and ``bounds`` +-1 at both levels, from
``--dets`` and ``--raw-dets``.  Under (a) every report and CSV line keeps
its bytes; under (b), with ``--score-thr`` halved too, only the
``"score_thr"`` line of the runs that read the pipeline changes.
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrdet.cli as cli
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
from corrdet.ingest import emit_final_dets, emit_gt, emit_raw_dets
from corrdet.pipeline import _postprocess_images

AP_FIELDS = ("ap_c", "per_threshold", "per_class")
CORR_FIELDS = ("beta", "per_group", "skipped")
BOUND_FIELDS = {"ap_before": AP_FIELDS, "ap_after": AP_FIELDS, "corr_before": CORR_FIELDS, "corr_after": CORR_FIELDS}

# Small synth datasets: 60 images x 5 classes with a partial score-IoU
# correlation, so the bounds re-rank and the correlations are not +-1.
SEEDS = st.integers(0, 3)


def _dataset(seed: int) -> Dataset:
    return synth(seed, n_images=60, n_classes=5, knob=0.3)


def _fields(prefix: str, result, names, image_id=None) -> dict[str, str]:
    """The ``repr`` of each field ``names`` of ``result``; ``per_group``'s
    ids, image ids at the image level, go through ``image_id`` first, when
    given."""
    if result is None:  # a correlation half whose groups were all skipped
        return {prefix: "None"}
    out = {f"{prefix}.{name}": repr(getattr(result, name)) for name in names}
    if image_id is not None and "per_group" in names:
        out[f"{prefix}.per_group"] = repr(tuple((image_id(i), v) for i, v in result.per_group))
    return out


def _measures(ds: Dataset, score_thr: float = PipelineConfig().score_thr, image_id=None) -> dict[str, str]:
    """Every compared field, keyed by the measure and field it comes from;
    ``image_id`` maps the image ids that image-level ``per_group`` fields
    name."""
    out = {
        **_class_measures(ds),
        **_fields("beta_img", beta_img(ds.per_image()), CORR_FIELDS, image_id),
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


def _images_permuted(ds: Dataset, perm: list[int]) -> Dataset:
    """``ds`` with its images listed in the order ``perm`` gives (new image
    ``k`` is old image ``perm[k]``), as a file that lists them so: each
    image's GT and final rows move with it, in their order."""
    position = np.argsort(perm)  # each old image's new position

    def moved(batch):
        rows = np.argsort(position[batch.images], kind="stable")
        columns = {name: getattr(batch, name)[rows] for name in batch._COLUMNS}
        columns["images"] = position[columns["images"]]
        return type(batch)(*columns.values(), [batch.image_ids[p] for p in perm])

    images = tuple(ds.images[p] for p in perm)
    raw = {iid: ds.raw_dets[iid] for iid, _, _ in images if iid in ds.raw_dets}
    return Dataset(ds.categories, images, moved(ds.gts), raw, moved(ds.final_dets))


def _categories_permuted(ds: Dataset, perm: list[int]) -> Dataset:
    """``ds`` with its categories listed in the order ``perm`` gives (new
    class ``k`` is old class ``perm[k]``): class ids and score columns
    follow, and every row stays where it is."""
    index = np.argsort(perm)  # each old class's new index

    def moved(batch):
        columns = {name: getattr(batch, name) for name in batch._COLUMNS} | {"class_ids": index[batch.class_ids]}
        return type(batch)(*columns.values(), batch.image_ids)

    raw = {iid: RawBatch(r.boxes, r.scores[:, perm]) for iid, r in ds.raw_dets.items()}
    return Dataset(tuple(ds.categories[p] for p in perm), ds.images, moved(ds.gts), raw, moved(ds.final_dets))


def _gamma(n: int) -> float:
    u = 2.0**-53
    return n * u / (1 - n * u)


def _values(ds: Dataset) -> tuple[dict[str, str], dict[str, tuple[str, float, float]]]:
    """The compared fields of (d), value by value: the ``repr`` of every
    per-image and per-class value (keyed by image id and category id) and
    count, and every mean with its field's name and the bound on its
    distance from the exact mean of its values (the module docstring's
    ``γ_n · mean(|x|)``)."""
    exact: dict[str, str] = {}
    means: dict[str, tuple[str, float, float]] = {}

    def mean(name, field, value, values, n=None):
        values = np.abs(np.asarray(values, dtype=np.float64))
        means[f"{name}.{field}"] = (field, value, _gamma(n or values.size) * values.mean())

    def ap(name, result):
        matrix = np.array([row for _, row in result.per_class])
        for c, row in result.per_class:
            exact[f"{name}.per_class[category {ds.categories[c][0]}]"] = repr(row)
        for k, (t, value) in enumerate(result.per_threshold):
            mean(f"{name}[{t}]", "per_threshold", value, matrix[:, k])
        mean(name, "ap_c", result.ap_c, matrix, sum(matrix.shape))

    def corr(name, report, level):
        if report is None:  # every group skipped
            exact[name] = "None"
            return
        exact[f"{name}.skipped"] = repr(report.skipped)
        for g, b in report.per_group:
            group = f"image {g}" if level == "image" else f"category {ds.categories[g][0]}"
            exact[f"{name}.per_group[{group}]"] = repr(b)
        mean(name, "beta_img" if level == "image" else "beta_cls", report.beta, [b for _, b in report.per_group])

    ap("coco_ap", coco_ap(ds.final_dets, ds.gts))
    corr("beta_cls", beta_cls(ds.final_dets, ds.gts), "class")
    corr("beta_img", beta_img(ds.per_image()), "image")
    for level in ("class", "image"):
        for direction in (1, -1):
            report = bound_report(ds, direction, level, pipeline=PipelineConfig() if level == "image" else None)
            name = f"bound_report[{level}, {direction:+d}]"
            ap(f"{name}.ap_before", report.ap_before)
            ap(f"{name}.ap_after", report.ap_after)
            corr(f"{name}.corr_before", report.corr_before, level)
            corr(f"{name}.corr_after", report.corr_after, level)
    return exact, means


def _assert_same_but_means(got, want, moving: set[str]) -> None:
    """Every value of ``got`` keeps its bits from ``want``, except a mean
    whose field is in ``moving``: it may move by the sum of both bounds."""
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for name, (field, a, bound_a) in got[1].items():
        _, b, bound_b = want[1][name]
        if field in moving:
            assert abs(a - b) <= bound_a + bound_b, name
        else:
            assert repr(a) == repr(b), name


@settings(max_examples=6, deadline=None)
@given(SEEDS, st.permutations(range(60)))
def test_permuting_the_images_keeps_every_per_image_and_per_class_value(seed, perm):
    ds = _dataset(seed)
    _assert_same_but_means(_values(_images_permuted(ds, perm)), _values(ds), {"beta_img"})


@settings(max_examples=6, deadline=None)
@given(SEEDS, st.permutations(range(5)))
def test_permuting_the_categories_keeps_every_per_class_value(seed, perm):
    ds = _dataset(seed)
    _assert_same_but_means(_values(_categories_permuted(ds, perm)), _values(ds), {"per_threshold", "ap_c", "beta_cls"})


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


def _cli_datasets() -> dict[str, Dataset]:
    """A small synth dataset, and detector-shaped raw detections from the
    benchmark's generator (imported read-only) with the finals that
    post-processing makes of them, so both sources exist for each."""
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
    sys.path.insert(0, bench)
    try:
        import rawgen
    finally:
        sys.path.remove(bench)
    raw = rawgen.raw_detector(2, n_images=2, n_classes=10, n_boxes=200)
    finals = _postprocess_images(raw.raw_dets, [iid for iid, _, _ in raw.images], PipelineConfig())
    return {"synth": synth(0, n_images=20, n_classes=5, knob=0.3), "rawgen": replace(raw, final_dets=finals)}


CLI_DATASETS = _cli_datasets()


def _cli_runs():
    """``(argv, reads the pipeline)`` of ``eval`` (with ``--pr-csv``),
    ``corr`` and ``bounds`` +-1 at both levels, from both sources."""
    for source, path in (("--dets", "dets.json"), ("--raw-dets", "raw.json")):
        files = ["--gt", "gt.json", source, path, "--out", "out.json"]
        yield ["eval", *files, "--pr-csv", "pr.csv"], source == "--raw-dets"
        for level in ("class",) if source == "--dets" else ("class", "image"):
            yield ["corr", *files, "--level", level], source == "--raw-dets" and level == "class"
            for direction in ("+1", "-1"):
                yield ["bounds", *files, "--level", level, f"--direction={direction}"], source == "--raw-dets"


def _cli_outputs(ds: Dataset, score_thr: float | None = None) -> dict[tuple[str, str], list[bytes]]:
    """The lines of every report and PR CSV that the runs write, keyed by
    the run; ``score_thr``, when given, goes to the runs that read it.
    Runs in the current directory."""
    emit_gt(ds, "gt.json")
    emit_final_dets(ds, "dets.json")
    emit_raw_dets(ds, "raw.json")
    outputs = {}
    for argv, piped in _cli_runs():
        thr = ["--score-thr", repr(score_thr)] if piped and score_thr is not None else []
        assert cli.main(argv + thr) == 0
        for name in ("out.json", "pr.csv"):
            if os.path.exists(name):
                with open(name, "rb") as f:
                    outputs[(" ".join(argv), name)] = f.read().splitlines()
                os.remove(name)
    return outputs


@pytest.mark.parametrize("name", sorted(CLI_DATASETS))
@pytest.mark.parametrize("k", (2.0, 0.5))
def test_resizing_by_a_power_of_two_keeps_every_cli_byte(name, k, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ds = CLI_DATASETS[name]
    assert all(w * k == int(w * k) and h * k == int(h * k) for _, w, h in ds.images)
    assert _cli_outputs(_resized(ds, k)) == _cli_outputs(ds)


@pytest.mark.parametrize("name", sorted(CLI_DATASETS))
def test_halving_scores_and_score_thr_changes_only_the_score_thr_line(name, tmp_path, monkeypatch):
    # --dets reports stay byte-identical; a run that reads the pipeline
    # reports its score_thr, the one line that changes.
    monkeypatch.chdir(tmp_path)
    ds = CLI_DATASETS[name]
    thr = PipelineConfig().score_thr
    got, want = _cli_outputs(_halved_scores(ds), thr / 2), _cli_outputs(ds, thr)
    assert got.keys() == want.keys()
    changed = set()
    for key in want:
        assert len(got[key]) == len(want[key])
        for a, b in zip(got[key], want[key]):
            if a != b:
                assert a.lstrip().startswith(b'"score_thr": ') and b.lstrip().startswith(b'"score_thr": ')
                changed.add(key[0])
    assert changed == {" ".join(argv) for argv, piped in _cli_runs() if piped}
