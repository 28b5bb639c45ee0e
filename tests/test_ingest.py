"""Loaders, writers, the deterministic JSON form, synthetic data."""

import copy
import hashlib
import json
import math
import os
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import corrdet.cli as cli
import corrdet.ingest as ingest
from corrdet import (
    Box,
    CorrdetError,
    Dataset,
    DimensionError,
    FinalBatch,
    GtBatch,
    ParseError,
    PipelineConfig,
    RawBatch,
    SchemaError,
    iou,
    load_final_dets,
    load_gt,
    load_raw_dets,
    load_report,
    postprocess,
    render_report,
    synth,
    write_report,
)
from corrdet.errors import ReferenceError as DanglingReference
from corrdet.ingest import emit_final_dets, emit_gt, emit_raw_dets, fmt_float


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def gt_doc(**overrides):
    doc = {
        "categories": [{"id": 7, "name": "cat"}, {"id": 3, "name": "dog"}],
        "images": [{"id": 1, "width": 100, "height": 80}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 3, "bbox": [10.0, 10.0, 20.0, 30.0], "iscrowd": 0}
        ],
    }
    doc.update(overrides)
    return doc


def test_load_gt_basic(tmp_path):
    ds = load_gt(write(tmp_path, "gt.json", gt_doc()))
    assert ds.categories == ((7, "cat"), (3, "dog"))
    assert ds.images == ((1, 100, 80),)
    # category ids remap to indices in file order: 3 -> index 1
    assert len(ds.gts) == 1
    assert ds.gts[0].class_id == 1
    assert ds.gts[0].box == Box(10.0, 10.0, 30.0, 40.0)
    assert ds.raw_dets is None and ds.final_dets is None


def test_load_gt_clips_to_image_bounds(tmp_path):
    doc = gt_doc()
    doc["annotations"][0]["bbox"] = [90.0, 70.0, 50.0, 50.0]
    ds = load_gt(write(tmp_path, "gt.json", doc))
    assert ds.gts[0].box == Box(90.0, 70.0, 100.0, 80.0)


def test_load_gt_errors(tmp_path):
    with pytest.raises(ParseError):
        load_gt(str(tmp_path / "missing.json"))
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(ParseError):
        load_gt(str(p))
    p.write_bytes(b'{"categories": "\xff"}')  # not UTF-8
    with pytest.raises(ParseError):
        load_gt(str(p))
    p.write_text("[" * 200_000)  # deeper than the parser recurses
    with pytest.raises(ParseError):
        load_gt(str(p))

    cases = [
        ({"categories": [{"id": 7}]}, SchemaError),                      # missing name
        ({"categories": [{"id": True, "name": "x"}]}, SchemaError),      # bool is not int
        ({"categories": [{"id": 7, "name": "a"}, {"id": 7, "name": "b"}]}, SchemaError),
        ({"images": [{"id": 1, "width": 0, "height": 80}]}, SchemaError),
        ({"images": [{"id": 1, "width": 100, "height": 80}, {"id": 1, "width": 9, "height": 9}]}, SchemaError),
    ]
    for overrides, exc in cases:
        with pytest.raises(exc):
            load_gt(write(tmp_path, "bad.json", gt_doc(**overrides)))

    ann_cases = [
        ({"image_id": 99}, DanglingReference),
        ({"category_id": 99}, DanglingReference),
        ({"iscrowd": 1}, SchemaError),
        ({"bbox": [0.0, 0.0, 20.0]}, SchemaError),
        ({"bbox": [0.0, 0.0, 0.0, 30.0]}, SchemaError),
        ({"bbox": [200.0, 10.0, 20.0, 30.0]}, SchemaError),  # fully outside, degenerate clip
    ]
    for patch, exc in ann_cases:
        doc = gt_doc()
        doc["annotations"][0].update(patch)
        with pytest.raises(exc):
            load_gt(write(tmp_path, "bad_ann.json", doc))


def test_too_deep_json_exits_2_without_traceback(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert cli.main(["eval", "--gt", str(deep), "--dets", str(deep)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "nests too deeply" in err[0]


def test_load_raw_dets(tmp_path):
    ds = load_gt(write(tmp_path, "gt.json", gt_doc()))
    dets = {
        "detections": [
            {"image_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0], "scores": [0.5, 0.25]},
            {"image_id": 1, "bbox": [20.0, 0.0, 40.0, 10.0], "scores": [0.1, 0.9]},
        ]
    }
    out = load_raw_dets(write(tmp_path, "raw.json", dets), ds)
    assert set(out.raw_dets) == {1}
    assert out.raw_dets[1][0].class_scores == (0.5, 0.25)
    assert out.raw_dets[1][1].box == Box(20.0, 0.0, 40.0, 10.0)

    bad = {"detections": [{"image_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0], "scores": [0.5]}]}
    with pytest.raises(DimensionError):
        load_raw_dets(write(tmp_path, "bad.json", bad), ds)
    bad = {"detections": [{"image_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0], "scores": [0.5, 1.5]}]}
    with pytest.raises(SchemaError):
        load_raw_dets(write(tmp_path, "bad2.json", bad), ds)
    bad = {"detections": [{"image_id": 4, "bbox": [0.0, 0.0, 10.0, 10.0], "scores": [0.5, 0.5]}]}
    with pytest.raises(DanglingReference):
        load_raw_dets(write(tmp_path, "bad3.json", bad), ds)


def test_load_final_dets(tmp_path):
    ds = load_gt(write(tmp_path, "gt.json", gt_doc()))
    results = [
        {"image_id": 1, "category_id": 3, "bbox": [10.0, 10.0, 20.0, 30.0], "score": 0.8},
    ]
    out = load_final_dets(write(tmp_path, "res.json", results), ds)
    assert len(out.final_dets) == 1
    d = out.final_dets[0]
    assert d.class_id == 1 and d.score == 0.8 and d.image_id == 1
    assert d.box == Box(10.0, 10.0, 30.0, 40.0)

    with pytest.raises(SchemaError):
        load_final_dets(write(tmp_path, "bad.json", {"not": "a list"}), ds)
    with pytest.raises(SchemaError):
        load_final_dets(
            write(tmp_path, "bad2.json", [dict(results[0], score=-0.1)]), ds
        )


_RAW = {"image_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0], "scores": [0.5, 0.25]}
_FINAL = {"image_id": 1, "category_id": 3, "bbox": [10.0, 10.0, 20.0, 30.0], "score": 0.8}
_HUGE_INT = 10**400  # a JSON integer literal beyond the float range

# (file, field, bad value) on gt_doc()'s 100x80 image; every row is a SchemaError
_MALFORMED = [
    pytest.param("raw", "scores", [1.5, 0.25], id="raw-score-above-1"),
    pytest.param("raw", "scores", [-0.1, 0.25], id="raw-score-below-0"),
    pytest.param("raw", "scores", [math.nan, 0.25], id="raw-score-nan"),
    pytest.param("raw", "scores", [math.inf, 0.25], id="raw-score-inf"),
    pytest.param("raw", "scores", [True, 0.25], id="raw-score-bool"),
    pytest.param("raw", "scores", [None, 0.25], id="raw-score-null"),
    pytest.param("raw", "scores", ["0.5", 0.25], id="raw-score-string"),
    pytest.param("raw", "scores", [_HUGE_INT, 0.25], id="raw-score-huge-int"),
    pytest.param("raw", "bbox", [10.0, 0.0, 10.0, 10.0], id="raw-bbox-x2-at-x1"),
    pytest.param("raw", "bbox", [0.0, 0.0, math.inf, 10.0], id="raw-bbox-inf"),
    pytest.param("raw", "bbox", [200.0, 0.0, 300.0, 10.0], id="raw-bbox-outside"),
    pytest.param("raw", "bbox", [0.0, 0.0, _HUGE_INT, 10.0], id="raw-bbox-huge-int"),
    pytest.param("gt", "bbox", [10.0, 10.0, 0.0, 30.0], id="gt-bbox-w-0"),
    pytest.param("gt", "bbox", [10.0, 10.0, 20.0, -1.0], id="gt-bbox-h-negative"),
    pytest.param("gt", "bbox", [200.0, 10.0, 20.0, 30.0], id="gt-bbox-outside"),
    pytest.param("gt", "bbox", [0.0, 0.0, 1e-200, 1e-200], id="gt-bbox-area-underflows"),
    pytest.param("gt", "bbox", [0.0, 0.0, _HUGE_INT, 30.0], id="gt-bbox-huge-int"),
    pytest.param("final", "score", -0.1, id="final-score-below-0"),
    pytest.param("final", "score", 1.5, id="final-score-above-1"),
    pytest.param("final", "score", math.nan, id="final-score-nan"),
    pytest.param("final", "score", True, id="final-score-bool"),
    pytest.param("final", "score", _HUGE_INT, id="final-score-huge-int"),
]


@pytest.mark.parametrize(("kind", "key", "value"), _MALFORMED)
def test_malformed_record_is_a_schema_error(tmp_path, capsys, kind, key, value):
    gt = gt_doc()
    dets_flag, dets = "--dets", [_FINAL]
    if kind == "gt":
        gt["annotations"][0][key] = value
    elif kind == "raw":
        dets_flag, dets = "--raw-dets", {"detections": [dict(_RAW, **{key: value})]}
    else:
        dets = [dict(_FINAL, **{key: value})]
    gt_path = write(tmp_path, "gt.json", gt)
    dets_path = write(tmp_path, "dets.json", dets)

    with pytest.raises(SchemaError):
        if kind == "gt":
            load_gt(gt_path)
        elif kind == "raw":
            load_raw_dets(dets_path, load_gt(gt_path))
        else:
            load_final_dets(dets_path, load_gt(gt_path))

    capsys.readouterr()
    assert cli.main(["eval", "--gt", gt_path, dets_flag, dets_path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# (file, patch, error type, message) for records whose checks no row above reaches
_BAD_RECORDS = [
    pytest.param("gt", {"categories": [{"id": 7, "name": 7}, {"id": 3, "name": "dog"}]}, SchemaError,
                 "categories[0]: name must be a string", id="gt-category-name-not-string"),
    pytest.param("raw", {"scores": 0.5}, SchemaError, "detections[0]: scores must be a list", id="raw-scores-not-list"),
    pytest.param("final", {"image_id": 4}, DanglingReference, "results[0]: unknown image id 4", id="final-unknown-image"),
    pytest.param("final", {"category_id": 99}, DanglingReference, "results[0]: unknown category id 99",
                 id="final-unknown-category"),
]


@pytest.mark.parametrize(("kind", "patch", "exc", "message"), _BAD_RECORDS)
def test_bad_record_has_typed_error_and_exits_2(tmp_path, capsys, kind, patch, exc, message):
    gt = gt_doc(**patch) if kind == "gt" else gt_doc()
    dets_flag, dets = "--dets", [_FINAL]
    if kind == "raw":
        dets_flag, dets = "--raw-dets", {"detections": [dict(_RAW, **patch)]}
    elif kind == "final":
        dets = [dict(_FINAL, **patch)]
    gt_path = write(tmp_path, "gt.json", gt)
    dets_path = write(tmp_path, "dets.json", dets)

    with pytest.raises(exc) as caught:
        if kind == "gt":
            load_gt(gt_path)
        elif kind == "raw":
            load_raw_dets(dets_path, load_gt(gt_path))
        else:
            load_final_dets(dets_path, load_gt(gt_path))
    assert message in str(caught.value)

    capsys.readouterr()
    assert cli.main(["eval", "--gt", gt_path, dets_flag, dets_path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


_HUGE_IMAGE = [{"id": 1, "width": _HUGE_INT, "height": 80}]

# (GT patch, detections flag, detections file, message) for list fields that
# are not lists and for image sizes beyond the float range; every row is a
# SchemaError, and "{gt}"/"{dets}" stand for the two file paths
_BAD_DOCUMENTS = [
    pytest.param({"categories": 5}, "--dets", [_FINAL], "{gt}: categories must be a list", id="categories-number"),
    pytest.param({"categories": {"x": 1}}, "--dets", [_FINAL], "{gt}: categories must be a list",
                 id="categories-object"),
    pytest.param({"images": 5}, "--dets", [_FINAL], "{gt}: images must be a list", id="images-number"),
    pytest.param({"annotations": None}, "--dets", [_FINAL], "{gt}: annotations must be a list", id="annotations-null"),
    pytest.param({}, "--raw-dets", {"detections": 7}, "{dets}: detections must be a list", id="detections-number"),
    pytest.param({}, "--raw-dets", {"detections": {"x": 1}}, "{dets}: detections must be a list",
                 id="detections-object"),
    pytest.param({}, "--dets", {"x": 1}, "{dets}: results must be a list", id="results-object"),
    pytest.param({"images": _HUGE_IMAGE}, "--dets", [_FINAL], "{gt}: images[0]: number out of float range",
                 id="huge-width-with-annotation"),
    pytest.param({"images": _HUGE_IMAGE, "annotations": []}, "--dets", [_FINAL],
                 "{gt}: images[0]: number out of float range", id="huge-width-with-results"),
    pytest.param({"images": _HUGE_IMAGE, "annotations": []}, "--raw-dets", {"detections": [_RAW]},
                 "{gt}: images[0]: number out of float range", id="huge-width-with-raw-detections"),
]


@pytest.mark.parametrize(("patch", "dets_flag", "dets", "message"), _BAD_DOCUMENTS)
def test_bad_document_names_its_field_and_exits_2(tmp_path, capsys, patch, dets_flag, dets, message):
    gt_path = write(tmp_path, "gt.json", gt_doc(**patch))
    dets_path = write(tmp_path, "dets.json", dets)
    message = message.format(gt=gt_path, dets=dets_path)
    load_dets = load_raw_dets if dets_flag == "--raw-dets" else load_final_dets

    with pytest.raises(SchemaError) as caught:
        load_dets(dets_path, load_gt(gt_path))
    assert str(caught.value) == message

    capsys.readouterr()
    assert cli.main(["eval", "--gt", gt_path, dets_flag, dets_path]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


# Faults for the loader differential test.  Each takes hypothesis' draw and
# the GT and final documents, and breaks (or, for some, only bends) them in
# place; a final document ending in this marker is written as {"x": 1}.
# Faults compose, so each one reaches records through these helpers, which
# skip what an earlier fault has already broken.
_RESULTS_NOT_A_LIST = "results-not-a-list"


def _dicts(*lists):
    return [r for lst in lists if isinstance(lst, list) for r in lst if isinstance(r, dict)]


def _pick(draw, *lists):
    records = _dicts(*lists)
    return draw(st.sampled_from(records)) if records else {}


def _bbox(draw, gt, fin):
    """Some record's [x, y, w, h] list, or None."""
    bbox = _pick(draw, gt.get("annotations"), fin).get("bbox")
    return bbox if isinstance(bbox, list) and len(bbox) == 4 else None


def _number_trap(values):
    def fault(draw, gt, fin):
        value = draw(st.sampled_from(values))
        kind = draw(st.sampled_from(("bbox", "score", "image-side")))
        if kind == "bbox":
            bbox = _bbox(draw, gt, fin)
            if bbox is not None:
                bbox[draw(st.integers(0, 3))] = value
        elif kind == "score":
            _pick(draw, fin)["score"] = value
        else:
            _pick(draw, gt.get("images"))[draw(st.sampled_from(("width", "height")))] = value

    return fault


def _add_overflow(draw, gt, fin):
    # x + w (or y + h) overflows; or sides near the float maximum make the area overflow
    bbox = _bbox(draw, gt, fin)
    if bbox is None:
        return
    if draw(st.booleans()):
        axis = draw(st.integers(0, 1))
        bbox[axis] = bbox[axis + 2] = draw(st.sampled_from((1.5e308, -1.5e308)))
    else:
        for im in _dicts(gt.get("images")):
            im["width"] = im["height"] = 10**308
        bbox[:] = [0.0, 0.0, 1e308, 1e308]


def _signed_zero(draw, gt, fin):
    # a valid box whose x1 or y1 is -0.0, which the walk keeps
    bbox = _bbox(draw, gt, fin)
    if bbox is not None:
        bbox[draw(st.integers(0, 1))] = -0.0


def _clipped(draw, gt, fin):
    bbox = _bbox(draw, gt, fin)
    if bbox is not None:
        bbox[0] = draw(st.sampled_from((-5.5, -1e-300, 500.0)))
        bbox[2] = draw(st.sampled_from((600.0, 1e300, 1e-300)))


def _missing_key(draw, gt, fin):
    if draw(st.integers(0, 9)) == 0 and gt:
        del gt[draw(st.sampled_from(sorted(gt)))]
        return
    record = _pick(draw, gt.get("categories"), gt.get("images"), gt.get("annotations"), fin)
    if record:
        del record[draw(st.sampled_from(sorted(record)))]


def _not_a_list(draw, gt, fin):
    value = draw(st.sampled_from(({"x": 1}, "list", 5, None)))
    where = draw(st.sampled_from(("categories", "images", "annotations", "bbox", "results")))
    if where == "bbox":
        record = _pick(draw, gt.get("annotations"), fin)
        if record:
            record["bbox"] = value
    elif where == "results":
        fin.append(_RESULTS_NOT_A_LIST)
    else:
        gt[where] = value


def _not_a_record(draw, gt, fin):
    records = draw(st.sampled_from((gt.get("categories"), gt.get("images"), gt.get("annotations"), fin)))
    if isinstance(records, list) and records:
        records[draw(st.integers(0, len(records) - 1))] = draw(st.sampled_from(([], "x", 3, None, [1, 2])))


def _bbox_shape(draw, gt, fin):
    bbox = _bbox(draw, gt, fin)
    if bbox is not None:
        x, y, w, h = bbox
        bbox[:] = draw(st.sampled_from(([x, y, w], [x, y, w, h, 1.0], [x, y, 0.0, h], [x, y, w, -h], [])))


def _unknown_id(draw, gt, fin):
    record = _pick(draw, gt.get("annotations"), fin)
    if record:
        record[draw(st.sampled_from(("image_id", "category_id")))] = draw(st.sampled_from((10**6, -1, True)))


def _duplicate_id(draw, gt, fin):
    # a second record with an existing id; every reference still resolves
    records = gt.get(draw(st.sampled_from(("categories", "images"))))
    record = _pick(draw, records)
    if record:
        records.append(dict(record))


def _extra_image(draw, gt, fin):
    # an image no record refers to, so only the image checks can refuse it
    images = gt.get("images")
    if isinstance(images, list):
        side = draw(st.sampled_from((0, -3, _HUGE_INT, 10**308, True, 64)))
        images.append({"id": 10**6 + len(images), "width": side, "height": 64})


def _category_name(draw, gt, fin):
    record = _pick(draw, gt.get("categories"))
    if record:
        record["name"] = draw(st.sampled_from((7, None, True, ["cat"], "")))


def _crowd(draw, gt, fin):
    record = _pick(draw, gt.get("annotations"))
    if record:
        record["iscrowd"] = draw(st.sampled_from((1, True, 0.0, None, 0)))


def _score(draw, gt, fin):
    record = _pick(draw, fin)
    if record:
        record["score"] = draw(st.sampled_from((1.0000000000000002, 2, 1, 0, -0.0, 1.0)))


_LOADER_FAULTS = [
    _number_trap((True, False)),
    _number_trap((math.nan, math.inf, -math.inf)),
    _number_trap((_HUGE_INT, -_HUGE_INT, 2**63 + 1, 2**64 + 1, 2**53 + 1, 10**308)),
    _number_trap((None, "1", [1.0])),
    _add_overflow,
    _signed_zero,
    _clipped,
    _missing_key,
    _not_a_list,
    _not_a_record,
    _bbox_shape,
    _unknown_id,
    _duplicate_id,
    _extra_image,
    _category_name,
    _crowd,
    _score,
]


def _outcome(load, *args):
    """The dataset a loader returns with every corner and score as bits,
    or the type and message of what it raises."""
    try:
        ds = load(*args)
    except Exception as e:  # any type: a crash in one path must show as a difference
        return type(e), str(e)
    boxes = [g.box for g in ds.gts] + [d.box for d in ds.final_dets or ()]
    bits = [v.hex() for b in boxes for v in (b.x1, b.y1, b.x2, b.y2)]
    bits += [d.score.hex() for d in ds.final_dets or ()]
    return ds, bits


@pytest.fixture(scope="module")
def synth_docs(tmp_path_factory):
    """A small synth dataset's GT and final-detection documents, parsed."""
    root = tmp_path_factory.mktemp("synth_docs")
    ds = synth(3, n_images=4, n_classes=3)
    emit_gt(ds, str(root / "gt.json"))
    emit_final_dets(ds, str(root / "final.json"))
    return root, load_report(str(root / "gt.json")), load_report(str(root / "final.json"))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_LOADER_FAULTS), min_size=1, max_size=2), st.data())
def test_column_loaders_equal_the_record_walk(synth_docs, faults, data):
    root, gt, fin = synth_docs
    gt, fin = copy.deepcopy(gt), copy.deepcopy(fin)
    for fault in faults:
        fault(data.draw, gt, fin)
    if _RESULTS_NOT_A_LIST in fin:
        fin = {"x": 1}
    gt_path = write(root, "gt_case.json", gt)
    fin_path = write(root, "final_case.json", fin)

    got = _outcome(load_gt, gt_path)
    assert got == _outcome(ingest._gt_walk, load_report(gt_path), gt_path)
    # what the walk loads, the columns load too: no valid file takes the slow path
    if isinstance(got[0], Dataset):
        assert isinstance(ingest._gt_columns(load_report(gt_path)), Dataset)
    # the finals load against the GT when it loads, else against the intact one
    base = got[0] if isinstance(got[0], Dataset) else load_gt(str(root / "gt.json"))
    got = _outcome(load_final_dets, fin_path, base)
    assert got == _outcome(ingest._final_walk, load_report(fin_path), fin_path, base)
    if isinstance(got[0], Dataset):
        assert isinstance(ingest._final_columns(load_report(fin_path), base), Dataset)


# Faults for the raw loader differential test.  Each takes hypothesis' draw,
# the raw detections document and the dataset it loads against, breaks (or
# bends) the document in place and returns the dataset to load against.
def _raw_records(raw):
    dets = raw.get("detections")
    return [d for d in dets if isinstance(d, dict)] if isinstance(dets, list) else []


def _raw_pick(draw, raw):
    records = _raw_records(raw)
    return draw(st.sampled_from(records)) if records else {}


def _raw_value(values):
    def fault(draw, raw, ds):
        record = _raw_pick(draw, raw)
        key = draw(st.sampled_from(("bbox", "scores")))
        if isinstance(record.get(key), list) and record[key]:
            record[key][draw(st.integers(0, len(record[key]) - 1))] = draw(st.sampled_from(values))
        return ds

    return fault


def _raw_integer_scores(draw, raw, ds):
    record = _raw_pick(draw, raw)
    if isinstance(record.get("scores"), list):
        record["scores"] = [draw(st.sampled_from((0, 1))) for _ in record["scores"]]
    return ds


def _raw_score_count(draw, raw, ds):
    record = _raw_pick(draw, raw)
    if isinstance(record.get("scores"), list):
        record["scores"] = draw(st.sampled_from((record["scores"][:-1], record["scores"] + [0.5], [])))
    return ds


def _raw_no_categories(draw, raw, ds):
    if draw(st.booleans()):  # each score list then has the length the walk checks
        for record in _raw_records(raw):
            record["scores"] = []
    return replace(ds, categories=(), gts=ds.gts[:0])  # a GT class would name no category


def _raw_no_detections(draw, raw, ds):
    raw["detections"] = []
    return ds


def _raw_unknown_image(draw, raw, ds):
    _raw_pick(draw, raw)["image_id"] = draw(st.sampled_from((10**6, -1, True, 1.0, None)))
    return ds


def _raw_sparse_ids(draw, raw, ds):
    # image ids far apart, out of order, negative or beyond 64 bits; the
    # GTs' image ids follow, as a dataset refuses a GT of an unknown image
    new_id = dict(zip((iid for iid, _, _ in ds.images), (7, -5, 10**30, 3)))
    for record in _raw_records(raw):
        if record.get("image_id") in new_id:
            record["image_id"] = new_id[record["image_id"]]
    gts = _with_column(ds.gts, "image_ids", [new_id[iid] for iid in ds.gts.image_ids])
    return replace(ds, images=tuple((new_id[iid], w, h) for iid, w, h in ds.images), gts=gts)


def _raw_interleaved(draw, raw, ds):
    # a record moves to another place, so an image's rows are no longer contiguous
    dets = raw.get("detections")
    if isinstance(dets, list) and dets:
        dets.insert(draw(st.integers(0, len(dets))), dets.pop(draw(st.integers(0, len(dets) - 1))))
    return ds


def _raw_not_a_list(draw, raw, ds):
    where = draw(st.sampled_from(("detections", "bbox", "scores")))
    value = draw(st.sampled_from(({"x": 1}, "list", 5, None)))
    if where == "detections":
        raw["detections"] = value
    else:
        record = _raw_pick(draw, raw)
        if record:
            record[where] = value
    return ds


def _raw_not_a_record(draw, raw, ds):
    dets = raw.get("detections")
    if isinstance(dets, list) and dets:
        dets[draw(st.integers(0, len(dets) - 1))] = draw(st.sampled_from(([], "x", 3, None)))
    return ds


def _raw_missing_key(draw, raw, ds):
    record = _raw_pick(draw, raw)
    if record:
        del record[draw(st.sampled_from(sorted(record)))]
    elif draw(st.booleans()):
        raw.pop("detections", None)
    return ds


def _raw_bbox(draw, raw, ds):
    # -0.0 corners, clipped corners, empty or inverted boxes, wrong lengths
    bbox = _raw_pick(draw, raw).get("bbox")
    if isinstance(bbox, list) and len(bbox) == 4:
        x1, y1, x2, y2 = bbox
        bbox[:] = draw(
            st.sampled_from(
                (
                    [-0.0, y1, x2, y2],
                    [x1, -0.0, x2, y2],
                    [-5.5, y1, 1e300, y2],
                    [x1, y1, x1, y2],
                    [x2, y1, x1, y2],
                    [600.0, y1, 700.0, y2],
                    [x1, y1, x2],
                    [x1, y1, x2, y2, 1.0],
                )
            )
        )
    return ds


def _raw_score(draw, raw, ds):
    record = _raw_pick(draw, raw)
    if isinstance(record.get("scores"), list) and record["scores"]:
        record["scores"][0] = draw(st.sampled_from((1.0000000000000002, -1e-300, -0.0, 1.0, 0.0)))
    return ds


_RAW_FAULTS = [
    _raw_value((True, False)),
    _raw_integer_scores,
    _raw_value((_HUGE_INT, -_HUGE_INT, 2**64 + 1, 2**53 + 1)),
    _raw_value((math.nan, math.inf, -math.inf)),
    _raw_value((None, "1", [1.0])),
    _raw_score_count,
    _raw_no_categories,
    _raw_no_detections,
    _raw_unknown_image,
    _raw_sparse_ids,
    _raw_interleaved,
    _raw_not_a_list,
    _raw_not_a_record,
    _raw_missing_key,
    _raw_bbox,
    _raw_score,
]


def _raw_outcome(load, *args):
    """Every image's detections with each corner and score as bits, in the
    loader's order, or the type and message of what it raises."""
    try:
        ds = load(*args)
    except Exception as e:  # any type: a crash in one path must show as a difference
        return type(e), str(e)
    return [
        (iid, [v.hex() for d in dets for v in (d.box.x1, d.box.y1, d.box.x2, d.box.y2, *d.class_scores)])
        for iid, dets in ds.raw_dets.items()
    ]


@pytest.fixture(scope="module")
def synth_raw(tmp_path_factory):
    """A small synth dataset and its raw detections document, parsed."""
    root = tmp_path_factory.mktemp("synth_raw")
    ds = synth(5, n_images=4, n_classes=3)
    emit_raw_dets(ds, str(root / "raw.json"))
    return root, replace(ds, raw_dets=None, final_dets=None), load_report(str(root / "raw.json"))


def _raw_by_columns(doc, ds):
    """The raw loader's column path on a parsed document: the file's
    columns, then the steps that read the dataset; None when a check fails."""
    found = ingest._raw_columns(doc)
    return None if found is None else ingest._raw_batches(*found, ds)


def _cache_of(path):
    """The columns cached for the raw file ``path`` as it now reads, or None."""
    key = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return ingest._cached(ingest._cache_path(path), key)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_RAW_FAULTS), min_size=1, max_size=2), st.data())
def test_raw_column_loader_equals_the_record_walk(synth_raw, faults, data):
    # a cold load, with no cache, and a warm one, which reads the cache the
    # cold one wrote; a fault in the dataset alone fails a hit over to the walk
    root, ds, raw = synth_raw
    raw = copy.deepcopy(raw)
    for fault in faults:
        ds = fault(data.draw, raw, ds)
    path = write(root, "raw_case.json", raw)
    walked = _raw_outcome(ingest._raw_walk, load_report(path), path, ds)
    shutil.rmtree(root / ".corrdet-cache", ignore_errors=True)
    cold = _raw_outcome(load_raw_dets, path, ds)
    assert cold == walked
    assert _raw_outcome(load_raw_dets, path, ds) == walked
    if isinstance(cold, list):  # the walk loaded it, so the columns must too
        assert isinstance(_raw_by_columns(load_report(path), ds), Dataset)
        iids = [d["image_id"] for d in raw["detections"]]
        # a file the walk loads is cached unless an image id needs more than 64 bits
        assert (_cache_of(path) is None) == any(not -(2**63) <= i < 2**63 for i in iids)


def test_raw_loader_reads_no_detections_without_categories(tmp_path):
    # the one raw document a GT without categories admits, by both paths
    ds = load_gt(write(tmp_path, "gt.json", gt_doc(categories=[], annotations=[])))
    doc = {"detections": []}
    assert load_raw_dets(write(tmp_path, "raw.json", doc), ds).raw_dets == {}
    assert _raw_by_columns(doc, ds).raw_dets == {}
    bad = {"detections": [{"image_id": 1, "bbox": [0.0, 0.0, 5.0, 5.0], "scores": []}]}
    assert _raw_by_columns(bad, ds) is None
    with pytest.raises(SchemaError, match="at least one entry"):
        load_raw_dets(write(tmp_path, "bad.json", bad), ds)


def _raw_two_boxes(score):
    """A raw document of two boxes of image 1, its first score ``score``."""
    return {"detections": [{"image_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0], "scores": [score, 0.25]},
                           {"image_id": 1, "bbox": [20.0, 0.0, 40.0, 10.0], "scores": [0.1, 0.9]}]}


def test_raw_cache_follows_the_bytes_not_the_file_stamp(tmp_path):
    ds = load_gt(write(tmp_path, "gt.json", gt_doc()))
    path = write(tmp_path, "raw.json", _raw_two_boxes(0.5))
    assert load_raw_dets(path, ds).raw_dets[1].scores[0, 0] == 0.5
    assert _cache_of(path) is not None
    before = os.stat(path)
    write(tmp_path, "raw.json", _raw_two_boxes(0.7))  # the same size
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size and os.stat(path).st_mtime_ns == before.st_mtime_ns
    assert load_raw_dets(path, ds).raw_dets[1].scores[0, 0] == 0.7
    # one cache file per input name, now holding the new bytes' columns
    assert os.listdir(tmp_path / ".corrdet-cache") == ["raw.json.npz"]
    assert _cache_of(path)[2][0, 0] == 0.7


def _savez(path, **fields):
    with open(path, "wb") as f:
        np.savez(f, **fields)


def _pickle(path, value):
    with open(path, "wb") as f:
        np.save(f, np.array([value], dtype=object), allow_pickle=True)


# Ways to spoil a cache file, given its path, its bytes and its fields; each
# that leaves columns names a first score of 0.75 where the file holds 0.5.
_SPOILED_CACHES = {
    "truncated": lambda cache, good, fields: cache.write_bytes(good[: len(good) // 2]),
    "garbage": lambda cache, good, fields: cache.write_bytes(b"PK\x03\x04 not a zip file"),
    "empty": lambda cache, good, fields: cache.write_bytes(b""),
    "old-version": lambda cache, good, fields: _savez(cache, **{**fields, "version": ingest._CACHE_VERSION - 1}),
    "wrong-digest": lambda cache, good, fields: _savez(cache, **{**fields, "key": hashlib.sha256(b"x").hexdigest()}),
    "pickled": lambda cache, good, fields: _pickle(cache, fields),
    "bad-shape": lambda cache, good, fields: _savez(cache, **{**fields, "corners": np.zeros((2, 3))}),
    "a-directory": lambda cache, good, fields: (cache.unlink(), cache.mkdir()),
}


@pytest.mark.parametrize("fault", _SPOILED_CACHES)
def test_raw_loader_reads_past_a_bad_cache_file(tmp_path, capfd, fault):
    ds = load_gt(write(tmp_path, "gt.json", gt_doc()))
    path = write(tmp_path, "raw.json", _raw_two_boxes(0.5))
    expected = _raw_outcome(load_raw_dets, path, ds)
    cache = Path(ingest._cache_path(path))
    with np.load(cache, allow_pickle=False) as npz:
        fields = {**npz, "scores": np.array([[0.75, 0.25], [0.1, 0.9]])}
    _SPOILED_CACHES[fault](cache, cache.read_bytes(), fields)
    assert _cache_of(path) is None
    assert _raw_outcome(load_raw_dets, path, ds) == expected
    assert capfd.readouterr() == ("", "")
    if fault != "a-directory":  # the miss wrote the file again, and it now hits
        assert _cache_of(path) is not None


def test_raw_loader_loads_where_no_cache_can_be_written(tmp_path, capfd):
    ds = load_gt(write(tmp_path, "gt.json", gt_doc()))
    (tmp_path / ".corrdet-cache").write_text("a file, not a directory")
    path = write(tmp_path, "raw.json", _raw_two_boxes(0.5))
    for _ in range(2):
        assert load_raw_dets(path, ds).raw_dets[1].scores[0, 0] == 0.5
    assert (tmp_path / ".corrdet-cache").read_text() == "a file, not a directory"
    assert capfd.readouterr() == ("", "")


def test_raw_loader_caches_no_image_id_beyond_64_bits(tmp_path):
    big = 2**64 + 1
    ds = load_gt(write(tmp_path, "gt.json", gt_doc(images=[{"id": big, "width": 100, "height": 80}],
                                                    annotations=[])))
    doc = _raw_two_boxes(0.5)
    for record in doc["detections"]:
        record["image_id"] = big
    path = write(tmp_path, "raw.json", doc)
    for _ in range(2):
        assert list(load_raw_dets(path, ds).raw_dets) == [big]
        assert not os.path.exists(ingest._cache_path(path))


def test_raw_loader_leaves_its_input_as_it_was(tmp_path):
    ds = load_gt(write(tmp_path, "gt.json", gt_doc()))
    path = write(tmp_path, "raw.json", _raw_two_boxes(0.5))
    before, stamp = Path(path).read_bytes(), os.stat(path).st_mtime_ns
    for _ in range(2):  # cold, then warm
        load_raw_dets(path, ds)
        assert Path(path).read_bytes() == before and os.stat(path).st_mtime_ns == stamp


# (file bytes, the ParseError's text after the path)
_UNREADABLE_RAW = {
    # json counts positions in the text a text-mode read makes, "\r\n" read as "\n"
    "crlf": (b'{\r\n  "detections": [\r\n    {"image_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0], '
             b'"scores": [0.5, 0.25]},\r\n    oops\r\n  ]\r\n}\r\n',
             " is not valid JSON: Expecting value: line 4 column 5 (char 100)"),
    "cr": (b'{\r"detections":\r[1,\r,]}', " is not valid JSON: Expecting value: line 4 column 1 (char 20)"),
    "not-utf-8": (b'{"detections": ["\xff"]}',
                  " is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"),
    "too-deep": (b"[" * 200_000, " nests too deeply to parse"),
}


@pytest.mark.parametrize("case", _UNREADABLE_RAW)
def test_raw_loader_words_a_parse_error_as_a_text_read_does(tmp_path, case):
    data, message = _UNREADABLE_RAW[case]
    ds = load_gt(write(tmp_path, "gt.json", gt_doc()))
    path = tmp_path / "raw.json"
    path.write_bytes(data)
    for _ in range(2):
        with pytest.raises(ParseError) as e:
            load_raw_dets(str(path), ds)
        assert str(e.value) == f"{path}{message}"
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ParseError, match=re.escape(f"cannot read {missing}: [Errno 2] No such file or directory")):
        load_raw_dets(missing, ds)


def test_raw_loader_reads_one_batch_per_image(tmp_path):
    # images in order of their first detection, rows in file order, and
    # every image's batch a view of the same two arrays
    ds = load_gt(write(tmp_path, "gt.json", gt_doc(images=[{"id": i, "width": 100, "height": 80} for i in (1, 2)])))
    rows = [(2, [0.0, 0.0, 10.0, 10.0], [0.5, 0.25]), (1, [1.0, 0.0, 10.0, 10.0], [0.1, 0.2]),
            (2, [2.0, 0.0, 10.0, 10.0], [0.3, 0.4])]
    raw = {"detections": [{"image_id": i, "bbox": b, "scores": s} for i, b, s in rows]}
    out = load_raw_dets(write(tmp_path, "raw.json", raw), ds)
    assert list(out.raw_dets) == [2, 1]
    batch = out.raw_dets[2]
    assert isinstance(batch, RawBatch)
    assert batch.boxes.tolist() == [[0.0, 0.0, 10.0, 10.0], [2.0, 0.0, 10.0, 10.0]]
    assert batch.scores.tolist() == [[0.5, 0.25], [0.3, 0.4]]
    assert batch.scores.base is out.raw_dets[1].scores.base
    assert not batch.boxes.flags.writeable and not batch.scores.flags.writeable


def test_raw_round_trip_is_byte_identical(tmp_path):
    ds = synth(6, n_images=5, n_classes=4)
    gt_p, raw_p, again_p = (str(tmp_path / n) for n in ("gt.json", "raw.json", "again.json"))
    emit_gt(ds, gt_p)
    emit_raw_dets(ds, raw_p)
    loaded = load_raw_dets(raw_p, load_gt(gt_p))
    emit_raw_dets(loaded, again_p)
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "raw.json").read_bytes()
    # a loaded batch equals the objects it came from, either way round
    for iid, dets in ds.raw_dets.items():
        assert loaded.raw_dets[iid] == dets and dets == loaded.raw_dets[iid]
        assert list(loaded.raw_dets[iid]) == list(dets)


def _with_column(batch, name, value):
    """``batch`` with its column or shared argument ``name`` replaced by ``value``."""
    return type(batch)(*(value if n == name else getattr(batch, n) for n in batch._COLUMNS + batch._SHARED))


def _raw_scores_of_image_4(ds, scores):
    return {"raw_dets": {**ds.raw_dets, 4: _with_column(ds.raw_dets[4], "scores", scores)}}


# fault: (the changed fields of synth(0, 6, 3, 0.3), the error, its message)
_CROSS_BATCH_FAULTS = {
    "gt-class-7": (
        lambda ds: {"gts": _with_column(ds.gts, "class_ids", np.full_like(ds.gts.class_ids, 7))},
        DanglingReference,
        r"ground truth: class index 7 outside \[0, 3\)",
    ),
    "gt-class-negative": (
        lambda ds: {"gts": _with_column(ds.gts, "class_ids", ds.gts.class_ids - 1)},
        DanglingReference,
        r"ground truth: class index -1 outside \[0, 3\)",
    ),
    "final-class-3": (
        lambda ds: {"final_dets": _with_column(ds.final_dets, "class_ids", ds.final_dets.class_ids + 1)},
        DanglingReference,
        r"final detections: class index 3 outside \[0, 3\)",
    ),
    "raw-width-2": (
        lambda ds: _raw_scores_of_image_4(ds, ds.raw_dets[4].scores[:, :2]),
        DimensionError,
        "raw detections of image 4: got 2 scores for 3 categories",
    ),
    "raw-width-4": (
        lambda ds: _raw_scores_of_image_4(ds, np.pad(ds.raw_dets[4].scores, ((0, 0), (0, 1)))),
        DimensionError,
        "raw detections of image 4: got 4 scores for 3 categories",
    ),
    "raw-unknown-image": (
        lambda ds: {"raw_dets": {**ds.raw_dets, 99: ds.raw_dets[1]}},
        DanglingReference,
        "raw detections: unknown image id 99",
    ),
    # the writers would write these rows, and the loaders refuse the file
    "gt-unknown-image": (
        lambda ds: {"gts": (*ds.gts, replace(ds.gts[0], image_id=7))},
        DanglingReference,
        r"ground truth: row \d+ has unknown image id 7",
    ),
    "final-unknown-image": (
        lambda ds: {"final_dets": (*ds.final_dets, replace(ds.final_dets[0], image_id=7))},
        DanglingReference,
        r"final detections: row \d+ has unknown image id 7",
    ),
}


@pytest.mark.parametrize("fault", _CROSS_BATCH_FAULTS)
def test_dataset_refuses_references_across_batches(fault):
    # each fault once ended in a bare IndexError inside beta_img or the
    # image-level bounds, let coco_ap or the class-level bounds return a
    # value, or was left to the writers; now the dataset is not built
    ds = synth(0, 6, 3, 0.3)
    changed, error, message = _CROSS_BATCH_FAULTS[fault]
    with pytest.raises(error, match=f"^{message}$"):
        replace(ds, **changed(ds))
    # an empty raw batch reads no scores, whatever its width
    empty = RawBatch(np.empty((0, 4)), np.empty((0, 0)))
    assert replace(ds, raw_dets={**ds.raw_dets, 4: empty}).raw_dets[4] is empty


# Faults for test_batches_and_datasets_refuse_a_bad_value.  Each takes
# hypothesis' draw and a batch of synth(0, 6, 3, 0.3), and returns the
# column or shared argument it replaces, the replacement, the start of
# the error message and the row the message must name (None: a fault of
# the column's shape or type, which no row holds).
def _row(draw, batch):
    return draw(st.integers(0, len(batch) - 1))


def _in(batch, column):
    return f"{type(batch).__name__}.{column}"


def _box_value(draw, batch):
    boxes, row = batch.boxes.copy(), _row(draw, batch)
    value = draw(st.sampled_from((math.nan, math.inf, -math.inf, "zero-area")))
    if value == "zero-area":
        boxes[row, 2] = boxes[row, 0]
    else:
        boxes[row, draw(st.integers(0, 3))] = value
    return "boxes", boxes, _in(batch, "boxes"), row


def _box_form(draw, batch):
    wide = np.pad(batch.boxes, ((0, 0), (0, 1)))
    return "boxes", wide if draw(st.booleans()) else batch.boxes.astype(np.float32), _in(batch, "boxes"), None


def _score_value(draw, batch):
    scores, row = batch.scores.copy(), _row(draw, batch)
    at = (row, draw(st.integers(0, scores.shape[1] - 1))) if scores.ndim == 2 else row
    scores[at] = draw(st.sampled_from((1.5, -1e-300, math.nan)))
    return "scores", scores, _in(batch, "scores"), row


def _image_index(draw, batch):
    images, row = batch.images.copy(), _row(draw, batch)
    images[row] = draw(st.sampled_from((-1, len(batch.image_ids))))
    return "images", images, _in(batch, "images"), row


def _image_repeat(draw, batch):
    ids, k = list(batch.image_ids), draw(st.integers(1, len(batch.image_ids) - 1))
    ids[k] = ids[draw(st.integers(0, k - 1))]
    return "image_ids", ids, _in(batch, "image_ids"), k


def _misaligned(draw, batch):
    name = draw(st.sampled_from(batch._COLUMNS))
    # the box column sets the row count, so a short one makes the next column the long one
    return name, getattr(batch, name)[:-1], _in(batch, batch._COLUMNS[1] if name == "boxes" else name), None


def _unknown_image(draw, batch):
    # the batch is sound; the dataset refuses the rows of an image id it lacks
    ids, row = list(batch.image_ids), _row(draw, batch)
    ids[batch.images[row]] = 10**6
    what = "ground truth" if isinstance(batch, GtBatch) else "final detections"
    return "image_ids", ids, what, int(np.flatnonzero(batch.images == batch.images[row])[0])


# fault: (the batches it may hit, the change)
_VALUE_FAULTS = {
    "box-value": (("gts", "final_dets", "raw_dets"), _box_value),
    "box-form": (("gts", "final_dets", "raw_dets"), _box_form),
    "score-value": (("final_dets", "raw_dets"), _score_value),
    "image-index": (("gts", "final_dets"), _image_index),
    "image-repeat": (("gts", "final_dets"), _image_repeat),
    "misaligned": (("gts", "final_dets", "raw_dets"), _misaligned),
    "unknown-image": (("gts", "final_dets"), _unknown_image),
}


def _some_batch(draw, ds, kinds):
    """One batch of ``ds`` of the kinds named, with rows, and a function
    that gives the changed fields of ``ds`` holding a batch in its place."""
    kind = draw(st.sampled_from(kinds))
    if kind != "raw_dets":
        return getattr(ds, kind), lambda batch: {kind: batch}
    iid = draw(st.sampled_from([iid for iid, raw in ds.raw_dets.items() if len(raw)]))
    return ds.raw_dets[iid], lambda batch: {"raw_dets": {**ds.raw_dets, iid: batch}}


@pytest.mark.parametrize("fault", _VALUE_FAULTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batches_and_datasets_refuse_a_bad_value(fault, data):
    # A batch or dataset built in memory is refused when built, with a
    # ValueError (a batch) or a CorrdetError (a dataset) naming the column
    # and the row, so no measure ever reads it: none can return a value or
    # end in an IndexError or KeyError.
    ds = synth(0, 6, 3, 0.3)
    kinds, change = _VALUE_FAULTS[fault]
    batch, place = _some_batch(data.draw, ds, kinds)
    name, value, start, row = change(data.draw, batch)
    with pytest.raises((ValueError, CorrdetError)) as refused:
        replace(ds, **place(_with_column(batch, name, value)))
    assert str(refused.value).startswith(f"{start}: ")
    assert row is None or re.search(rf"\brow {row}\b", str(refused.value))

    # a batch's rows taken unchecked equal the same rows built and checked, bit for bit
    batch, _ = _some_batch(data.draw, ds, ("gts", "final_dets", "raw_dets"))
    n = len(batch)
    rows = data.draw(st.slices(n) | st.lists(st.integers(-n, n - 1), max_size=8).map(lambda r: np.array(r, np.intp)))
    taken = batch._take(rows)
    built = type(batch)(*(getattr(batch, c)[rows] for c in batch._COLUMNS), *(getattr(batch, s) for s in batch._SHARED))
    for c in batch._COLUMNS:
        a, b = getattr(taken, c), getattr(built, c)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not a.flags.writeable and not b.flags.writeable
    for s in batch._SHARED:
        assert getattr(taken, s) is getattr(batch, s) and getattr(built, s) == getattr(batch, s)


def test_emit_without_detections_is_an_error(tmp_path):
    ds = load_gt(write(tmp_path, "gt.json", gt_doc()))
    with pytest.raises(ValueError, match="no raw detections"):
        emit_raw_dets(ds, str(tmp_path / "raw.json"))
    with pytest.raises(ValueError, match="no final detections"):
        emit_final_dets(ds, str(tmp_path / "final.json"))
    assert not (tmp_path / "raw.json").exists() and not (tmp_path / "final.json").exists()


def test_per_image_walks_every_image_in_file_order(tmp_path):
    size = {"width": 100, "height": 80}
    ann = {"category_id": 3, "bbox": [10.0, 10.0, 20.0, 30.0], "iscrowd": 0}
    doc = gt_doc(
        images=[dict(size, id=5), dict(size, id=1), dict(size, id=3)],
        annotations=[
            dict(ann, id=1, image_id=1),
            dict(ann, id=2, image_id=5),
            dict(ann, id=3, image_id=1, bbox=[40.0, 10.0, 20.0, 30.0]),
        ],
    )
    ds = load_gt(write(tmp_path, "gt.json", doc))
    with pytest.raises(ValueError, match="no raw detections"):
        ds.per_image()
    det = {"bbox": [0.0, 0.0, 10.0, 10.0], "scores": [0.5, 0.25]}
    raw = {"detections": [dict(det, image_id=3), dict(det, image_id=1), dict(det, image_id=3)]}
    ds = load_raw_dets(write(tmp_path, "raw.json", raw), ds)

    walk = ds.per_image()
    assert [iid for iid, _, _ in walk] == [5, 1, 3]
    # image 5 has GTs but no detections, image 3 detections but no GTs
    assert walk[0] == (5, (), (ds.gts[1],))
    assert walk[1] == (1, ds.raw_dets[1], (ds.gts[0], ds.gts[2]))
    assert walk[2] == (3, ds.raw_dets[3], ())
    assert len(ds.raw_dets[3]) == 2


def test_fmt_float():
    assert fmt_float(0.5) == "0.5"
    assert fmt_float(1.0) == "1.0"
    assert fmt_float(-2.0) == "-2.0"
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(1.0 / 3.0)) == 1.0 / 3.0
    assert float(fmt_float(1e300)) == 1e300
    with pytest.raises(ValueError):
        fmt_float(float("nan"))
    with pytest.raises(ValueError):
        fmt_float(float("inf"))


def _nextafter(x, toward):
    return float(np.nextafter(x, toward))


# exact floats where "%.17g" changes form: -0.0, integral values (which get
# ".0"), the sides of 1e16 (the last integral ones without an exponent)
# and 1e17, subnormals and the ends of the range
_EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 1.0, -3.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308]
    + [_nextafter(x, t) for x in (1e16, 1e17) for t in (0.0, math.inf)]
    + [1e16, 1e17, -1e16, 99999999999999984.0, 1e15 + 0.5]
)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS | st.integers(-(10**18), 10**18).map(float)


def _one_by_one(value, pad):
    """``render_report``'s text of a list, written one value at a time."""
    text = [f"{pad}  {str(int(v)) if isinstance(v, (int, np.integer)) else fmt_float(v)}" for v in value]
    return "[\n" + ",\n".join(text) + f"\n{pad}]"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_FLOATS, min_size=1, max_size=40)
    | st.lists(_FLOATS | st.integers(-(10**20), 10**20) | _FLOATS.map(np.float64), min_size=1, max_size=40),
    st.booleans(),
)
def test_render_report_writes_float_lists_as_fmt_float_does(values, as_tuple):
    # all-float lists are formatted at once; mixed ones (int, np.float64)
    # one value at a time; the text is the same
    values = tuple(values) if as_tuple else values
    assert render_report(values) == _one_by_one(values, "") + "\n"
    assert render_report({"v": values}) == '{\n  "v": ' + _one_by_one(values, "  ") + "\n}\n"
    # the writers' helper: each row of an array, its values joined, as
    # fmt_float writes each (rows with and without an integral value)
    texts = [fmt_float(v) for v in values]
    array = np.array([float(v) for v in values])
    assert ingest._float_texts(array[None, :], ",\n  ") == [",\n  ".join(texts)]
    assert ingest._float_texts(array[:, None], "") == texts
    if len(values) % 2 == 0:
        half = len(values) // 2
        assert ingest._float_texts(array.reshape(2, half), ", ") == [", ".join(texts[:half]), ", ".join(texts[half:])]


@settings(max_examples=100, deadline=None)
@given(st.lists(_FLOATS, max_size=10), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_render_report_refuses_a_non_finite_float_in_a_list(values, bad, data):
    values.insert(data.draw(st.integers(0, len(values))), bad)
    with pytest.raises(ValueError) as want:
        fmt_float(bad)
    with pytest.raises(ValueError) as got:
        render_report({"v": values})
    assert str(got.value) == str(want.value)


def test_render_report_golden():
    payload = {"b": [1, 2.5], "a": {"nested": None, "flag": True}, "s": "x"}
    expected = (
        "{\n"
        '  "a": {\n'
        '    "flag": true,\n'
        '    "nested": null\n'
        "  },\n"
        '  "b": [\n'
        "    1,\n"
        "    2.5\n"
        "  ],\n"
        '  "s": "x"\n'
        "}\n"
    )
    assert render_report(payload) == expected
    assert render_report({}) == "{}\n"
    assert render_report({"e": []}) == '{\n  "e": []\n}\n'


def test_render_report_handles_numpy_scalars():
    out = render_report({"i": np.int64(3), "f": np.float64(0.5)})
    assert '"i": 3' in out and '"f": 0.5' in out
    with pytest.raises(TypeError):
        render_report({"bad": object()})


def test_write_report_leaves_the_file_when_a_value_is_refused(tmp_path):
    # the text is rendered before the file is opened
    p = tmp_path / "report.json"
    p.write_text("kept\n")
    with pytest.raises(ValueError) as want:
        fmt_float(math.nan)
    with pytest.raises(ValueError) as got:
        write_report({"v": [1.0, math.nan]}, str(p))
    assert str(got.value) == str(want.value)
    with pytest.raises(TypeError):
        write_report({"v": object()}, str(p))
    assert p.read_text() == "kept\n"


def _oracle_rows(batch, dataset):
    """``(image id, category id, [x, y, w, h])`` of every row of ``batch``."""
    image_ids = [batch.image_ids[k] for k in batch.images.tolist()]
    category_ids = [cid for cid, _ in dataset.categories]
    xywh = np.concatenate((batch.boxes[:, :2], batch.boxes[:, 2:] - batch.boxes[:, :2]), axis=1)
    return zip(image_ids, [category_ids[c] for c in batch.class_ids.tolist()], xywh.tolist())


def _oracle_documents(dataset):
    """What each writer writes, as the records-as-dicts document that
    render_report turns into the same text: the oracle for its bytes."""
    gt = {
        "categories": [{"id": cid, "name": name} for cid, name in dataset.categories],
        "images": [{"id": iid, "width": w, "height": h} for iid, w, h in dataset.images],
        "annotations": [
            {"id": k + 1, "image_id": iid, "category_id": cid, "bbox": bbox, "iscrowd": 0}
            for k, (iid, cid, bbox) in enumerate(_oracle_rows(dataset.gts, dataset))
        ],
    }
    raw = {
        "detections": [
            {"image_id": iid, "bbox": box, "scores": scores}
            for iid, raw, _ in dataset.per_image()
            for box, scores in zip(raw.boxes.tolist(), raw.scores.tolist())
        ]
    }
    final = [
        {"image_id": iid, "category_id": cid, "bbox": bbox, "score": score}
        for (iid, cid, bbox), score in zip(_oracle_rows(dataset.final_dets, dataset), dataset.final_dets.scores.tolist())
    ]
    return {emit_gt: gt, emit_raw_dets: raw, emit_final_dets: final}


# integral coordinates (which get ".0"), -0.0, and the 1e16/1e17 edges
_COORDS = st.integers(-700, 700).map(float) | _EDGE_FLOATS | st.floats(-1e6, 1e6)
_SCORES = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)
# sides of 16 or more, so a corner up to 1e17 in size plus a side is a larger float
_SIDES = st.integers(16, 700).map(float) | st.floats(16.0, 1e6)


@st.composite
def _column_datasets(draw):
    """A dataset of hand-built batches: up to 4 images, some without
    detections, and batches that list the image ids in their own order."""
    n_classes = draw(st.integers(0, 3))
    cids = draw(st.lists(st.integers(-(10**20), 10**20), min_size=n_classes, max_size=n_classes, unique=True))
    names = draw(st.lists(st.text(max_size=3), min_size=n_classes, max_size=n_classes))
    iids = draw(st.lists(st.integers(-5, 10**20), max_size=4, unique=True))
    images = tuple((iid, draw(st.integers(1, 4000)), draw(st.integers(1, 4000))) for iid in iids)
    batch_ids = draw(st.permutations(iids))

    def rows(lo, hi):
        return draw(st.integers(lo, hi)) if iids and n_classes else 0

    def valid_boxes(n):  # a corner plus a positive width and height
        corner = draw(arrays(np.float64, (n, 2), elements=_COORDS.filter(lambda v: abs(v) < 1e300)))
        return np.concatenate((corner, corner + draw(arrays(np.float64, (n, 2), elements=_SIDES))), axis=1)

    def columns(n):
        boxes = valid_boxes(n)
        classes = np.array(draw(st.lists(st.integers(0, max(n_classes - 1, 0)), min_size=n, max_size=n)), dtype=np.intp)
        images = np.array(draw(st.lists(st.integers(0, max(len(iids) - 1, 0)), min_size=n, max_size=n)), dtype=np.intp)
        return boxes, classes, images

    gts = GtBatch(*columns(rows(0, 6)), batch_ids)
    n = rows(0, 6)
    boxes, classes, at = columns(n)
    finals = FinalBatch(boxes, classes, draw(arrays(np.float64, (n,), elements=_SCORES)), at, batch_ids)
    raw = {}
    for iid in draw(st.lists(st.sampled_from(iids), unique=True)) if iids else []:
        m = draw(st.integers(0, 3))
        raw[iid] = RawBatch(valid_boxes(m), draw(arrays(np.float64, (m, n_classes), elements=_SCORES)))
    return Dataset(tuple(zip(cids, names)), images, gts, raw, finals)


@settings(max_examples=150, deadline=None)
@given(_column_datasets())
def test_emitters_write_what_render_report_writes_of_their_records(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("emit") / "out.json"
    for emit, document in _oracle_documents(dataset).items():
        emit(dataset, str(path))
        assert path.read_text(encoding="utf-8") == render_report(document)


@settings(max_examples=60, deadline=None)
@given(_column_datasets(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_emitters_refuse_a_non_finite_column_value_as_fmt_float_does(tmp_path_factory, dataset, bad, data):
    # a value written into a batch's base array after the batch checked it
    # is not checked again; a non-finite one leaves the existing file as
    # it was, with fmt_float's error
    columns = [(emit_gt, dataset.gts.boxes), (emit_final_dets, dataset.final_dets.boxes),
               (emit_final_dets, dataset.final_dets.scores)]
    columns += [(emit_raw_dets, c) for raw in dataset.raw_dets.values() for c in (raw.boxes, raw.scores)]
    columns = [(emit, c) for emit, c in columns if c.size > 0]
    assume(columns)
    emit, column = data.draw(st.sampled_from(columns))
    column = column.base  # the batch's read-only view shares the array drawn
    column.flat[data.draw(st.integers(0, column.size - 1))] = bad
    with pytest.raises(ValueError) as want:
        render_report(_oracle_documents(dataset)[emit])
    assert str(want.value).startswith("cannot serialize non-finite number")
    path = tmp_path_factory.mktemp("emit") / "out.json"
    path.write_text("kept\n")
    with pytest.raises(ValueError) as got:
        emit(dataset, str(path))
    assert str(got.value) == str(want.value)
    assert path.read_text() == "kept\n"


def test_write_and_load_report_round_trip(tmp_path):
    report = {"ap": 0.123456789012345678, "n": 4, "rows": [{"k": 1.0 / 3.0}]}
    p = tmp_path / "report.json"
    write_report(report, str(p))
    loaded = load_report(str(p))
    assert loaded["ap"] == report["ap"]
    assert loaded["rows"][0]["k"] == 1.0 / 3.0


def test_synth_is_deterministic():
    a = synth(17, knob=0.4)
    b = synth(17, knob=0.4)
    assert a == b
    c = synth(18, knob=0.4)
    assert c != a


def test_synth_shapes_and_ranges():
    ds = synth(9, n_images=10, n_classes=4, knob=0.0)
    assert len(ds.images) == 10
    assert len(ds.categories) == 4
    assert ds.categories[0] == (1, "class_1")
    assert all(w == 512 and h == 512 for _, w, h in ds.images)
    for g in ds.gts:
        assert 0 <= g.class_id < 4
    for dets in ds.raw_dets.values():
        for d in dets:
            assert len(d.class_scores) == 4
            assert all(0.0 <= s <= 1.0 for s in d.class_scores)
    for d in ds.final_dets:
        assert 0.0 <= d.score <= 1.0


def test_synth_knob_validation():
    with pytest.raises(ValueError):
        synth(0, knob=1.5)


def test_synth_count_validation(tmp_path):
    with pytest.raises(ValueError, match="n_images >= 0"):
        synth(0, n_images=-3)
    with pytest.raises(ValueError, match="n_classes >= 1"):
        synth(0, n_classes=0)
    empty = synth(0, n_images=0)
    assert empty.images == () and empty.gts == () and empty.final_dets == ()
    emit_raw_dets(empty, str(tmp_path / "raw.json"))
    assert load_report(str(tmp_path / "raw.json")) == {"detections": []}


def test_synth_objects_are_isolated():
    # no detection overlaps a ground truth other than its own cell's
    ds = synth(29, knob=0.0)
    by_image = {}
    for g in ds.gts:
        by_image.setdefault(g.image_id, []).append(g)
    for iid, dets in ds.raw_dets.items():
        for d in dets:
            overlaps = [g for g in by_image.get(iid, []) if iou(d.box, g.box) > 0.0]
            assert len(overlaps) <= 1


def test_synth_duplicates_collapse_under_default_nms():
    # the raw -> pipeline path must leave at most one same-class final per
    # GT, or score order would decide which detection matches it
    cfg = PipelineConfig()
    for seed in range(25):
        ds = synth(seed, n_images=12, knob=0.0)
        finals = []
        for image_id, _, _ in ds.images:
            finals.extend(postprocess(ds.raw_dets.get(image_id, ()), cfg, image_id))
        for g in ds.gts:
            n = sum(
                1
                for d in finals
                if d.image_id == g.image_id
                and d.class_id == g.class_id
                and iou(d.box, g.box) >= 0.5
            )
            assert n <= 1


def test_synth_round_trip(tmp_path):
    from corrdet import emit_gt

    ds = synth(31, knob=-0.5)
    gt_p, raw_p, fin_p = (str(tmp_path / n) for n in ("gt.json", "raw.json", "fin.json"))
    emit_gt(ds, gt_p)
    emit_raw_dets(ds, raw_p)
    emit_final_dets(ds, fin_p)
    back = load_final_dets(fin_p, load_raw_dets(raw_p, load_gt(gt_p)))
    assert back.categories == ds.categories
    assert back.images == ds.images
    assert back.gts == ds.gts
    assert back.raw_dets == ds.raw_dets
    assert back.final_dets == ds.final_dets
