"""Loaders, writers, the deterministic JSON form, synthetic data."""

import json
import math

import numpy as np
import pytest

import corrdet.cli as cli
from corrdet import (
    Box,
    DimensionError,
    ParseError,
    PipelineConfig,
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
from corrdet.ingest import fmt_float


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
    from corrdet import emit_final_dets, emit_gt, emit_raw_dets

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
