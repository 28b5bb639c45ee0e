"""File ingestion, report emission, and synthetic dataset generation.

Formats:

* ground truth: the COCO annotation JSON subset -- top-level ``images``
  (id, width, height), ``annotations`` (id, image_id, category_id,
  bbox [x, y, w, h], optional iscrowd which must be 0), ``categories``
  (id, name).  Category ids may be arbitrary; they map to contiguous
  class indices [0, C) in file order and map back on emission.
* raw detections (no COCO standard exists pre-NMS): JSON object with
  ``detections``: list of {image_id, bbox [x1, y1, x2, y2], scores
  (C reals)}; corner form avoids a double conversion.
* final detections: the standard COCO results list [{image_id,
  category_id, bbox [x, y, w, h], score}].

All numbers are serialized with 17 significant digits, so emitted files
parse back to bit-identical values and identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import DimensionError, ParseError, ReferenceError, SchemaError
from .geometry import Box, GtObject, iou
from .pipeline import FinalDetection, RawDetection

__all__ = [
    "Dataset",
    "load_gt",
    "load_raw_dets",
    "load_final_dets",
    "emit_gt",
    "emit_raw_dets",
    "emit_final_dets",
    "fmt_float",
    "render_report",
    "write_report",
    "load_report",
    "synth",
]


@dataclass(frozen=True)
class Dataset:
    """Immutable in-memory dataset.

    ``categories`` pairs each original category id with its name; the
    position in the tuple is the class index used everywhere else.
    ``raw_dets`` maps image id to that image's raw detections (only
    images that have any).
    """

    categories: tuple[tuple[int, str], ...]
    images: tuple[tuple[int, int, int], ...]
    gts: tuple[GtObject, ...]
    raw_dets: dict[int, tuple[RawDetection, ...]] | None = None
    final_dets: tuple[FinalDetection, ...] | None = None


def _field(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    return obj[key]


# What json.load makes of a JSON number; bool is a subclass of int, not listed.
_NUMBER_TYPES = frozenset((int, float))


def _number(v: Any, where: str) -> float:
    """A JSON number (not a bool, string or null) as a float."""
    if type(v) not in _NUMBER_TYPES:
        raise SchemaError(f"{where}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as e:  # an integer literal beyond the float range
        raise SchemaError(f"{where}: number out of float range") from e


def _bbox(record: Any, where: str, form: str) -> list[float]:
    """The record's four bbox numbers, finite: clipping would silently turn
    an infinite corner into an image edge."""
    bbox = _field(record, "bbox", where)
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise SchemaError(f"{where}: bbox must be {form}")
    coords = [_number(v, where) for v in bbox]
    if not all(map(math.isfinite, coords)):
        raise SchemaError(f"{where}: bbox must be finite, got {bbox!r}")
    return coords


def _integer(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}: expected an integer, got {v!r}")
    return v


def _clip_box(x1: float, y1: float, x2: float, y2: float, size: tuple[int, int]) -> Box:
    """The box clipped to the image; ``Box`` rejects what clipping leaves empty."""
    w, h = size
    x1, x2 = min(max(x1, 0.0), float(w)), min(max(x2, 0.0), float(w))
    y1, y2 = min(max(y1, 0.0), float(h)), min(max(y2, 0.0), float(h))
    return Box(x1, y1, x2, y2)


def load_gt(path: str) -> Dataset:
    """Read COCO-style ground truth; see the module docstring for schema.

    Raises ParseError on unreadable/invalid JSON, SchemaError on missing
    or malformed fields (including degenerate boxes and iscrowd != 0),
    ReferenceError on dangling image/category ids.
    """
    doc = load_report(path)
    cats_raw = _field(doc, "categories", path)
    images_raw = _field(doc, "images", path)
    anns_raw = _field(doc, "annotations", path)

    categories: list[tuple[int, str]] = []
    for k, c in enumerate(cats_raw):
        where = f"{path}: categories[{k}]"
        cid = _integer(_field(c, "id", where), where)
        name = _field(c, "name", where)
        if not isinstance(name, str):
            raise SchemaError(f"{where}: name must be a string")
        if any(cid == other for other, _ in categories):
            raise SchemaError(f"{where}: duplicate category id {cid}")
        categories.append((cid, name))
    class_of = {cid: idx for idx, (cid, _) in enumerate(categories)}

    images: list[tuple[int, int, int]] = []
    size_of: dict[int, tuple[int, int]] = {}
    for k, im in enumerate(images_raw):
        where = f"{path}: images[{k}]"
        iid = _integer(_field(im, "id", where), where)
        w = _integer(_field(im, "width", where), where)
        h = _integer(_field(im, "height", where), where)
        if w <= 0 or h <= 0:
            raise SchemaError(f"{where}: width/height must be positive")
        if iid in size_of:
            raise SchemaError(f"{where}: duplicate image id {iid}")
        images.append((iid, w, h))
        size_of[iid] = (w, h)

    gts: list[GtObject] = []
    for k, a in enumerate(anns_raw):
        where = f"{path}: annotations[{k}]"
        _integer(_field(a, "id", where), where)
        iid = _integer(_field(a, "image_id", where), where)
        cid = _integer(_field(a, "category_id", where), where)
        if iid not in size_of:
            raise ReferenceError(f"{where}: unknown image id {iid}")
        if cid not in class_of:
            raise ReferenceError(f"{where}: unknown category id {cid}")
        if "iscrowd" in a and _integer(a["iscrowd"], where) != 0:
            raise SchemaError(f"{where}: crowd annotations are not supported")
        x, y, w, h = _bbox(a, where, "[x, y, w, h]")
        try:
            box = _clip_box(x, y, x + w, y + h, size_of[iid])
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from e
        gts.append(GtObject(box, class_of[cid], iid))

    return Dataset(tuple(categories), tuple(images), tuple(gts))


def load_raw_dets(path: str, dataset: Dataset) -> Dataset:
    """Read raw (pre-post-processing) detections into a copy of ``dataset``.

    Every detection's score vector must have exactly one entry per
    category (else DimensionError) and reference a known image id.
    """
    doc = load_report(path)
    dets_raw = _field(doc, "detections", path)
    n_classes = len(dataset.categories)
    size_of = {iid: (w, h) for iid, w, h in dataset.images}

    grouped: dict[int, list[RawDetection]] = {}
    for k, d in enumerate(dets_raw):
        where = f"{path}: detections[{k}]"
        iid = _integer(_field(d, "image_id", where), where)
        if iid not in size_of:
            raise ReferenceError(f"{where}: unknown image id {iid}")
        x1, y1, x2, y2 = _bbox(d, where, "[x1, y1, x2, y2]")
        try:
            box = _clip_box(x1, y1, x2, y2, size_of[iid])
            scores = _field(d, "scores", where)
            if not isinstance(scores, list):
                raise SchemaError(f"{where}: scores must be a list")
            if len(scores) != n_classes:
                raise DimensionError(f"{where}: got {len(scores)} scores for {n_classes} categories")
            if not set(map(type, scores)) <= _NUMBER_TYPES:
                bad = next(s for s in scores if type(s) not in _NUMBER_TYPES)
                raise SchemaError(f"{where}: expected a number, got {bad!r}")
            det = RawDetection(box, scores)
        except (ValueError, OverflowError) as e:  # OverflowError: an integer beyond the float range
            raise SchemaError(f"{where}: {e}") from e
        grouped.setdefault(iid, []).append(det)

    return replace(dataset, raw_dets={iid: tuple(lst) for iid, lst in grouped.items()})


def load_final_dets(path: str, dataset: Dataset) -> Dataset:
    """Read a COCO results list into a copy of ``dataset``."""
    doc = load_report(path)
    if not isinstance(doc, list):
        raise SchemaError(f"{path}: expected a top-level list of results")
    class_of = {cid: idx for idx, (cid, _) in enumerate(dataset.categories)}
    size_of = {iid: (w, h) for iid, w, h in dataset.images}

    finals: list[FinalDetection] = []
    for k, d in enumerate(doc):
        where = f"{path}: results[{k}]"
        iid = _integer(_field(d, "image_id", where), where)
        cid = _integer(_field(d, "category_id", where), where)
        if iid not in size_of:
            raise ReferenceError(f"{where}: unknown image id {iid}")
        if cid not in class_of:
            raise ReferenceError(f"{where}: unknown category id {cid}")
        x, y, w, h = _bbox(d, where, "[x, y, w, h]")
        score = _number(_field(d, "score", where), where)
        try:
            det = FinalDetection(_clip_box(x, y, x + w, y + h, size_of[iid]), class_of[cid], score, iid)
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from e
        finals.append(det)

    return replace(dataset, final_dets=tuple(finals))


def fmt_float(value: float) -> str:
    """17-significant-digit decimal form; parses back to identical bits."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite number {v}")
    s = "%.17g" % v
    return s if ("." in s or "e" in s) else s + ".0"


def _fmt(value: Any, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{inner}{json.dumps(str(k))}: {_fmt(v, indent + 1)}" for k, v in sorted(value.items()))
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        items = (f"{inner}{_fmt(v, indent + 1)}" for v in value)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_report(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    return _fmt(payload, 0) + "\n"


def write_report(report: Any, path: str) -> None:
    """Serialize a report (or any JSON document): sorted keys, 17-digit floats.

    The output is deterministic for identical content, and every float
    parses back to the same bits.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_report(report))


def load_report(path: str) -> Any:
    """Parse a report (or any JSON document); ParseError if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e


def emit_gt(dataset: Dataset, path: str) -> None:
    """Write ground truth in the COCO subset schema load_gt reads."""
    payload = {
        "categories": [{"id": cid, "name": name} for cid, name in dataset.categories],
        "images": [{"id": iid, "width": w, "height": h} for iid, w, h in dataset.images],
        "annotations": [
            {
                "id": k + 1,
                "image_id": g.image_id,
                "category_id": dataset.categories[g.class_id][0],
                "bbox": list(g.box.to_xywh()),
                "iscrowd": 0,
            }
            for k, g in enumerate(dataset.gts)
        ],
    }
    write_report(payload, path)


def emit_raw_dets(dataset: Dataset, path: str) -> None:
    """Write raw detections in the schema load_raw_dets reads."""
    if dataset.raw_dets is None:
        raise ValueError("dataset has no raw detections to emit")
    dets = []
    for iid, _, _ in dataset.images:
        for det in dataset.raw_dets.get(iid, ()):
            b = det.box
            dets.append({"image_id": iid, "bbox": [b.x1, b.y1, b.x2, b.y2], "scores": list(det.class_scores)})
    write_report({"detections": dets}, path)


def emit_final_dets(dataset: Dataset, path: str) -> None:
    """Write final detections as a COCO results list."""
    if dataset.final_dets is None:
        raise ValueError("dataset has no final detections to emit")
    payload = [
        {
            "image_id": d.image_id,
            "category_id": dataset.categories[d.class_id][0],
            "bbox": list(d.box.to_xywh()),
            "score": d.score,
        }
        for d in dataset.final_dets
    ]
    write_report(payload, path)


_GRID = 8
_CELL = 64.0
_IMAGE_SIZE = int(_GRID * _CELL)
_MAX_GTS = 4
_MAX_DUPS = 3
_MAX_RAW_FPS = 2
_MAX_FINAL_FPS = 2


def _quant(v: float) -> float:
    """Snap to 1/64 px so corner<->xywh conversions round-trip exactly."""
    return round(v * 64.0) / 64.0


def _jittered(rng: np.random.Generator, box: Box, magnitude: float) -> Box:
    x1 = _quant(box.x1 + rng.uniform(-magnitude, magnitude))
    y1 = _quant(box.y1 + rng.uniform(-magnitude, magnitude))
    x2 = _quant(box.x2 + rng.uniform(-magnitude, magnitude))
    y2 = _quant(box.y2 + rng.uniform(-magnitude, magnitude))
    return Box(x1, y1, x2, y2)


def _translated(rng: np.random.Generator, box: Box, magnitude: float) -> Box:
    """Shift a quantized box rigidly; side lengths are preserved exactly."""
    dx = _quant(rng.uniform(-magnitude, magnitude))
    dy = _quant(rng.uniform(-magnitude, magnitude))
    return Box(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)


def _cell_box(rng: np.random.Generator, cell: int, min_side: float, max_side: float) -> Box:
    """A quantized box inside one grid cell, >= 8 px from the cell border."""
    ox = (cell % _GRID) * _CELL
    oy = (cell // _GRID) * _CELL
    w = _quant(rng.uniform(min_side, max_side))
    h = _quant(rng.uniform(min_side, max_side))
    x1 = _quant(rng.uniform(ox + 8.1, ox + _CELL - 8.1 - w))
    y1 = _quant(rng.uniform(oy + 8.1, oy + _CELL - 8.1 - h))
    return Box(x1, y1, x1 + w, y1 + h)


def synth(seed: int, n_images: int = 16, n_classes: int = 3, knob: float = 0.0) -> Dataset:
    """Deterministic synthetic dataset with a score-IoU correlation knob.

    Every image holds 1-4 GTs, each alone in an 8x8-grid cell of a
    512x512 image, so no detection overlaps a foreign GT: matching
    outcomes are forced and do not depend on score order.  Raw detections
    are 1-3 copies clustered around a randomly shifted anchor per GT,
    spanning a wide IoU range against the GT while overlapping each other
    tightly enough that NMS at the default threshold always collapses them
    to one survivor.  Background false positives (0-2 raw and 0-2 final
    per image) fill empty cells; final detections are one jittered copy
    per GT plus those background FPs.

    ``knob`` in [-1, 1] blends GT-class scores between a strictly
    increasing function of the detection's IoU (+1), pure noise (0), and
    a strictly decreasing function (-1); at the extremes the image- and
    class-level correlations equal +/-1 exactly by construction.  All box
    coordinates are quantized to 1/64 px, making emit/load a bit-exact
    round trip.
    """
    if not -1.0 <= knob <= 1.0:
        raise ValueError(f"knob must lie in [-1, 1], got {knob}")
    rng = np.random.default_rng(seed)

    def gt_class_score(iou_value: float) -> float:
        noise = rng.uniform(0.0, 1.0)
        z = knob * iou_value + (1.0 - abs(knob)) * noise + max(0.0, -knob)
        return 0.1 + 0.8 * z

    def score_vector(class_id: int, score: float) -> tuple[float, ...]:
        vec = rng.uniform(0.0, 0.04, size=n_classes)
        vec[class_id] = score
        return tuple(float(v) for v in vec)

    categories = tuple((c + 1, f"class_{c + 1}") for c in range(n_classes))
    images = tuple((i + 1, _IMAGE_SIZE, _IMAGE_SIZE) for i in range(n_images))
    gts: list[GtObject] = []
    raw_dets: dict[int, tuple[RawDetection, ...]] = {}
    finals: list[FinalDetection] = []

    for image_id, _, _ in images:
        n_g = int(rng.integers(1, _MAX_GTS + 1))
        n_rf = int(rng.integers(0, _MAX_RAW_FPS + 1))
        n_ff = int(rng.integers(0, _MAX_FINAL_FPS + 1))
        cells = rng.permutation(_GRID * _GRID)[: n_g + n_rf + n_ff]

        img_gts: list[GtObject] = []
        img_raw: list[RawDetection] = []
        for k in range(n_g):
            gt_box = _cell_box(rng, int(cells[k]), 24.0, 40.0)
            gt = GtObject(gt_box, int(rng.integers(0, n_classes)), image_id)
            img_gts.append(gt)

            # a rigid shift up to 6 px spreads the cluster's IoU against
            # the GT over roughly [0.4, 1.0]; 6 + 1.25 + rounding stays
            # inside the 8 px cell margin
            anchor = _translated(rng, gt_box, 6.0)
            for _ in range(int(rng.integers(1, _MAX_DUPS + 1))):
                # <= 1.25 px jitter on >= 24 px sides keeps pairwise
                # duplicate IoU >= (21.5/26.5)^2 > 0.6, so default NMS
                # always collapses one GT's duplicates to a single final
                det_box = _jittered(rng, anchor, rng.uniform(0.5, 1.25))
                s = gt_class_score(iou(det_box, gt_box))
                img_raw.append(RawDetection(det_box, score_vector(gt.class_id, s)))

            fin_box = _jittered(rng, gt_box, rng.uniform(0.5, 8.0))
            s = gt_class_score(iou(fin_box, gt_box))
            finals.append(FinalDetection(fin_box, gt.class_id, s, image_id))

        for k in range(n_rf):
            box = _cell_box(rng, int(cells[n_g + k]), 16.0, 40.0)
            c = int(rng.integers(0, n_classes))
            img_raw.append(RawDetection(box, score_vector(c, rng.uniform(0.06, 0.45))))

        for k in range(n_ff):
            box = _cell_box(rng, int(cells[n_g + n_rf + k]), 16.0, 40.0)
            c = int(rng.integers(0, n_classes))
            finals.append(FinalDetection(box, c, rng.uniform(0.05, 0.9), image_id))

        gts.extend(img_gts)
        raw_dets[image_id] = tuple(img_raw)

    return Dataset(categories, images, tuple(gts), raw_dets, tuple(finals))
