"""The object-building ``synth`` as it was before it drew through a bound
``rng.random`` and built columns: every scalar draw an ``rng.uniform``
call, every box a ``Box``, every row a ``GtObject``, ``FinalDetection``
or ``(Box, scores)`` pair that ``Dataset`` turns into batches.
``synth_oracle`` is that function, unchanged but for its name; the
differential test requires ``corrdet.synth`` to give the same columns and
the same file bytes.
"""

from __future__ import annotations

import numpy as np

from corrdet import Box, Dataset, FinalDetection, GtObject, RawBatch, iou
from corrdet.geometry import _box_array

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


def synth_oracle(seed: int, n_images: int = 16, n_classes: int = 3, knob: float = 0.0) -> Dataset:
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
    if n_images < 0 or n_classes < 1:
        raise ValueError(f"need n_images >= 0 and n_classes >= 1, got {n_images} and {n_classes}")
    rng = np.random.default_rng(seed)

    def gt_class_score(iou_value: float) -> float:
        noise = rng.uniform(0.0, 1.0)
        z = knob * iou_value + (1.0 - abs(knob)) * noise + max(0.0, -knob)
        return 0.1 + 0.8 * z

    def score_vector(class_id: int, score: float) -> np.ndarray:
        vec = rng.uniform(0.0, 0.04, size=n_classes)
        vec[class_id] = score
        return vec

    categories = tuple((c + 1, f"class_{c + 1}") for c in range(n_classes))
    images = tuple((i + 1, _IMAGE_SIZE, _IMAGE_SIZE) for i in range(n_images))
    gts: list[GtObject] = []
    raw_dets: dict[int, RawBatch] = {}
    finals: list[FinalDetection] = []

    for image_id, _, _ in images:
        n_g = int(rng.integers(1, _MAX_GTS + 1))
        n_rf = int(rng.integers(0, _MAX_RAW_FPS + 1))
        n_ff = int(rng.integers(0, _MAX_FINAL_FPS + 1))
        cells = rng.permutation(_GRID * _GRID)[: n_g + n_rf + n_ff]

        img_gts: list[GtObject] = []
        img_raw: list[tuple[Box, np.ndarray]] = []
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
                img_raw.append((det_box, score_vector(gt.class_id, s)))

            fin_box = _jittered(rng, gt_box, rng.uniform(0.5, 8.0))
            s = gt_class_score(iou(fin_box, gt_box))
            finals.append(FinalDetection(fin_box, gt.class_id, s, image_id))

        for k in range(n_rf):
            box = _cell_box(rng, int(cells[n_g + k]), 16.0, 40.0)
            c = int(rng.integers(0, n_classes))
            img_raw.append((box, score_vector(c, rng.uniform(0.06, 0.45))))

        for k in range(n_ff):
            box = _cell_box(rng, int(cells[n_g + n_rf + k]), 16.0, 40.0)
            c = int(rng.integers(0, n_classes))
            finals.append(FinalDetection(box, c, rng.uniform(0.05, 0.9), image_id))

        gts.extend(img_gts)
        raw_boxes, raw_scores = zip(*img_raw)
        raw_dets[image_id] = RawBatch(_box_array(raw_boxes), np.array(raw_scores))

    return Dataset(categories, images, tuple(gts), raw_dets, tuple(finals))
