"""Seeded generator of detector-shaped raw detections.

``corrdet.ingest.synth`` places every GT alone in a grid cell with a
handful of raw boxes around it.  A real dense detector head instead emits
on the order of a thousand boxes per image, each carrying a score for
every class, clustered around the few objects present.  This generator
produces that shape so the post-processing pipeline (score filter, NMS,
top-k) and the 80-floats-per-box raw loader carry realistic load.

Per image: ``n_boxes`` boxes, 90% jittered copies of one of 5-9 GTs (7
on average, the same total for every seed) and 10% background.  A clustered box's GT-class score spreads over (0.05, 1)
and rises with its IoU; every other class score is drawn from an
exponential tail, so roughly 8% of them clear the default 0.05 score
threshold -- a few thousand candidates per image.
"""

from __future__ import annotations

import numpy as np

from corrdet import Box, Dataset, GtObject, RawDetection

IMAGE_SIZE = 640
OTHER_CLASS_SCALE = 0.02  # mean of the non-GT-class score tail


def _quant(a: np.ndarray) -> np.ndarray:
    """Snap to 1/64 px so corner <-> xywh conversions round-trip exactly."""
    return np.round(a * 64.0) / 64.0


def _iou_rows(boxes: np.ndarray, gt: np.ndarray) -> np.ndarray:
    ix = np.minimum(boxes[:, 2], gt[2]) - np.maximum(boxes[:, 0], gt[0])
    iy = np.minimum(boxes[:, 3], gt[3]) - np.maximum(boxes[:, 1], gt[1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    gt_area = (gt[2] - gt[0]) * (gt[3] - gt[1])
    return inter / (area + gt_area - inter)


def _clip_boxes(boxes: np.ndarray) -> np.ndarray:
    """Clip to the image, keeping at least 4 px of extent on each side."""
    x1 = np.clip(boxes[:, 0], 0.0, IMAGE_SIZE - 4.0)
    y1 = np.clip(boxes[:, 1], 0.0, IMAGE_SIZE - 4.0)
    x2 = np.clip(boxes[:, 2], x1 + 4.0, IMAGE_SIZE)
    y2 = np.clip(boxes[:, 3], y1 + 4.0, IMAGE_SIZE)
    return _quant(np.stack([x1, y1, x2, y2], axis=1))


def raw_detector(
    seed: int,
    n_images: int = 8,
    n_classes: int = 80,
    n_boxes: int = 1000,
    gts_per_image: tuple[int, int] = (5, 9),
) -> Dataset:
    """Dataset with GTs and detector-shaped raw detections, no finals."""
    rng = np.random.default_rng(seed)
    categories = tuple((c + 1, f"class_{c + 1}") for c in range(n_classes))
    images = tuple((i + 1, IMAGE_SIZE, IMAGE_SIZE) for i in range(n_images))
    gts: list[GtObject] = []
    raw: dict[int, tuple[RawDetection, ...]] = {}

    # GT counts spread evenly over the range and shuffled, so every seed
    # has the same total: match work grows with it, and a seed-drawn total
    # would move the CLI timings from seed to seed.
    lo, hi = gts_per_image
    gt_counts = rng.permutation(lo + np.floor((np.arange(n_images) + 0.5) / n_images * (hi - lo + 1)).astype(int))

    for (image_id, _, _), n_gt in zip(images, gt_counts.tolist()):
        wh = rng.uniform(40.0, 200.0, size=(n_gt, 2))
        xy = rng.uniform(0.0, 1.0, size=(n_gt, 2)) * (IMAGE_SIZE - 8.0 - wh) + 4.0
        gt_boxes = _quant(np.concatenate([xy, xy + wh], axis=1))
        gt_classes = rng.integers(0, n_classes, size=n_gt)

        n_fg = int(round(0.9 * n_boxes))
        owner = rng.integers(0, n_gt, size=n_fg)
        g = gt_boxes[owner]
        gw = g[:, 2] - g[:, 0]
        gh = g[:, 3] - g[:, 1]
        cx = (g[:, 0] + g[:, 2]) / 2 + rng.normal(0.0, 0.12, n_fg) * gw
        cy = (g[:, 1] + g[:, 3]) / 2 + rng.normal(0.0, 0.12, n_fg) * gh
        w = gw * np.exp(rng.normal(0.0, 0.15, n_fg))
        h = gh * np.exp(rng.normal(0.0, 0.15, n_fg))
        fg = _clip_boxes(np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1))

        n_bg = n_boxes - n_fg
        bwh = rng.uniform(16.0, 160.0, size=(n_bg, 2))
        bxy = rng.uniform(0.0, 1.0, size=(n_bg, 2)) * (IMAGE_SIZE - bwh)
        bg = _clip_boxes(np.concatenate([bxy, bxy + bwh], axis=1))

        scores = np.minimum(rng.exponential(OTHER_CLASS_SCALE, size=(n_boxes, n_classes)), 0.99)
        ious = np.empty(n_fg)
        for k in range(n_gt):
            rows = owner == k
            ious[rows] = _iou_rows(fg[rows], gt_boxes[k])
        z = 0.5 * ious + 0.5 * rng.uniform(0.0, 1.0, n_fg)
        scores[np.arange(n_fg), gt_classes[owner]] = 0.05 + 0.95 * np.clip(z, 1e-6, 1.0 - 1e-6)

        boxes = np.concatenate([fg, bg], axis=0)
        order = rng.permutation(n_boxes)
        boxes, scores = boxes[order], scores[order]
        raw[image_id] = tuple(
            RawDetection(Box(*map(float, b)), tuple(s.tolist())) for b, s in zip(boxes, scores)
        )
        gts.extend(
            GtObject(Box(*map(float, b)), int(c), image_id) for b, c in zip(gt_boxes, gt_classes)
        )

    return Dataset(categories, images, tuple(gts), raw_dets=raw)
