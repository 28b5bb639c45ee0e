"""Boxes, IoU, and the two matching procedures everything else consumes.

Two flavours of matching exist side by side:

* :func:`match_positives` -- training-style assignment of raw detections to
  ground-truth objects (greedy, one-to-one, by descending IoU), read from
  one :func:`iou_matrix` of the image's detections against its GTs.  Feeds
  the image-level correlation measure and the Correlation Loss.
* :func:`match_tp_multi` -- evaluation-style true-positive matching
  (greedy by descending score, COCO convention) at several IoU thresholds
  in one pass.  GTs are grouped per ``(image, class)``, so the cost is
  linear in the number of images, and each detection's IoUs to its own
  group are computed once for all thresholds, as pycocotools'
  ``computeIoU`` + ``evaluateImg`` do.  Feeds PR curves, AP, the
  class-level correlation measure and the class-level re-rank;
  :func:`match_tp` is its one-threshold form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .pipeline import FinalDetection, RawDetection

__all__ = [
    "Box",
    "GtObject",
    "Match",
    "MatchSet",
    "iou",
    "iou_matrix",
    "match_positives",
    "match_tp",
    "match_tp_multi",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in corner form (x1, y1, x2, y2), pixel units:
    finite corners and a finite area above 0, so :func:`iou` never divides
    by 0 or returns NaN."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if not (self.x2 > self.x1 and self.y2 > self.y1 and 0.0 < self.area < math.inf):
            raise ValueError(f"box must have a positive, finite area, got {coords}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "Box":
        return cls(x, y, x + w, y + h)

    def to_xywh(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2 - self.x1, self.y2 - self.y1)


@dataclass(frozen=True)
class GtObject:
    """A ground-truth object: box, class index in [0, C), owning image id."""

    box: Box
    class_id: int
    image_id: int = 0


@dataclass(frozen=True)
class Match:
    """One matched (detection, ground truth) pair.

    ``class_id`` is the gt's class; for raw detections it names the
    score-vector entry that ``score`` was read from.
    """

    detection_index: int
    gt_index: int
    iou: float
    score: float
    class_id: int = 0


@dataclass(frozen=True)
class MatchSet:
    """Positives paired with GTs; houses the (IoU, score) pairs that the
    correlation measures and the Correlation Loss consume.

    Each gt_index appears at most once; ious and scores lie in [0, 1].
    """

    entries: tuple[Match, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Match]:
        return iter(self.entries)

    def ious(self) -> list[float]:
        return [m.iou for m in self.entries]

    def scores(self) -> list[float]:
        return [m.score for m in self.entries]

    def detection_indices(self) -> list[int]:
        return [m.detection_index for m in self.entries]


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint, symmetric."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _box_array(boxes: Sequence[Box]) -> np.ndarray:
    """Corners of ``boxes`` as an ``(n, 4)`` float64 array."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a, b) -> np.ndarray:
    """IoU of every corner-form box in ``a`` with every one in ``b``, given
    as ``(n, 4)`` and ``(m, 4)`` arrays.

    Entry ``[i, j]`` equals ``iou(a_i, b_j)`` bit for bit: the same float
    operations run in the same order, so a threshold compares the same
    way on both, and ``iou_matrix(a, a)`` is symmetric.  A box whose area
    is not positive, which no ``Box`` has, gives entries of 0 or NaN.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    with np.errstate(all="ignore"):
        area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
        area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        ix = np.minimum(a[:, 2, None], b[:, 2]) - np.maximum(a[:, 0, None], b[:, 0])
        iy = np.minimum(a[:, 3, None], b[:, 3]) - np.maximum(a[:, 1, None], b[:, 1])
        inter = ix * iy
        out = inter / (area_a[:, None] + area_b - inter)
    out[(ix <= 0.0) | (iy <= 0.0)] = 0.0
    return out


def match_positives(
    dets: Sequence["RawDetection"],
    gts: Sequence[GtObject],
    iou_floor: float = 0.5,
) -> MatchSet:
    """Greedy one-to-one assignment of raw detections to ground truths.

    Repeatedly picks the unmatched (det, gt) pair with the highest IoU at or
    above ``iou_floor``; ties break by (lower detection index, lower gt
    index).  For each pair the detection's confidence for the gt's class is
    recorded alongside the IoU.  Detections and gts must come from the same
    image.  Returns an empty MatchSet when nothing clears the floor.
    """
    ious = iou_matrix(_box_array([d.box for d in dets]), _box_array([g.box for g in gts]))
    det_idx, gt_idx = np.nonzero(ious >= iou_floor)
    v = ious[det_idx, gt_idx]
    order = np.lexsort((gt_idx, det_idx, -v))  # by (-IoU, det index, gt index)

    used_det: set[int] = set()
    used_gt: set[int] = set()
    matches = []
    for di, gi, value in zip(det_idx[order].tolist(), gt_idx[order].tolist(), v[order].tolist()):
        if di in used_det or gi in used_gt:
            continue
        used_det.add(di)
        used_gt.add(gi)
        score = float(dets[di].class_scores[gts[gi].class_id])
        matches.append(Match(di, gi, value, score, gts[gi].class_id))

    matches.sort(key=lambda m: m.detection_index)
    return MatchSet(tuple(matches))


def _score_order(dets: Sequence["FinalDetection"]) -> list[int]:
    """Detection indices by descending score, ties by lower index."""
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))


def match_tp_multi(
    dets: Sequence["FinalDetection"],
    gts: Sequence[GtObject],
    thresholds: Sequence[float],
) -> tuple[MatchSet, ...]:
    """COCO-style true-positive matching at several IoU thresholds at once.

    Returns one MatchSet per threshold, each equal to what
    :func:`match_tp` gives at that threshold.  GTs are grouped by
    ``(image_id, class_id)`` and each detection's IoUs to the GTs of its
    own group are computed once, so the cost is linear in the number of
    images and shared by all thresholds.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for gi, gt in enumerate(gts):
        groups.setdefault((gt.image_id, gt.class_id), []).append(gi)

    # Per detection, in matching order: the Match it would make with each
    # gt of its group at IoU > 0, best first (IoU ties by lower gt index).
    # Greedy matching at any threshold takes the first candidate whose gt
    # is unused, unless the IoU falls below the threshold first.
    table: list[list[Match]] = []
    for di in _score_order(dets):
        det = dets[di]
        group = groups.get((det.image_id, det.class_id), ())
        score = float(det.score)
        cands = [
            Match(di, gi, v, score, det.class_id)
            for gi in group
            if (v := iou(det.box, gts[gi].box)) > 0.0
        ]
        cands.sort(key=lambda m: (-m.iou, m.gt_index))
        table.append(cands)

    result = []
    for thr in thresholds:
        used_gt: set[int] = set()
        matches = []
        for cands in table:
            for m in cands:
                if not m.iou >= thr:  # not `<`: a NaN threshold matches nothing
                    break
                if m.gt_index not in used_gt:
                    used_gt.add(m.gt_index)
                    matches.append(m)
                    break
        matches.sort(key=lambda m: m.detection_index)
        result.append(MatchSet(tuple(matches)))
    return tuple(result)


def match_tp(
    dets: Sequence["FinalDetection"],
    gts: Sequence[GtObject],
    iou_thr: float,
) -> MatchSet:
    """COCO-style true-positive matching at one IoU threshold.

    Detections are taken in descending score order (ties by lower index);
    each one matches the still-unmatched gt of the same image and class
    with the highest IoU >= ``iou_thr`` (IoU ties by lower gt index; IoU 0
    never matches).  Unmatched detections are false positives and do not
    appear in the result.
    """
    return match_tp_multi(dets, gts, (iou_thr,))[0]
