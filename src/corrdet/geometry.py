"""Boxes, IoU, and the two matching procedures everything else consumes.

Two flavours of matching exist side by side:

* :func:`match_positives` -- training-style assignment of raw detections to
  ground-truth objects (greedy, one-to-one, by descending IoU).  Feeds the
  image-level correlation measure and the Correlation Loss.
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

if TYPE_CHECKING:
    from .pipeline import FinalDetection, RawDetection

__all__ = [
    "Box",
    "GtObject",
    "Match",
    "MatchSet",
    "iou",
    "match_positives",
    "match_tp",
    "match_tp_multi",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in corner form (x1, y1, x2, y2), pixel units."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(f"box must have positive area, got {coords}")

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
    candidates = []
    for di, det in enumerate(dets):
        for gi, gt in enumerate(gts):
            v = iou(det.box, gt.box)
            if v >= iou_floor:
                candidates.append((-v, di, gi))
    candidates.sort()

    used_det: set[int] = set()
    used_gt: set[int] = set()
    matches = []
    for neg_iou, di, gi in candidates:
        if di in used_det or gi in used_gt:
            continue
        used_det.add(di)
        used_gt.add(gi)
        score = float(dets[di].class_scores[gts[gi].class_id])
        matches.append(Match(di, gi, -neg_iou, score, gts[gi].class_id))

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
