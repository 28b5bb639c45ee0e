"""Boxes, IoU, and the two matching procedures everything else consumes.

Two flavours of matching exist side by side:

* :func:`match_positives` -- training-style assignment of raw detections to
  ground-truth objects (greedy, one-to-one, by descending IoU), read from
  one :func:`iou_matrix` of the image's detections against its GTs.  Feeds
  the image-level correlation measure and the Correlation Loss.
* :func:`match_tp_multi` -- evaluation-style true-positive matching
  (greedy by descending score, COCO convention) at several IoU thresholds
  in one pass over a whole detection list.  GTs are grouped per
  ``(image, class)``, and the IoU of every detection with every GT of its
  own group is computed in one elementwise array pass, as pycocotools'
  ``computeIoU`` does per image.  Groups are independent, so the greedy
  runs by step: step k lets the k-th detection (in score order) of every
  group take its best unused GT, at all thresholds at once.  Feeds PR
  curves, AP, the class-level correlation measure and the class-level
  re-rank, which read its arrays directly.  :func:`match_tp` is its
  one-threshold form.  These two and :func:`match_positives` are the only
  builders of ``Match`` objects.

:func:`iou`, :func:`iou_matrix` and the matching pass share one IoU
formula with the same float operations, so a threshold compares the same
way on all three.
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
        if not all(map(math.isfinite, coords)):
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


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corner-form boxes ``a[..., i, :]`` and ``b[..., i, :]``,
    broadcast over the leading axes: ``iou``'s float operations in
    ``iou``'s order, elementwise."""
    with np.errstate(all="ignore"):
        ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = ix * iy
        area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
        out = inter / (area_a + area_b - inter)
    out[(ix <= 0.0) | (iy <= 0.0)] = 0.0
    return out


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
    return _iou(a[:, None, :], b[None, :, :])


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


def _match_tp_arrays(
    dets: Sequence["FinalDetection"],
    gts: Sequence[GtObject],
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """The matching core: ``(gt, iou)``, two ``(len(thresholds), len(dets))``
    arrays.  ``gt[k, i]`` is the gt that detection i matches at threshold
    k, -1 for none, and ``iou[k, i]`` their IoU (0 for none).

    Every (detection, gt) pair of one ``(image, class)`` group gets its IoU
    in one elementwise pass; pairs at IoU 0 never match and are dropped.
    Greedy matching in score order (ties by lower index) touches one group
    at a time and groups share no gt, so it runs by step: step k lets the
    k-th detection with a candidate in every group take its first
    candidate, by (-IoU, gt index), whose gt is unused and whose IoU
    clears the threshold, for every threshold at once.
    """
    n_thr, n = len(thresholds), len(dets)
    matched = np.full((n_thr, n), -1, dtype=np.intp)
    matched_iou = np.zeros((n_thr, n))

    group_of: dict[tuple[int, int], int] = {}
    gt_group = np.array([group_of.setdefault((g.image_id, g.class_id), len(group_of)) for g in gts], dtype=np.intp)
    det_group = np.array([group_of.get((d.image_id, d.class_id), -1) for d in dets], dtype=np.intp)

    # Every same-group (detection, gt) pair; a group's gts by index.
    gts_by_group = np.argsort(gt_group, kind="stable")
    group_size = np.bincount(gt_group, minlength=len(group_of))
    group_start = np.cumsum(group_size) - group_size
    pair_det = np.flatnonzero(det_group >= 0)
    count = group_size[det_group[pair_det]]
    offset = np.repeat(group_start[det_group[pair_det]] - (np.cumsum(count) - count), count)
    pair_gt = gts_by_group[offset + np.arange(offset.shape[0])]
    pair_det = np.repeat(pair_det, count)
    v = _iou(_box_array([d.box for d in dets])[pair_det], _box_array([g.box for g in gts])[pair_gt])
    keep = v > 0.0
    if not keep.any():
        return matched, matched_iou
    pair_det, pair_gt, v = pair_det[keep], pair_gt[keep], v[keep]

    # Score rank (ties by lower index), then each candidate-holding
    # detection's step: its position among those of its group.
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(-np.array([d.score for d in dets], dtype=np.float64), kind="stable")] = np.arange(n)
    holders = np.flatnonzero(np.bincount(pair_det, minlength=n))
    holders = holders[np.lexsort((rank[holders], det_group[holders]))]
    holder_group = det_group[holders]
    step = np.zeros(n, dtype=np.intp)
    step[holders] = np.arange(holders.shape[0]) - np.searchsorted(holder_group, holder_group)

    # Pairs by (step, rank, -IoU, gt index): a block per step, a run per detection.
    order = np.lexsort((pair_gt, -v, rank[pair_det], step[pair_det]))
    pair_det, pair_gt, v = pair_det[order], pair_gt[order], v[order]
    seg = np.flatnonzero(np.concatenate(([True], pair_det[1:] != pair_det[:-1])))  # each detection's first pair
    seg_det = pair_det[seg]
    n_steps = int(step[seg_det].max()) + 1
    seg_bounds = np.searchsorted(step[seg_det], np.arange(n_steps + 1))
    pair_bounds = np.concatenate((seg, [pair_det.shape[0]]))[seg_bounds]

    thr = np.asarray(thresholds, dtype=np.float64).reshape(-1, 1)
    used = np.zeros((n_thr, len(gts)), dtype=bool)
    none = pair_det.shape[0]
    for s0, s1, p0, p1 in zip(seg_bounds[:-1], seg_bounds[1:], pair_bounds[:-1], pair_bounds[1:]):
        gt_k = pair_gt[p0:p1]
        free = (v[p0:p1] >= thr) & ~used[:, gt_k]  # `>=`: a NaN threshold matches nothing
        pick = np.minimum.reduceat(np.where(free, np.arange(p0, p1), none), seg[s0:s1] - p0, axis=1)
        t, s = np.nonzero(pick < none)
        chosen = pick[t, s]
        used[t, pair_gt[chosen]] = True
        matched[t, seg_det[s0 + s]] = pair_gt[chosen]
        matched_iou[t, seg_det[s0 + s]] = v[chosen]
    return matched, matched_iou


def match_tp_multi(
    dets: Sequence["FinalDetection"],
    gts: Sequence[GtObject],
    thresholds: Sequence[float],
) -> tuple[MatchSet, ...]:
    """COCO-style true-positive matching at several IoU thresholds at once.

    Returns one MatchSet per threshold, each equal to what
    :func:`match_tp` gives at that threshold.  Detections of any mix of
    images and classes match only GTs of their own ``(image_id,
    class_id)``, and one pass serves all thresholds.
    """
    matched, matched_iou = _match_tp_arrays(dets, gts, thresholds)
    result = []
    for gt_row, iou_row in zip(matched, matched_iou):
        hits = np.flatnonzero(gt_row >= 0)
        result.append(
            MatchSet(
                tuple(
                    Match(di, gi, v, float(dets[di].score), dets[di].class_id)
                    for di, gi, v in zip(hits.tolist(), gt_row[hits].tolist(), iou_row[hits].tolist())
                )
            )
        )
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
