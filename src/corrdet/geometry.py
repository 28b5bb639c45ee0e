"""Boxes, detections, IoU, and the two matching procedures on them.

This module owns every detection type and its batch: ground truth
(:class:`GtObject`, :class:`GtBatch`), raw detections with one score per
class (:class:`RawDetection`, :class:`RawBatch`) and final detections
with one class and score (:class:`FinalDetection`, :class:`FinalBatch`).
Post-processing, the measures, the bounds and the loaders import them
from here.

Two flavours of matching exist side by side:

* :func:`match_positives` -- training-style assignment of raw detections to
  ground-truth objects (greedy, one-to-one, by descending IoU), read from
  one :func:`iou_matrix` of the image's detections against its GTs.  Its
  core, :func:`_positives`, gives the positives as five aligned arrays,
  which the image-level correlation measure and re-rank read; the
  Correlation Loss reads the ``MatchSet`` built from them.
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
  one-threshold form.

``Match`` objects are built only by the public matchers,
:func:`match_positives` and :func:`match_tp_multi` (so :func:`match_tp`);
the library's own paths read the array cores behind them.

:func:`iou`, :func:`iou_matrix`, the matching pass and post-processing's
NMS rows share one IoU formula with the same float operations (:func:`iou`
on Python floats, :func:`_iou_of` in numpy), so a threshold compares the
same way on all four.

Each batch holds its objects as row-aligned numpy columns, which the
loaders make and the matchers and post-processing read as they are;
:class:`_Batch` is the code the three share, and checks every value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence, TypeVar

import numpy as np

__all__ = [
    "Box",
    "GtObject",
    "GtBatch",
    "RawDetection",
    "RawBatch",
    "FinalDetection",
    "FinalBatch",
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


def _check_unit_interval(name: str, value: float) -> None:
    """ValueError unless ``value`` lies in [0, 1] (NaN does not)."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class RawDetection:
    """Pre-post-processing detection: one box, one score per class.

    ``class_scores`` accepts any iterable of reals and is stored as a
    tuple of floats, so instances stay hashable and safely shareable.
    There is at least one score, and each lies in [0, 1].
    """

    box: Box
    class_scores: tuple[float, ...]

    def __post_init__(self) -> None:
        scores = tuple(map(float, self.class_scores))
        if not scores:
            raise ValueError("class_scores must have at least one entry")
        # inline, not _check_unit_interval: code that builds a detector's
        # output in memory checks 10^5 scores per image (1000 boxes x 80 classes)
        for s in scores:
            if not 0.0 <= s <= 1.0:  # rejects NaN too
                raise ValueError(f"class scores must lie in [0, 1], got {s}")
        object.__setattr__(self, "class_scores", scores)


@dataclass(frozen=True)
class FinalDetection:
    """Post-processing detection: box, class id, scalar score in [0, 1]."""

    box: Box
    class_id: int
    score: float
    image_id: int = 0

    def __post_init__(self) -> None:
        _check_unit_interval("score", self.score)


_T = TypeVar("_T")


class _Batch(Sequence[_T]):
    """A read-only sequence of objects held as row-aligned numpy columns.

    The constructor takes the arguments that ``_COLUMNS`` and then
    ``_SHARED`` name, in that order.  Each column is stored as a read-only
    view; each shared argument (a sequence the rows index, say) is stored
    as a tuple and passed unchanged to every slice.

    Indexing or iterating builds the objects on demand (``_row`` makes one
    from a row's Python values), a slice is a batch of views of the same
    columns, and a batch equals any sequence of equal objects, element by
    element.  It is not hashable.  The constructor checks each row by the
    objects' rules, with a ValueError naming the class, the column and
    the first bad row: ``n`` rows in every column, 2-d in ``_MATRICES``
    and 1-d in the others; ``boxes`` ``(n, 4)`` float64 of positive,
    finite area, as a :class:`Box` has; ``scores`` float64 in [0, 1], at
    least one per row; ``images`` integer positions in the distinct
    ``image_ids``.  (A :class:`~corrdet.ingest.Dataset` bounds the class
    ids.)  ``_take``, so a slice, takes rows of a checked batch unchecked.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]
    _COLUMNS: tuple[str, ...] = ()
    _SHARED: tuple[str, ...] = ()
    _MATRICES: tuple[str, ...] = ("boxes",)

    def __init__(self, *args: Any) -> None:
        names = self._COLUMNS + self._SHARED
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__}({', '.join(names)}) takes {len(names)} arguments, got {len(args)}")
        self._store(args)
        n, boxes = len(self), self.boxes
        for name in self._COLUMNS:
            column, ndim = getattr(self, name), 1 + (name in self._MATRICES)
            self._refuse(name, column.shape[:1] != (n,), f"must have {n} rows")
            self._refuse(name, column.ndim != ndim, f"must be {ndim}-d")
        self._refuse("boxes", boxes.dtype != np.float64 or boxes.shape[1:] != (4,), "must be (n, 4) float64")
        with np.errstate(all="ignore"):
            x1, y1, x2, y2, area = *boxes.T, _area(boxes.T)  # a NaN or infinite corner fails too
            self._refuse("boxes", ~((x2 > x1) & (y2 > y1) & (area > 0.0) & (area < math.inf)), "has no finite area > 0")
        if "scores" in self._COLUMNS:
            self._refuse("scores", self.scores.dtype != np.float64, "must be float64")
            self._refuse("scores", ~((self.scores >= 0.0) & (self.scores <= 1.0)), "lies outside [0, 1]")
            self._refuse("scores", np.full(n, self.scores.shape[1:] == (0,)), "holds no score")
        if "images" in self._COLUMNS:
            self._refuse("images", self.images.dtype.kind not in "iu", "must hold integers")
            self._refuse("images", (self.images < 0) | (self.images >= len(self.image_ids)), "indexes no image id")
            first = {iid: k for k, iid in reversed(list(enumerate(self.image_ids)))}
            self._refuse("image_ids", np.array([first[i] != k for k, i in enumerate(self.image_ids)], bool), "repeats")

    def _store(self, args: Sequence[Any]) -> None:
        for name, column in zip(self._COLUMNS, args):
            column = column.view()
            column.flags.writeable = False
            setattr(self, name, column)
        for name, value in zip(self._SHARED, args[len(self._COLUMNS) :]):
            setattr(self, name, tuple(value))

    def _refuse(self, name: str, bad, fault: str) -> None:
        """ValueError naming column ``name`` and the first row ``bad`` marks (or one flag), if any."""
        if np.any(bad):
            row = f" row {np.nonzero(bad)[0][0]}" if np.ndim(bad) else ""
            raise ValueError(f"{type(self).__name__}.{name}:{row} {fault}")

    def _row(self, *values: Any) -> _T:
        raise NotImplementedError

    def _take(self, rows) -> "_Batch[_T]":
        """The batch of ``rows`` (a slice or an index array), not checked again."""
        batch = object.__new__(type(self))
        batch._store([getattr(self, name)[rows] for name in self._COLUMNS] + [getattr(self, s) for s in self._SHARED])
        return batch

    @classmethod
    def of(cls, items: Sequence[_T]):
        """``items`` if it is a batch of this kind, else a batch of the same
        objects' columns, built once."""
        return items if isinstance(items, cls) else cls._from_objects(items)

    @classmethod
    def _from_objects(cls, items: Sequence[_T]):
        raise NotImplementedError

    def __len__(self) -> int:
        return getattr(self, self._COLUMNS[0]).shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._take(i)
        return self._row(*(getattr(self, name)[i].tolist() for name in self._COLUMNS))

    def __iter__(self) -> Iterator[_T]:
        return map(self._row, *(getattr(self, name).tolist() for name in self._COLUMNS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _object_columns(items: Sequence[Any]) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """``(boxes, class ids, image index, image ids)`` of objects with
    ``box``, ``class_id`` and ``image_id``: the image ids in order of first
    appearance, and each object's position among them."""
    slot: dict[int, int] = {}
    images = np.array([slot.setdefault(x.image_id, len(slot)) for x in items], dtype=np.intp)
    class_ids = np.array([x.class_id for x in items], dtype=np.intp)
    return _box_array([x.box for x in items]), class_ids, images, tuple(slot)


class GtBatch(_Batch[GtObject]):
    """Ground truth held as columns, built as ``GtBatch(boxes, class_ids,
    images, image_ids)``: ``boxes``, ``(n, 4)`` float64 in corner form,
    ``class_ids``, ``(n,)``, and ``images``, ``(n,)``, each row's position
    in ``image_ids``, a tuple of distinct ids.  The ids stay Python
    integers, so ids beyond 64 bits hold, and rows group by the position.

    A read-only ``Sequence[GtObject]`` that builds objects on demand; see
    :class:`_Batch`.
    """

    _COLUMNS = ("boxes", "class_ids", "images")
    _SHARED = ("image_ids",)
    __slots__ = _COLUMNS + _SHARED

    def _row(self, box: list[float], class_id: int, image: int) -> GtObject:
        return GtObject(Box(*box), class_id, self.image_ids[image])

    @classmethod
    def _from_objects(cls, items: Sequence[GtObject]) -> "GtBatch":
        return cls(*_object_columns(items))


class RawBatch(_Batch[RawDetection]):
    """One image's raw detections held as two read-only float64 arrays,
    built as ``RawBatch(boxes, scores)``: ``boxes``, ``(n, 4)`` in corner
    form, and ``scores``, ``(n, C)``.

    A read-only ``Sequence[RawDetection]`` that builds objects on demand;
    see :class:`_Batch`.  Built from objects, every score vector must
    have one width: ValueError names the widths found otherwise.
    """

    _COLUMNS = ("boxes", "scores")
    _MATRICES = _COLUMNS
    __slots__ = _COLUMNS

    def _row(self, box: list[float], scores: list[float]) -> RawDetection:
        return RawDetection(Box(*box), scores)

    @classmethod
    def _from_objects(cls, items: Sequence[RawDetection]) -> "RawBatch":
        rows = [d.class_scores for d in items]
        widths = sorted(set(map(len, rows))) or [0]
        if len(widths) > 1:
            raise ValueError(f"raw detections of one image need one score width, found {widths}")
        scores = np.array(rows, dtype=np.float64).reshape(len(rows), widths[0])
        return cls(_box_array([d.box for d in items]), scores)


class FinalBatch(_Batch[FinalDetection]):
    """Final detections held as columns, built as ``FinalBatch(boxes,
    class_ids, scores, images, image_ids)``: those of a :class:`GtBatch`
    (``boxes``, ``class_ids``, ``images`` and the distinct ``image_ids``
    they index) plus ``scores``, ``(n,)`` float64.

    A read-only ``Sequence[FinalDetection]`` that builds objects on
    demand; see :class:`_Batch`.
    """

    _COLUMNS = ("boxes", "class_ids", "scores", "images")
    _SHARED = ("image_ids",)
    __slots__ = _COLUMNS + _SHARED

    def _row(self, box: list[float], class_id: int, score: float, image: int) -> FinalDetection:
        return FinalDetection(Box(*box), class_id, score, self.image_ids[image])

    @classmethod
    def _from_objects(cls, items: Sequence[FinalDetection]) -> "FinalBatch":
        boxes, class_ids, images, image_ids = _object_columns(items)
        return cls(boxes, class_ids, np.array([d.score for d in items], dtype=np.float64), images, image_ids)


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
    """Intersection-over-union of two boxes, in [0, 1]; 0 when disjoint, symmetric."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _box_array(boxes: Sequence[Box]) -> np.ndarray:
    """Corners of ``boxes`` as an ``(n, 4)`` float64 array."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _area(c):
    """Area of corner-form boxes given as corner columns ``c`` (x1, y1, x2, y2):
    ``Box.area``'s float operations."""
    return (c[2] - c[0]) * (c[3] - c[1])


def _iou_of(a, b, area_a, area_b) -> np.ndarray:
    """IoU of corner-form boxes given as corner columns ``a`` and ``b`` (x1,
    y1, x2, y2: floats or arrays that broadcast) and their areas, computed
    by :func:`_area`: ``iou``'s float operations in ``iou``'s order,
    elementwise.  Call it under ``np.errstate(all="ignore")``: for two
    boxes that miss each other the formula may divide by 0 or overflow
    before that entry is set to 0.

    With ``a`` one box's four floats and ``b`` a class's columns, this is
    one IoU row without building, reshaping or measuring either operand
    again, as post-processing reads it once per kept box.
    """
    ix = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    iy = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = ix * iy
    out = inter / (area_a + area_b - inter)
    out[(ix <= 0.0) | (iy <= 0.0)] = 0.0
    return out


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corner-form boxes ``a[..., i, :]`` and ``b[..., i, :]``,
    broadcast over the leading axes, by :func:`_iou_of`."""
    a, b = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    with np.errstate(all="ignore"):
        return _iou_of(a, b, _area(a), _area(b))


def iou_matrix(a, b) -> np.ndarray:
    """IoU of every corner-form box in ``a`` with every one in ``b``, given
    as ``(n, 4)`` and ``(m, 4)`` arrays.

    Entry ``[i, j]`` equals ``iou(a_i, b_j)`` bit for bit: the same float
    operations run in the same order, so a threshold compares the same
    way on both, and ``iou_matrix(a, a)`` is symmetric.  Entries lie in
    [0, 1]: rounding is monotone, so the intersection is at most either
    area and the union at least the intersection.  A box whose area is
    not positive, which no ``Box`` has, gives entries of 0 or NaN.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    return _iou(a[:, None, :], b[None, :, :])


def _positives(dets: RawBatch, gts: GtBatch, iou_floor: float) -> tuple[np.ndarray, ...]:
    """:func:`match_positives` as five aligned arrays, in detection-index
    order: detection index, gt index, IoU, score and class (the gt's).
    Its ValueError on a gt class beyond the score width holds for all callers."""
    width = dets.scores.shape[1]
    if len(dets) and len(gts) and not 0 <= gts.class_ids.min() <= gts.class_ids.max() < width:
        raise ValueError(f"gt classes must lie in [0, {width}), the detections' score width")
    ious = iou_matrix(dets.boxes, gts.boxes)
    det_idx, gt_idx = np.nonzero(ious >= iou_floor)
    order = np.lexsort((gt_idx, det_idx, -ious[det_idx, gt_idx]))  # by (-IoU, det index, gt index)

    used_det: set[int] = set()
    used_gt: set[int] = set()
    picked = []
    for k, di, gi in zip(order.tolist(), det_idx[order].tolist(), gt_idx[order].tolist()):
        if di in used_det or gi in used_gt:
            continue
        used_det.add(di)
        used_gt.add(gi)
        picked.append(k)

    # pairs are in (det index, gt index) order and each detection matches once
    picked = np.sort(np.array(picked, dtype=np.intp))
    det, gt = det_idx[picked], gt_idx[picked]
    classes = gts.class_ids[gt]
    return det, gt, ious[det, gt], dets.scores[det, classes], classes


def match_positives(
    dets: Sequence[RawDetection],
    gts: Sequence[GtObject],
    iou_floor: float = 0.5,
) -> MatchSet:
    """Greedy one-to-one assignment of raw detections to ground truths.

    Repeatedly picks the unmatched (det, gt) pair with the highest IoU at or
    above ``iou_floor``; ties break by (lower detection index, lower gt
    index).  For each pair the detection's confidence for the gt's class is
    recorded alongside the IoU, read from the detections' score array
    (:class:`RawBatch`).  Detections and gts must come from the same
    image.  Returns the matches in detection-index order, or an empty
    MatchSet when nothing clears the floor.  ValueError when there are
    detections and a gt's class has no entry in their score vectors.
    """
    columns = _positives(RawBatch.of(dets), GtBatch.of(gts), iou_floor)
    return MatchSet(tuple(map(Match, *(c.tolist() for c in columns))))


def _groups(dets: FinalBatch, gts: GtBatch) -> tuple[np.ndarray, np.ndarray, int]:
    """``(detection group, gt group, number of groups)``: rows of one image
    and class share a group, numbered densely over the gts; a detection
    that no gt shares a group with gets -1.

    Rows group by their image index; when the two batches index different
    image id tuples, the detections' index is mapped onto the gts' one,
    once per image id.
    """
    det_images = dets.images
    if dets.image_ids != gts.image_ids:
        position = {iid: k for k, iid in enumerate(gts.image_ids)}
        known = np.array([position.get(iid, -1) for iid in dets.image_ids], dtype=np.intp)
        det_images = known[det_images]
    # a dense class index keeps every (image, class) key below image count x class count
    n_gts = len(gts)
    class_ids, classes = np.unique(np.concatenate((gts.class_ids, dets.class_ids)), return_inverse=True)
    gt_key = gts.images * class_ids.shape[0] + classes[:n_gts]
    det_key = np.where(det_images >= 0, det_images * class_ids.shape[0] + classes[n_gts:], -1)
    keys, gt_group = np.unique(gt_key, return_inverse=True)
    at = np.searchsorted(keys, det_key)
    hit = at < keys.shape[0]
    hit[hit] = keys[at[hit]] == det_key[hit]
    return np.where(hit, at, -1), gt_group, keys.shape[0]


def _match_tp_arrays(
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """The matching core: ``(gt, iou)``, two ``(len(thresholds), len(dets))``
    arrays.  ``gt[k, i]`` is the gt that detection i matches at threshold
    k, -1 for none, and ``iou[k, i]`` their IoU (0 for none).  It reads
    the columns of a :class:`FinalBatch` and a :class:`GtBatch`; other
    sequences are turned into them once.

    Every (detection, gt) pair of one ``(image, class)`` group gets its IoU
    in one elementwise pass; pairs at IoU 0 never match and are dropped.
    Greedy matching in score order (ties by lower index) touches one group
    at a time and groups share no gt, so it runs by step: step k lets the
    k-th detection with a candidate in every group take its first
    candidate, by (-IoU, gt index), whose gt is unused and whose IoU
    clears the threshold, for every threshold at once.
    """
    dets, gts = FinalBatch.of(dets), GtBatch.of(gts)
    n_thr, n = len(thresholds), len(dets)
    matched = np.full((n_thr, n), -1, dtype=np.intp)
    matched_iou = np.zeros((n_thr, n))
    det_group, gt_group, n_groups = _groups(dets, gts)

    # Every same-group (detection, gt) pair.  Their order here is not read:
    # the lexsort below orders the pairs fully, by gt index last.
    gts_by_group = np.argsort(gt_group)
    group_size = np.bincount(gt_group, minlength=n_groups)
    group_start = np.cumsum(group_size) - group_size
    pair_det = np.flatnonzero(det_group >= 0)
    count = group_size[det_group[pair_det]]
    offset = np.repeat(group_start[det_group[pair_det]] - (np.cumsum(count) - count), count)
    pair_gt = gts_by_group[offset + np.arange(offset.shape[0])]
    pair_det = np.repeat(pair_det, count)
    v = _iou(dets.boxes[pair_det], gts.boxes[pair_gt])
    keep = v > 0.0
    if not keep.any():
        return matched, matched_iou
    pair_det, pair_gt, v = pair_det[keep], pair_gt[keep], v[keep]

    # Score rank (ties by lower index), then each candidate-holding
    # detection's step: its position among those of its group.
    rank = np.empty(n, dtype=np.intp)
    # Stable: equal scores claim gts in index order, which decides the TP flags.
    rank[np.argsort(-dets.scores, kind="stable")] = np.arange(n)
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
    dets: Sequence[FinalDetection],
    gts: Sequence[GtObject],
    thresholds: Sequence[float],
) -> tuple[MatchSet, ...]:
    """COCO-style true-positive matching at several IoU thresholds at once.

    Returns one MatchSet per threshold, each equal to what
    :func:`match_tp` gives at that threshold.  Detections of any mix of
    images and classes match only GTs of their own ``(image_id,
    class_id)``, and one pass serves all thresholds.
    """
    dets = FinalBatch.of(dets)
    matched, matched_iou = _match_tp_arrays(dets, gts, thresholds)
    result = []
    for gt_row, iou_row in zip(matched, matched_iou):
        hits = np.flatnonzero(gt_row >= 0)
        columns = (hits, gt_row[hits], iou_row[hits], dets.scores[hits], dets.class_ids[hits])
        result.append(MatchSet(tuple(map(Match, *(c.tolist() for c in columns)))))
    return tuple(result)


def match_tp(
    dets: Sequence[FinalDetection],
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
