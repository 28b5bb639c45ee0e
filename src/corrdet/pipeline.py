"""Post-processing chain: score filter, greedy class-wise NMS, top-k.

Raw detections carry a score vector over all classes; the pipeline expands
them into per-class candidates, prunes, and returns scalar-scored final
detections sorted by descending score.  An NMS IoU of 1 (for NMS-free
outputs) skips the middle step: no IoU exceeds 1.  This module holds that
chain only; the detection types and batches it reads and returns live in
:mod:`corrdet.geometry` (and are re-exported here).

The work is columnar: one image's boxes are an ``(n, 4)`` array and its
scores an ``(n, C)`` array.  A :class:`~corrdet.geometry.RawBatch`, which
the raw loader makes for every image, holds those two arrays and is read
as they are; any other sequence of ``RawDetection`` objects is turned
into them once (:meth:`~corrdet.geometry.RawBatch.of`).  The score filter
is one comparison over the score array.  NMS and top-k are then one
greedy walk over the candidates by descending score: each candidate
still alive is kept, a kept box suppresses its class's overlaps through
one IoU row (:func:`~corrdet.geometry._iou_of` over the class's corner
columns and areas, computed when the walk first reaches the class,
bit-identical to ``iou``), and the walk stops at top_k kept.  So the IoU
work is at most top_k rows of the largest class.  The kept rows come out
as a :class:`~corrdet.geometry.FinalBatch` of the same arrays, so no
object is built on the way; :func:`_postprocess_images` does the same
for a whole dataset's images at once.  The contract is that of a plain
loop over candidates: the filter keeps scores strictly above
``score_thr``, NMS suppresses overlaps strictly above ``nms_iou``, and
every tie breaks by ``(-score, detection index, class index)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .geometry import FinalBatch, FinalDetection, RawBatch, RawDetection, _area, _check_unit_interval, _iou_of

# the detection types are geometry's, re-exported
__all__ = ["RawDetection", "RawBatch", "FinalDetection", "FinalBatch", "PipelineConfig", "nms", "postprocess"]


@dataclass(frozen=True)
class PipelineConfig:
    """Post-processing: the score filter ``score_thr``, the NMS IoU
    ``nms_iou`` (1 is NMS-free) and the finals kept per image, ``top_k``."""

    score_thr: float = 0.05
    nms_iou: float = 0.6
    top_k: int = 100

    def __post_init__(self) -> None:
        _check_unit_interval("score_thr", self.score_thr)
        _check_unit_interval("nms_iou", self.nms_iou)
        # TypeError for a non-integer: a float top_k never equals the kept count
        if operator.index(self.top_k) < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


def _greedy(boxes, classes, scores, iou_thr: float, limit: int | None) -> list[int]:
    """Positions kept by greedy class-wise NMS cut at ``limit``, in keep order.

    Candidate ``i`` is box ``boxes[i]`` (an ``(n, 4)`` array) of class
    ``classes[i]`` scored ``scores[i]``.  One walk visits the candidates
    by descending score, ties by lower position; each one still alive is
    kept, until ``limit`` are (None: no limit).  A kept box then
    suppresses every candidate of its class whose IoU with it exceeds
    ``iou_thr``, from one IoU row over the class's corner columns and
    areas, which are found the first time the walk reaches the class.  So
    the IoU work is at most ``limit`` times the largest class, and none
    at an ``iou_thr`` of 1, which no IoU exceeds.
    """
    # Stable: of two equal scores the lower index is kept first, which decides what NMS keeps.
    order = np.argsort(-scores, kind="stable")
    alive = np.ones(order.size, dtype=bool)
    members: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    kept: list[int] = []
    with np.errstate(all="ignore"):
        for i in order.tolist():
            if not alive[i]:
                continue
            kept.append(i)
            if len(kept) == limit:
                break
            if iou_thr < 1.0:
                c = int(classes[i])
                if c not in members:
                    same = np.flatnonzero(classes == c)
                    columns = boxes[same].T.copy()
                    members[c] = (same, columns, _area(columns))
                same, columns, areas = members[c]
                box = boxes[i].tolist()
                alive[same[_iou_of(box, columns, _area(box), areas) > iou_thr]] = False
    return kept


def nms(dets: Sequence[FinalDetection], iou_thr: float) -> list[FinalDetection]:
    """Greedy non-maximum suppression over single-class detections.

    Repeatedly keeps the highest-scoring remaining detection (score ties
    by lower index) and removes every remaining one overlapping it with
    IoU > iou_thr.  Returns the kept detections in keep order.  This is
    :func:`postprocess`'s walk with one class and no top-k: one IoU row
    per kept detection, none at a threshold of 1.
    """
    batch = FinalBatch.of(dets)
    kept = _greedy(batch.boxes, np.zeros(len(dets), dtype=np.intp), batch.scores, iou_thr, None)
    return [dets[i] for i in kept]


def _postprocess_images(raw_dets: Mapping[int, RawBatch], image_ids: Sequence[int], cfg: PipelineConfig) -> FinalBatch:
    """:func:`postprocess` of every image of ``image_ids`` that ``raw_dets``
    holds, as one :class:`~corrdet.geometry.FinalBatch` indexing
    ``image_ids``: the images in that order, each image's finals in keep
    order."""
    columns = [(np.empty((0, 4)), np.empty(0, np.intp), np.empty(0), np.empty(0, np.intp))]
    for k, image_id in enumerate(image_ids):
        if image_id in raw_dets:
            dets = raw_dets[image_id]
            # Row-major, so candidates come in (detection index, class index) order.
            rows, cols = np.nonzero(dets.scores > cfg.score_thr)
            scores = dets.scores[rows, cols]
            kept = _greedy(dets.boxes[rows], cols, scores, cfg.nms_iou, cfg.top_k)
            rows, cols = rows[kept], cols[kept]
            columns.append((dets.boxes[rows], cols, scores[kept], np.full(len(kept), k, dtype=np.intp)))
    return FinalBatch(*map(np.concatenate, zip(*columns)), image_ids)


def postprocess(
    dets: Sequence[RawDetection],
    cfg: PipelineConfig,
    image_id: int = 0,
) -> FinalBatch:
    """Standard detector post-processing of one image's raw detections.

    (i) every (box, class) candidate with score > score_thr survives the
    filter, (ii) greedy NMS runs per class unless nms_iou is 1, (iii) the top_k
    highest-scoring candidates overall are kept, sorted by descending
    score.  All ties break by candidate enumeration order (detection
    index, then class index), which makes the output deterministic.

    Steps (ii) and (iii) are one walk by descending score that stops at
    top_k kept, so each kept candidate reads one IoU row over its class's
    candidates and nothing else is compared.  The result is a
    :class:`~corrdet.geometry.FinalBatch` of the kept rows, a sequence of
    ``FinalDetection`` stamped with ``image_id``.
    """
    return _postprocess_images({image_id: RawBatch.of(dets)}, (image_id,), cfg)
