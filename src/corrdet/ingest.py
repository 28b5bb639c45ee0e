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

All three loaders check by column: each field of every record is pulled
into one list, and each list is checked as a whole (element types,
finiteness, known ids) with the clip done in numpy, bit for bit as on
Python floats, by one helper for all three; the batches and the dataset
built of the columns check the rest, as they check every one.  A
document that fails any column check, all by raising ValueError, goes
to the record walk, which checks one record at a time and is the one
place where errors are worded, the first bad record's.  What the column
checks pass stays arrays, read as they are from there on: ground truth
becomes one :class:`~corrdet.geometry.GtBatch` (boxes ``(n, 4)``, class
indices, and each row's image as a position in the image list) and final
detections one :class:`~corrdet.geometry.FinalBatch` (the same plus
scores), which the class-level matcher, AP, beta_cls and the class-level
re-rank read; raw detections become one
:class:`~corrdet.geometry.RawBatch` (boxes ``(n, 4)``, scores
``(n, C)``) per image, which post-processing, positive matching and the
image-level re-rank read.  Each batch reads as a sequence of the objects
its rows stand for, built on demand; the record walk still builds the
objects, which :class:`Dataset` turns into batches once.  The writers
read the columns too: each record is one ``%`` of a fixed template, its
floats formatted in one ``"%.17g"`` pass per row (:func:`_float_texts`),
and the text is the one :func:`render_report` writes of the same records
as dicts.  Every writer builds its text before it opens the file.

Raw detections are the one file whose parse dominates a run (80 scores a
box), so :func:`load_raw_dets` caches what a regular file alone decides:
its image ids, unclipped corners and scores, in
``<dir>/.corrdet-cache/<name>.npz`` beside it, about 26% of the JSON's
size (5.4 MB for 20.7 MB).  The key is the SHA-256 of the file's bytes
with :data:`_CACHE_VERSION`, so a file rewritten in the same second at
the same size is read afresh; the cache is read without pickle and
written through a temporary file and ``os.replace``.  A load of the same
bytes skips the JSON parse, and every step that reads the dataset runs
on every load.  Results and errors never depend on the cache: a missing,
foreign or unreadable cache file, or a hit the dataset refuses, loads as
the first time does, and a place that cannot be written is skipped in
silence.  Deleting the directory is always safe.  Image ids beyond 64
bits are not cached, and ground truth and final detections, whose parse
is a small part of a run, are not cached either.

All numbers are serialized with 17 significant digits, so emitted files
parse back to bit-identical values and identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import os
import stat
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, TypeVar

import numpy as np

from .errors import DimensionError, ParseError, ReferenceError, SchemaError
from .geometry import Box, FinalBatch, FinalDetection, GtBatch, GtObject, RawBatch, RawDetection, _iou

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
    """Immutable in-memory dataset, held as batches.

    ``categories`` pairs each original category id with its name; the
    position in the tuple is the class index used everywhere else.
    ``gts`` is a :class:`~corrdet.geometry.GtBatch`, ``final_dets`` a
    :class:`~corrdet.geometry.FinalBatch` (or None), and ``raw_dets`` maps
    image id to that image's raw detections (only images that have any),
    each a :class:`~corrdet.geometry.RawBatch` (or None for no map).  The
    loaders and :func:`synth` make batches; a sequence of objects given in
    their place is turned into its batch once, here.

    Each batch checks its own values; construction checks the rest, as the
    loaders check a file: category and image ids are distinct integers,
    names strings and sides integers >= 1 that ``float()`` converts (else
    ValueError, naming the field and its first bad entry); GT and final
    class indices lie in ``[0, len(categories))``, GT and final image ids
    and ``raw_dets`` keys are image ids (else ReferenceError), and every
    non-empty raw batch has one score per category (else DimensionError).
    """

    categories: tuple[tuple[int, str], ...]
    images: tuple[tuple[int, int, int], ...]
    gts: GtBatch
    raw_dets: dict[int, RawBatch] | None = None
    final_dets: FinalBatch | None = None

    def __post_init__(self) -> None:
        ids: set[int] = set()
        for k, (cid, name) in enumerate(self.categories):
            if not (_integral(cid) and cid not in ids and isinstance(name, str)):
                raise ValueError(f"Dataset.categories: entry {k} {(cid, name)!r} needs a new integer id, a string name")
            ids.add(cid)
        known: set[int] = set()
        for k, (iid, w, h) in enumerate(self.images):
            if not (_integral(iid) and iid not in known and _integral(w) and _integral(h)
                    and 1 <= w < _NO_FLOAT and 1 <= h < _NO_FLOAT):
                raise ValueError(f"Dataset.images: entry {k} {(iid, w, h)!r} needs a new integer id, integer sides"
                                 " >= 1 that float() converts")
            known.add(iid)
        object.__setattr__(self, "gts", GtBatch.of(self.gts))
        if self.raw_dets is not None:
            object.__setattr__(self, "raw_dets", {iid: RawBatch.of(d) for iid, d in self.raw_dets.items()})
        if self.final_dets is not None:
            object.__setattr__(self, "final_dets", FinalBatch.of(self.final_dets))
        n_classes = len(self.categories)
        for what, batch in (("ground truth", self.gts), ("final detections", self.final_dets)):
            if batch is None:
                continue
            outside = batch.class_ids[(batch.class_ids < 0) | (batch.class_ids >= n_classes)]
            if len(outside):
                raise ReferenceError(f"{what}: class index {outside[0]} outside [0, {n_classes})")
            rows = np.flatnonzero(~np.array([iid in known for iid in batch.image_ids], dtype=bool)[batch.images])
            if len(rows):
                raise ReferenceError(f"{what}: row {rows[0]} has unknown image id {batch[rows[0]].image_id}")
        if self.raw_dets is not None:
            unknown = set(self.raw_dets).difference(known)
            if unknown:
                raise ReferenceError(f"raw detections: unknown image id {min(unknown)}")
            for iid, raw in self.raw_dets.items():
                width = raw.scores.shape[1]
                if len(raw) and width != n_classes:
                    raise DimensionError(f"raw detections of image {iid}: got {width} scores for {n_classes} categories")

    def per_image(self) -> list[tuple[int, RawBatch, GtBatch]]:
        """``(image id, raw detections, GTs)`` for every image in file order,
        with an empty batch where an image has no detections or no GTs.
        Each image's GTs are in file order.  :func:`~corrdet.metrics.beta_img`
        reads these triples as they come.

        Raises ValueError when the dataset holds no raw detections.
        """
        if self.raw_dets is None:
            raise ValueError("dataset has no raw detections to split per image")
        ends = np.cumsum(np.bincount(self.gts.images, minlength=len(self.gts.image_ids))).tolist()
        # Stable: each image's gts keep file order, whose index breaks equal-IoU matches.
        gts = self.gts._take(np.argsort(self.gts.images, kind="stable"))
        gts_of = {iid: gts[a:b] for iid, a, b in zip(gts.image_ids, [0] + ends, ends)}
        none = RawBatch(np.empty((0, 4)), np.empty((0, len(self.categories))))
        return [(iid, self.raw_dets.get(iid, none), gts_of.get(iid, gts[:0])) for iid, _, _ in self.images]


def _field(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    return obj[key]


# What json.load makes of a JSON number; bool is a subclass of int, not listed.
_NUMBER_TYPES = frozenset((int, float))
# The least integer that float() refuses (OverflowError): it rounds to 2**1024.
_NO_FLOAT = 2**1024 - 2**970


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


def _integral(v: Any) -> bool:
    """``v`` is an integer, not a bool: the rule of every id in a file."""
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(v: Any, where: str) -> int:
    if not _integral(v):
        raise SchemaError(f"{where}: expected an integer, got {v!r}")
    return v


def _records(items: Any, where: str) -> Iterator[tuple[str, Any]]:
    """``(where[k], item)`` for each entry of the JSON list ``items``."""
    if not isinstance(items, list):
        raise SchemaError(f"{where} must be a list")
    for k, item in enumerate(items):
        yield f"{where}[{k}]", item


def _clip_box(x1: float, y1: float, x2: float, y2: float, size: tuple[int, int], where: str) -> Box:
    """The box clipped to the image; an empty clip is the record's SchemaError."""
    w, h = size
    x1, x2 = min(max(x1, 0.0), float(w)), min(max(x2, 0.0), float(w))
    y1, y2 = min(max(y1, 0.0), float(h)), min(max(y2, 0.0), float(h))
    try:
        return Box(x1, y1, x2, y2)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e


def _gt_walk(doc: Any, path: str) -> Dataset:
    """load_gt one record at a time; raises the first bad record's error."""
    cats_raw = _field(doc, "categories", path)
    images_raw = _field(doc, "images", path)
    anns_raw = _field(doc, "annotations", path)

    categories: list[tuple[int, str]] = []
    class_of: dict[int, int] = {}
    for where, c in _records(cats_raw, f"{path}: categories"):
        cid = _integer(_field(c, "id", where), where)
        name = _field(c, "name", where)
        if not isinstance(name, str):
            raise SchemaError(f"{where}: name must be a string")
        if cid in class_of:
            raise SchemaError(f"{where}: duplicate category id {cid}")
        class_of[cid] = len(categories)
        categories.append((cid, name))

    size_of: dict[int, tuple[int, int]] = {}
    for where, im in _records(images_raw, f"{path}: images"):
        iid = _integer(_field(im, "id", where), where)
        w = _integer(_field(im, "width", where), where)
        h = _integer(_field(im, "height", where), where)
        if w <= 0 or h <= 0:
            raise SchemaError(f"{where}: width/height must be positive")
        _number(max(w, h), where)  # clipping to a side beyond the float range would overflow
        if iid in size_of:
            raise SchemaError(f"{where}: duplicate image id {iid}")
        size_of[iid] = (w, h)

    gts: list[GtObject] = []
    for where, a in _records(anns_raw, f"{path}: annotations"):
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
        gts.append(GtObject(_clip_box(x, y, x + w, y + h, size_of[iid], where), class_of[cid], iid))

    return Dataset(tuple(categories), tuple((iid, w, h) for iid, (w, h) in size_of.items()), gts)


_T = TypeVar("_T")
_DICT = frozenset((dict,))
_LIST = frozenset((list,))
_INT = frozenset((int,))


def _typed(column: Iterable, types: frozenset) -> bool:
    """Every element's type is in ``types`` (a bool is not an int here)."""
    return set(map(type, column)) <= types


def _require(ok: bool) -> None:
    """ValueError, a column check's refusal, unless ``ok``."""
    if not ok:
        raise ValueError("a column check failed")


def _by_columns(columns: Callable[[], _T], walk: Callable[[], _T]) -> _T:
    """``columns()``, or ``walk()`` when a column check fails (ValueError or
    a dataset's DimensionError) or a record lacks a field or has the wrong shape."""
    try:
        return columns()
    except (KeyError, TypeError, OverflowError, ValueError, DimensionError):
        pass
    return walk()


def _corners(records: list) -> tuple[list, np.ndarray]:
    """The records' image ids and their bbox numbers as the file holds
    them, an ``(n, 4)`` array; ValueError when an id or a number is
    ill-typed or not finite."""
    iids = [r["image_id"] for r in records]
    bboxes = [r["bbox"] for r in records]
    _require(_typed(iids, _INT) and _typed(bboxes, _LIST) and set(map(len, bboxes)) <= {4})
    flat = [v for b in bboxes for v in b]
    _require(_typed(flat, _NUMBER_TYPES))
    corners = np.array(flat, dtype=np.float64).reshape(-1, 4)  # OverflowError beyond the float range
    _require(np.isfinite(corners).all())
    return iids, corners


def _clipped(iids: list, corners: np.ndarray, images: Sequence[tuple[int, int, int]], xywh: bool) -> tuple:
    """The images' positions in ``images`` of the records with ids
    ``iids`` as an array (KeyError: an unknown id), and the corners the
    walk makes of their bbox numbers ``corners``, ``[x, y, w, h]``
    (``xywh``, summed in place) or ``[x1, y1, x2, y2]``, clipped to their
    images, as an ``(n, 4)`` array.

    The clip follows ``min(max(v, 0.0), side)`` exactly, so a -0.0 corner
    stays -0.0; ``x + w`` may overflow to inf, which the clip brings back
    to the side, as in the walk.
    """
    position = {iid: k for k, (iid, _, _) in enumerate(images)}
    index = np.array([position[i] for i in iids], dtype=np.intp)
    # OverflowError: a side beyond the float range
    sides = np.array([(w, h, w, h) for _, w, h in images], dtype=np.float64).reshape(-1, 4)[index]
    with np.errstate(all="ignore"):
        if xywh:
            corners[:, 2:] += corners[:, :2]
        corners = np.where(0.0 > corners, 0.0, corners)
    return index, np.where(sides < corners, sides, corners)


def _gt_columns(doc: Any) -> Dataset:
    """load_gt by columns; ValueError when a check, or the dataset's, fails."""
    cats, images, anns = doc["categories"], doc["images"], doc["annotations"]
    _require(_typed([cats, images, anns], _LIST) and all(_typed(x, _DICT) for x in (cats, images, anns)))
    categories = tuple((c["id"], c["name"]) for c in cats)
    image_list = tuple((im["id"], im["width"], im["height"]) for im in images)
    class_of = {cid: k for k, (cid, _) in enumerate(categories)}
    ann_cids = [a["category_id"] for a in anns]
    crowd = [a.get("iscrowd", 0) for a in anns]
    _require(_typed([a["id"] for a in anns] + ann_cids + crowd, _INT) and not any(crowd))
    classes = np.array([class_of[c] for c in ann_cids], dtype=np.intp)  # KeyError: unknown id
    index, corners = _clipped(*_corners(anns), image_list, xywh=True)
    return Dataset(categories, image_list, GtBatch(corners, classes, index, [iid for iid, _, _ in image_list]))


def load_gt(path: str) -> Dataset:
    """Read COCO-style ground truth; see the module docstring for schema.

    Raises ParseError on unreadable/invalid JSON, SchemaError on missing
    or malformed fields (including degenerate boxes and iscrowd != 0),
    ReferenceError on dangling image/category ids.
    """
    doc = load_report(path)
    return _by_columns(lambda: _gt_columns(doc), lambda: _gt_walk(doc, path))


def _raw_walk(doc: Any, path: str, dataset: Dataset) -> Dataset:
    """load_raw_dets one record at a time; raises the first bad record's error."""
    dets_raw = _field(doc, "detections", path)
    n_classes = len(dataset.categories)
    size_of = {iid: (w, h) for iid, w, h in dataset.images}

    grouped: dict[int, list[RawDetection]] = {}
    for where, d in _records(dets_raw, f"{path}: detections"):
        iid = _integer(_field(d, "image_id", where), where)
        if iid not in size_of:
            raise ReferenceError(f"{where}: unknown image id {iid}")
        x1, y1, x2, y2 = _bbox(d, where, "[x1, y1, x2, y2]")
        try:
            box = _clip_box(x1, y1, x2, y2, size_of[iid], where)
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

    return replace(dataset, raw_dets=grouped)


def _raw_columns(doc: Any) -> tuple[list, np.ndarray, np.ndarray]:
    """What a raw detections document alone decides, by columns: the
    detections' image ids, their corners as the file holds them, ``(n,
    4)``, and their scores, ``(n, C)`` for the one score count ``C`` of
    every record; ValueError when a check fails."""
    dets = doc["detections"]
    _require(type(dets) is list and _typed(dets, _DICT))
    scores = [d["scores"] for d in dets]
    _require(_typed(scores, _LIST) and len(widths := set(map(len, scores))) <= 1)
    _require(_typed(chain.from_iterable(scores), _NUMBER_TYPES))
    iids, corners = _corners(dets)
    # OverflowError: out of range
    score_array = np.array(scores, dtype=np.float64).reshape(len(dets), max(widths, default=0))
    return iids, corners, score_array


def _raw_batches(iids: list, corners: np.ndarray, scores: np.ndarray, dataset: Dataset) -> Dataset:
    """load_raw_dets's steps that read ``dataset``, on the columns of
    :func:`_raw_columns`: one :class:`RawBatch` per image; ValueError or
    the dataset's DimensionError when a check fails.

    Images come in order of their first detection and each image's rows
    in file order, as in the walk.  The boxes and scores are gathered once
    in that order, so every batch holds views of the same two arrays.
    """
    _, corners = _clipped(iids, corners, dataset.images, xywh=False)

    slot: dict[int, int] = {}
    image_of = np.array([slot.setdefault(i, len(slot)) for i in iids], dtype=np.intp)
    # Stable: each image's detections keep file order, so NMS ties break as in the file.
    order = np.argsort(image_of, kind="stable")
    ends = np.cumsum(np.bincount(image_of, minlength=len(slot))).tolist()
    batch = RawBatch(corners[order], scores[order])  # ValueError: a box with no area, a score outside [0, 1] or none
    return replace(dataset, raw_dets={iid: batch[a:b] for iid, a, b in zip(slot, [0] + ends, ends)})


_CACHE_DIR = ".corrdet-cache"
# Stored in every cache file and checked with its key: a change to what the
# cache holds or to how the loader reads it must raise this, so that no
# older file is read.
_CACHE_VERSION = 1


def _cache_path(path: str) -> str:
    """Where the columns of the raw file ``path`` are cached:
    ``<dir>/.corrdet-cache/<name>.npz``, beside it."""
    head, name = os.path.split(path)
    return os.path.join(head, _CACHE_DIR, name + ".npz")


def _cached(cache: str, key: str) -> tuple[list, np.ndarray, np.ndarray] | None:
    """The columns :func:`_store` wrote to ``cache`` for the bytes of
    digest ``key``; None when it holds no such columns."""
    try:
        # no pickle, so a cache file runs no code; np.load is given the file
        # because it leaves a file it opened open when the zip is broken
        with open(cache, "rb") as f, np.load(f, allow_pickle=False) as npz:
            if npz["version"].tolist() != _CACHE_VERSION or npz["key"].tolist() != key:
                return None
            ids, corners, scores = npz["image_ids"], npz["corners"], npz["scores"]
    except Exception:  # missing, truncated or foreign: whatever the fault, a miss
        return None
    if not (ids.dtype == np.int64 and corners.dtype == scores.dtype == np.float64):
        return None
    if not (ids.ndim == 1 and corners.shape == (len(ids), 4) and scores.ndim == 2 and len(scores) == len(ids)):
        return None
    return (ids.tolist(), corners, scores) if np.isfinite(corners).all() else None


def _store(cache: str, key: str, iids: list, corners: np.ndarray, scores: np.ndarray) -> None:
    """Cache the columns of :func:`_raw_columns` under ``key`` at
    ``cache``, through a temporary file, so a reader finds the old file or
    the new one.  Nothing is written when an id does not fit int64 or the
    place cannot be written."""
    try:
        ids = np.array(iids, dtype=np.int64)
    except OverflowError:  # ids beyond 64 bits are read from the JSON each time
        return
    tmp = f"{cache}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        f = open(tmp, "xb")
    except OSError:  # a read-only place, a file by the directory's name, another writer's file
        return
    try:
        with f:
            np.savez(f, version=_CACHE_VERSION, key=key, image_ids=ids, corners=corners, scores=scores)
        os.replace(tmp, cache)
    except OSError:
        with suppress(OSError):
            os.remove(tmp)


def load_raw_dets(path: str, dataset: Dataset) -> Dataset:
    """Read raw (pre-post-processing) detections into a copy of ``dataset``,
    one :class:`~corrdet.geometry.RawBatch` per image that has any.

    Every detection's score vector must have exactly one entry per
    category (else DimensionError) and reference a known image id.

    What a regular file alone decides (:func:`_raw_columns`) is cached
    beside it, as the module docstring says; the steps that read
    ``dataset`` (:func:`_raw_batches`) run on every load, and a hit they
    refuse loads as a miss does.
    """
    # imported here, so that only a raw load pays for OpenSSL: about 4 ms
    # and 3.7 MB of peak RSS in every process that imports corrdet
    import hashlib

    with _reading(path), open(path, "rb") as f:
        data = f.read()
        regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)  # not a pipe or a device
    key = hashlib.sha256(data).hexdigest()
    cache = _cache_path(path)
    cached = _cached(cache, key) if regular else None
    if cached is not None and (hit := _by_columns(lambda: _raw_batches(*cached, dataset), lambda: None)) is not None:
        return hit
    with _reading(path):
        # the text open(path, encoding="utf-8") reads, so a ParseError's position is the same
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        del data  # the parse peaks the load's memory, without the bytes
        doc = json.loads(text)
        del text

    def columns() -> Dataset:
        found = _raw_columns(doc)
        if regular and cached is None:
            _store(cache, key, *found)
        return _raw_batches(*found, dataset)

    return _by_columns(columns, lambda: _raw_walk(doc, path, dataset))


def _final_walk(doc: Any, path: str, dataset: Dataset) -> Dataset:
    """load_final_dets one record at a time; raises the first bad record's error."""
    class_of = {cid: idx for idx, (cid, _) in enumerate(dataset.categories)}
    size_of = {iid: (w, h) for iid, w, h in dataset.images}

    finals: list[FinalDetection] = []
    for where, d in _records(doc, f"{path}: results"):
        iid = _integer(_field(d, "image_id", where), where)
        cid = _integer(_field(d, "category_id", where), where)
        if iid not in size_of:
            raise ReferenceError(f"{where}: unknown image id {iid}")
        if cid not in class_of:
            raise ReferenceError(f"{where}: unknown category id {cid}")
        x, y, w, h = _bbox(d, where, "[x, y, w, h]")
        score = _number(_field(d, "score", where), where)
        box = _clip_box(x, y, x + w, y + h, size_of[iid], where)
        try:
            det = FinalDetection(box, class_of[cid], score, iid)
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from e
        finals.append(det)

    return replace(dataset, final_dets=finals)


def _final_columns(doc: Any, dataset: Dataset) -> Dataset:
    """load_final_dets by columns; ValueError when a check fails."""
    _require(type(doc) is list and _typed(doc, _DICT))
    cids = [d["category_id"] for d in doc]
    scores = [d["score"] for d in doc]
    _require(_typed(cids, _INT) and _typed(scores, _NUMBER_TYPES))
    class_of = {cid: idx for idx, (cid, _) in enumerate(dataset.categories)}
    classes = np.array([class_of[c] for c in cids], dtype=np.intp)  # KeyError: unknown id
    index, corners = _clipped(*_corners(doc), dataset.images, xywh=True)
    score_array = np.array(scores, dtype=np.float64)  # OverflowError beyond the float range
    image_ids = [iid for iid, _, _ in dataset.images]
    return replace(dataset, final_dets=FinalBatch(corners, classes, score_array, index, image_ids))


def load_final_dets(path: str, dataset: Dataset) -> Dataset:
    """Read a COCO results list into a copy of ``dataset``."""
    doc = load_report(path)
    return _by_columns(lambda: _final_columns(doc, dataset), lambda: _final_walk(doc, path, dataset))


def fmt_float(value: float) -> str:
    """17-significant-digit decimal form; parses back to identical bits.

    An integral value below 1e17 in magnitude, the one kind whose
    ``"%.17g"`` text has neither ``.`` nor ``e``, gets ``.0``, so the text
    reads back as a float.  The writers format whole columns the same way
    (see :func:`_float_texts`).  Raises ValueError for a non-finite value.
    """
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite number {v}")
    s = "%.17g" % v
    return s if ("." in s or "e" in s) else s + ".0"


def _float_texts(values: np.ndarray, sep: str) -> list[str]:
    """Each row of the 2-d float64 array ``values`` as :func:`fmt_float`
    writes its values, joined by ``sep``.

    One ``"%.17g"`` pass per row, with ``sep`` in the format string; a row
    that holds an integral value below 1e17 in magnitude is formatted once
    more, with ``.0`` after each such value.  Raises fmt_float's ValueError
    for the first non-finite value, in row order.
    """
    finite = np.isfinite(values)
    if not finite.all():
        fmt_float(values[~finite][0])
    template = sep.join(["%.17g"] * values.shape[1])
    # one value is its own argument to a one-value template
    rows = values[:, 0].tolist() if values.shape[1] == 1 else map(tuple, values.tolist())
    texts = [template % row for row in rows]
    integral = (np.trunc(values) == values) & (np.abs(values) < 1e17)
    for i in np.flatnonzero(integral.any(axis=1)).tolist():
        texts[i] = sep.join(["%.17g.0" if m else "%.17g" for m in integral[i].tolist()]) % tuple(values[i].tolist())
    return texts


def _list_template(n: int, indent: int) -> str:
    """render_report's text of a list of ``n`` items at ``indent``, with
    ``%s`` standing for the item texts joined by ``",\\n"`` and the items'
    indent."""
    return f"[\n{'  ' * (indent + 1)}%s\n{'  ' * indent}]" if n else "[%s]"


def _list_text(items: Sequence[str], indent: int) -> str:
    """render_report's text of a list at ``indent`` whose items read ``items``."""
    return _list_template(len(items), indent) % f",\n{'  ' * (indent + 1)}".join(items)


def _dict_text(fields: Iterable[tuple[str, str]], indent: int) -> str:
    """render_report's text of a dict at ``indent`` from its ``(key, value
    text)`` pairs, in the order given."""
    inner = "  " * (indent + 1)
    items = [f"{inner}{json.dumps(k)}: {text}" for k, text in fields]
    return "{\n" + ",\n".join(items) + f"\n{'  ' * indent}}}" if items else "{}"


def _fmt(value: Any, indent: int) -> str:
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
        return _dict_text(((str(k), _fmt(v, indent + 1)) for k, v in sorted(value.items())), indent)
    if isinstance(value, (list, tuple)):
        return _list_text([_fmt(v, indent + 1) for v in value], indent)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_report(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats.

    Every float is written as :func:`fmt_float` writes it, and every list
    as :func:`_list_text` lays out its items' texts.  The dataset writers
    build the same text from their columns (:func:`_float_texts`).
    """
    return _fmt(payload, 0) + "\n"


# A character json.dumps escapes, so no document's text holds it: it marks
# where a writer's records go.
_SLOT = "\0"


def _document(template: str, items: Sequence[str], indent: int) -> list[str]:
    """The text of the document ``template``, with the list of ``items`` at
    ``indent`` in place of its :data:`_SLOT` and a final newline, as pieces:
    one per item and separator, so the text is never joined whole."""
    head, tail = template.split(_SLOT)
    start, end = _list_template(len(items), indent).split("%s")
    pieces = [f",\n{'  ' * (indent + 1)}"] * (2 * len(items) - 1)
    pieces[::2] = items
    return [head + start, *pieces, end + tail + "\n"]


def _write(pieces: Iterable[str], path: str) -> None:
    """Write the text ``pieces`` to ``path``.  Callers build them first, so
    an error while building them leaves an existing file as it was."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(pieces)


def write_report(report: Any, path: str) -> None:
    """Serialize a report (or any JSON document): sorted keys, 17-digit floats.

    The output is deterministic for identical content, and every float
    parses back to the same bits.  The text is rendered before the file
    is opened, so a value that cannot be written (ValueError, TypeError)
    leaves an existing file as it was.
    """
    _write([render_report(report)], path)


@contextmanager
def _reading(path: str) -> Iterator[None]:
    """Raise what reading and parsing the file ``path`` raises as its
    ParseError."""
    try:
        yield
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError(f"{path} nests too deeply to parse") from e


def load_report(path: str) -> Any:
    """Parse a report (or any JSON document); ParseError if unreadable."""
    with _reading(path), open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _rows_of(batch: GtBatch | FinalBatch, dataset: Dataset, indent: int) -> tuple[list[str], list, list]:
    """The ``[x, y, w, h]`` texts (as :func:`_float_texts` joins them for a
    list at ``indent``), category ids and image ids of the rows of ``batch``."""
    image_ids = [batch.image_ids[k] for k in batch.images.tolist()]
    category_ids = [cid for cid, _ in dataset.categories]
    xywh = np.concatenate((batch.boxes[:, :2], batch.boxes[:, 2:] - batch.boxes[:, :2]), axis=1)  # Box.to_xywh
    bboxes = _float_texts(xywh, f",\n{'  ' * (indent + 1)}")
    return bboxes, [category_ids[c] for c in batch.class_ids.tolist()], image_ids


def emit_gt(dataset: Dataset, path: str) -> None:
    """Write ground truth in the COCO subset schema load_gt reads.

    Each record is one ``%`` of a fixed template, from the batch columns,
    and the text is the one :func:`write_report` writes of the same
    document as dicts.  It is built before the file is opened.
    """
    bboxes, category_ids, image_ids = _rows_of(dataset.gts, dataset, 3)
    fields = [("bbox", _list_template(4, 3)), ("category_id", "%d"), ("id", "%d"), ("image_id", "%d"), ("iscrowd", "0")]
    annotations = map(_dict_text(fields, 2).__mod__, zip(bboxes, category_ids, range(1, len(bboxes) + 1), image_ids))
    category = _dict_text([("id", "%d"), ("name", "%s")], 2)
    image = _dict_text([("height", "%d"), ("id", "%d"), ("width", "%d")], 2)
    document = [
        ("annotations", _SLOT),
        ("categories", _list_text([category % (cid, json.dumps(name)) for cid, name in dataset.categories], 1)),
        ("images", _list_text([image % (h, iid, w) for iid, w, h in dataset.images], 1)),
    ]
    _write(_document(_dict_text(document, 0), list(annotations), 1), path)


def emit_raw_dets(dataset: Dataset, path: str) -> None:
    """Write raw detections in the schema load_raw_dets reads, as
    :func:`emit_gt` writes: each image's rows through one template."""
    sep = f",\n{'  ' * 4}"
    records: list[str] = []
    for iid, raw, _ in dataset.per_image():
        scores = _list_template(raw.scores.shape[1], 3)
        record = _dict_text([("bbox", _list_template(4, 3)), ("image_id", "%d" % iid), ("scores", scores)], 2)
        records.extend(map(record.__mod__, zip(_float_texts(raw.boxes, sep), _float_texts(raw.scores, sep))))
    _write(_document(_dict_text([("detections", _SLOT)], 0), records, 1), path)


def emit_final_dets(dataset: Dataset, path: str) -> None:
    """Write final detections as a COCO results list, as :func:`emit_gt`
    writes."""
    if dataset.final_dets is None:
        raise ValueError("dataset has no final detections to emit")
    bboxes, category_ids, image_ids = _rows_of(dataset.final_dets, dataset, 2)
    scores = _float_texts(dataset.final_dets.scores.reshape(-1, 1), "")
    fields = [("bbox", _list_template(4, 2)), ("category_id", "%d"), ("image_id", "%d"), ("score", "%s")]
    records = map(_dict_text(fields, 1).__mod__, zip(bboxes, category_ids, image_ids, scores))
    _write(_document(_SLOT, list(records), 0), path)


_GRID = 8
_CELL = 64.0
_IMAGE_SIZE = int(_GRID * _CELL)
_MAX_GTS = 4
_MAX_DUPS = 3
_MAX_RAW_FPS = 2
_MAX_FINAL_FPS = 2


def _unwritten(n: int) -> np.ndarray:
    """``n`` float64 slots in an anonymous map, where a page never written
    takes no memory.  ``np.empty`` asks for huge pages from 4 MiB on, which
    would hold up to 2 MiB of pages that synth's upper bounds never reach."""
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


def _quant(v: np.ndarray) -> np.ndarray:
    """Snap to 1/64 px so corner<->xywh conversions round-trip exactly; one
    new array, rounded and divided in place."""
    v = v * 64.0
    return np.divide(np.round(v, out=v), 64.0, out=v)


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

    Draws: the loop only calls the generator, in the order the rows use
    the values.  Each ``integers`` and ``permutation`` call stays its own
    call; each run of double draws between two of them is one
    ``rng.random(out=...)``, into one float64 buffer or, for a raw
    detection's class scores, into its row of the score array.  That is
    the stream of one scalar draw after another: ``random`` and
    ``uniform`` both draw each double from one 64-bit output, while
    ``integers`` takes buffered 32-bit outputs, so only bulk draws across
    an ``integers`` call would change the dataset.  Array code then builds
    every box, IoU and score with the scalar draws' float operations, in
    their order: ``lo + (hi - lo) * r``, as ``rng.uniform(lo, hi)``
    computes it, and ``0.04 * r`` for ``rng.uniform(0, 0.04, n)``.  No box
    or detection object is built; the result holds one
    :class:`~corrdet.geometry.GtBatch`, one
    :class:`~corrdet.geometry.FinalBatch` and one
    :class:`~corrdet.geometry.RawBatch` per image, views of two arrays, as
    the loaders make.
    """
    if not -1.0 <= knob <= 1.0:
        raise ValueError(f"knob must lie in [-1, 1], got {knob}")
    if n_images < 0 or n_classes < 1:
        raise ValueError(f"need n_images >= 0 and n_classes >= 1, got {n_images} and {n_classes}")
    rng = np.random.default_rng(seed)
    draw, integers = rng.random, rng.integers
    # Doubles per record: a cell box takes 4 (w, h, x1, y1) and a GT's anchor
    # shift 2 more; a jittered copy takes its magnitude, 4 corners and the
    # noise of its score, a background box its score.  A raw detection's
    # n_classes scores go to its row of ``score_rows``, never to be copied.
    # The extra image and row keep both maps non-empty with no images.
    most = _MAX_GTS * (12 + _MAX_DUPS * 6) + _MAX_RAW_FPS * 5 + _MAX_FINAL_FPS * 5
    buf = _unwritten((n_images + 1) * most)
    score_rows = _unwritten((n_images * (_MAX_GTS * _MAX_DUPS + _MAX_RAW_FPS) + 1) * n_classes).reshape(-1, n_classes)
    done = at = 0  # buf[:done] is drawn; buf[done:at] is drawn at the next flush

    def flush() -> None:
        nonlocal done
        draw(out=buf[done:at])
        done = at

    def integer(lo: int, hi: int) -> int:
        flush()
        return int(integers(lo, hi))

    def draw_scores() -> None:
        flush()
        draw(out=score_rows[len(raws) // 5 - 1])

    # (buffer start, GT row or -1 for background, cell, class, image) of each record
    gts, raws, fins = array("q"), array("q"), array("q")
    for image in range(n_images):
        n_g, n_rf, n_ff = integer(1, _MAX_GTS + 1), integer(0, _MAX_RAW_FPS + 1), integer(0, _MAX_FINAL_FPS + 1)
        cells = rng.permutation(_GRID * _GRID)[: n_g + n_rf + n_ff].tolist()
        for cell in cells[:n_g]:
            at += 4
            gt, c = len(gts) // 5, integer(0, n_classes)
            gts.extend((at - 4, gt, cell, c, image))
            at += 2
            for _ in range(integer(1, _MAX_DUPS + 1)):
                raws.extend((at, gt, cell, c, image))
                at += 6
                draw_scores()
            fins.extend((at, gt, cell, c, image))
            at += 6
        for cell in cells[n_g : n_g + n_rf]:
            at += 4
            raws.extend((at - 4, -1, cell, integer(0, n_classes), image))
            at += 1
            draw_scores()
        for cell in cells[n_g + n_rf :]:
            at += 4
            fins.extend((at - 4, -1, cell, integer(0, n_classes), image))
            at += 1
    flush()

    def columns(records: array) -> np.ndarray:
        return np.frombuffer(records, dtype=np.int64).reshape(-1, 5).T.astype(np.intp, copy=False)

    def cell_boxes(start: np.ndarray, cell: np.ndarray, min_side: float) -> np.ndarray:
        """A box inside each cell, >= 8 px from the cell border."""
        ox, oy = (cell % _GRID) * _CELL, (cell // _GRID) * _CELL
        w = _quant(min_side + (40.0 - min_side) * buf[start])
        h = _quant(min_side + (40.0 - min_side) * buf[start + 1])
        lo_x, lo_y = ox + 8.1, oy + 8.1
        x1 = _quant(lo_x + (ox + _CELL - 8.1 - w - lo_x) * buf[start + 2])
        y1 = _quant(lo_y + (oy + _CELL - 8.1 - h - lo_y) * buf[start + 3])
        return np.stack((x1, y1, x1 + w, y1 + h), axis=1)

    def detections(records: np.ndarray, bases: np.ndarray, top: float, lo: float, hi: float) -> tuple:
        """Boxes and class scores of ``records``: each GT's base box with
        every corner moved by its own draw in [-m, m), m in [0.5, top),
        scored by its IoU with the GT, or a background box scored in [lo, hi)."""
        start, gt, cell = records[:3]
        fg = gt >= 0
        at, gt = start[fg], gt[fg]
        m = (0.5 + (top - 0.5) * buf[at])[:, None]
        jittered = buf[at[:, None] + (1, 2, 3, 4)]
        jittered *= m - -m  # in place: lo + span * r, then the base plus that
        jittered += -m
        jittered += bases[gt]
        boxes, scores = np.empty((len(start), 4)), np.empty(len(start))
        boxes[fg] = jittered = _quant(jittered)
        boxes[~fg] = cell_boxes(start[~fg], cell[~fg], 16.0)
        iou = _iou(jittered, gt_boxes[gt])
        scores[fg] = 0.1 + 0.8 * (knob * iou + (1.0 - abs(knob)) * buf[at + 5] + max(0.0, -knob))
        scores[~fg] = lo + (hi - lo) * buf[start[~fg] + 4]
        return boxes, scores

    gt_rows, raw_rows, fin_rows = columns(gts), columns(raws), columns(fins)
    gt_boxes = cell_boxes(gt_rows[0], gt_rows[2], 24.0)
    # a rigid shift up to 6 px spreads a cluster's IoU against its GT over
    # roughly [0.4, 1.0]; 6 + 1.25 + rounding stays inside the 8 px cell
    # margin.  <= 1.25 px jitter on >= 24 px sides keeps pairwise duplicate
    # IoU >= (21.5/26.5)^2 > 0.6, so default NMS always collapses one GT's
    # duplicates to a single final.
    anchors = gt_boxes + _quant(-6.0 + 12.0 * buf[gt_rows[0, :, None] + (4, 5, 4, 5)])
    raw_boxes, raw_class_scores = detections(raw_rows, anchors, 1.25, 0.06, 0.45)
    fin_boxes, fin_scores = detections(fin_rows, gt_boxes, 8.0, 0.05, 0.9)
    gt_classes, gt_images, raw_classes, raw_images, fin_classes, fin_images = map(
        np.ascontiguousarray, (*gt_rows[3:], *raw_rows[3:], *fin_rows[3:])
    )
    raw_scores = score_rows[: len(raw_classes)]
    raw_scores *= 0.04
    raw_scores[np.arange(len(raw_scores)), raw_classes] = raw_class_scores

    images = tuple((i + 1, _IMAGE_SIZE, _IMAGE_SIZE) for i in range(n_images))
    image_ids = [iid for iid, _, _ in images]
    ends = np.cumsum(np.bincount(raw_images, minlength=n_images)).tolist()
    raw = RawBatch(raw_boxes, raw_scores)
    raw_dets = {iid: raw[a:b] for iid, a, b in zip(image_ids, [0] + ends, ends)}
    categories = tuple((c + 1, f"class_{c + 1}") for c in range(n_classes))
    finals = FinalBatch(fin_boxes, fin_classes, fin_scores, fin_images, image_ids)
    return Dataset(categories, images, GtBatch(gt_boxes, gt_classes, gt_images, image_ids), raw_dets, finals)
