"""``synth`` against its object-building oracle, and the batch contract its
rows keep.

``synth`` draws with one ``rng.random(out=...)`` per run of doubles
between two ``integers`` or ``permutation`` calls, into one buffer or, for
a raw detection's class scores, into its row of the score array, and
builds its columns from the draws with array code, ``lo + (hi - lo) * r``
for each scalar draw; ``synth_oracle`` draws with ``rng.uniform(lo, hi)``
one value at a time and builds objects.  The two must give the same
columns and the same file bytes.  Nothing is skipped where numpy's
``uniform`` rounds differently (a build that fuses its multiply-add, say):
the draw rules and the differential tests then fail.

No object checks synth's rows, so the contract ``Box`` and the detection
types enforce on objects is checked here on the columns.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from synth_oracle import synth_oracle

from corrdet import Dataset, synth
from corrdet.ingest import emit_final_dets, emit_gt, emit_raw_dets

KNOBS = st.one_of(st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-1.0, 1.0))
WRITERS = (emit_gt, emit_raw_dets, emit_final_dets)
CELL = 64.0


def _same_columns(batch, expected) -> None:
    for name in batch._COLUMNS:
        got, want = getattr(batch, name), getattr(expected, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    assert batch._SHARED == expected._SHARED
    for name in batch._SHARED:
        assert getattr(batch, name) == getattr(expected, name), name


def _assert_same_dataset(ds: Dataset, expected: Dataset, root) -> None:
    assert ds.categories == expected.categories
    assert ds.images == expected.images
    _same_columns(ds.gts, expected.gts)
    _same_columns(ds.final_dets, expected.final_dets)
    assert list(ds.raw_dets) == list(expected.raw_dets)
    for iid, raw in ds.raw_dets.items():
        _same_columns(raw, expected.raw_dets[iid])
    for write in WRITERS:
        got, want = root / f"{write.__name__}.got.json", root / f"{write.__name__}.want.json"
        write(ds, str(got))
        write(expected, str(want))
        assert got.read_bytes() == want.read_bytes(), write.__name__


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("synth")


def test_the_draw_rule_is_uniform():
    # the identity synth rests on, over the spans and offsets it draws with
    lo = np.random.default_rng(0).uniform(-600.0, 600.0, 2000).tolist()
    span = np.random.default_rng(1).uniform(0.0, 60.0, 2000).tolist()
    by_uniform, by_random = np.random.default_rng(2), np.random.default_rng(2)
    for a, s in zip(lo, span):
        assert by_uniform.uniform(a, a + s) == a + (a + s - a) * by_random.random()


def test_chunked_draws_keep_the_stream():
    # one rng.random(out=buf[a:b]) per run between integers/permutation calls
    # gives the bits and stream position of b - a scalar random() calls
    chunked, scalar = np.random.default_rng(3), np.random.default_rng(3)
    buf, at = np.empty(100), 0
    for n in (4, 0, 2, 27, 6, 1, 45, 5):
        chunked.random(out=buf[at : at + n])
        assert buf[at : at + n].tobytes() == np.array([scalar.random() for _ in range(n)]).tobytes()
        at += n
        assert chunked.integers(0, 7) == scalar.integers(0, 7)
        assert chunked.permutation(64).tolist() == scalar.permutation(64).tolist()
    assert chunked.bit_generator.state == scalar.bit_generator.state


def test_uniform_score_vectors_are_scaled_draws():
    # rng.uniform(0.0, 0.04, size=n) is 0.04 * rng.random(n), bit for bit
    by_uniform, by_random = np.random.default_rng(4), np.random.default_rng(4)
    for n in (0, 1, 3, 20, 80, 1000):
        assert by_uniform.uniform(0.0, 0.04, size=n).tobytes() == (0.04 * by_random.random(n)).tobytes()
        assert by_uniform.integers(0, n + 1) == by_random.integers(0, n + 1)
    assert by_uniform.bit_generator.state == by_random.bit_generator.state


@settings(max_examples=40, deadline=None)
@example(0, 0, 3, 0.3)  # no images
@example(0, 12, 1, 0.3)  # one class
@example(2, 1, 3, 0.3)  # the image has no raw and no final false positive
@example(0, 12, 3, -1.0)
@example(0, 12, 3, 0.0)
@example(0, 12, 3, 1.0)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 8), KNOBS)
def test_synth_equals_the_object_building_oracle(root, seed, n_images, n_classes, knob):
    _assert_same_dataset(synth(seed, n_images, n_classes, knob), synth_oracle(seed, n_images, n_classes, knob), root)


def test_synth_equals_the_oracle_on_the_val_final_input(root):
    _assert_same_dataset(synth(1, 2000, 20, 0.3), synth_oracle(1, 2000, 20, 0.3), root)


def _check_boxes(boxes: np.ndarray) -> None:
    """``Box``'s rule, row by row: finite corners, x2 > x1, y2 > y1 and a
    finite area above 0."""
    for x1, y1, x2, y2 in boxes.tolist():
        assert all(map(math.isfinite, (x1, y1, x2, y2)))
        assert x2 > x1 and y2 > y1 and 0.0 < (x2 - x1) * (y2 - y1) < math.inf


def _cell(box) -> tuple[int, int]:
    """The grid cell that holds all of ``box``."""
    x1, y1, x2, y2 = box
    col, row = int(x1 // CELL), int(y1 // CELL)
    assert x2 <= (col + 1) * CELL and y2 <= (row + 1) * CELL, box
    return col, row


@settings(max_examples=20, deadline=None)
@example(5, 30, 4, -1.0)
@example(5, 30, 4, 0.0)
@example(5, 30, 4, 1.0)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6), KNOBS)
def test_synth_rows_keep_the_batch_contract(seed, n_images, n_classes, knob):
    ds = synth(seed, n_images, n_classes, knob)
    finals = ds.final_dets
    _check_boxes(ds.gts.boxes)
    _check_boxes(finals.boxes)
    assert ((finals.scores >= 0.0) & (finals.scores <= 1.0)).all()
    for raw in ds.raw_dets.values():
        _check_boxes(raw.boxes)
        assert raw.scores.shape == (len(raw), n_classes)
        assert ((raw.scores >= 0.0) & (raw.scores <= 1.0)).all()

    # Every box lies inside one grid cell, and no two GTs of an image share
    # one, so a detection can overlap no GT but its own cell's.
    gt_cells = [(image, _cell(box)) for image, box in zip(ds.gts.images.tolist(), ds.gts.boxes.tolist())]
    assert len(set(gt_cells)) == len(gt_cells)
    for box in finals.boxes.tolist():
        _cell(box)
    for raw in ds.raw_dets.values():
        for box in raw.boxes.tolist():
            _cell(box)
