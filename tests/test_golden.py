"""Golden bytes: the SHA-256 of every output of one fixed matrix of CLI runs.

Each run records its exit code and the digests of its stdout, its stderr
and every file it writes (the ``--out`` report, the ``--pr-csv`` curves,
``synth``'s three files).  The matrix runs on three datasets:
``synth(1, 300, 20, 0.3)`` and ``synth(3, 300, 8, -0.6)``, written by the
CLI's own ``synth``, and ``bench/rawgen.raw_detector(1, n_images=3,
n_classes=20, n_boxes=400)`` (imported read-only) with the finals that
post-processing makes of it.  On each: ``eval`` with ``--pr-csv`` from
both sources, ``eval --raw-dets --nms-iou 1 --top-k 5``, and ``corr`` and
``bounds`` +-1 at both levels from every source the level reads.  Then
``gradcheck`` and ``descend`` for each coefficient.

Every path is relative to a scratch working directory, so no digest holds
a machine's path.  Float bits depend on numpy: on a numpy that rounds
differently the digests differ, and the test fails, as it should.  The
file records the Python and numpy versions it was made with.

Regenerate ``tests/golden/cli.json``, and only when a change means to
change an output (say which runs and why in CHANGES.md), with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout, suppress
from dataclasses import replace

import numpy as np

import corrdet.cli as cli
from corrdet import PipelineConfig
from corrdet.corrloss import COEFFICIENTS
from corrdet.ingest import emit_final_dets, emit_gt, emit_raw_dets
from corrdet.pipeline import _postprocess_images

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --write"
SYNTHS = {"s1": ("1", "300", "20", "0.3"), "s3": ("3", "300", "8", "-0.6")}


def _write_rawgen(out_dir: str) -> None:
    """The rawgen dataset's ground truth, raw detections and the finals
    post-processing makes of them, under ``out_dir``."""
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
    sys.path.insert(0, bench)
    try:
        import rawgen
    finally:
        sys.path.remove(bench)
    raw = rawgen.raw_detector(1, n_images=3, n_classes=20, n_boxes=400)
    finals = _postprocess_images(raw.raw_dets, [iid for iid, _, _ in raw.images], PipelineConfig())
    os.makedirs(out_dir)
    emit_gt(raw, f"{out_dir}/gt.json")
    emit_raw_dets(raw, f"{out_dir}/raw_dets.json")
    emit_final_dets(replace(raw, final_dets=finals), f"{out_dir}/final_dets.json")


def _runs(data: str) -> list[list[str]]:
    """The matrix's ``eval``, ``corr`` and ``bounds`` runs on the files under ``data``."""
    gt = ["--gt", f"{data}/gt.json"]
    dets, raw = ["--dets", f"{data}/final_dets.json"], ["--raw-dets", f"{data}/raw_dets.json"]
    runs = [
        ["eval", *gt, *dets, "--pr-csv", "pr.csv"],
        ["eval", *gt, *raw, "--pr-csv", "pr.csv"],
        ["eval", *gt, *raw, "--nms-iou", "1", "--top-k", "5"],
    ]
    for level, sources in (("class", (dets, raw)), ("image", (raw,))):
        for source in sources:
            runs.append(["corr", *gt, *source, "--level", level])
            runs.extend(["bounds", *gt, *source, "--level", level, "--direction", d] for d in ("+1", "-1"))
    return runs


def _digest(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def _run(argv: list[str], files: tuple[str, ...]) -> dict:
    """Run the CLI on ``argv`` in process: its exit code, and the digests of
    its stdout, its stderr and ``files``, which the run must write (an
    earlier run's copy is removed first)."""
    for path in files:
        with suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    record = {"exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}
    for path in files:
        with open(path, "rb") as f:
            record[path] = _digest(f.read())
    return record


def digests() -> dict[str, dict]:
    """Every run of the matrix, keyed by its command line.  Runs in the
    current working directory, which should be empty."""
    records = {}

    def run(argv: list[str], *files: str) -> None:
        records[" ".join(argv)] = _run(argv, files)

    for name, (seed, n_images, n_classes, knob) in SYNTHS.items():
        argv = ["synth", "--seed", seed, "--n-images", n_images, "--n-classes", n_classes, "--knob", knob]
        run([*argv, "--out-dir", name], *(f"{name}/{f}.json" for f in ("gt", "raw_dets", "final_dets")))
    _write_rawgen("rawgen")
    for data in (*SYNTHS, "rawgen"):
        for argv in _runs(data):
            run([*argv, "--out", "report.json"], "report.json", *(["pr.csv"] if "--pr-csv" in argv else []))
    for coef in COEFFICIENTS:
        run(["gradcheck", "--coef", coef, "--trials", "20", "--out", "report.json"], "report.json")
        run(["descend", "--coef", coef, "--steps", "100"])
    return records


def _versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_cli_outputs_match_the_golden_digests(tmp_path, monkeypatch):
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    monkeypatch.chdir(tmp_path)
    got = digests()
    assert list(got) == list(golden["runs"])
    changed = [argv for argv, record in got.items() if record != golden["runs"][argv]]
    # the versions are shown only when a digest differs
    assert not changed, (changed, _versions(), {k: golden[k] for k in _versions()})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            runs = digests()
        finally:
            os.chdir(here)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump({**_versions(), "regenerate": REGENERATE, "runs": runs}, f, indent=1)
        f.write("\n")
