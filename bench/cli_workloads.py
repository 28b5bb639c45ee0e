"""The evaluator's workloads: ``val-final`` and ``raw-detector``.

Each runs a closed loop of CLI operations, one at a time, each a fresh
Python process running ``corrdet.cli`` as ``python -m`` does
(``cli_entry.py``), because a CLI user pays the import:

* ``val-final`` -- ``synth`` at 2000 images x 20 classes, written through
  ``emit_gt``/``emit_final_dets``; runs ``corr --level class``,
  ``eval --dets --pr-csv`` and ``bounds --level class`` with +1 and -1.
  Matching and AP (geometry, metrics, bounds) do the work; the pipeline
  and soft ranks do none.
* ``raw-detector`` -- 8 detector-shaped images (``rawgen``: 1000 boxes x
  80 classes, ~7 GTs, a few thousand candidates above ``score_thr``),
  written through ``emit_gt``/``emit_raw_dets``; runs ``corr --level
  image``, ``eval --raw-dets`` and ``bounds --level image`` with +1 and -1.
  The pipeline and the raw loader do the work; ``corr --level image``
  bypasses the pipeline (``match_positives`` only).

The loop runs cycles of the four operations: the first cycle always,
later operations only while the previous timing of the same operation
says it will end inside the measuring window (whole cycles only when
tracing).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from checks import ReportChecker, load_reference
from common import BENCH_DIR, CALIBRATION_REFERENCE_S, OUT_DIR, SpeedSampler, at_reference_speed, run_child
import tracer as tracing
from layers import layer_metrics

SETUP_REPEATS = 5
SCORE_THR = 0.05  # the CLI's default --score-thr

PARAMS = {
    "val-final": {"n_images": 2000, "n_classes": 20, "knob": 0.3},
    "raw-detector": {"n_images": 8, "n_classes": 80, "n_boxes": 1000},
}


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    argv: tuple[str, ...]
    csv: str | None = None


def operations(workload: str) -> tuple[Op, ...]:
    if workload == "val-final":
        dets, level = ("--dets", "dets.json"), "class"
    else:
        dets, level = ("--raw-dets", "raw.json"), "image"
    gt = ("--gt", "gt.json")
    csv = "pr.csv" if workload == "val-final" else None
    eval_argv = ("eval", *gt, *dets, "--out", "eval.json") + (("--pr-csv", csv) if csv else ())
    # corr first: a second cycle that does not fit the window whole still
    # gives the short operation, the noisiest one, a second sample
    return (
        Op("corr", "corr", ("corr", "--level", level, *gt, *dets, "--out", "corr.json")),
        Op("eval", "eval", eval_argv, csv),
        *(
            Op(f"bounds{d}", "bounds", ("bounds", "--level", level, f"--direction={d}", *gt, *dets, "--out", f"bounds{d}.json"))
            for d in ("+1", "-1")
        ),
    )


def make_inputs(workload: str, seed: int, params: dict, workdir: str):
    """Generate the seeded dataset and write the files the CLI reads."""
    from corrdet import ingest

    gt_path = os.path.join(workdir, "gt.json")
    if workload == "val-final":
        dataset = ingest.synth(seed, **params)
        ingest.emit_gt(dataset, gt_path)
        ingest.emit_final_dets(dataset, os.path.join(workdir, "dets.json"))
    else:
        from rawgen import raw_detector

        dataset = raw_detector(seed, **params)
        ingest.emit_gt(dataset, gt_path)
        ingest.emit_raw_dets(dataset, os.path.join(workdir, "raw.json"))
    return dataset


def input_properties(dataset) -> dict:
    """Input properties optimisations depend on, measured on the inputs."""
    n_images = len(dataset.images)
    props = {"gts_per_image": len(dataset.gts) / n_images}
    if dataset.final_dets is not None:
        per_image_class: dict = {}
        per_class: dict = {}
        for d in dataset.final_dets:
            if d.score > SCORE_THR:
                key = (d.image_id, d.class_id)
                per_image_class[key] = per_image_class.get(key, 0) + 1
            per_class[d.class_id] = per_class.get(d.class_id, 0) + 1
        props["dets_per_class"] = len(dataset.final_dets) / max(1, len(per_class))
        props["max_dets_per_class"] = max(per_class.values(), default=0)
    else:
        per_image_class = {}
        for image_id, dets in dataset.raw_dets.items():
            scores = np.asarray([d.class_scores for d in dets])
            for c, n in enumerate((scores > SCORE_THR).sum(axis=0)):
                if n:
                    per_image_class[(image_id, c)] = int(n)
        props["boxes_per_image"] = sum(len(v) for v in dataset.raw_dets.values()) / n_images
    props["candidates_per_image"] = sum(per_image_class.values()) / n_images
    props["max_candidates_per_class"] = max(per_image_class.values(), default=0)
    return props


def _run_op(op: Op, workdir: str, traced: bool) -> tuple[int, float, int, str]:
    """Run one operation; returns (exit code, wall s, peak RSS KiB, side file).

    The side file holds the machine speed measured during the run or, when
    traced, the spans."""
    side = os.path.join(workdir, "spans.json" if traced else "speed.txt")
    entry = "tracer.py" if traced else "cli_entry.py"
    argv = [sys.executable, os.path.join(BENCH_DIR, entry), side, "--", *op.argv]
    return (*run_child(argv, workdir, os.path.join(workdir, f"{op.name}.log")), side)


def _read_speed(path: str) -> float:
    """The speed gauge a CLI run left behind; the reference speed when it
    left none (a run that was killed)."""
    try:
        with open(path, encoding="utf-8") as f:
            speed = float(f.read())
        os.remove(path)
    except (OSError, ValueError):
        return CALIBRATION_REFERENCE_S
    return speed


def _best_time(fn, *args, budget_s: float = 1.0) -> float:
    best, spent = float("inf"), 0.0
    while spent < budget_s:
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        best, spent = min(best, dt), spent + dt
    return best


def _coco_ap_growth(workload: str, dataset) -> tuple[float, float]:
    """coco_ap time at the workload size over the time at half the images,
    and the mean detections per class entering it."""
    from corrdet import PipelineConfig, coco_ap, postprocess

    if workload == "val-final":
        finals = list(dataset.final_dets)
    else:
        cfg = PipelineConfig()
        finals = [f for iid, _, _ in dataset.images for f in postprocess(dataset.raw_dets.get(iid, ()), cfg, iid)]
    half = {iid for iid, _, _ in dataset.images[: len(dataset.images) // 2]}
    gts = list(dataset.gts)
    full_s = _best_time(coco_ap, finals, gts)
    half_s = _best_time(coco_ap, [d for d in finals if d.image_id in half], [g for g in gts if g.image_id in half])
    n_classes = len({d.class_id for d in finals}) or 1
    return full_s / half_s, len(finals) / n_classes


def run(workload: str, seed: int, seconds: float, trace: bool, params: dict | None = None,
        reference: dict | None = None, corrupt=None) -> dict:
    """One benchmark run; returns the result (metrics plus detail).

    ``params`` and ``reference`` override the workload size and the
    recorded digests, and ``corrupt(op_name, report_path)`` may alter a
    report before it is checked; the self-test uses all three.
    """
    params = dict(PARAMS[workload] if params is None else params)
    ops = operations(workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT_DIR)
    try:
        return _run(workload, seed, seconds, trace, params, reference, corrupt, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, params, reference, corrupt, ops, workdir) -> dict:
    setups, setups_raw = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            dataset = make_inputs(workload, seed, params, workdir)
            elapsed = time.perf_counter() - t0
        setups_raw.append(elapsed)
        setups.append(at_reference_speed(elapsed, speed.speed()))
    inputs = input_properties(dataset)

    if reference is None:
        reference = load_reference(workload, seed, params)
    checker = ReportChecker(reference)
    samples: dict[str, list[float]] = {op.name: [] for op in ops}
    scaled: dict[str, list[float]] = {op.name: [] for op in ops}
    speeds: list[float] = []
    traced_s: dict[str, list[float]] = {op.name: [] for op in ops}
    attempted = failed = peak_rss_kb = 0
    errors: list[str] = []
    agg: dict = {}
    startups: list[float] = []
    per_report: list[float] = []

    def attempt(op: Op, traced: bool) -> tuple[float, str]:
        nonlocal attempted, failed, peak_rss_kb
        rc, elapsed, rss_kb, side = _run_op(op, workdir, traced)
        attempted += 1
        peak_rss_kb = max(peak_rss_kb, rss_kb)
        report = os.path.join(workdir, op.argv[op.argv.index("--out") + 1])
        if rc != 0:
            errs = [f"{op.name}: exit code {rc}"]
        else:
            if corrupt is not None:
                corrupt(op.name, report)
            csv = os.path.join(workdir, op.csv) if op.csv else None
            errs = checker.check(op.name, op.kind, report, csv)
        if errs:
            failed += 1
            errors.extend(errs)
        for path in (report, os.path.join(workdir, op.csv) if op.csv else None):
            if path and os.path.exists(path):
                os.remove(path)
        return elapsed, side

    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if trace and i > 0 and i % len(ops) == 0:
            # traced runs stop only between whole cycles, so every layer
            # is counted the same number of times
            expected = sum(samples[o.name][-1] + traced_s[o.name][-1] for o in ops)
            if time.perf_counter() - start + expected > seconds:
                break
        elif not trace and i >= len(ops):
            if time.perf_counter() - start + samples[op.name][-1] > seconds:
                break
        elapsed, speed_path = attempt(op, False)
        speed = _read_speed(speed_path)
        speeds.append(speed)
        samples[op.name].append(elapsed)
        scaled[op.name].append(at_reference_speed(elapsed, speed))
        if trace:
            elapsed, spans_path = attempt(op, True)
            traced_s[op.name].append(elapsed)
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as f:
                    child = json.load(f)
                os.remove(spans_path)
                tracing.accumulate(agg, child["spans"])
                startups.append(child["startup_s"])
                reports = sum(1 for s in child["spans"] if s[0] == "bounds.bound_report")
                if reports:
                    per_report.append(
                        tracing.calls_under(child["spans"], "geometry.match_tp", "bounds.bound_report") / reports
                    )
        i += 1

    def medians(values: dict) -> dict:
        return {
            "eval": statistics.median(values["eval"]),
            "corr": statistics.median(values["corr"]),
            "bounds": statistics.median(values["bounds+1"] + values["bounds-1"]),
        }

    raw, ref = medians(samples), medians(scaled)
    n_bounds = len(samples["bounds+1"]) + len(samples["bounds-1"])
    detail = {
        "eval_s": {"median": raw["eval"], "n": len(samples["eval"])},
        "corr_s": {"median": raw["corr"], "n": len(samples["corr"])},
        "bounds_s": {"median": raw["bounds"], "n": n_bounds},
        "setup_s": {"median": statistics.median(setups_raw), "n": len(setups)},
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "failed_share": failed / attempted,
        "calibration_s": statistics.median(speeds),
        "samples_s": samples,
        "samples_at_reference_speed_s": scaled,
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "digests": checker.first,
        "inputs": inputs,
        "detail": detail,
        "metrics": {
            "setup_s": statistics.median(setups),
            "job_s": ref["eval"] + ref["corr"] + 2.0 * ref["bounds"],
            "light_op_ms": 1e3 * ref["corr"],
            "heavy_op_ms": 1e3 * ref["bounds"],
            "peak_rss_mb": peak_rss_kb / 1024.0,
        },
    }
    if not trace:
        return result

    growth, dets_per_class = _coco_ap_growth(workload, dataset)
    inputs.setdefault("dets_per_class", dets_per_class)
    passes = max(len(v) for v in traced_s.values())
    overhead = sum(map(sum, traced_s.values())) / sum(map(sum, samples.values())) - 1.0

    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        make_inputs(workload, seed, params, workdir)
    finally:
        setup_tracer.uninstall()
    setup_agg = tracing.accumulate({}, setup_tracer.spans)

    result["layers"] = layer_metrics(
        agg,
        setup_agg,
        passes,
        startup_s=startups,
        coco_ap_growth=growth,
        overhead_share=overhead,
        match_tp_calls_per_report=statistics.median(per_report) if per_report else 0.0,
    )
    result["hot_spots"] = {"all": tracing.hot_spots(agg)}
    result["detail"]["traced_samples_s"] = traced_s
    return result
