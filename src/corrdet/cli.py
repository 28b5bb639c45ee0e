"""Command-line front-end.

Subcommands cover the workflows the library supports end to end:
``eval`` (COCO-style AP from final or raw detections), ``corr``
(score-quality correlation at image or class level), ``bounds``
(correlation-extremizing rerank, before/after comparison), ``gradcheck``
(finite-difference verification of the loss gradients), ``synth``
(synthetic dataset generation), and ``descend`` (gradient-descent trace
on the correlation loss).

Every subcommand is deterministic given its flags and seed.  JSON reports
go to --out or stdout; exit status is 0 on success, 1 when gradcheck finds a
failing trial, 2 on bad input, bad usage or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from .bounds import bound_report
from .corrloss import COEFFICIENTS, LossConfig, descend_demo
from .errors import CorrdetError
from .gradcheck import run_gradcheck
from .ingest import (
    Dataset,
    emit_final_dets,
    emit_gt,
    emit_raw_dets,
    fmt_float,
    load_final_dets,
    load_gt,
    load_raw_dets,
    render_report,
    synth,
    write_report,
)
from .metrics import COCO_THRESHOLDS, ApResult, _coco_ap_from, _match_classes, beta_cls, beta_img
from .pipeline import FinalDetection, PipelineConfig, _check_unit_interval, postprocess

__all__ = ["build_parser", "main"]


def _check_iou_flags(args: argparse.Namespace) -> None:
    """--tp-iou and --iou-floor lie in [0, 1], by the rule --nms-iou follows."""
    _check_unit_interval("tp_iou", args.tp_iou)
    _check_unit_interval("iou_floor", args.iou_floor)


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        score_thr=args.score_thr,
        nms_iou=args.nms_iou,
        top_k=args.top_k,
        nms_enabled=not args.nms_free,
    )


def _finals(dataset: Dataset, pcfg: PipelineConfig) -> tuple[FinalDetection, ...]:
    """The loaded final detections, else the raw ones post-processed image by image."""
    if dataset.final_dets is not None:
        return dataset.final_dets
    return tuple(f for iid, raw, _ in dataset.per_image() for f in postprocess(raw, pcfg, iid))


def _ap_payload(ap: ApResult, dataset: Dataset) -> dict:
    return {
        "ap_c": ap.ap_c,
        "iou_thresholds": [t for t, _ in ap.per_threshold],
        "per_threshold_ap": [v for _, v in ap.per_threshold],
        "per_class": [
            {"category_id": dataset.categories[c][0], "ap": list(row)}
            for c, row in ap.per_class
        ],
    }


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _csv_value(v: float) -> str:
    """A trace value for the ``descend`` CSV, where rho may be NaN."""
    return fmt_float(float(v)) if np.isfinite(v) else "nan"


def _load_dataset(args: argparse.Namespace) -> Dataset:
    dataset = load_gt(args.gt)
    if args.raw_dets:
        dataset = load_raw_dets(args.raw_dets, dataset)
    if args.dets:
        dataset = load_final_dets(args.dets, dataset)
    if dataset.raw_dets is None and dataset.final_dets is None:
        raise ValueError("pass --dets or --raw-dets")
    return dataset


def _cmd_eval(args: argparse.Namespace) -> int:
    pcfg = _pipeline_config(args)
    if (args.dets is None) == (args.raw_dets is None):
        raise ValueError("pass exactly one of --dets or --raw-dets")
    dataset = _load_dataset(args)
    finals = _finals(dataset, pcfg)
    mode = "final" if dataset.final_dets is not None else "pipeline-nms-free" if args.nms_free else "pipeline"

    # One matching pass per class serves AP and the PR curves alike.
    table = _match_classes(finals, dataset.gts, COCO_THRESHOLDS)
    ap, curves = _coco_ap_from(table, COCO_THRESHOLDS)
    payload = {
        "mode": mode,
        "n_images": len(dataset.images),
        "n_ground_truths": len(dataset.gts),
        "n_detections": len(finals),
    }
    payload.update(_ap_payload(ap, dataset))
    report = render_report(payload)

    # Both outputs are built before either is written.
    csv = None
    if args.pr_csv is not None:
        prefixes, recalls, precisions = [], [], []
        for (c, _), class_curves in zip(ap.per_class, curves):
            for t, (r, p) in zip(COCO_THRESHOLDS, class_curves):
                prefix = f"{dataset.categories[c][0]},{fmt_float(t)}"
                prefixes.extend([prefix] * r.shape[0])
                recalls.append(r)
                precisions.append(p)
        # Recalls, precisions and thresholds are always finite.  Each distinct
        # value is formatted once, keyed by its bits so 0.0 and -0.0 stay apart.
        values = np.concatenate(recalls + precisions)
        bits, index = np.unique(values.view(np.int64), return_inverse=True)
        text = [fmt_float(v) for v in bits.view(np.float64).tolist()]
        rows = zip(prefixes, index[: len(prefixes)].tolist(), index[len(prefixes) :].tolist())
        lines = ["category_id,iou_thr,recall,precision"]
        lines.extend(f"{prefix},{text[r]},{text[p]}" for prefix, r, p in rows)
        csv = "\n".join(lines) + "\n"
    _write_text(report, args.out)
    if csv is not None:
        _write_text(csv, args.pr_csv)
    return 0


def _cmd_corr(args: argparse.Namespace) -> int:
    pcfg = _pipeline_config(args)
    _check_iou_flags(args)
    dataset = _load_dataset(args)

    if args.level == "image":
        pairs = [(raw, gts) for _, raw, gts in dataset.per_image()]
        report = beta_img(pairs, iou_floor=args.iou_floor)
        payload = {
            "level": "image",
            "iou_floor": args.iou_floor,
            "beta": report.beta_img,
            "per_image": [
                {"image_id": i, "spearman": b} for i, b in report.per_image
            ],
            "skipped_images": report.skipped_images,
        }
    else:
        report = beta_cls(_finals(dataset, pcfg), dataset.gts, tp_iou=args.tp_iou)
        payload = {
            "level": "class",
            "tp_iou": args.tp_iou,
            "beta": report.beta_cls,
            "per_class": [
                {"category_id": dataset.categories[c][0], "spearman": b}
                for c, b in report.per_class
            ],
            "skipped_classes": report.skipped_classes,
        }
    _write_text(render_report(payload), args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    pcfg = _pipeline_config(args)
    _check_iou_flags(args)
    dataset = _load_dataset(args)
    if args.level == "class":
        dataset = replace(dataset, final_dets=_finals(dataset, pcfg))

    direction = 1 if args.direction == "+1" else -1
    report = bound_report(
        dataset,
        direction,
        level=args.level,
        tp_iou=args.tp_iou,
        iou_floor=args.iou_floor,
        pipeline=pcfg,
    )

    def beta_of(corr):
        if corr is None:
            return None
        return corr.beta_img if args.level == "image" else corr.beta_cls

    payload = {
        "direction": args.direction,
        "level": args.level,
        "tp_iou": args.tp_iou,
        "ap_before": _ap_payload(report.ap_before, dataset),
        "ap_after": _ap_payload(report.ap_after, dataset),
        "beta_before": beta_of(report.corr_before),
        "beta_after": beta_of(report.corr_after),
    }
    if report.corr_before is None:
        payload["warning"] = "no positives to rerank; report is an identity comparison"
        print("warning: no positives to rerank; report is an identity comparison", file=sys.stderr)
    _write_text(render_report(payload), args.out)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    result = run_gradcheck(args.coef, args.n, args.trials, args.seed, epsilon=args.epsilon)

    lines = [f"{'trial':>5}  {'n':>3}  {'rel_err':>12}  status"]
    for row in result.rows:
        rel = "-" if row.rel_err is None else f"{row.rel_err:.3e}"
        lines.append(f"{row.trial:>5}  {row.n:>3}  {rel:>12}  {row.status}")
    n_pass = sum(r.status == "pass" for r in result.rows)
    n_skip = sum(r.status == "skip" for r in result.rows)
    verdict = "PASS" if result.passed else "FAIL"
    lines.append(
        f"gradcheck {result.coefficient}: {verdict} "
        f"({n_pass} pass, {n_skip} skip, {len(result.rows) - n_pass - n_skip} fail; "
        f"tol {result.tolerance:g})"
    )
    print("\n".join(lines))

    if args.out is not None:
        write_report(
            {
                "coefficient": result.coefficient,
                "tolerance": result.tolerance,
                "passed": result.passed,
                "rows": [
                    {"trial": r.trial, "n": r.n, "rel_err": r.rel_err, "status": r.status}
                    for r in result.rows
                ],
            },
            args.out,
        )
    return 0 if result.passed else 1


def _cmd_synth(args: argparse.Namespace) -> int:
    dataset = synth(
        args.seed,
        n_images=args.n_images,
        n_classes=args.n_classes,
        knob=args.knob,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    paths = _synth_paths(args.out_dir)
    emit_gt(dataset, paths["gt"])
    emit_raw_dets(dataset, paths["raw_dets"])
    emit_final_dets(dataset, paths["final_dets"])
    summary = {
        "seed": args.seed,
        "knob": args.knob,
        "n_images": args.n_images,
        "n_classes": args.n_classes,
        "n_ground_truths": len(dataset.gts),
        "files": paths,
    }
    _write_text(render_report(summary), args.out)
    return 0


def _synth_paths(out_dir: str) -> dict[str, str]:
    """The three files ``synth`` writes under ``out_dir``."""
    return {key: os.path.join(out_dir, f"{key}.json") for key in ("gt", "raw_dets", "final_dets")}


def _cmd_descend(args: argparse.Namespace) -> int:
    cfg = LossConfig(coefficient=args.coef, epsilon=args.epsilon)
    rng = np.random.default_rng(args.seed)
    ious = rng.uniform(0.0, 1.0, size=args.n)
    init = rng.uniform(0.0, 1.0, size=args.n)
    trace = descend_demo(init, ious, cfg, steps=args.steps, lr=args.lr)

    lines = ["step,loss,spearman"]
    for step, (loss, rho) in enumerate(zip(trace.losses, trace.spearmans)):
        lines.append(f"{step},{_csv_value(loss)},{_csv_value(rho)}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gt", required=True, help="COCO-form ground-truth JSON")
    p.add_argument("--dets", default=None, help="final detections JSON (COCO results form)")
    p.add_argument("--raw-dets", default=None, help="raw per-class score-vector detections JSON")


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--score-thr", type=float, default=0.05)
    p.add_argument("--nms-iou", type=float, default=0.6)
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--nms-free", action="store_true", help="skip the NMS step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrdet",
        description="Correlation-aware object-detection evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="COCO-style AP report")
    _add_io_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--pr-csv", default=None, help="also write per-class PR curves as CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("corr", help="score-quality correlation report")
    _add_io_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--level", choices=("image", "class"), default="class")
    p.add_argument("--tp-iou", type=float, default=0.5)
    p.add_argument("--iou-floor", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("bounds", help="correlation-extremizing rerank comparison")
    _add_io_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--direction", choices=("+1", "-1"), required=True)
    p.add_argument("--level", choices=("image", "class"), default="class")
    p.add_argument("--tp-iou", type=float, default=0.5)
    p.add_argument("--iou-floor", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--coef", choices=COEFFICIENTS, required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--out", default=None, help="also write the table as a JSON report")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--knob", type=float, default=0.0,
                   help="score-IoU correlation in [-1, 1]; +-1 are exact extremes")
    p.add_argument("--n-images", type=int, default=16)
    p.add_argument("--n-classes", type=int, default=3)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--out", default=None, help="write the summary report here instead of stdout")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("descend", help="gradient-descent trace on the correlation loss")
    p.add_argument("--coef", choices=COEFFICIENTS, default="spearman")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    p.set_defaults(func=_cmd_descend)

    return parser


def _given(args: argparse.Namespace, *flags: str) -> list[tuple[str, str]]:
    """``(flag, path)`` for each of ``flags`` that the command has and was given."""
    paths = [(flag, getattr(args, flag[2:].replace("-", "_"), None)) for flag in flags]
    return [(flag, path) for flag, path in paths if path is not None]


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse, before any work or output starts and without creating
    anything, an output path whose place rules it out: a file path that is
    a directory or whose directory does not exist (synth creates --out-dir
    and its parents), an output directory that is a file, and a file that
    the command writes twice or also reads (the same ``os.path.realpath``).
    Any other error, such as a permission, is open()'s own."""
    out_dir = getattr(args, "out_dir", None)
    if out_dir is not None and os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out_dir)
    written = _given(args, "--out", "--pr-csv")
    for _, path in written:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        parent = os.path.dirname(path) or os.curdir
        if out_dir is not None:
            # os.makedirs(out_dir) makes out_dir and every directory above it
            above = os.path.abspath(parent)
            if os.path.commonpath([above, os.path.abspath(out_dir)]) == above:
                continue
        # stat raises the ENOENT or ENOTDIR that open() would
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if out_dir is not None:
        written[:0] = [(f"--out-dir/{os.path.basename(path)}", path) for path in _synth_paths(out_dir).values()]
    # every file named so far, and a flag that names it: the inputs, then the outputs
    named = {os.path.realpath(path): flag for flag, path in _given(args, "--gt", "--dets", "--raw-dets")}
    for flag, path in written:
        other = named.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ValueError(f"{flag} and {other} name the same file: {path}")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (CorrdetError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
