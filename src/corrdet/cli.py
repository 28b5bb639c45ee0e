"""Command-line front-end.

Subcommands cover the workflows the library supports end to end:
``eval`` (COCO-style AP from final or raw detections), ``corr``
(score-quality correlation at image or class level), ``bounds``
(correlation-extremizing rerank, before/after comparison), ``gradcheck``
(finite-difference verification of the loss gradients), ``synth``
(synthetic dataset generation), and ``descend`` (gradient-descent trace
on the correlation loss).

``eval``, ``corr`` and ``bounds`` accept only the flags the run reads,
by command, level and detection source (:func:`_check_run`).

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
from dataclasses import asdict, replace

import numpy as np

from .bounds import bound_report
from .corrloss import COEFFICIENTS, LossConfig, descend_demo
from .errors import CorrdetError
from .geometry import _check_unit_interval
from .gradcheck import run_gradcheck
from .ingest import (
    Dataset,
    _float_texts,
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
from .pipeline import PipelineConfig, _postprocess_images

__all__ = ["build_parser", "main"]

_IOU_DEFAULT = 0.5  # of --tp-iou and --iou-floor


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


def _pipeline_payload(pcfg: PipelineConfig | None) -> dict:
    """The pipeline values a run read (``score_thr``, ``nms_iou``,
    ``top_k``); none for a run that post-processes nothing."""
    return {} if pcfg is None else asdict(pcfg)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _csv_value(v: float) -> str:
    """A trace value for the ``descend`` CSV, where rho may be NaN."""
    return fmt_float(float(v)) if np.isfinite(v) else "nan"


def _load_dataset(args: argparse.Namespace, pcfg: PipelineConfig | None) -> Dataset:
    """The dataset the flags name; with ``pcfg``, its raw detections are
    post-processed into its final detections."""
    dataset = load_gt(args.gt)
    if args.dets is not None:
        return load_final_dets(args.dets, dataset)
    dataset = load_raw_dets(args.raw_dets, dataset)
    if pcfg is None:
        return dataset
    image_ids = [iid for iid, _, _ in dataset.images]
    return replace(dataset, final_dets=_postprocess_images(dataset.raw_dets, image_ids, pcfg))


def _cmd_eval(args: argparse.Namespace) -> int:
    pcfg = _check_run(args)
    dataset = _load_dataset(args, pcfg)
    finals = dataset.final_dets
    mode = "final" if args.dets is not None else "pipeline"

    # One matching pass per class serves AP and the PR curves alike.
    table = _match_classes(finals, dataset.gts, COCO_THRESHOLDS)
    ap, curves = _coco_ap_from(table, COCO_THRESHOLDS)
    payload = {
        "mode": mode,
        "n_images": len(dataset.images),
        "n_ground_truths": len(dataset.gts),
        "n_detections": len(finals),
        **_pipeline_payload(pcfg),
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
        text = np.array(_float_texts(bits.view(np.float64)[:, None], ""), dtype=object)[index].tolist()
        n = len(prefixes)
        rows = map(",".join, zip(prefixes, text[:n], text[n:]))
        csv = "\n".join(["category_id,iou_thr,recall,precision", *rows]) + "\n"
    _write_text(report, args.out)
    if csv is not None:
        _write_text(csv, args.pr_csv)
    return 0


def _cmd_corr(args: argparse.Namespace) -> int:
    pcfg = _check_run(args)
    dataset = _load_dataset(args, pcfg)

    if args.level == "image":
        report = beta_img(dataset.per_image(), iou_floor=args.iou_floor)
        payload = {
            "level": "image",
            "iou_floor": args.iou_floor,
            "beta": report.beta,
            "per_image": [{"image_id": i, "spearman": b} for i, b in report.per_group],
            "skipped_images": report.skipped,
        }
    else:
        report = beta_cls(dataset.final_dets, dataset.gts, tp_iou=args.tp_iou)
        payload = {
            "level": "class",
            "tp_iou": args.tp_iou,
            "beta": report.beta,
            "per_class": [{"category_id": dataset.categories[c][0], "spearman": b} for c, b in report.per_group],
            "skipped_classes": report.skipped,
            **_pipeline_payload(pcfg),
        }
    _write_text(render_report(payload), args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    pcfg = _check_run(args)
    dataset = _load_dataset(args, pcfg if args.level == "class" else None)

    direction = 1 if args.direction == "+1" else -1
    report = bound_report(
        dataset,
        direction,
        level=args.level,
        tp_iou=args.tp_iou,
        iou_floor=args.iou_floor,
        pipeline=pcfg,
    )

    payload = {
        "direction": args.direction,
        "level": args.level,
        **({"iou_floor": args.iou_floor} if args.level == "image" else {"tp_iou": args.tp_iou}),
        **_pipeline_payload(pcfg),
        "ap_before": _ap_payload(report.ap_before, dataset),
        "ap_after": _ap_payload(report.ap_after, dataset),
        "beta_before": None if report.corr_before is None else report.corr_before.beta,
        "beta_after": None if report.corr_after is None else report.corr_after.beta,
    }
    if report.corr_before is None:
        payload["warning"] = "no positives to rerank; report is an identity comparison"
        print("warning: no positives to rerank; report is an identity comparison", file=sys.stderr)
    _write_text(render_report(payload), args.out)
    return 0


def _epsilon(args: argparse.Namespace) -> float:
    """Spearman's epsilon, ``LossConfig``'s when not given; refused for a coefficient that reads none."""
    if args.epsilon is not None and args.coef != "spearman":
        raise ValueError(f"{args.subcommand} --coef {args.coef} does not read --epsilon")
    return LossConfig.epsilon if args.epsilon is None else args.epsilon


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    result = run_gradcheck(args.coef, args.n, args.trials, args.seed, epsilon=_epsilon(args))

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
    cfg = LossConfig(coefficient=args.coef, epsilon=_epsilon(args))
    rng = np.random.default_rng(args.seed)
    # a negative n draws nothing, so descend_demo's own check refuses it
    ious, init = rng.uniform(0.0, 1.0, size=(2, max(args.n, 0)))
    trace = descend_demo(init, ious, cfg, steps=args.steps, lr=args.lr)

    lines = ["step,loss,spearman"]
    for step, (loss, rho) in enumerate(zip(trace.losses, trace.spearmans)):
        lines.append(f"{step},{_csv_value(loss)},{_csv_value(rho)}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrdet",
        description="Correlation-aware object-detection evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # A flag left out is None, so _check_run can tell which flags were given.
    for name, func, text in (
        ("eval", _cmd_eval, "COCO-style AP report"),
        ("corr", _cmd_corr, "score-quality correlation report"),
        ("bounds", _cmd_bounds, "correlation-extremizing rerank comparison"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--gt", required=True, help="COCO-form ground-truth JSON")
        p.add_argument("--dets", help="final detections JSON (COCO results form)")
        p.add_argument("--raw-dets", help="raw per-class score-vector detections JSON")
        p.add_argument("--score-thr", type=float, help=f"pipeline score filter (default {PipelineConfig.score_thr})")
        p.add_argument("--nms-iou", type=float, help=f"pipeline NMS IoU, 1 for none (default {PipelineConfig.nms_iou})")
        p.add_argument("--top-k", type=int, help=f"pipeline detections kept per image (default {PipelineConfig.top_k})")
        if name == "eval":
            p.add_argument("--pr-csv", help="also write per-class PR curves as CSV")
        else:
            p.add_argument("--level", choices=("image", "class"), default="class")
            p.add_argument("--tp-iou", type=float, help=f"class-level TP threshold (default {_IOU_DEFAULT})")
            p.add_argument("--iou-floor", type=float, help=f"image-level positive floor (default {_IOU_DEFAULT})")
        if name == "bounds":
            p.add_argument("--direction", choices=("+1", "-1"), required=True)
        p.add_argument("--out")
        p.set_defaults(func=func)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--coef", choices=COEFFICIENTS, required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, help=f"Spearman's soft-rank epsilon (default {LossConfig.epsilon})")
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
    p.add_argument("--epsilon", type=float, help=f"Spearman's soft-rank epsilon (default {LossConfig.epsilon})")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    p.set_defaults(func=_cmd_descend)

    return parser


def _given(args: argparse.Namespace, *flags: str) -> list[tuple[str, object]]:
    """``(flag, value)`` for each of ``flags`` that the command has and was given."""
    values = [(flag, getattr(args, flag[2:].replace("-", "_"), None)) for flag in flags]
    return [(flag, value) for flag, value in values if value is not None]


def _check_run(args: argparse.Namespace) -> PipelineConfig | None:
    """Check the flags of an ``eval``, ``corr`` or ``bounds`` run before any
    input is opened, and return the pipeline that post-processes its raw
    detections into final ones (None: the run has none).

    In this order: every value given; exactly one of --dets and --raw-dets,
    and --raw-dets at the image level; then each flag given must be one the
    run reads.  --tp-iou is read at the class level only, --iou-floor at the
    image level only, and the pipeline flags by --raw-dets runs other than
    ``corr --level image``.  Once checked, an IoU flag not given is set to
    its default."""
    pcfg = PipelineConfig(**{name: value for name in ("score_thr", "nms_iou", "top_k")
                             if (value := getattr(args, name)) is not None})
    for flag, value in _given(args, "--tp-iou", "--iou-floor"):
        _check_unit_interval(flag[2:].replace("-", "_"), value)
    if (args.dets is None) == (args.raw_dets is None):
        raise ValueError("pass exactly one of --dets or --raw-dets")
    level = getattr(args, "level", None)
    source = "--dets" if args.dets is not None else "--raw-dets"
    run = " ".join([args.subcommand, *(("--level", level) if level else ()), source])
    if level == "image" and source == "--dets":
        raise ValueError(f"{run} is refused: the image level reads --raw-dets")
    piped = source == "--raw-dets" and not (args.subcommand == "corr" and level == "image")
    reads = {"--tp-iou": level == "class", "--iou-floor": level == "image"}
    reads.update(dict.fromkeys(("--score-thr", "--nms-iou", "--top-k"), piped))
    for flag, _ in _given(args, *reads):
        if not reads[flag]:
            raise ValueError(f"{run} does not read {flag}")
    if level is not None:
        args.tp_iou = _IOU_DEFAULT if args.tp_iou is None else args.tp_iou
        args.iou_floor = _IOU_DEFAULT if args.iou_floor is None else args.iou_floor
    return pcfg if piped else None


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
