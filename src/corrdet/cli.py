"""Command-line front-end.

Subcommands cover the workflows the library supports end to end:
``eval`` (COCO-style AP from final or raw detections), ``corr``
(score-quality correlation at image or class level), ``bounds``
(correlation-extremizing rerank, before/after comparison), ``gradcheck``
(finite-difference verification of the loss gradients), ``synth``
(synthetic dataset generation), and ``descend`` (gradient-descent trace
on the correlation loss).

Every subcommand is deterministic given its flags and seed.  JSON
reports go to --out or stdout; exit status is 0 on success, 1 when
gradcheck finds a failing trial, 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

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
from .metrics import COCO_THRESHOLDS, ApResult, beta_cls, beta_img, coco_ap, pr_curves
from .pipeline import PipelineConfig, postprocess

__all__ = ["build_parser", "main"]


def _threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    return max(1, int(os.environ.get("CORRDET_THREADS", "1")))


def _map_ordered(fn, items, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        score_thr=args.score_thr,
        nms_iou=args.nms_iou,
        top_k=args.top_k,
        nms_enabled=not args.nms_free,
    )


def _finals_from_raw(dataset: Dataset, pcfg: PipelineConfig, threads: int):
    if dataset.raw_dets is None:
        raise ValueError("raw detections required; pass --raw-dets")

    def one_image(image):
        image_id = image[0]
        return postprocess(dataset.raw_dets.get(image_id, ()), pcfg, image_id)

    finals: list = []
    for per_image in _map_ordered(one_image, dataset.images, threads):
        finals.extend(per_image)
    return tuple(finals)


def _image_pairs(dataset: Dataset):
    if dataset.raw_dets is None:
        raise ValueError("image-level correlation needs raw detections; pass --raw-dets")
    by_image: dict[int, list] = {image_id: [] for image_id, _, _ in dataset.images}
    for gt in dataset.gts:
        by_image[gt.image_id].append(gt)
    return [
        (dataset.raw_dets.get(image_id, ()), tuple(by_image[image_id]))
        for image_id, _, _ in dataset.images
    ]


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


def _deliver(payload: dict, out: str | None) -> None:
    if out is None:
        sys.stdout.write(render_report(payload))
    else:
        write_report(payload, out)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _csv_value(v: float) -> str:
    return fmt_float(float(v)) if np.isfinite(v) else "nan"


def _load_dataset(args: argparse.Namespace, need: str) -> Dataset:
    dataset = load_gt(args.gt)
    if getattr(args, "raw_dets", None):
        dataset = load_raw_dets(args.raw_dets, dataset)
    if getattr(args, "dets", None):
        dataset = load_final_dets(args.dets, dataset)
    if need == "either" and dataset.raw_dets is None and dataset.final_dets is None:
        raise ValueError("pass --dets or --raw-dets")
    return dataset


def _cmd_eval(args: argparse.Namespace) -> int:
    if (args.dets is None) == (args.raw_dets is None):
        raise ValueError("pass exactly one of --dets or --raw-dets")
    dataset = _load_dataset(args, "either")

    if dataset.final_dets is not None:
        mode = "final"
        finals = dataset.final_dets
    else:
        mode = "pipeline" if not args.nms_free else "pipeline-nms-free"
        finals = _finals_from_raw(dataset, _pipeline_config(args), _threads(args))

    ap = coco_ap(finals, dataset.gts)
    payload = {
        "mode": mode,
        "n_images": len(dataset.images),
        "n_ground_truths": len(dataset.gts),
        "n_detections": len(finals),
    }
    payload.update(_ap_payload(ap, dataset))
    _deliver(payload, args.out)

    if args.pr_csv is not None:
        lines = ["category_id,iou_thr,recall,precision"]
        for c in sorted({g.class_id for g in dataset.gts}):
            cdets = [d for d in finals if d.class_id == c]
            cgts = [g for g in dataset.gts if g.class_id == c]
            for t, curve in zip(COCO_THRESHOLDS, pr_curves(cdets, cgts, COCO_THRESHOLDS)):
                prefix = f"{dataset.categories[c][0]},{_csv_value(t)}"
                lines.extend(f"{prefix},{_csv_value(r)},{_csv_value(p)}" for r, p in curve)
        _write_text("\n".join(lines) + "\n", args.pr_csv)
    return 0


def _cmd_corr(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args, "either")

    if args.level == "image":
        report = beta_img(_image_pairs(dataset), iou_floor=args.iou_floor)
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
        finals = dataset.final_dets
        if finals is None:
            finals = _finals_from_raw(dataset, _pipeline_config(args), _threads(args))
        report = beta_cls(finals, dataset.gts, tp_iou=args.tp_iou)
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
    _deliver(payload, args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import bound_report

    dataset = _load_dataset(args, "either")
    pcfg = _pipeline_config(args)
    if args.level == "class" and dataset.final_dets is None:
        dataset = replace(
            dataset, final_dets=_finals_from_raw(dataset, pcfg, _threads(args))
        )

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
    _deliver(payload, args.out)
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
    paths = {
        "gt": os.path.join(args.out_dir, "gt.json"),
        "raw_dets": os.path.join(args.out_dir, "raw_dets.json"),
        "final_dets": os.path.join(args.out_dir, "final_dets.json"),
    }
    emit_gt(dataset, paths["gt"])
    emit_raw_dets(dataset, paths["raw_dets"])
    emit_final_dets(dataset, paths["final_dets"])
    _deliver(
        {
            "seed": args.seed,
            "knob": args.knob,
            "n_images": args.n_images,
            "n_classes": args.n_classes,
            "n_ground_truths": len(dataset.gts),
            "files": paths,
        },
        args.out,
    )
    return 0


def _cmd_descend(args: argparse.Namespace) -> int:
    cfg = LossConfig(
        coefficient=args.coef, lambda_corr=args.lambda_corr, epsilon=args.epsilon
    )
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
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for per-image steps (default CORRDET_THREADS or 1)")


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--score-thr", type=float, default=0.05)
    p.add_argument("--nms-iou", type=float, default=0.6)
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--nms-free", action="store_true", help="skip the NMS step")


def _add_loss_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coef", choices=COEFFICIENTS, default="spearman")
    p.add_argument("--lambda", dest="lambda_corr", type=float, default=0.2)
    p.add_argument("--epsilon", type=float, default=1.0)


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
    _add_loss_flags(p)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    p.set_defaults(func=_cmd_descend)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorrdetError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
