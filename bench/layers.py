"""Per-layer metrics computed from the traced run's spans.

Times and counts are per pass of the workload's operation mix (one
``eval`` + ``corr`` + ``bounds +1`` + ``bounds -1`` on the CLI workloads,
one sweep over the batch pool on ``train-loss``); ``ingest.emit_s`` is
per set-up.  A ``_self_s`` metric is the layer's self time, a plain
``_s`` metric the inclusive time of its calls.  A layer a workload never
calls reads 0.  ``layers.json`` names the end-to-end metric each of these
should move, and on which workload.
"""

from __future__ import annotations

import statistics


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    agg: dict,
    setup_agg: dict,
    passes: int,
    *,
    startup_s: list[float],
    coco_ap_growth: float,
    overhead_share: float,
    match_tp_calls_per_report: float,
) -> dict[str, float]:
    def entry(name):
        return agg.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "counts": {}, "durations": []})

    def per_pass(value):
        return value / passes

    def ratio(num, den):
        return num / den if den else 0.0

    main = entry("cli.main")
    pp = entry("pipeline.postprocess")
    tp = entry("geometry.match_tp")
    mp = entry("geometry.match_positives")
    sr = entry("softrank.soft_rank")
    loss = entry("corrloss.loss_from_arrays")
    loads = [entry(f"ingest.load_{k}") for k in ("gt", "final_dets", "raw_dets")]
    emits = ("ingest.emit_gt", "ingest.emit_final_dets", "ingest.emit_raw_dets")

    return {
        "cli.startup_s": statistics.median(startup_s) if startup_s else 0.0,
        "cli.self_s": per_pass(main["self_s"]),
        "ingest.load_gt_s": per_pass(loads[0]["incl_s"]),
        "ingest.load_final_dets_s": per_pass(loads[1]["incl_s"]),
        "ingest.load_raw_dets_s": per_pass(loads[2]["incl_s"]),
        "ingest.render_report_s": per_pass(entry("ingest.render_report")["incl_s"]),
        "ingest.emit_s": sum(setup_agg.get(n, {}).get("incl_s", 0.0) for n in emits),
        "ingest.bytes_read": per_pass(sum(e["counts"].get("bytes", 0) for e in loads)),
        "ingest.records_parsed": per_pass(sum(e["counts"].get("records", 0) for e in loads)),
        "pipeline.postprocess_s": per_pass(pp["self_s"]),
        "pipeline.image_p50_ms": 1e3 * _quantile(pp["durations"], 0.5),
        "pipeline.image_p90_ms": 1e3 * _quantile(pp["durations"], 0.9),
        "pipeline.candidates": per_pass(pp["counts"].get("candidates", 0)),
        "pipeline.kept": per_pass(pp["counts"].get("kept", 0)),
        "pipeline.keep_ratio": ratio(pp["counts"].get("kept", 0), pp["counts"].get("candidates", 0)),
        "geometry.match_tp_s": per_pass(tp["self_s"]),
        "geometry.match_tp_calls": per_pass(tp["calls"]),
        "geometry.match_tp_pairs": per_pass(tp["counts"].get("pairs", 0)),
        "geometry.same_image_share": ratio(tp["counts"].get("same_image_pairs", 0), tp["counts"].get("pairs", 0)),
        "geometry.match_positives_s": per_pass(mp["self_s"]),
        "geometry.match_positives_pairs": per_pass(mp["counts"].get("pairs", 0)),
        "metrics.coco_ap_self_s": per_pass(entry("metrics.coco_ap")["self_s"]),
        "metrics.pr_curve_self_s": per_pass(entry("metrics.pr_curve")["self_s"]),
        "metrics.average_precision_s": per_pass(entry("metrics.average_precision")["incl_s"]),
        "metrics.beta_cls_self_s": per_pass(entry("metrics.beta_cls")["self_s"]),
        "metrics.beta_img_self_s": per_pass(entry("metrics.beta_img")["self_s"]),
        "metrics.coco_ap_growth": coco_ap_growth,
        "correlation.spearman_s": per_pass(entry("correlation.spearman")["incl_s"]),
        "correlation.spearman_calls": per_pass(entry("correlation.spearman")["calls"]),
        "bounds.bound_report_self_s": per_pass(entry("bounds.bound_report")["self_s"]),
        "bounds.rerank_s": per_pass(
            entry("bounds.rerank_class_level")["incl_s"] + entry("bounds.rerank_image_level")["incl_s"]
        ),
        "bounds.match_tp_calls_per_report": match_tp_calls_per_report,
        "softrank.soft_rank_s": per_pass(sr["incl_s"]),
        "softrank.soft_rank_vjp_s": per_pass(entry("softrank.soft_rank_vjp")["incl_s"]),
        "softrank.blocks_per_call": ratio(sr["counts"].get("blocks", 0), sr["calls"]),
        "corrloss.loss_self_s": per_pass(loss["self_s"]),
        "corrloss.degenerate_share": ratio(loss["counts"].get("degenerate", 0), loss["calls"]),
        "trace.overhead_share": overhead_share,
    }
