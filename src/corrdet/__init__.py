"""Correlation-aware evaluation and loss toolkit for object detection.

The package measures how well detection confidence scores track
localization quality (rank correlation between scores and IoU), turns
that correlation into a differentiable training loss with analytic
gradients, and quantifies how much COCO-style AP the score ordering
leaves on the table via correlation-extremizing reranks.
"""

from .bounds import BoundReport, bound_report, rerank_class_level, rerank_image_level
from .correlation import average_ranks, concordance, pearson, spearman
from .corrloss import (
    COEFFICIENTS,
    DescentTrace,
    LossConfig,
    LossResult,
    MultiStageLossResult,
    correlation_loss,
    descend_demo,
    loss_from_arrays,
    multi_stage_loss,
    total_loss,
)
from .errors import (
    CorrdetError,
    DegenerateInput,
    DimensionError,
    EmptyEvaluation,
    NoGroundTruth,
    ParseError,
    ReferenceError,
    SchemaError,
)
from .geometry import Box, GtObject, Match, MatchSet, iou, match_positives, match_tp, match_tp_multi
from .gradcheck import GradcheckResult, GradcheckRow, run_gradcheck
from .ingest import (
    Dataset,
    emit_final_dets,
    emit_gt,
    emit_raw_dets,
    load_final_dets,
    load_gt,
    load_raw_dets,
    load_report,
    render_report,
    synth,
    write_report,
)
from .metrics import (
    COCO_THRESHOLDS,
    ApResult,
    CorrelationReport,
    average_precision,
    beta_cls,
    beta_img,
    coco_ap,
    pr_curve,
    pr_curves,
)
from .pipeline import FinalDetection, PipelineConfig, RawDetection, nms, postprocess
from .softrank import SoftRankResult, soft_rank, soft_rank_vjp

__version__ = "0.1.0"

__all__ = [
    "ApResult",
    "BoundReport",
    "Box",
    "COCO_THRESHOLDS",
    "COEFFICIENTS",
    "CorrdetError",
    "CorrelationReport",
    "Dataset",
    "DegenerateInput",
    "DescentTrace",
    "DimensionError",
    "EmptyEvaluation",
    "FinalDetection",
    "GradcheckResult",
    "GradcheckRow",
    "GtObject",
    "LossConfig",
    "LossResult",
    "Match",
    "MatchSet",
    "MultiStageLossResult",
    "NoGroundTruth",
    "ParseError",
    "PipelineConfig",
    "RawDetection",
    "ReferenceError",
    "SchemaError",
    "SoftRankResult",
    "average_precision",
    "average_ranks",
    "beta_cls",
    "beta_img",
    "bound_report",
    "coco_ap",
    "concordance",
    "correlation_loss",
    "descend_demo",
    "emit_final_dets",
    "emit_gt",
    "emit_raw_dets",
    "iou",
    "load_final_dets",
    "load_gt",
    "load_raw_dets",
    "load_report",
    "loss_from_arrays",
    "match_positives",
    "match_tp",
    "match_tp_multi",
    "multi_stage_loss",
    "nms",
    "pearson",
    "postprocess",
    "pr_curve",
    "pr_curves",
    "render_report",
    "rerank_class_level",
    "rerank_image_level",
    "run_gradcheck",
    "soft_rank",
    "soft_rank_vjp",
    "spearman",
    "synth",
    "total_loss",
    "write_report",
]
