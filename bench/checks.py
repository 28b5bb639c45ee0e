"""Correctness checks for the CLI reports the benchmark produces.

A report passes when

* its numeric fields -- AP rows, beta values, per-class and per-image
  Spearman coefficients, PR-curve points -- hash to the digest recorded in
  ``reference.json`` for this workload and seed (when one is recorded), and
  to the digest of the first report of the same operation in this run;
* it satisfies the invariants of its kind: AP in [0, 1], coefficients in
  [-1, 1], a +1 re-rank never lowers beta and a -1 re-rank never raises
  it, and a class-level re-rank leaves AP at IoU 0.50 bit-identical (the
  invariance the source paper relies on);
* the quantities two operations share agree bit for bit: ``bounds``'s AP
  before the re-rank equals ``eval``'s AP, and its beta before equals
  ``corr``'s beta.

Fields not named here are ignored, so a later change may add report
fields without invalidating the recorded digests.
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(workload: str, seed: int, params: dict) -> dict:
    """Recorded digests for one workload and seed; empty when none match."""
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        entry = json.load(f).get(workload, {})
    if entry.get("params") != params:
        return {}
    return entry.get("seeds", {}).get(str(seed), {})


def _ap_values(ap: dict) -> list:
    values = [ap["ap_c"], *ap["iou_thresholds"], *ap["per_threshold_ap"]]
    for row in ap["per_class"]:
        values.append(row["category_id"])
        values.extend(row["ap"])
    return values


def _csv_values(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != "category_id,iou_thr,recall,precision":
        raise ValueError("unexpected PR-curve CSV header")
    values = []
    for line in lines[1:]:
        cat, thr, rec, prec = line.split(",")
        values.extend((int(cat), float(thr), float(rec), float(prec)))
    return values


def report_values(kind: str, report: dict, csv_text: str | None = None) -> list:
    """The numeric fields of a report that must stay bit-identical."""
    if kind == "eval":
        values = [report["n_images"], report["n_ground_truths"], report["n_detections"]]
        values += _ap_values(report)
        if csv_text is not None:
            values += _csv_values(csv_text)
        return values
    if kind == "corr":
        if report["level"] == "class":
            rows = [(r["category_id"], r["spearman"]) for r in report["per_class"]]
            skipped = report["skipped_classes"]
        else:
            rows = [(r["image_id"], r["spearman"]) for r in report["per_image"]]
            skipped = report["skipped_images"]
        return [report["beta"], skipped, *(v for row in rows for v in row)]
    if kind == "bounds":
        return [
            report["beta_before"],
            report["beta_after"],
            *_ap_values(report["ap_before"]),
            *_ap_values(report["ap_after"]),
        ]
    raise ValueError(f"unknown report kind {kind!r}")


def digest(values: list) -> str:
    """Hash of the exact bits of every value, in order."""
    parts = []
    for v in values:
        if v is None:
            parts.append("null")
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"non-numeric report value {v!r}")
        elif isinstance(v, int):
            parts.append(str(v))
        else:
            parts.append(float(v).hex())
    return hashlib.sha256(",".join(parts).encode()).hexdigest()


def _ap_errors(ap: dict, where: str) -> list[str]:
    values = [ap["ap_c"], *ap["per_threshold_ap"], *(v for r in ap["per_class"] for v in r["ap"])]
    if not all(0.0 <= v <= 1.0 for v in values):
        return [f"{where} outside [0, 1]"]
    return []


def _unit_errors(values, where: str) -> list[str]:
    if not all(v is None or -1.0 <= v <= 1.0 for v in values):
        return [f"{where} outside [-1, 1]"]
    return []


def invariant_errors(kind: str, report: dict) -> list[str]:
    """Violations of the properties every report of this kind must have."""
    if kind == "eval":
        return _ap_errors(report, "AP")
    if kind == "corr":
        rows = report.get("per_class", report.get("per_image", []))
        return _unit_errors([report["beta"], *(r["spearman"] for r in rows)], "beta")

    errors = _ap_errors(report["ap_before"], "AP before") + _ap_errors(report["ap_after"], "AP after")
    before, after = report["beta_before"], report["beta_after"]
    errors += _unit_errors([before, after], "beta")
    if before is not None and after is not None:
        if (report["direction"] == "+1" and after < before) or (report["direction"] == "-1" and after > before):
            errors.append("re-rank moved beta the wrong way")
    if report["level"] == "class":
        b, a = report["ap_before"], report["ap_after"]
        at50 = b["iou_thresholds"].index(0.5)
        rows_b = [r["ap"][at50] for r in b["per_class"]]
        rows_a = [r["ap"][at50] for r in a["per_class"]]
        if rows_b != rows_a or b["per_threshold_ap"][at50] != a["per_threshold_ap"][at50]:
            errors.append("class-level re-rank changed AP at IoU 0.50")
    return errors


class ReportChecker:
    """Checks each report of one run; remembers what later reports must match."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.first: dict[str, str] = {}
        self.shared: dict[str, object] = {}

    def check(self, op: str, kind: str, report_path: str, csv_path: str | None = None) -> list[str]:
        try:
            with open(report_path, encoding="utf-8") as f:
                report = json.load(f)
            csv_text = None
            if csv_path is not None:
                with open(csv_path, encoding="utf-8") as f:
                    csv_text = f.read()
            values = report_values(kind, report, csv_text)
            errors = [f"{op}: {e}" for e in invariant_errors(kind, report)]
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
            return [f"{op}: unreadable report ({type(e).__name__}: {e})"]

        d = digest(values)
        if op in self.reference and d != self.reference[op]:
            errors.append(f"{op}: numeric fields differ from the recorded reference")
        if d != self.first.setdefault(op, d):
            errors.append(f"{op}: numeric fields differ from this run's first {op} report")

        if kind == "eval":
            shared = {"ap": digest(_ap_values(report))}
        elif kind == "corr":
            shared = {"beta": report["beta"]}
        else:
            shared = {"ap": digest(_ap_values(report["ap_before"])), "beta": report["beta_before"]}
        for key, value in shared.items():
            if key in self.shared and self.shared[key] != value:
                errors.append(f"{op}: {key} disagrees with the other operations' reports")
        if not errors:
            for key, value in shared.items():
                self.shared.setdefault(key, value)
        return errors
