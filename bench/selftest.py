"""Self-test of the benchmark: run it small and make sure it catches errors.

    python3 bench/selftest.py

For each workload at its smallest size it runs once clean (nothing may
fail), once with deliberately corrupted output or, for the loss, calls
that raise (each must be counted as a failed operation, neither pass nor
stop the run), and once traced (every
per-layer metric of BENCHMARK.json must be produced).  It ends with one
full-size ``train-loss`` run through ``run.py`` to check the result line
against BENCHMARK.json.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

from common import ROOT, SRC, source_present

SMALL = {
    "val-final": {"n_images": 20, "n_classes": 3, "knob": 0.3},
    "raw-detector": {"n_images": 2, "n_classes": 5, "n_boxes": 60},
}


def _bump_first_number(op: str, path: str) -> None:
    """Move one numeric report field by one ulp."""
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    if op == "corr":
        report["beta"] = math.nextafter(report["beta"], 2.0)
    else:
        row = report["ap_after"]["per_class"][0]["ap"]
        row[-1] = math.nextafter(row[-1], -1.0)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f)


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def _layer_names() -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"] for m in json.load(f)["per_layer"]}


def _cli_checks(failures: list[str]) -> None:
    import cli_workloads

    for workload, params in SMALL.items():
        clean = cli_workloads.run(workload, 0, 0.0, False, params=params, reference={})
        _expect(clean["attempted"] == 4 and clean["failed"] == 0, f"{workload}: clean run has no failures", failures)

        def corrupt(op, path):
            if op in ("corr", "bounds-1"):
                _bump_first_number(op, path)

        bad = cli_workloads.run(workload, 0, 0.0, False, params=params, reference=clean["digests"], corrupt=corrupt)
        flagged = {e.split(":")[0] for e in bad["errors"]}
        _expect(
            bad["failed"] == 2 and flagged == {"corr", "bounds-1"},
            f"{workload}: both one-ulp report corruptions are counted as failures ({bad['errors']})",
            failures,
        )

        traced = cli_workloads.run(workload, 0, 0.0, True, params=params, reference=clean["digests"])
        _expect(
            traced["failed"] == 0 and set(traced["layers"]) == _layer_names(),
            f"{workload}: traced run passes and reports every per-layer metric",
            failures,
        )


def _loss_checks(failures: list[str]) -> None:
    import corrdet
    import train_loss
    from corrdet import LossResult

    batches = train_loss.make_batches(0, image_batches=8, pooled_batches=1)
    clean = train_loss.train_loop(batches, 0.2, False)
    _expect(clean["failed"] == 0, "train-loss: clean run has no failures", failures)

    calls = {"n": 0}

    def corrupted(x, y, cfg):
        res = corrdet.loss_from_arrays(x, y, cfg)
        calls["n"] += 1
        if calls["n"] == 23:  # a fixed-sample call: off by far less than any bound
            return LossResult(res.value + 1e-9, res.grad_scores)
        if calls["n"] == 40:  # a training call: out of range
            return LossResult(2.5, res.grad_scores)
        if calls["n"] in (5, 45):  # a fixed-sample call and a training call that raise
            raise FloatingPointError("corrupted call")
        return res

    bad = train_loss.train_loop(batches, 0.2, False, loss_fn=corrupted)
    raised = sum("raised FloatingPointError" in e for e in bad["errors"])
    _expect(
        bad["failed"] == 4 and raised == 2 and bad["attempted"] >= 45,
        f"train-loss: two corrupted and two raising loss calls are counted as failures ({bad['errors']})",
        failures,
    )

    traced = train_loss.train_loop(batches, 0.2, True)
    _expect(traced["failed"] == 0 and "agg" in traced, "train-loss: traced loop passes", failures)


def _end_to_end_check(failures: list[str]) -> None:
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "train-loss", "--seed", "0", "--seconds", "1", "--trace", "0"])
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        names = {m["name"] for m in json.load(f)["end_to_end"]}
    _expect(
        rc == 0 and set(line) == {"correct", "attempted", "failed", "metrics"}
        and set(line["metrics"]) == names and line["correct"] and line["failed"] == 0,
        "run.py: result line carries every end-to-end metric and no failure",
        failures,
    )


def main() -> int:
    if not source_present():
        print(f"error: no corrdet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    failures: list[str] = []
    _cli_checks(failures)
    _loss_checks(failures)
    _end_to_end_check(failures)
    print("self-test " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
