"""corrdet benchmark: one command for the end-to-end and per-layer metrics.

    python3 bench/run.py --workload val-final --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports corrdet from ``src/`` of the
same checkout and builds every input from ``--seed``.  Workloads:

* ``val-final`` and ``raw-detector`` (``cli_workloads.py``): closed loops
  of ``corrdet eval/corr/bounds`` processes, as an evaluator runs them;
* ``train-loss`` (``train_loss.py``): a training loop calling the
  Correlation Loss in one worker process.

``--trace 0`` prints the ``end_to_end`` metrics of BENCHMARK.json,
``--trace 1`` runs the traced variant and prints the ``per_layer`` ones.
End-to-end times are scaled to a reference machine speed gauged on the
same CPU while they are measured (``common.SpeedSampler``), which keeps
them steady on a shared machine; the raw wall times are in the record.
Every operation's output is checked (``checks.py``); failures count in
``failed``.  The last line of standard output is the JSON result; the full
record -- machine stamp, per-operation figures under their own names
(``eval_s``, ``spearman_pooled_per_s``, ``failed_share``, ...), input
properties, the loss batch generator's assumed size mix, hot spots --
goes to ``bench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import OUT_DIR, ROOT, SRC, source_present, stamp

CLI_WORKLOADS = ("val-final", "raw-detector")
WORKLOADS = CLI_WORKLOADS + ("train-loss",)


def _metric_specs(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def _summary(result: dict) -> list[str]:
    lines = []
    for key, value in result["detail"].items():
        if isinstance(value, dict) and "median" in value:
            lines.append(f"{key}: {value['median']:.6g} (median of {value['n']})")
        elif isinstance(value, (int, float)):
            lines.append(f"{key}: {value:.6g}")
    lines.extend(f"inputs.{k}: {v:.6g}" for k, v in result["inputs"].items())
    lines.extend(f"generator.{k}: {v:.6g}" for k, v in result.get("generator", {}).items())
    for scope, spots in result.get("hot_spots", {}).items():
        lines.append(f"largest self time ({scope}): " + ", ".join(f"{n} {s:.4g}s" for n, s in spots))
    lines.extend(f"failure: {e}" for e in result["errors"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not source_present():
        print(f"error: no corrdet sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    trace = bool(args.trace)
    specs = _metric_specs(trace)

    if args.workload in CLI_WORKLOADS:
        import cli_workloads

        result = cli_workloads.run(args.workload, args.seed, args.seconds, trace)
    else:
        import train_loss

        result = train_loss.run(args.seed, args.seconds, trace)

    values = result["layers" if trace else "metrics"]
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in specs},
    }
    record = {"stamp": stamp(args.workload, args.seed, args.seconds, trace), **result, "result": line}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print("\n".join(_summary(result)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
