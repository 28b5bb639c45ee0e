"""Record the reference digests the benchmark checks reports against.

    python3 bench/record_reference.py --workload val-final --seeds 0-31

For each seed it runs one checked pass of the workload's CLI operations,
as the benchmark does, and stores the digest of each report's numeric
fields under that workload and seed in ``reference.json``, keeping
entries already there.  ``--workload train-loss`` records the fixed loss sample instead.
Recording is meant for the commit that defines what correct output is;
a later change that alters report bits must not re-record to pass.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _record_cli(workload: str, seed: int) -> dict:
    """Report digests of one checked pass of the workload's operations."""
    import cli_workloads

    result = cli_workloads.run(workload, seed, 0.0, False, reference={})
    if result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['errors']}")
    return {"params": cli_workloads.PARAMS[workload], "digests": result["digests"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("val-final", "raw-detector", "train-loss"), required=True)
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    from checks import REFERENCE_PATH

    try:
        with open(REFERENCE_PATH, encoding="utf-8") as f:
            reference = json.load(f)
    except FileNotFoundError:
        reference = {}

    if args.workload == "train-loss":
        import corrdet
        import train_loss

        reference["train-loss"] = {
            "fixed_sample": train_loss.fixed_sample_record(corrdet.loss_from_arrays, train_loss.loss_configs())
        }
    else:
        for seed in _seeds(args.seeds):
            rec = _record_cli(args.workload, seed)
            entry = reference.setdefault(args.workload, {"params": rec["params"], "seeds": {}})
            if entry["params"] != rec["params"]:
                entry.update(params=rec["params"], seeds={})
            entry["seeds"][str(seed)] = rec["digests"]
            print(f"{args.workload} seed {seed}: recorded", file=sys.stderr)
            with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
                json.dump(reference, f, indent=1, sort_keys=True)
        return 0

    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
