"""``python -m corrdet.cli`` with a machine-speed gauge running alongside.

    python bench/cli_entry.py SPEED_OUT -- eval --gt gt.json --dets dets.json

Runs the CLI exactly as ``-m`` does (``runpy`` with ``__main__``) while a
SpeedSampler interleaves short calibration samples with it on the same
CPU, then writes their median to SPEED_OUT.  The samples add well under
1% to the run.
"""

import runpy
import sys

from common import SpeedSampler


def main() -> int:
    out, sep, *args = sys.argv[1:]
    if sep != "--":
        print("usage: cli_entry.py SPEED_OUT -- <corrdet cli args>", file=sys.stderr)
        return 2
    sys.argv = ["corrdet", *args]
    code = 0
    sampler = SpeedSampler()
    try:
        with sampler:
            runpy.run_module("corrdet.cli", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        with open(out, "w", encoding="utf-8") as f:
            f.write(repr(sampler.speed()))
    return code


if __name__ == "__main__":
    sys.exit(main())
