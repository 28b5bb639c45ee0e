"""Span tracing around corrdet's public functions, from outside the package.

``install()`` replaces every public function listed in a corrdet module's
``__all__`` with a wrapper that records one span per call, and rebinds the
wrapper wherever another corrdet module imported the function by name.  A
span holds (name, start, end, parent, run id, wrapper overhead, counts).
Per-box helpers (``iou``, ``Box``) and the per-number ``fmt_float`` are not
wrapped; their work is reported as counts computed from the arguments of
the calls that drive them.

Counts are computed outside the timed interval and the time spent on them
is kept as the span's overhead, so a parent's self time -- its duration
minus the intervals its children cover -- does not absorb the bookkeeping.

Run as a script, this module is the traced CLI child:

    python bench/tracer.py SPANS_OUT -- eval --gt gt.json --dets dets.json

It times ``import corrdet.cli``, installs the wrappers, runs the CLI and
writes the spans plus the import time to SPANS_OUT as JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

MODULES = (
    "cli",
    "ingest",
    "pipeline",
    "geometry",
    "metrics",
    "correlation",
    "bounds",
    "softrank",
    "corrloss",
    "gradcheck",
)
NOT_WRAPPED = {"iou", "fmt_float"}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _count_match_tp(args, kwargs):
    dets = _arg(args, kwargs, 0, "dets")
    gts = _arg(args, kwargs, 1, "gts")
    per_image = Counter(g.image_id for g in gts)
    same = sum(per_image[d.image_id] for d in dets)
    return {"pairs": len(dets) * len(gts), "same_image_pairs": same}


def _count_match_positives(args, kwargs):
    dets = _arg(args, kwargs, 0, "dets")
    gts = _arg(args, kwargs, 1, "gts")
    return {"pairs": len(dets) * len(gts)}


def _count_postprocess(args, kwargs):
    dets = _arg(args, kwargs, 0, "dets")
    thr = _arg(args, kwargs, 1, "cfg").score_thr
    return {"candidates": sum(1 for d in dets for s in d.class_scores if s > thr)}


def _count_loss(args, kwargs):
    import numpy as np  # not at module level: the CLI child times corrdet's own import

    x = np.asarray(_arg(args, kwargs, 0, "ious"), dtype=np.float64).reshape(-1)
    y = np.asarray(_arg(args, kwargs, 1, "scores"), dtype=np.float64).reshape(-1)
    degenerate = x.shape[0] < 2 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0
    return {"degenerate": int(degenerate), "n": int(x.shape[0])}


def _count_load(args, kwargs):
    return {"bytes": _file_size(_arg(args, kwargs, 0, "path"))}


def _after_load_gt(res):
    return {"records": len(res.images) + len(res.gts) + len(res.categories)}


def _after_load_raw(res):
    return {"records": sum(len(v) for v in res.raw_dets.values())}


def _after_load_final(res):
    return {"records": len(res.final_dets)}


def _after_postprocess(res):
    return {"kept": len(res)}


def _after_soft_rank(res):
    return {"blocks": int(res.blocks[-1]) + 1}


BEFORE = {
    "geometry.match_tp": _count_match_tp,
    "geometry.match_positives": _count_match_positives,
    "pipeline.postprocess": _count_postprocess,
    "corrloss.loss_from_arrays": _count_loss,
    "ingest.load_gt": _count_load,
    "ingest.load_raw_dets": _count_load,
    "ingest.load_final_dets": _count_load,
}
AFTER = {
    "ingest.load_gt": _after_load_gt,
    "ingest.load_raw_dets": _after_load_raw,
    "ingest.load_final_dets": _after_load_final,
    "pipeline.postprocess": _after_postprocess,
    "softrank.soft_rank": _after_soft_rank,
}


class Tracer:
    """Collects spans in memory; ``run`` tags the spans of one operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.run = 0

    def wrap(self, name: str, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            counts = before(args, kwargs) if before is not None else None
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, 0.0, counts]
            spans.append(span)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span[1], span[2], span[5] = t0, t1, t0 - t_in
            if after is not None:
                span[6] = {**(counts or {}), **after(result)}
                span[5] += clock() - t1
            return result

        return traced

    def install(self) -> None:
        """Wrap corrdet's public functions and rebind every imported alias."""
        import importlib

        modules = {m: importlib.import_module(f"corrdet.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if (
                    attr in NOT_WRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapped[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "corrdet" and not name.startswith("corrdet."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        """Put the original functions back."""
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus what its children cover."""
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, _, ovh, _ in spans:
        if parent >= 0:
            covered[parent] += (t1 - t0) + ovh
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def accumulate(agg: dict, spans, runs=None) -> dict:
    """Fold spans into per-name totals: calls, self and inclusive seconds,
    summed counts, and each call's duration.  ``runs`` keeps only spans
    whose run id is in it.  Returns ``agg``.
    """
    selfs = self_times(spans)
    for span, self_s in zip(spans, selfs):
        name, t0, t1, _, run, _, counts = span
        if runs is not None and run not in runs:
            continue
        entry = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "counts": {}, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["incl_s"] += t1 - t0
        entry["durations"].append(t1 - t0)
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return agg


def calls_under(spans, child: str, ancestor: str) -> int:
    """Number of ``child`` spans that have an ``ancestor`` span above them."""
    n = 0
    for span in spans:
        if span[0] != child:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        n += parent >= 0
    return n


def hot_spots(agg: dict, top: int = 5) -> list[tuple[str, float]]:
    """Names with the largest total self time, largest first."""
    ranked = sorted(((name, e["self_s"]) for name, e in agg.items()), key=lambda t: -t[1])
    return ranked[:top]


def _child_main(argv: list[str]) -> int:
    out = argv[0]
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT -- <corrdet cli args>", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import corrdet.cli

    startup = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        rc = corrdet.cli.main(argv[2:])
    finally:
        with open(out, "w", encoding="utf-8") as f:
            json.dump({"startup_s": startup, "spans": tracer.spans}, f)
    return rc


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
