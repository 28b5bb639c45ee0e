"""The trainer's workload: ``train-loss``.

A training-style loop in one worker process calls
``corrdet.loss_from_arrays`` on one batch at a time and applies the score
gradient to that batch, so the inputs drift as they do in training.  No
CLI or I/O code of corrdet runs; the soft ranks and the loss do the work.

Batches (IoUs in [0.5, 1], scores rising with IoU plus noise):

* 512 per-image batches: 10% with n = 0, 15% with n = 1, the rest with n
  uniform over 2..64 -- the degenerate path (n < 2) is part of the traffic;
* 16 pooled batches, n uniform over 512..2048.

This size mix is an assumption, not measured traffic: no per-batch trace
of positive counts is at hand to draw it from.  Only the ranges are
given (0..64 per image, 512..2048 pooled); the shares inside them are
chosen: a quarter of degenerate per-image batches makes that path common
enough to weigh in the per-image median, and the uniform spread over the
rest keeps any one size from setting it.  The degenerate batch share the
record reports follows from these constants (``generator`` in the
record), so it describes the generator, not a trainer's data.  Sizes are
drawn stratified, so every seed has nearly the same size mix.

A pass visits every batch once, one pooled batch after each 32 per-image
ones; in pass p, batch k of each shape uses family (k + p) mod 4 of
Spearman at eps=1.0 (the default: one PAV block), Spearman at eps=0.01
(many blocks), Pearson and concordance.  The small/large split shows a change that helps only
large n paying for it at small n.

Run as a script, this module is the worker:

    python bench/train_loss.py INPUTS.npz RESULT.json SECONDS TRACE
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import tracer as tracing
from checks import REFERENCE_PATH
from common import BENCH_DIR, OUT_DIR, SpeedSampler, at_reference_speed, run_child
from layers import layer_metrics

IMAGE_BATCHES = 512
POOLED_BATCHES = 16
# The assumed size mix (see above).
EMPTY_SHARE = 0.10
SINGLE_SHARE = 0.15
IMAGE_N_MAX = 64
POOLED_N = (512, 2048)
FAMILIES = (("spearman", 1.0), ("spearman", 0.01), ("pearson", 1.0), ("concordance", 1.0))
LR = 1e-3
SETUP_REPEATS = 40
# No looser than the loss-value tolerance of the tier-1 loss tests.
FIXED_SAMPLE_TOL = 1e-12
FIXED_SAMPLE_SEED = 20230103
TRACE_MAX_PASSES = 40


def _stratified(rng: np.random.Generator, k: int) -> np.ndarray:
    u = (np.arange(k) + rng.uniform(size=k)) / k
    rng.shuffle(u)
    return u


def _batch(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    ious = rng.uniform(0.5, 1.0, n)
    scores = 0.5 * (ious - 0.5) / 0.5 + 0.5 * rng.uniform(0.0, 1.0, n)
    return ious, scores


def make_batches(seed: int, image_batches: int = IMAGE_BATCHES, pooled_batches: int = POOLED_BATCHES) -> dict:
    """Seeded batch pool as flat arrays plus offsets."""
    rng = np.random.default_rng(seed)
    u = _stratified(rng, image_batches)
    small = EMPTY_SHARE + SINGLE_SHARE
    image_n = np.where(
        u < EMPTY_SHARE, 0, np.where(u < small, 1, 2 + np.floor((u - small) / (1 - small) * (IMAGE_N_MAX - 1)))
    ).astype(int)
    lo, hi = POOLED_N
    pooled_n = (lo + np.floor(_stratified(rng, pooled_batches) * (hi - lo + 1))).astype(int)
    out = {}
    for shape, sizes in (("image", image_n), ("pooled", pooled_n)):
        pairs = [_batch(rng, int(n)) for n in sizes]
        out[f"{shape}_ious"] = np.concatenate([p[0] for p in pairs])
        out[f"{shape}_scores"] = np.concatenate([p[1] for p in pairs])
        out[f"{shape}_offsets"] = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return out


def input_properties(batches: dict) -> tuple[dict, dict]:
    """Properties of the generated pool, and the generator's assumed size
    mix with the degenerate batch share that follows from it."""

    def sizes(shape):
        return np.diff(batches[f"{shape}_offsets"])

    def degenerate(shape):
        off, x, y = batches[f"{shape}_offsets"], batches[f"{shape}_ious"], batches[f"{shape}_scores"]
        return [b - a < 2 or np.ptp(x[a:b]) == 0 or np.ptp(y[a:b]) == 0 for a, b in zip(off[:-1], off[1:])]

    flags = degenerate("image") + degenerate("pooled")
    inputs = {
        "image_batch_n_mean": float(sizes("image").mean()),
        "pooled_batch_n_mean": float(sizes("pooled").mean()),
    }
    generator = {
        "empty_batch_share": EMPTY_SHARE,
        "single_batch_share": SINGLE_SHARE,
        "image_n_max": IMAGE_N_MAX,
        "pooled_n_min": POOLED_N[0],
        "pooled_n_max": POOLED_N[1],
        "degenerate_batch_share": sum(flags) / len(flags),
    }
    return inputs, generator


def schedule(batches: dict, pass_no: int) -> list[tuple[str, int, int]]:
    """Pass ``pass_no``: (shape, batch index, family index) per call.  The
    families rotate from pass to pass, so every batch meets every family."""
    n_image = len(batches["image_offsets"]) - 1
    n_pooled = len(batches["pooled_offsets"]) - 1
    every = max(1, n_image // max(1, n_pooled))
    steps, pooled = [], 0
    for i in range(n_image):
        steps.append(("image", i, (i + pass_no) % len(FAMILIES)))
        if (i + 1) % every == 0 and pooled < n_pooled:
            steps.append(("pooled", pooled, (pooled + pass_no) % len(FAMILIES)))
            pooled += 1
    return steps


def kind(shape: str, family: int) -> str:
    if FAMILIES[family][0] != "spearman":
        return "closed_form"
    return f"spearman_{shape}"


def fixed_sample() -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Seed-independent batches whose loss values are recorded in
    reference.json: every family at sizes 0, 1, 2, 7, 64 and 600."""
    rng = np.random.default_rng(FIXED_SAMPLE_SEED)
    return [(f, *_batch(rng, n)) for n in (0, 1, 2, 7, 64, 600) for f in range(len(FAMILIES))]


def fixed_sample_record(loss_fn, cfgs) -> list[dict]:
    rows = []
    for family, x, y in fixed_sample():
        res = loss_fn(x, y, cfgs[family])
        rows.append({"family": family, "n": int(x.shape[0]), "value": res.value, "grad": res.grad_scores.tolist()})
    return rows


def loss_configs():
    from corrdet import LossConfig

    return [LossConfig(coefficient=c, epsilon=eps) for c, eps in FAMILIES]


def _timed_call(loss_fn, x, y, cfg):
    """One loss call; returns (result or None, error or None, seconds).  A
    call that raises is a failed operation, not the end of the run."""
    t0 = time.perf_counter()
    try:
        res = loss_fn(x, y, cfg)
    except Exception as e:
        return None, f"loss call raised {type(e).__name__}: {e}", time.perf_counter() - t0
    dt = time.perf_counter() - t0
    if not (0.0 <= res.value <= 2.0):
        return res, f"loss value {res.value!r} outside [0, 2]", dt
    grad = res.grad_scores
    if grad.shape != (x.shape[0],) or not np.all(np.isfinite(grad)):
        return res, "gradient has the wrong shape or a non-finite entry", dt
    return res, None, dt


def train_loop(batches: dict, seconds: float, trace: bool, loss_fn=None) -> dict:
    """Closed loop over the batch pool; returns timings, failures and, when
    tracing, the per-layer aggregates.  ``loss_fn`` replaces
    ``corrdet.loss_from_arrays`` (the self-test passes a corrupted one)."""
    import corrdet

    if loss_fn is None:

        def loss_fn(x, y, cfg):  # looked up per call, so the tracer's wrapper is seen
            return corrdet.loss_from_arrays(x, y, cfg)

    cfgs = loss_configs()
    errors: list[str] = []
    attempted = failed = 0

    for row, (family, x, y) in zip(_load_fixed_reference(), fixed_sample()):
        attempted += 1
        res, err, _ = _timed_call(loss_fn, x, y, cfgs[family])
        grad_ref = np.asarray(row["grad"])
        if err is None and (
            row["family"] != family
            or abs(res.value - row["value"]) > FIXED_SAMPLE_TOL
            or grad_ref.shape != res.grad_scores.shape
            or np.max(np.abs(grad_ref - res.grad_scores), initial=0.0) > FIXED_SAMPLE_TOL
        ):
            err = f"fixed sample (family {family}, n={x.shape[0]}) differs from the recorded value"
        if err:
            failed += 1
            errors.append(err)

    shape_of_run: list[str] = []

    def one_pass(pass_no: int, state: dict, times: dict, tr=None) -> float:
        nonlocal attempted, failed
        total = 0.0
        for shape, b, family in schedule(batches, pass_no):
            off = batches[f"{shape}_offsets"]
            lo, hi = off[b], off[b + 1]
            x = batches[f"{shape}_ious"][lo:hi]
            y = state[shape][lo:hi]
            if tr is not None:
                tr.run = len(shape_of_run)
                shape_of_run.append(shape)
            res, err, dt = _timed_call(loss_fn, x, y, cfgs[family])
            total += dt
            times[kind(shape, family)].append(dt)
            attempted += 1
            if err:
                failed += 1
                if len(errors) < 20:
                    errors.append(f"{shape} batch {b}, family {family}: {err}")
            else:
                y -= LR * res.grad_scores
        return total

    def fresh_state():
        return {shape: batches[f"{shape}_scores"].copy() for shape in ("image", "pooled")}

    def new_times():
        return {k: [] for k in ("spearman_image", "spearman_pooled", "closed_form")}

    times, scaled = new_times(), new_times()
    speeds: list[float] = []
    pass_s: list[float] = []
    traced_pass_s: list[float] = []
    state, traced_state = fresh_state(), fresh_state()
    tr = tracing.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    while not pass_s or time.perf_counter() < deadline:
        pass_times = new_times()
        with SpeedSampler() as speed:
            pass_s.append(one_pass(len(pass_s), state, pass_times))
        speeds.append(speed.speed())
        for k, v in pass_times.items():
            times[k].extend(v)
            scaled[k].extend(at_reference_speed(t, speeds[-1]) for t in v)
        if trace:
            # The same pass from the same scores, traced: alternating keeps
            # warm-up and machine drift out of the overhead figure.
            tr.install()
            try:
                traced_pass_s.append(one_pass(len(traced_pass_s), traced_state, new_times(), tr))
            finally:
                tr.uninstall()
            if len(pass_s) >= TRACE_MAX_PASSES:
                break

    out = {
        "calibration_s": statistics.median(speeds),
        "passes": len(pass_s),
        "pass_s": pass_s,
        "pass_s_at_reference_speed": [at_reference_speed(t, v) for t, v in zip(pass_s, speeds)],
        "kinds": {
            k: {
                "calls": len(v),
                "total_s": sum(v),
                "median_ms": 1e3 * statistics.median(v) if v else 0.0,
                "median_ms_at_reference_speed": 1e3 * statistics.median(scaled[k]) if v else 0.0,
            }
            for k, v in times.items()
        },
    }
    if trace:
        out.update(_trace_summary(tr.spans, shape_of_run))
        out["overhead_share"] = sum(traced_pass_s) / sum(pass_s) - 1.0
    out.update(attempted=attempted, failed=failed, errors=errors)
    return out


def _trace_summary(spans, shape_of_run: list[str]) -> dict:
    agg = tracing.accumulate({}, spans)
    runs = {shape: {r for r, s in enumerate(shape_of_run) if s == shape} for shape in ("image", "pooled")}
    return {
        "agg": {k: {**v, "durations": []} for k, v in agg.items()},
        "hot_spots": {
            "all": tracing.hot_spots(agg),
            **{shape: tracing.hot_spots(tracing.accumulate({}, spans, r)) for shape, r in runs.items()},
        },
    }


def _load_fixed_reference() -> list[dict]:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)["train-loss"]["fixed_sample"]


def run(seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set-up in this process, the loop in a worker."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-train-loss-", dir=OUT_DIR)
    try:
        inputs_path = os.path.join(workdir, "inputs.npz")
        # One gauge over all repeats: a single repeat is shorter than the
        # sampling interval.
        setups_raw = []
        with SpeedSampler() as setup_speed:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                batches = make_batches(seed)
                np.savez(inputs_path, **batches)
                setups_raw.append(time.perf_counter() - t0)
        result_path = os.path.join(workdir, "result.json")
        argv = [sys.executable, os.path.join(BENCH_DIR, "train_loss.py"), inputs_path, result_path,
                str(seconds), "1" if trace else "0"]
        rc, _, rss_kb = run_child(argv, workdir, os.path.join(workdir, "worker.log"))
        if rc != 0 or not os.path.exists(result_path):
            with open(os.path.join(workdir, "worker.log"), encoding="utf-8", errors="replace") as f:
                raise RuntimeError(f"loss worker exited with code {rc}: {f.read()[-2000:]}")
        with open(result_path, encoding="utf-8") as f:
            loop = json.load(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    k = loop["kinds"]
    speed = loop["calibration_s"]
    inputs, generator = input_properties(batches)
    result = {
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "errors": loop["errors"][:20],
        "inputs": inputs,
        "generator": generator,
        "detail": {
            "spearman_image_per_s": k["spearman_image"]["calls"] / k["spearman_image"]["total_s"],
            "spearman_pooled_per_s": k["spearman_pooled"]["calls"] / k["spearman_pooled"]["total_s"],
            "closed_form_per_s": k["closed_form"]["calls"] / k["closed_form"]["total_s"],
            "kinds": k,
            "passes": loop["passes"],
            "setup_s": {"median": statistics.median(setups_raw), "n": len(setups_raw)},
            "job_s_measured": statistics.median(loop["pass_s"]),
            "calibration_s": speed,
            "peak_rss_mb": rss_kb / 1024.0,
            "failed_share": loop["failed"] / loop["attempted"],
            "fixed_sample_seed": FIXED_SAMPLE_SEED,
        },
        "metrics": {
            "setup_s": at_reference_speed(statistics.median(setups_raw), setup_speed.speed()),
            "job_s": statistics.median(loop["pass_s_at_reference_speed"]),
            "light_op_ms": k["spearman_image"]["median_ms_at_reference_speed"],
            "heavy_op_ms": k["spearman_pooled"]["median_ms_at_reference_speed"],
            "peak_rss_mb": rss_kb / 1024.0,
        },
    }
    if trace:
        result["layers"] = layer_metrics(
            loop["agg"], {}, loop["passes"], startup_s=[], coco_ap_growth=0.0,
            overhead_share=loop["overhead_share"], match_tp_calls_per_report=0.0,
        )
        result["hot_spots"] = loop["hot_spots"]
    return result


def _worker_main(argv: list[str]) -> int:
    inputs_path, result_path, seconds, trace = argv
    with np.load(inputs_path) as data:
        batches = {key: data[key] for key in data.files}
    out = train_loop(batches, float(seconds), trace == "1")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(_worker_main(sys.argv[1:]))
