"""Acceptance gate: one test per criterion, one printed verdict line each.

Every reference implementation here is independent of the library code:
brute-force formula evaluation, pure-Python rank computation by sorting,
explicit 101-point interpolation loops, and exhaustive permutation
search. Run with -s to see the verdict lines as they print.
"""

import contextlib
import itertools
import math
import time

import numpy as np

from corrdet import (
    Box,
    FinalDetection,
    GtObject,
    LossConfig,
    Match,
    MatchSet,
    PipelineConfig,
    RawDetection,
    bound_report,
    average_precision,
    concordance,
    descend_demo,
    emit_final_dets,
    emit_gt,
    emit_raw_dets,
    load_final_dets,
    load_gt,
    load_raw_dets,
    loss_from_arrays,
    match_positives,
    pearson,
    postprocess,
    rerank_class_level,
    rerank_image_level,
    soft_rank,
    soft_rank_vjp,
    spearman,
    synth,
)
from corrdet.cli import main as cli_main


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


# ---------------------------------------------------------------- references


def ref_ranks(v):
    """Average fractional ranks by sorting, pure Python."""
    order = sorted(range(len(v)), key=lambda i: v[i])
    ranks = [0.0] * len(v)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def ref_moments(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    vx = sum((a - mx) ** 2 for a in x) / n
    vy = sum((b - my) ** 2 for b in y) / n
    return mx, my, cov, vx, vy


def clip1(v):
    return max(-1.0, min(1.0, v))


def ref_pearson(x, y):
    mx, my, cov, vx, vy = ref_moments(x, y)
    return clip1(cov / math.sqrt(vx * vy))


def ref_spearman(x, y):
    return ref_pearson(ref_ranks(x), ref_ranks(y))


def ref_concordance(x, y):
    mx, my, cov, vx, vy = ref_moments(x, y)
    return clip1(2.0 * cov / (vx + vy + (mx - my) ** 2))


def ref_ap101(curve):
    """Brute-force 101-point interpolated AP."""
    total = 0.0
    for g in range(101):
        thr = g / 100.0
        best = 0.0
        for r, p in curve:
            if r >= thr and p > best:
                best = p
        total += best
    return total / 101.0


def gapped(rng, n, lo=0.05, hi=0.95):
    """Values in [lo, hi] with pairwise gaps >= 40% of even spacing."""
    spacing = (hi - lo) / max(n - 1, 1)
    base = np.linspace(lo, hi, n)
    return rng.permutation(base + rng.uniform(-0.3, 0.3, size=n) * spacing)


# ----------------------------------------------------------------- criteria


def test_criterion_1_correlation_oracle():
    with criterion(1, "correlation oracle equivalence"):
        rng = np.random.default_rng(10)
        start = time.perf_counter()
        for trial in range(1000):
            n = int(rng.integers(2, 51))
            while True:
                x = rng.uniform(0.0, 1.0, size=n)
                y = rng.uniform(0.0, 1.0, size=n)
                if trial % 2 == 1:
                    x = np.round(x, 1)
                    y = np.round(y, 1)
                if np.ptp(x) > 0.0 and np.ptp(y) > 0.0:
                    break
            xl, yl = x.tolist(), y.tolist()
            assert abs(pearson(x, y) - ref_pearson(xl, yl)) <= 1e-9
            assert abs(spearman(x, y) - ref_spearman(xl, yl)) <= 1e-9
            assert abs(concordance(x, y) - ref_concordance(xl, yl)) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_2_soft_rank():
    with criterion(2, "soft-rank correctness"):
        rng = np.random.default_rng(20)
        start = time.perf_counter()

        for trial in range(1000):
            n = int(rng.integers(1, 51))
            v = rng.uniform(-5.0, 5.0, size=n)
            eps = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
            r = soft_rank(-v if trial % 2 else v, eps)
            assert abs(float(r.ranks.sum()) - n * (n + 1) / 2.0) <= 1e-9

        for _ in range(200):
            n = int(rng.integers(2, 31))
            gaps = 0.1 + rng.uniform(0.0, 1.0, size=n)
            v = rng.permutation(np.cumsum(gaps))
            hard = np.asarray(ref_ranks(v.tolist()))
            assert np.array_equal(soft_rank(v, 1e-4).ranks, hard)

        h = 1e-6
        for _ in range(200):
            n = int(rng.integers(2, 31))
            while True:
                v = gapped(rng, n)
                base = soft_rank(v, 1.0)
                stable = True
                for i in range(n):
                    for s in (h, -h):
                        vp = v.copy()
                        vp[i] += s
                        rp = soft_rank(vp, 1.0)
                        if not (
                            np.array_equal(rp.permutation, base.permutation)
                            and np.array_equal(rp.blocks, base.blocks)
                        ):
                            stable = False
                if stable:
                    break
            u = rng.standard_normal(n)
            analytic = soft_rank_vjp(base, u)
            fd = np.empty(n)
            for i in range(n):
                vp = v.copy()
                vp[i] += h
                vm = v.copy()
                vm[i] -= h
                fd[i] = (u @ soft_rank(vp, 1.0).ranks - u @ soft_rank(vm, 1.0).ranks) / (2 * h)
            diff = float(np.linalg.norm(fd - analytic))
            denom = max(float(np.linalg.norm(fd)), float(np.linalg.norm(analytic)), 1e-12)
            assert diff <= 1e-9 or diff / denom < 1e-4

        assert time.perf_counter() - start < 10.0


def test_criterion_3_loss_gradients():
    with criterion(3, "loss gradients vs finite differences"):
        rng = np.random.default_rng(30)
        h = 1e-6
        for coef in ("pearson", "concordance"):
            cfg = LossConfig(coefficient=coef)
            for _ in range(500):
                n = int(rng.integers(2, 31))
                x = gapped(rng, n)
                y = gapped(rng, n)
                analytic = loss_from_arrays(x, y, cfg).grad_scores
                fd = np.empty(n)
                for i in range(n):
                    yp = y.copy()
                    yp[i] += h
                    ym = y.copy()
                    ym[i] -= h
                    fd[i] = (
                        loss_from_arrays(x, yp, cfg).value
                        - loss_from_arrays(x, ym, cfg).value
                    ) / (2 * h)
                diff = float(np.linalg.norm(fd - analytic))
                denom = max(float(np.linalg.norm(fd)), float(np.linalg.norm(analytic)), 1e-12)
                assert diff <= 1e-9 or diff / denom < 1e-6

        for coef in ("pearson", "concordance", "spearman"):
            cfg = LossConfig(coefficient=coef)
            for x, y in (
                ([], []),
                ([0.5], [0.3]),
                ([0.4, 0.4, 0.4], [0.1, 0.7, 0.3]),
                ([0.1, 0.7, 0.3], [0.4, 0.4, 0.4]),
            ):
                res = loss_from_arrays(x, y, cfg)
                assert res.value == 0.0
                assert np.all(res.grad_scores == 0.0)
                assert np.all(np.isfinite(res.grad_scores))


def test_criterion_4_descent():
    with criterion(4, "descent drives correlation to 0.99"):
        start = time.perf_counter()
        for coef, measure in (("spearman", spearman), ("concordance", concordance)):
            cfg = LossConfig(coefficient=coef)
            for seed in range(20):
                rng = np.random.default_rng(seed)
                ious = rng.uniform(0.0, 1.0, size=20)
                scores = rng.uniform(0.0, 1.0, size=20)
                trace = descend_demo(scores, ious, cfg, steps=500, lr=0.1)
                assert measure(ious, trace.final_scores) >= 0.99, (coef, seed)
        assert time.perf_counter() - start < 30.0


def test_criterion_5_ap_oracle():
    with criterion(5, "average precision oracle"):
        for n_gt in (1, 2, 3):
            for n_det in range(7):
                for pattern in itertools.product((True, False), repeat=n_det):
                    if sum(pattern) > n_gt:
                        continue
                    curve = []
                    tp = 0
                    for k, is_tp in enumerate(pattern, start=1):
                        tp += is_tp
                        curve.append((tp / n_gt, tp / k))
                    assert abs(average_precision(curve) - ref_ap101(curve)) <= 1e-12

        curve = [(0.5, 1.0), (0.5, 0.5), (1.0, 2.0 / 3.0)]
        assert abs(average_precision(curve) - 0.8350) < 5e-5


def test_criterion_6_ap50_invariance():
    with criterion(6, "class rerank: AP_50 invariant, AP_75 bracketed"):
        improved = 0
        for seed in range(100):
            ds = synth(seed, knob=0.0)
            plus = bound_report(ds, 1, level="class")
            minus = bound_report(ds, -1, level="class")

            ap50 = plus.ap_before.per_threshold[0][1]
            assert plus.ap_after.per_threshold[0][1] == ap50
            assert minus.ap_after.per_threshold[0][1] == ap50
            for (_, before), (_, after_p), (_, after_m) in zip(
                plus.ap_before.per_class, plus.ap_after.per_class, minus.ap_after.per_class
            ):
                assert after_p[0] == before[0]
                assert after_m[0] == before[0]

            ap75 = plus.ap_before.per_threshold[5][1]
            ap75_plus = plus.ap_after.per_threshold[5][1]
            ap75_minus = minus.ap_after.per_threshold[5][1]
            assert ap75_minus <= ap75 <= ap75_plus
            if ap75_plus > ap75:
                improved += 1
        assert improved >= 1


def test_criterion_7_bound_optimality():
    with criterion(7, "rerank optimality over all permutations"):
        rng = np.random.default_rng(70)
        box = Box(0.0, 0.0, 10.0, 10.0)
        for n in range(2, 8):
            for variant in range(4):
                ious = rng.uniform(0.0, 1.0, size=n)
                scores = rng.uniform(0.0, 1.0, size=n)
                if variant == 3 and n >= 3:
                    ious[1] = ious[0]
                    scores[1] = scores[0]

                dets = [FinalDetection(box, 0, float(s), 1) for s in scores]
                matches = MatchSet(
                    tuple(
                        Match(i, i, float(ious[i]), float(scores[i]), 0)
                        for i in range(n)
                    )
                )
                plus = rerank_class_level(dets, matches, 1)
                minus = rerank_class_level(dets, matches, -1)
                rho_plus = spearman(ious, [d.score for d in plus])
                rho_minus = spearman(ious, [d.score for d in minus])

                values = [
                    spearman(ious, perm)
                    for perm in itertools.permutations(scores.tolist())
                ]
                assert abs(rho_plus - max(values)) <= 1e-12
                assert abs(rho_minus - min(values)) <= 1e-12


def _overlap_cluster(rng):
    """k mutually-overlapping same-class detections over k stacked GTs.

    Pairwise detection IoUs stay above the default NMS threshold, so
    post-processing keeps exactly one member; IoUs to the GT box are
    distinct by construction.
    """
    k = int(rng.integers(2, 5))
    base = Box(100.0, 100.0, 140.0, 140.0)
    shifts = rng.permutation(np.arange(k) * rng.uniform(0.8, 1.4))
    dets = [
        RawDetection(
            Box(base.x1 + s, base.y1, base.x2 + s, base.y2),
            (float(rng.uniform(0.2, 0.9)),),
        )
        for s in shifts
    ]
    gts = [GtObject(base, 0, 1) for _ in range(k)]
    return dets, gts


def test_criterion_8_nms_keeps_extremes():
    with criterion(8, "NMS keeps max-IoU member after +1 rerank"):
        rng = np.random.default_rng(80)
        pcfg = PipelineConfig()
        kept_plus = []
        kept_minus = []
        for _ in range(200):
            dets, gts = _overlap_cluster(rng)
            matches = match_positives(dets, gts, 0.5)
            assert len(matches) == len(dets)
            by_det = {m.detection_index: m.iou for m in matches.entries}
            max_iou = max(by_det.values())

            for direction, sink in ((1, kept_plus), (-1, kept_minus)):
                reranked = rerank_image_level(dets, matches, direction)
                finals = postprocess(reranked, pcfg, image_id=1)
                assert len(finals) == 1
                kept_iou = max(
                    by_det[i]
                    for i, d in enumerate(reranked)
                    if d.box == finals[0].box
                )
                sink.append(kept_iou)
                if direction == 1:
                    assert kept_iou == max_iou

        assert float(np.mean(kept_minus)) < float(np.mean(kept_plus))


def test_criterion_9_determinism_and_round_trip(tmp_path):
    with criterion(9, "byte-identical reports and round-trip identity"):
        ds = synth(11, knob=0.3)
        paths = {}
        for name, emit in (
            ("gt", emit_gt),
            ("raw", emit_raw_dets),
            ("final", emit_final_dets),
        ):
            p1 = tmp_path / f"{name}_a.json"
            p2 = tmp_path / f"{name}_b.json"
            emit(ds, str(p1))
            emit(ds, str(p2))
            assert p1.read_bytes() == p2.read_bytes()
            paths[name] = str(p1)

        loaded = load_gt(paths["gt"])
        loaded = load_raw_dets(paths["raw"], loaded)
        loaded = load_final_dets(paths["final"], loaded)
        assert loaded.categories == ds.categories
        assert loaded.images == ds.images
        assert loaded.gts == ds.gts
        assert loaded.raw_dets == ds.raw_dets
        assert loaded.final_dets == ds.final_dets

        r1 = tmp_path / "report_a.json"
        r2 = tmp_path / "report_b.json"
        for out in (r1, r2):
            code = cli_main(
                ["eval", "--gt", paths["gt"], "--raw-dets", paths["raw"], "--out", str(out)]
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()
