"""Correlation Loss: values, analytic gradients, degenerate handling."""

import numpy as np
import pytest

from corrdet import (
    Box,
    GtObject,
    LossConfig,
    correlation_loss,
    descend_demo,
    loss_from_arrays,
    match_positives,
    multi_stage_loss,
    spearman,
    total_loss,
)
from corrdet.pipeline import RawDetection


def fd_grad(x, y, cfg, h):
    out = np.empty(len(y))
    for i in range(len(y)):
        yp = np.array(y, dtype=float)
        ym = np.array(y, dtype=float)
        yp[i] += h
        ym[i] -= h
        out[i] = (loss_from_arrays(x, yp, cfg).value - loss_from_arrays(x, ym, cfg).value) / (2 * h)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        LossConfig(coefficient="kendall")
    with pytest.raises(ValueError):
        LossConfig(lambda_corr=-0.1)
    with pytest.raises(ValueError):
        LossConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        LossConfig(degenerate_policy="zero")
    assert LossConfig().coefficient == "spearman"
    assert LossConfig().lambda_corr == 0.2


def test_pearson_loss_hand_values():
    cfg = LossConfig(coefficient="pearson")
    x = [1.0, 2.0, 3.0]
    assert loss_from_arrays(x, [10.0, 20.0, 30.0], cfg).value == 0.0
    assert loss_from_arrays(x, [3.0, 2.0, 1.0], cfg).value == 2.0


def test_concordance_loss_hand_value():
    cfg = LossConfig(coefficient="concordance")
    x = [1.0, 2.0, 3.0]
    assert loss_from_arrays(x, x, cfg).value == 0.0
    # y = x + 1 -> gamma = 4/7
    assert abs(loss_from_arrays(x, [2.0, 3.0, 4.0], cfg).value - 3.0 / 7.0) < 1e-15


def test_spearman_loss_tracks_score_order():
    cfg = LossConfig(coefficient="spearman", epsilon=1e-6)
    x = [0.2, 0.5, 0.9]
    # with a near-hard epsilon and well-separated scores the surrogate
    # equals 1 - exact spearman
    assert abs(loss_from_arrays(x, [1.0, 2.0, 3.0], cfg).value - 0.0) < 1e-12
    assert abs(loss_from_arrays(x, [3.0, 2.0, 1.0], cfg).value - 2.0) < 1e-12
    assert abs(
        loss_from_arrays(x, [2.0, 1.0, 3.0], cfg).value - (1.0 - spearman(x, [2.0, 1.0, 3.0]))
    ) < 1e-12


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    for coef, h, tol in (("pearson", 1e-6, 1e-6), ("concordance", 1e-6, 1e-6)):
        cfg = LossConfig(coefficient=coef)
        for _ in range(25):
            n = int(rng.integers(3, 20))
            x = rng.uniform(0.0, 1.0, size=n)
            y = rng.uniform(0.0, 1.0, size=n)
            analytic = loss_from_arrays(x, y, cfg).grad_scores
            fd = fd_grad(x, y, cfg, h)
            diff = float(np.linalg.norm(fd - analytic))
            assert diff <= 1e-9 or diff / max(np.linalg.norm(fd), 1e-12) < tol


def test_gradient_descends_the_loss():
    rng = np.random.default_rng(7)
    for coef in ("pearson", "concordance", "spearman"):
        cfg = LossConfig(coefficient=coef)
        x = rng.uniform(0.0, 1.0, size=12)
        y = rng.uniform(0.0, 1.0, size=12)
        before = loss_from_arrays(x, y, cfg)
        after = loss_from_arrays(x, y - 0.05 * before.grad_scores, cfg)
        assert after.value < before.value


def test_degenerate_inputs_return_zero():
    for coef in ("pearson", "concordance", "spearman"):
        cfg = LossConfig(coefficient=coef)
        for x, y in (([], []), ([0.5], [0.1]), ([0.3, 0.3], [0.1, 0.9]), ([0.1, 0.9], [0.3, 0.3])):
            res = loss_from_arrays(x, y, cfg)
            assert res.value == 0.0
            assert res.grad_scores.shape == (len(x),)
            assert np.all(res.grad_scores == 0.0)
    # neither series is constant, but a variance underflows to zero
    underflowing = [(coef, [0.3, 0.7], [0.0, 5e-324]) for coef in ("pearson", "spearman")]
    underflowing += [(coef, [0.2, 0.5, 0.9], [1e-200, 2e-200, 3e-200]) for coef in ("pearson", "spearman")]
    underflowing += [(coef, [0.0, 5e-324], [0.0, 5e-324]) for coef in ("pearson", "concordance", "spearman")]
    for coef, x, y in underflowing:
        res = loss_from_arrays(x, y, LossConfig(coefficient=coef))
        assert res.value == 0.0
        assert np.all(res.grad_scores == 0.0)


def test_input_validation():
    cfg = LossConfig()
    with pytest.raises(ValueError):
        loss_from_arrays([0.1, 0.2], [0.3], cfg)
    with pytest.raises(ValueError):
        loss_from_arrays([0.1, float("inf")], [0.3, 0.4], cfg)


def test_correlation_loss_reads_matches():
    gts = [GtObject(Box(0, 0, 10, 10), 0), GtObject(Box(20, 0, 30, 10), 0)]
    dets = [
        RawDetection(Box(0, 0, 10, 9), (0.8,)),
        RawDetection(Box(20, 0, 30, 8), (0.3,)),
    ]
    ms = match_positives(dets, gts, 0.5)
    cfg = LossConfig(coefficient="pearson")
    res = correlation_loss(ms, cfg)
    ref = loss_from_arrays(ms.ious(), ms.scores(), cfg)
    assert res.value == ref.value
    assert np.array_equal(res.grad_scores, ref.grad_scores)


def test_total_loss():
    assert total_loss(1.5, 0.4, 0.2) == 1.5 + 0.2 * 0.4
    assert total_loss(1.5, 0.4, 0.0) == 1.5
    with pytest.raises(ValueError):
        total_loss(float("nan"), 0.4, 0.2)


def test_multi_stage_loss_sums_stages():
    def stage(ious, scores):
        gts = [GtObject(Box(0, 0, 10, 10), 0), GtObject(Box(20, 0, 30, 10), 0)]
        dets = [
            RawDetection(Box(0, 0, 10, 10 * ious[0]), (scores[0],)),
            RawDetection(Box(20, 0, 30, 10 * ious[1]), (scores[1],)),
        ]
        return match_positives(dets, gts, 0.1)

    cfg = LossConfig(coefficient="pearson")
    s1 = stage([0.9, 0.5], [0.8, 0.2])
    s2 = stage([0.6, 0.8], [0.1, 0.7])
    res = multi_stage_loss([s1, s2], cfg)
    assert len(res.stages) == 2
    assert res.value == res.stages[0].value + res.stages[1].value
    with pytest.raises(ValueError):
        multi_stage_loss([], cfg)


def test_descend_demo_trace_shape_and_lr_zero():
    rng = np.random.default_rng(8)
    ious = rng.uniform(0, 1, 10)
    scores = rng.uniform(0, 1, 10)
    cfg = LossConfig(coefficient="concordance")
    trace = descend_demo(scores, ious, cfg, steps=20, lr=0.0)
    assert trace.losses.shape == (21,)
    assert trace.spearmans.shape == (21,)
    assert np.all(trace.losses == trace.losses[0])
    assert np.array_equal(trace.final_scores, scores)


def test_descend_demo_already_sorted_stays_perfect():
    ious = np.array([0.1, 0.4, 0.6, 0.9])
    cfg = LossConfig(coefficient="spearman")
    trace = descend_demo(ious.copy(), ious, cfg, steps=50, lr=0.1)
    assert spearman(ious, trace.final_scores) == 1.0


def test_descend_demo_validation():
    cfg = LossConfig()
    with pytest.raises(ValueError):
        descend_demo([0.1], [0.2], cfg, steps=1, lr=0.1)
    with pytest.raises(ValueError):
        descend_demo([0.1, 0.2], [0.2, 0.3], cfg, steps=-1, lr=0.1)
