"""Correlation Loss: values, analytic gradients, degenerate handling."""

import json
import math
import os
import sys
import warnings

import numpy as np
import pytest
import softrank_oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from corrdet import (
    COEFFICIENTS,
    Box,
    DegenerateInput,
    GtObject,
    LossConfig,
    LossResult,
    average_ranks,
    concordance,
    correlation_loss,
    descend_demo,
    loss_from_arrays,
    match_positives,
    multi_stage_loss,
    pearson,
    soft_rank,
    soft_rank_vjp,
    spearman,
    total_loss,
)
from corrdet.correlation import _centered, _clip, _pearson_of
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
        LossConfig(epsilon=0.0)
    # 1 / epsilon overflows below the smallest normal float
    with pytest.raises(ValueError, match="epsilon must be finite and at least"):
        LossConfig(epsilon=1e-320)
    assert LossConfig(epsilon=sys.float_info.min).epsilon == sys.float_info.min
    assert LossConfig().coefficient == "spearman"


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


def test_two_point_pearson_and_spearman_gradients_are_zero():
    # r is +-1 for every non-constant pair, so the true gradient is 0: not
    # rounding residue, nor that residue scaled back from tiny scores
    rows = [
        ("pearson", [0.3, 0.7], [0.0, 0.5]),
        ("pearson", [0.3, 0.7], [0.0, 5e-324]),
        ("pearson", [0.3, 0.7], [0.5, 0.0]),
        ("spearman", [0.3, 0.7], [0.0, 0.5]),
        # soft ranks pool into one block but differ in the last bit
        ("spearman", [0.6313498709755809, 0.04782189696230421], [4.3385401614841626e-10, 2.472187266802347e-10]),
        # scores that span n / 2 or more take the soft-rank path
        ("spearman", [0.3, 0.7], [0.0, 5.0]),
    ]
    for coef, x, y in rows:
        res = loss_from_arrays(x, y, LossConfig(coefficient=coef))
        assert res.grad_scores.shape == (2,)
        assert np.all(res.grad_scores == 0.0)


_COEFFICIENT = {"pearson": pearson, "spearman": spearman, "concordance": concordance}


def test_tiny_spreads_keep_the_loss_contract():
    # Neither series is constant, but its moments would underflow at raw
    # scale.  The value is 1 - coefficient (the Spearman rows pool their
    # soft ranks into one block and are monotone, so 0 = 1 - 1), the
    # gradient is finite, and for Pearson (scores scaled alone) and
    # Concordance (both series scaled alike) it is the gradient at unit
    # scale scaled back, bit for bit, and 0 where that would overflow.
    rows = [(coef, [0.3, 0.7], [0.0, 5e-324]) for coef in ("pearson", "spearman")]
    rows += [(coef, [0.2, 0.5, 0.9], [1e-200, 2e-200, 3e-200]) for coef in ("pearson", "spearman")]
    rows += [(coef, [0.0, 5e-324], [0.0, 5e-324]) for coef in ("pearson", "concordance", "spearman")]
    for coef, x, y in rows:
        x, y = np.array(x), np.array(y)
        cfg = LossConfig(coefficient=coef)
        res = loss_from_arrays(x, y, cfg)
        assert res.value == 1.0 - _COEFFICIENT[coef](x, y)
        assert np.all(np.isfinite(res.grad_scores))
        if coef == "spearman":
            continue  # soft ranks read the scale of the scores (epsilon)
        k = -math.frexp(y.max())[1]  # y = ldexp(unit, -k), unit's peak in [0.5, 1)
        x_unit = np.ldexp(x, k) if coef == "concordance" else x
        unit = loss_from_arrays(x_unit, np.ldexp(y, k), cfg).grad_scores
        with np.errstate(over="ignore"):
            want = np.ldexp(unit, k)
        assert np.array_equal(res.grad_scores, np.where(np.isfinite(want), want, 0.0))


def test_subnormal_scores_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coef in COEFFICIENTS:
            res = loss_from_arrays([0.2, 0.5, 0.9], [0.0, 5e-324, 1e-323], LossConfig(coefficient=coef))
            assert 0.0 <= res.value <= 2.0
            assert np.all(np.isfinite(res.grad_scores))


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
    for lr in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lr must be finite"):
            descend_demo([0.1, 0.2], [0.2, 0.3], cfg, steps=1, lr=lr)
    with pytest.raises(ValueError, match="length mismatch: 3 ious vs 2 scores"):
        descend_demo([0.1, 0.2], [0.2, 0.3, 0.4], cfg, steps=1, lr=0.1)


@pytest.mark.parametrize("coef", COEFFICIENTS)
def test_descend_demo_from_tied_scores_records_a_degenerate_trace(coef):
    # all-equal scores: every step's loss is 0 with a zero gradient, so the
    # scores never move and the hard Spearman stays undefined
    scores = np.full(4, 0.3)
    trace = descend_demo(scores, [0.2, 0.9, 0.5, 0.7], LossConfig(coefficient=coef), steps=3, lr=0.5)
    assert np.array_equal(trace.losses, np.zeros(4))
    assert np.isnan(trace.spearmans).all() and trace.spearmans.shape == (4,)
    assert np.array_equal(trace.final_scores, scores)


def _bench_train_loss():
    """The train-loss benchmark module, ``bench/train_loss.py``."""
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
    sys.path.insert(0, bench)
    try:
        import train_loss
    finally:
        sys.path.remove(bench)
    return train_loss


def test_train_loss_fixed_sample_matches_the_bench_reference():
    # The train-loss benchmark checks these recorded rows before it times
    # anything; this holds them with its own sample, configs and rule.
    train_loss = _bench_train_loss()
    with open(train_loss.REFERENCE_PATH, encoding="utf-8") as f:
        rows = json.load(f)["train-loss"]["fixed_sample"]
    sample = train_loss.fixed_sample()
    cfgs = train_loss.loss_configs()
    tol = train_loss.FIXED_SAMPLE_TOL
    assert len(rows) == len(sample)
    for row, (family, x, y) in zip(rows, sample):
        res = loss_from_arrays(x, y, cfgs[family])
        grad = np.asarray(row["grad"])
        assert row["family"] == family
        assert grad.shape == res.grad_scores.shape
        assert abs(res.value - row["value"]) <= tol
        assert np.max(np.abs(grad - res.grad_scores), initial=0.0) <= tol


def test_train_loss_batches_rank_as_scipy_rankdata():
    # The IoUs the train-loss benchmark ranks, per-image and pooled, are
    # tie-free, so they pin the tie-free ranking path to the oracle.
    train_loss = _bench_train_loss()
    for seed in (7, 11):
        batches = train_loss.make_batches(seed)
        for shape in ("image", "pooled"):
            offsets, ious = batches[f"{shape}_offsets"], batches[f"{shape}_ious"]
            for a, b in zip(offsets[:-1], offsets[1:]):
                x = ious[a:b]
                assert np.unique(x).size == x.size
                got, want = average_ranks(x), rankdata(x, method="average")
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


_HUGE = [1e200, 2e200, 3e200]


def test_loss_survives_overflow():
    for coef in COEFFICIENTS:
        cfg = LossConfig(coefficient=coef)
        for x, y in ((_HUGE, _HUGE), ([0.1, 0.5, 0.9], _HUGE), (_HUGE, [0.1, 0.5, 0.9])):
            res = loss_from_arrays(x, y, cfg)
            assert 0.0 <= res.value <= 2.0
            assert np.all(np.isfinite(res.grad_scores))
    # scores / epsilon beyond the float range: each such score is its own
    # soft-rank block at its hard rank
    for y, eps in (([1e308, -1e308, 0.0], 0.5), ([1e300, -1e300, 0.0], 1e-10), ([1e300, -1e300, 0.0], np.float64(1e-10))):
        res = loss_from_arrays([0.1, 0.5, 0.9], y, LossConfig("spearman", eps))
        assert 0.0 <= res.value <= 2.0
        assert np.all(np.isfinite(res.grad_scores))
    for coef in ("pearson", "concordance"):
        assert loss_from_arrays(_HUGE, _HUGE, LossConfig(coefficient=coef)).value == pytest.approx(0.0, abs=1e-15)
    # value and gradient at scale 2^700 are those at scale 1, the gradient scaled by 2^-700
    x, y = np.array([1.0, 2.0, 3.0, 5.0]), np.array([1.0, 3.0, 2.0, 4.0])
    for coef, rel in (("pearson", 0.0), ("concordance", 4 * np.finfo(float).eps)):
        cfg = LossConfig(coefficient=coef)
        unit = loss_from_arrays(x, y, cfg)
        big = loss_from_arrays(np.ldexp(x, 700), np.ldexp(y, 700), cfg)
        assert big.value == pytest.approx(unit.value, rel=rel, abs=0.0)
        assert big.grad_scores == pytest.approx(np.ldexp(unit.grad_scores, -700), rel=rel, abs=0.0)


_FINITE = st.floats(-1e300, 1e300)
_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 24).flatmap(
        lambda n: st.tuples(st.lists(_ANY_FINITE, min_size=n, max_size=n), st.lists(_ANY_FINITE, min_size=n, max_size=n))
    ),
    st.sampled_from(COEFFICIENTS),
    st.floats(-3.0, 6.0).map(lambda e: 10.0**e) | st.floats(sys.float_info.min, allow_infinity=False),
)
def test_loss_bounded_with_finite_gradient(pair, coef, eps):
    # Any finite input and any epsilon that LossConfig accepts.
    res = loss_from_arrays(pair[0], pair[1], LossConfig(coefficient=coef, epsilon=eps))
    assert 0.0 <= res.value <= 2.0
    assert res.grad_scores.shape == (len(pair[0]),)
    assert np.all(np.isfinite(res.grad_scores))


_GRID = st.integers(-64000, 64000).map(lambda v: v / 64.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 30).flatmap(
        lambda n: st.tuples(st.lists(_GRID, min_size=n, max_size=n), st.lists(_GRID, min_size=n, max_size=n))
    ),
    st.integers(-1000, 1000),
)
def test_loss_value_does_not_depend_on_scale(pair, k):
    # Pearson and Concordance read no scale; Spearman's soft ranks do
    # (epsilon).  Concordance may move by the last-bit rounding of the
    # squared mean gap, a few ulps of a coefficient in [-1, 1].
    x, y = (np.array(v) for v in pair)
    for coef, tol in (("pearson", 0.0), ("concordance", 4 * np.finfo(float).eps)):
        cfg = LossConfig(coefficient=coef)
        want = loss_from_arrays(x, y, cfg).value
        assert loss_from_arrays(np.ldexp(x, k), np.ldexp(y, k), cfg).value == pytest.approx(want, rel=0.0, abs=tol)


# Unit-range values as a trainer sees them, plus any finite float and
# values whose moments underflow.
_VALUE = st.floats(0.0, 1.0) | _FINITE | st.sampled_from((0.0, 5e-324, 1e-200, 2e-200, 0.1))


@settings(max_examples=400, deadline=None)
@given(
    st.integers(2, 30).flatmap(
        lambda n: st.tuples(st.lists(_VALUE, min_size=n, max_size=n), st.lists(_VALUE, min_size=n, max_size=n))
    ),
    st.sampled_from(((pearson, "pearson"), (concordance, "concordance"))),
)
def test_loss_value_is_one_minus_coefficient(pair, coef):
    x, y = (np.array(v) for v in pair)
    assume(x.min() != x.max() and y.min() != y.max())
    coefficient, name = coef
    res = loss_from_arrays(x, y, LossConfig(coefficient=name))
    assert res.value == 1.0 - coefficient(x, y)


# Series of length 0 to 4 at the edges of the series check: constants
# that mix 0.0 and -0.0, constants whose mean rounds, and entries that may
# be +-inf or NaN.
_EDGE = st.sampled_from((0.0, -0.0, 0.1, 1.0, math.inf, -math.inf, math.nan)) | st.floats()


def _edge_series(n):
    return (
        st.lists(st.sampled_from((0.0, -0.0)), min_size=n, max_size=n)
        | st.sampled_from((0.1, 1e-300, 1e300)).map(lambda v: [v] * n)
        | st.lists(_EDGE, min_size=n, max_size=n)
    )


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(_edge_series(n), _edge_series(n))))
def test_loss_and_coefficients_read_one_series_check(pair):
    # The loss and the coefficients read finiteness and constancy from
    # one rule: a pair pearson() calls degenerate is a zero loss in every
    # family, and a non-finite entry is refused by all of them.
    x, y = (np.array(v, dtype=np.float64) for v in pair)
    cfgs = [LossConfig("spearman", 1.0), LossConfig("spearman", 0.01), LossConfig("pearson"), LossConfig("concordance")]
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        for cfg in cfgs:
            with pytest.raises(ValueError, match="must be finite"):
                loss_from_arrays(x, y, cfg)
        for coefficient in (pearson, spearman, concordance):
            with pytest.raises(DegenerateInput, match="non-finite"):
                coefficient(x, y)
        return
    try:
        pearson(x, y)
    except DegenerateInput:
        for cfg in cfgs:
            assert_same_loss(loss_from_arrays(x, y, cfg), LossResult(0.0, np.zeros(len(x))))


def _one_block(scores, eps):
    # The loss's rule: scores / eps spanning less than n / 2 pool into one
    # soft-rank block (less a margin for the rounding of the spread).
    return (max(scores) - min(scores)) / eps < (len(scores) / 2) * (1 - 2.0**-40)


# Scores as a trainer sees them, far from 0 on a quarter grid, and any
# finite float; epsilon from a tenth up to 1e300.  IoUs may tie, -0.0
# with 0.0 too.
_ONE_BLOCK_SCORE = st.floats(0.0, 1.0) | st.integers(-400, 400).map(lambda k: 1e15 + k / 4) | _FINITE
_ONE_BLOCK_IOU = _VALUE | st.just(-0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 30).flatmap(
        lambda n: st.tuples(
            st.lists(_ONE_BLOCK_IOU, min_size=n, max_size=n), st.lists(_ONE_BLOCK_SCORE, min_size=n, max_size=n)
        )
    ),
    st.floats(-1.0, 300.0).map(lambda e: 10.0**e) | st.just(1e300),
)
def test_one_block_spearman_is_pearson_on_iou_ranks(pair, eps):
    x, y = pair
    assume(_one_block(y, eps))
    assert_one_block_is_pearson_on_ranks(x, y, eps)


def assert_same_loss(got, want):
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert got.grad_scores.dtype == want.grad_scores.dtype == np.float64
    assert got.grad_scores.tobytes() == want.grad_scores.tobytes()


def assert_one_block_is_pearson_on_ranks(x, y, eps):
    res = loss_from_arrays(x, y, LossConfig("spearman", eps))
    assert_same_loss(res, loss_from_arrays(average_ranks(x), y, LossConfig("pearson")))


def _with_ties(rng, x, kind):
    """``x`` as is, with one planted pair of equal values, with one 0.0 and
    one -0.0 (equal, so tied), or rounded to tenths (few distinct values)."""
    x = x.copy()
    i, j = rng.choice(x.size, 2, replace=False)
    if kind == "equal":
        x[j] = x[i]
    elif kind == "signed zero":
        x[i], x[j] = 0.0, -0.0
    elif kind == "rounded":
        x = np.round(x, 1)
    return x


_TIE_KINDS = ["none", "equal", "signed zero", "rounded"]


@pytest.mark.parametrize("kind", _TIE_KINDS)
def test_pooled_one_block_spearman_is_pearson_on_iou_ranks(kind):
    # Pooled sizes: scores in [0, 1] pool into one block at either epsilon.
    rng = np.random.default_rng(len(kind))
    for n in [512, 1024, 2048, *rng.integers(512, 2049, 3).tolist()]:
        ious, y = _train_batch(rng, n)
        x = _with_ties(rng, ious, kind)
        for eps in (1.0, 0.01):
            assert _one_block(y, eps)
            assert_one_block_is_pearson_on_ranks(x, y, eps)


@pytest.mark.parametrize("kind", _TIE_KINDS)
def test_pav_spearman_loss_is_the_rank_kernel_composition(kind):
    # Per-image sizes at epsilon 0.01 and below take PAV.  The loss reads
    # centered IoU ranks with their closed-form variance; the two-pass
    # Pearson kernel on average_ranks, through the soft ranks and their
    # VJP, must give the same bits.
    rng = np.random.default_rng(len(kind))
    for n in [3, 4, 7, 33, 64, *rng.integers(3, 65, 10).tolist()]:
        ious, y = _train_batch(rng, n)
        x = _with_ties(rng, ious, kind)
        for eps in (0.01, 0.001):
            assert not _one_block(y, eps)
            soft = soft_rank(y, eps)
            xc, var_x, _ = _centered(average_ranks(x), float(n))
            yc, var_y, shift = _centered(soft.ranks, float(n))
            rho = _pearson_of(xc, var_x, yc, var_y)
            assert shift == 0
            grad = soft_rank_vjp(soft, xc / (n * math.sqrt(var_x * var_y)) - rho * yc / (n * var_y))
            assert_same_loss(loss_from_arrays(x, y, LossConfig("spearman", eps)), LossResult(1.0 - _clip(rho), -grad))


def _train_batch(rng, n):
    # The train-loss benchmark's batch shape: IoUs in [0.5, 1], scores
    # rising with IoU plus noise.
    ious = rng.uniform(0.5, 1.0, n)
    return ious, 0.5 * (ious - 0.5) / 0.5 + 0.5 * rng.uniform(0.0, 1.0, n)


def test_spearman_loss_equals_the_soft_rank_composition():
    # On both sides of the one-block rule (eps = 0.01 pools these scores
    # only above about 200 entries), within the tier-1 loss tolerance.
    rng = np.random.default_rng(16)
    sizes = [2, 3, 7, 64, 150, 250, 512, 2048, *rng.integers(2, 2049, 8).tolist()]
    for n in sizes:
        x, y = _train_batch(rng, n)
        for eps in (1.0, 0.01):
            res = loss_from_arrays(x, y, LossConfig("spearman", eps))
            value, grad = softrank_oracle.spearman_loss(x, y, eps)
            assert abs(res.value - value) <= 1e-12
            assert np.max(np.abs(res.grad_scores - grad)) <= 1e-12


def test_one_block_loss_keeps_its_digits_at_a_huge_epsilon():
    # scores / eps are about 1e-17 here, below an ulp of the ranks, so soft
    # ranks computed from them all round to one value; the loss reads the
    # scores instead: 1 - pearson([1, 2, 3], [0.9, 0.1, 0.5]) = 1.5.
    res = loss_from_arrays([0.2, 0.5, 0.9], [0.9, 0.1, 0.5], LossConfig("spearman", 1e17))
    assert res.value == 1.5
    assert res.grad_scores == pytest.approx([0.625, 0.625, -1.25], rel=0.0, abs=1e-15)


def test_one_block_batches_never_reach_the_soft_ranks(monkeypatch):
    import corrdet.corrloss

    def refuse(*args):
        raise AssertionError("soft_rank called on a one-block batch")

    monkeypatch.setattr(corrdet.corrloss, "soft_rank", refuse)
    rng = np.random.default_rng(17)
    cases = [(512, 2049, 1.0), (512, 2049, 0.01), (2, 65, 1.0)]
    for lo, hi, eps in cases:
        cfg = LossConfig("spearman", eps)
        for _ in range(4):
            x, y = _train_batch(rng, int(rng.integers(lo, hi)))
            for _ in range(5):  # the batch, then four steps along the gradient
                res = loss_from_arrays(x, y, cfg)
                assert 0.0 <= res.value <= 2.0
                y = y - 1e-3 * res.grad_scores
