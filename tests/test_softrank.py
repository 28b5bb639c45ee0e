"""Soft ranks: projection forward pass and its vector-Jacobian product.

The small-epsilon limit must reproduce hard average ranks bit-exactly,
ties must pool to their average rank at any epsilon, and the VJP must
agree with finite differences away from block-structure kinks.  Where
the scaled values have no ties, the result equals the original
implementation in ``softrank_oracle`` bit for bit: ranks, permutation,
blocks and backward pass.  With ties, the ranks agree within rounding
and the blocks once adjacent blocks with equal fitted values are merged.
"""

import sys

import numpy as np
import pytest
import softrank_oracle as oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrdet import (
    DegenerateInput,
    LossConfig,
    average_ranks,
    loss_from_arrays,
    soft_rank,
    soft_rank_vjp,
)
import corrdet.gradcheck as gradcheck
from corrdet.gradcheck import _blocks_stable


def _rank_ulps(v, eps) -> float:
    """How far two correct soft ranks of ``v`` may differ: n ulps of the
    largest |y| = |v / eps - w| the fit handles.  PAV over tie runs and PAV
    over single entries round their running means differently, each by
    O(n) ulps of that magnitude at worst."""
    n = v.shape[0]
    return n * float(np.spacing(np.abs((1.0 / eps) * v).max() + n))


def _train_loss_batch(rng, n):
    """IoUs in [0.5, 1] and scores in [0, 1] rising with them, as in a
    training batch."""
    ious = rng.uniform(0.5, 1.0, n)
    return ious, 0.5 * (ious - 0.5) / 0.5 + 0.5 * rng.uniform(0.0, 1.0, n)


def test_hard_limit_matches_average_ranks():
    r = soft_rank([0.9, 0.1, 0.5], 1e-4)
    assert r.ranks.tolist() == [3.0, 1.0, 2.0]
    r = soft_rank([10.0, -3.0, 4.0, 7.0], 1e-6)
    assert r.ranks.tolist() == [4.0, 1.0, 2.0, 3.0]
    # the smallest epsilon accepted, where 1e308 / epsilon overflows
    assert soft_rank([0.2, 0.5, 0.9], sys.float_info.min).ranks.tolist() == [1.0, 2.0, 3.0]
    assert soft_rank([1e308, -1e308, 0.1, 0.1], sys.float_info.min).ranks.tolist() == [4.0, 1.0, 2.5, 2.5]


def test_singleton():
    r = soft_rank([42.0], 1.0)
    assert r.ranks.tolist() == [1.0]
    assert soft_rank_vjp(r, np.array([5.0])).tolist() == [0.0]


def test_exact_ties_pool_to_average_rank():
    for eps in (1e-4, 1.0, 100.0):
        assert soft_rank([2.0, 2.0, 2.0], eps).ranks.tolist() == [2.0, 2.0, 2.0]
        assert soft_rank([5.0, 1.0, 5.0], 1e-4).ranks.tolist() == [2.5, 1.0, 2.5]
    # |v| / epsilon beyond 2**53: theta minus the hard ranks rounds away the
    # order between tied entries, so ties must not rely on PAV to pool them
    assert soft_rank([1e17, 1e17, 0.0], 1.0).ranks.tolist() == [2.5, 2.5, 1.0]
    assert soft_rank([5.0, 1.0, 5.0], 1e-16).ranks.tolist() == [2.5, 1.0, 2.5]


def test_long_all_tied_input_gets_the_average_rank():
    # One run is one point, fitted at its own y, so the rank is its mean
    # hard rank (n + 1) / 2 exactly.
    for n in (2, 3, 40, 128, 2047):
        for eps in (1e-4, 1.0, 100.0):
            assert soft_rank(np.full(n, 0.3), eps).ranks.tolist() == [(n + 1) / 2] * n


def test_overflowing_scaled_values_are_their_own_blocks():
    # 1e308 / 0.5 and 1.5e308 / 0.5 both overflow; the values stay distinct
    r = soft_rank([1e308, 1.5e308, 0.2], 0.5)
    assert r.ranks.tolist() == [2.0, 3.0, 1.0]
    assert r.blocks.tolist() == [0, 1, 2]
    assert soft_rank([-1e308, 1e308, 1e308, 0.0], 1e-300).ranks.tolist() == [1.0, 3.5, 3.5, 2.0]


def test_negated_values_reverse_order():
    r = soft_rank(-np.array([0.9, 0.1, 0.5]), 1e-4)
    assert r.ranks.tolist() == [1.0, 3.0, 2.0]


def test_large_epsilon_pools_everything():
    r = soft_rank([0.9, 0.1, 0.5], 1e9)
    assert np.allclose(r.ranks, [2.0, 2.0, 2.0], atol=1e-6)


def test_rank_sum_preserved():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        v = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        eps = float(rng.uniform(0.01, 5.0))
        s = float(soft_rank(v, eps).ranks.sum())
        assert abs(s - n * (n + 1) / 2.0) < 1e-9


def test_soft_ranks_are_monotone():
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.normal(size=12)
        r = soft_rank(v, float(rng.uniform(0.05, 3.0))).ranks
        order = np.argsort(v)
        assert np.all(np.diff(r[order]) >= -1e-12)


def test_epsilon_interpolates_toward_hard_ranks():
    v = np.array([0.8, 0.2, 0.5, 0.9])
    hard = np.array([3.0, 1.0, 2.0, 4.0])
    prev = float("inf")
    for eps in (10.0, 1.0, 0.3, 0.05):
        err = float(np.abs(soft_rank(v, eps).ranks - hard).max())
        assert err <= prev + 1e-12
        prev = err
    assert np.array_equal(soft_rank(v, 0.01).ranks, hard)


def test_vjp_all_tied_centers_upstream():
    # one PAV block: upstream minus block mean, scaled by 1/eps
    eps = 0.5
    r = soft_rank([3.0, 3.0, 3.0], eps)
    u = np.array([1.0, 2.0, 6.0])
    expected = (u - 3.0) / eps
    assert np.allclose(soft_rank_vjp(r, u), expected, atol=1e-12)


def test_vjp_of_negated_values_flips_sign():
    v = np.array([0.3, 0.9, 0.6])
    u = np.array([1.0, -2.0, 0.5])
    eps = 1.0
    asc = soft_rank_vjp(soft_rank(v, eps), u)
    # d/dv of soft_rank(-v): the chain rule negates the pullback
    desc = -soft_rank_vjp(soft_rank(-v, eps), u)
    assert np.allclose(desc, -asc, atol=1e-12)


def test_vjp_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 15))
        v = rng.uniform(0.0, 1.0, size=n)
        base = soft_rank(v, 1.0)
        stable = all(
            np.array_equal(soft_rank(v + s * np.eye(n)[i], 1.0).permutation, base.permutation)
            and np.array_equal(soft_rank(v + s * np.eye(n)[i], 1.0).blocks, base.blocks)
            for i in range(n)
            for s in (h, -h)
        )
        if not stable:
            continue
        u = rng.standard_normal(n)
        analytic = soft_rank_vjp(base, u)
        fd = np.array(
            [
                (
                    u @ soft_rank(v + h * np.eye(n)[i], 1.0).ranks
                    - u @ soft_rank(v - h * np.eye(n)[i], 1.0).ranks
                )
                / (2 * h)
                for i in range(n)
            ]
        )
        diff = float(np.linalg.norm(fd - analytic))
        assert diff <= 1e-9 or diff / max(np.linalg.norm(fd), 1e-12) < 1e-4
        checked += 1


def test_gradcheck_sees_scores_closer_than_its_step_as_unstable():
    # a step of h = 1e-5 swaps the two scores 4e-6 apart, so the permutation
    # changes and finite differences would straddle the kink between orders
    assert not _blocks_stable(np.array([0.5, 0.5 + 4e-6, 0.1]), 1.0, 1e-5)
    assert _blocks_stable(np.array([0.5, 0.5 + 4e-5, 0.1]), 1.0, 1e-5)


def test_gradcheck_redraws_scores_whose_blocks_move(monkeypatch):
    # seed 191 at n = 3 and epsilon 0.5: a step of h moves the blocks of the
    # first score draw, so the Spearman trial draws the scores again
    real, draws = gradcheck._gapped, []

    def counted(rng, n):
        draws.append(real(rng, n))
        return draws[-1]

    monkeypatch.setattr(gradcheck, "_gapped", counted)
    result = gradcheck.run_gradcheck("spearman", 3, 1, 191, epsilon=0.5)
    h = gradcheck._FD_STEPS["spearman"]
    assert len(draws) == 3  # x, the refused scores, the compared scores
    assert not _blocks_stable(draws[1], 0.5, h)
    assert _blocks_stable(draws[2], 0.5, h)
    assert result.passed and [r.status for r in result.rows] == ["pass"]


def test_invalid_inputs():
    with pytest.raises(ValueError):
        soft_rank([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        soft_rank([1.0, 2.0], -1.0)
    # 1 / epsilon overflows below the smallest normal float
    with pytest.raises(ValueError, match="epsilon must be finite and at least"):
        soft_rank([0.2, 0.5, 0.9], 1e-320)
    with pytest.raises(DegenerateInput):
        soft_rank([], 1.0)
    with pytest.raises(DegenerateInput):
        soft_rank([1.0, float("nan")], 1.0)
    with pytest.raises(ValueError, match="upstream length 2"):
        soft_rank_vjp(soft_rank([1.0, 2.0, 3.0], 1.0), [1.0, 2.0])


def test_result_is_sized():
    assert len(soft_rank([1.0, 2.0, 3.0], 1.0)) == 3


# Values up to 1e300 keep |v| / epsilon inside the float range for every
# epsilon drawn here.
_finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
_epsilons = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@st.composite
def _values_with_ties(draw):
    """1..40 values drawn from a pool of at most 10, small integers and
    values in [-1, 1] among them, so repeated entries and pooled blocks
    are common."""
    values = st.one_of(_finite, st.integers(-5, 5).map(float), st.floats(-1.0, 1.0))
    pool = draw(st.lists(values, min_size=1, max_size=10))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)))


@settings(max_examples=400, deadline=None)
@given(_values_with_ties(), _epsilons, st.booleans(), st.data())
def test_soft_rank_equals_oracle_without_ties(v, eps, flip, data):
    # Ties are equal scaled values: distinct values whose scaled values
    # round together pool like equal ones.  soft_rank(-v) stands for the
    # oracle's descending=True.
    assume(np.unique((1.0 / eps) * v).shape[0] == v.shape[0])
    new = soft_rank(-v if flip else v, eps)
    old = oracle.soft_rank(v, eps, descending=flip)
    assert np.abs(new.ranks - old.ranks).max() <= _rank_ulps(v, eps)
    assert np.array_equal(new.permutation, old.permutation)
    assert np.array_equal(new.blocks, old.blocks)
    u = np.array(data.draw(st.lists(_finite, min_size=v.shape[0], max_size=v.shape[0])))
    pullback = soft_rank_vjp(new, u)
    assert np.array_equal(-pullback if flip else pullback, oracle.soft_rank_vjp(old, u))


@settings(max_examples=400, deadline=None)
@given(_values_with_ties(), _epsilons)
def test_tied_values_share_one_rank(v, eps):
    r = soft_rank(v, eps).ranks
    n = v.shape[0]
    for value in np.unique(v):
        assert np.unique(r[v == value]).shape[0] == 1
    # Beyond |v| / epsilon = 2**14 a block of close values carries the
    # rounding of v / epsilon into its ranks (the rank sum drifts by tens
    # at 1e17), as SoftRankResult documents.
    if float(np.abs((1.0 / eps) * v).max()) <= 2.0**14:
        assert abs(float(r.sum()) - n * (n + 1) / 2.0) <= 1e-9
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(r[order]) >= -1e-12)


@st.composite
def _gapped_with_ties(draw):
    """(v, epsilon): values on integer levels, repeats allowed, whose
    scaled levels lie at least 2n apart, up to |v| / epsilon = 1e300."""
    eps = draw(_epsilons)
    pool = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
    levels = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    spacing = draw(st.floats(2.0 * len(levels), 2e298))
    return np.array(levels) * (spacing * eps), eps


@settings(max_examples=400, deadline=None)
@given(_gapped_with_ties())
def test_wide_gaps_give_average_ranks(case):
    # No PAV block can cross a gap of n or more in v / epsilon, so every
    # run of equal values is its own block at its average rank.
    v, eps = case
    theta = np.unique((1.0 / eps) * v)
    assume(theta.shape[0] == np.unique(v).shape[0])
    assume(np.all(np.diff(theta) >= 2.0 * v.shape[0]))
    assert np.array_equal(soft_rank(v, eps).ranks, average_ranks(v))


@st.composite
def _train_loss_shaped(draw):
    """(v, epsilon): a training batch at n 2..2048 and epsilon 1 or 0.01 --
    its scores as drawn, rounded into tie runs, or rebuilt so that a prefix
    of ``y`` has the mean of the whole, within rounding -- shifted by an
    offset that leaves the scaled values small or as large as 2**40."""
    n = draw(st.one_of(st.integers(2, 300), st.integers(300, 2048)))
    eps = draw(st.sampled_from((1.0, 0.01)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("scores", "ties", "chord")))
    if kind == "chord":
        # y = s - (n, ..., 1) repeats its first half; steps of at most 1
        # keep s descending.
        half = np.cumsum(rng.uniform(0.0, 1.0, max(1, n // 2)))
        y = np.concatenate([half, half])
        v = rng.permutation(y + np.arange(y.shape[0], 0, -1.0)) * eps
    else:
        v = _train_loss_batch(rng, n)[1]
        if kind == "ties":
            v = np.round(v, draw(st.integers(1, 3)))
    return v + draw(st.sampled_from((0.0, -1e3, 1e9, 2.0**40))) * eps, eps


@settings(max_examples=150, deadline=None)
@given(_train_loss_shaped(), st.data())
def test_train_loss_shaped_inputs_equal_oracle(case, data):
    # Without ties in the scaled values, bit for bit; with ties, equal
    # values share one rank.
    v, eps = case
    n = v.shape[0]
    new = soft_rank(v, eps)
    if np.unique((1.0 / eps) * v).shape[0] == n:
        old = oracle.soft_rank(v, eps)
        assert np.array_equal(new.ranks, old.ranks)
        assert np.array_equal(new.permutation, old.permutation)
        assert np.array_equal(new.blocks, old.blocks)
        u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(n)
        assert np.array_equal(soft_rank_vjp(new, u), oracle.soft_rank_vjp(old, u))
    else:
        ranks = new.ranks[new.permutation]
        tied = v[new.permutation][1:] == v[new.permutation][:-1]
        assert np.array_equal(ranks[1:][tied], ranks[:-1][tied])


def _merged(blocks, y, tol):
    """Block ids once adjacent blocks whose mean ``y`` agree within ``tol``
    are merged."""
    means = np.bincount(blocks, weights=y) / np.bincount(blocks)
    return np.concatenate([[0], np.cumsum(np.abs(np.diff(means)) > tol)])[blocks]


@st.composite
def _rounded_batches(draw):
    """(v, epsilon): training scores rounded into tie runs at epsilon 0.01,
    where the scaled levels lie a few ranks apart."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = _train_loss_batch(rng, draw(st.integers(2, 200)))[1]
    return np.round(v, draw(st.integers(1, 2))), 0.01


@settings(max_examples=300, deadline=None)
@given(st.tuples(_values_with_ties(), _epsilons) | _rounded_batches())
def test_soft_rank_equals_oracle_with_ties(case):
    # PAV over tie runs and over single entries reach the same fit; where
    # adjacent blocks have equal means, the strict rule keeps them apart,
    # and the two loops may round such means apart differently.
    v, eps = case
    n = v.shape[0]
    theta = (1.0 / eps) * v
    assume(np.unique(theta).shape[0] < n)
    new = soft_rank(v, eps)
    old = oracle.soft_rank(v, eps)
    tol = _rank_ulps(v, eps)
    assert np.abs(new.ranks - old.ranks).max() <= tol
    y = np.sort(theta)[::-1] - np.arange(n, 0, -1.0)
    assert np.array_equal(_merged(new.blocks, y, tol), _merged(old.blocks, y, tol))


def test_ranks_equal_the_isotonic_regression_oracle():
    # A second oracle that shares no code with the library's PAV or the
    # first oracle's: tie-free, tied and all-tied inputs, one and many blocks.
    rng = np.random.default_rng(13)
    for k in range(3000):
        n = int(rng.integers(1, 80))
        eps = 10.0 ** rng.uniform(-3.0, 1.0)
        v = (rng.normal(size=n), rng.uniform(size=n), rng.choice(rng.normal(size=5), n))[k % 3]
        got = soft_rank(v, eps).ranks
        assert np.abs(got - oracle.isotonic_ranks(v, eps)).max() <= _rank_ulps(v, eps)


def _assert_batches_are_one_block(rng, sizes, epsilons):
    """Training batches of each size, their scores stepped four times along
    the loss gradient at each epsilon, are one PAV block."""
    for n in sizes:
        ious, scores = _train_loss_batch(rng, int(n))
        for eps in epsilons:
            cfg = LossConfig("spearman", eps)
            y = scores.copy()
            for _ in range(4):
                assert not soft_rank(y, eps).blocks.any()
                y -= 1e-3 * loss_from_arrays(ious, y, cfg).grad_scores


def test_pooled_batches_are_one_block():
    # pooled batches: n 512..2048 at epsilon 1 or 0.01
    rng = np.random.default_rng(6)
    _assert_batches_are_one_block(rng, (512, 600, 2048, *rng.integers(512, 2049, 6)), (1.0, 0.01))


def test_per_image_batches_are_one_block():
    # per-image batches: every n from 2 to 127 at the default epsilon 1
    _assert_batches_are_one_block(np.random.default_rng(7), range(2, 128), (1.0,))


@pytest.mark.parametrize("n, eps", [(3, 1.0), (64, 1.0), (512, 1.0), (2048, 1.0), (512, 0.01), (2048, 0.01)])
def test_vjp_matches_finite_differences_on_one_block(n, eps):
    rng = np.random.default_rng(n)
    v = _train_loss_batch(rng, n)[1]
    base = soft_rank(v, eps)
    assert not base.blocks.any()
    h = 1e-3 * eps
    for _ in range(3):
        # d rises with v, so v + h * d keeps the sort order: one linear piece
        d = np.empty(n)
        d[np.argsort(v)] = np.sort(rng.standard_normal(n))
        step = soft_rank(v + h * d, eps)
        assert np.array_equal(step.permutation, base.permutation)
        assert not step.blocks.any()
        u = rng.standard_normal(n)
        fd = (u @ step.ranks - u @ base.ranks) / h
        assert fd == pytest.approx(soft_rank_vjp(base, u) @ d, rel=1e-6)


def test_vjp_matches_finite_differences_inside_a_multi_block_piece():
    # Values spread over about [0, 3 n eps] pool into many blocks, some of
    # them wider than one entry.  A step along a direction rising with v
    # keeps the sort order; where it keeps the blocks too, it stays in one
    # linear piece.
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(3, 201))
        eps = float(rng.choice([1.0, 0.1, 0.01]))
        v = rng.uniform(0.0, 3.0 * n * eps, size=n)
        base = soft_rank(v, eps)
        d = np.empty(n)
        d[np.argsort(v)] = np.sort(rng.standard_normal(n))
        h = 1e-3 * eps
        step = soft_rank(v + h * d, eps)
        if not (
            np.array_equal(step.permutation, base.permutation)
            and np.array_equal(step.blocks, base.blocks)
            and 0 < base.blocks[-1] < n - 1
        ):
            continue
        u = rng.standard_normal(n)
        fd = (u @ step.ranks - u @ base.ranks) / h
        assert fd == pytest.approx(soft_rank_vjp(base, u) @ d, rel=1e-6)
        checked += 1
    assert checked >= 200
