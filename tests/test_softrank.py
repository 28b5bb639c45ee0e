"""Soft ranks: projection forward pass and its vector-Jacobian product.

The small-epsilon limit must reproduce hard average ranks bit-exactly,
ties must pool to their average rank at any epsilon, and the VJP must
agree with finite differences away from block-structure kinks.
"""

import numpy as np
import pytest

from corrdet import DegenerateInput, soft_rank, soft_rank_vjp


def test_hard_limit_matches_average_ranks():
    r = soft_rank([0.9, 0.1, 0.5], 1e-4)
    assert r.ranks.tolist() == [3.0, 1.0, 2.0]
    r = soft_rank([10.0, -3.0, 4.0, 7.0], 1e-6)
    assert r.ranks.tolist() == [4.0, 1.0, 2.0, 3.0]


def test_singleton():
    r = soft_rank([42.0], 1.0)
    assert r.ranks.tolist() == [1.0]
    assert soft_rank_vjp(r, np.array([5.0])).tolist() == [0.0]


def test_exact_ties_pool_to_average_rank():
    for eps in (1e-4, 1.0, 100.0):
        assert soft_rank([2.0, 2.0, 2.0], eps).ranks.tolist() == [2.0, 2.0, 2.0]
        assert soft_rank([5.0, 1.0, 5.0], 1e-4).ranks.tolist() == [2.5, 1.0, 2.5]


def test_descending_reverses_order():
    r = soft_rank([0.9, 0.1, 0.5], 1e-4, descending=True)
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


def test_vjp_descending_flips_sign():
    v = np.array([0.3, 0.9, 0.6])
    u = np.array([1.0, -2.0, 0.5])
    eps = 1.0
    asc = soft_rank_vjp(soft_rank(v, eps), u)
    desc = soft_rank_vjp(soft_rank(v, eps, descending=True), u)
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


def test_invalid_inputs():
    with pytest.raises(ValueError):
        soft_rank([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        soft_rank([1.0, 2.0], -1.0)
    with pytest.raises(DegenerateInput):
        soft_rank([], 1.0)
    with pytest.raises(DegenerateInput):
        soft_rank([1.0, float("nan")], 1.0)
    with pytest.raises(ValueError, match="upstream length 2"):
        soft_rank_vjp(soft_rank([1.0, 2.0, 3.0], 1.0), [1.0, 2.0])


def test_result_is_sized():
    assert len(soft_rank([1.0, 2.0, 3.0], 1.0)) == 3
