import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from corrdet import DegenerateInput, average_ranks, concordance, pearson, spearman


def test_average_ranks_handles_ties():
    assert average_ranks([0.3, 0.1, 0.2]).tolist() == [3.0, 1.0, 2.0]
    assert average_ranks([1.0, 2.0, 2.0, 3.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5.0, 5.0, 5.0]).tolist() == [2.0, 2.0, 2.0]
    assert average_ranks([7.0]).tolist() == [1.0]
    assert average_ranks([]).tolist() == []
    assert np.isnan(average_ranks([1.0, np.nan])).all()


def test_perfect_agreement_and_reversal():
    x = [1.0, 2.0, 3.0, 4.0]
    for f in (pearson, spearman, concordance):
        assert f(x, x) == 1.0
    assert pearson(x, x[::-1]) == -1.0
    assert spearman(x, x[::-1]) == -1.0
    assert concordance(x, x[::-1]) == -1.0


def test_concordance_penalizes_offsets():
    # y = x + 1: cov = var = 2/3, denominator 2/3 + 2/3 + 1
    x = [1.0, 2.0, 3.0]
    y = [2.0, 3.0, 4.0]
    assert pearson(x, y) == 1.0
    assert abs(concordance(x, y) - 4.0 / 7.0) < 1e-15
    # scaling hurts too: y = 2x
    y2 = [2.0, 4.0, 6.0]
    assert abs(concordance(x, y2) - (2.0 * 4.0 / 3.0) / (2.0 / 3.0 + 8.0 / 3.0 + 4.0)) < 1e-15


def test_spearman_tie_hand_value():
    # ranks x: [1, 2.5, 2.5, 4], ranks y: [1, 2, 3.5, 3.5] -> 5/6
    x = [1.0, 2.0, 2.0, 3.0]
    y = [1.0, 2.0, 3.0, 3.0]
    assert abs(spearman(x, y) - 5.0 / 6.0) < 1e-15


def test_spearman_is_monotone_invariant():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 15)
    y = rng.uniform(0, 1, 15)
    assert abs(spearman(x, y) - spearman(np.exp(x), y**3)) < 1e-12


def test_results_clipped_to_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 20))
        x = rng.normal(size=n)
        y = x * rng.uniform(0.5, 2.0) + rng.normal(size=n) * 0.01
        for f in (pearson, spearman, concordance):
            assert -1.0 <= f(x, y) <= 1.0


def test_degenerate_inputs_raise():
    for f in (pearson, spearman, concordance):
        with pytest.raises(DegenerateInput):
            f([], [])
        with pytest.raises(DegenerateInput):
            f([1.0], [2.0])
        with pytest.raises(DegenerateInput):
            f([1.0, 2.0], [1.0, 2.0, 3.0])
    for f in (pearson, spearman):
        with pytest.raises(DegenerateInput):
            f([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            f([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(DegenerateInput):
        pearson([1.0, 2.0], [1.0, float("nan")])


def test_concordance_single_constant_series_is_zero():
    # cov vanishes but the denominator does not; only the both-constant-
    # and-equal case is undefined
    assert concordance([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    assert concordance([1.0, 1.0], [3.0, 3.0]) == 0.0
    with pytest.raises(DegenerateInput):
        concordance([2.0, 2.0], [2.0, 2.0])


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# Few distinct values, signed zeros and infinities: ties are the norm.
_TIED = st.sampled_from((0.0, -0.0, 1.0, 2.5, -3.0, np.inf, -np.inf))


@settings(max_examples=400, deadline=None)
@given(st.lists(_TIED | st.floats(allow_nan=False), max_size=80))
def test_average_ranks_equal_scipy_rankdata(values):
    assert_same_bits(average_ranks(values), rankdata(values, method="average"))


def test_average_ranks_equal_scipy_rankdata_large():
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 1000, 5000):
        for distinct in (1, 3, 50, n + 1):
            x = rng.integers(0, distinct, size=n).astype(np.float64)
            assert_same_bits(average_ranks(x), rankdata(x, method="average"))
