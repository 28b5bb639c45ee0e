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


_HUGE = [1e200, 2e200, 3e200]


def test_coefficients_survive_overflow():
    assert pearson(_HUGE, _HUGE) == pytest.approx(1.0, abs=1e-15)
    assert spearman(_HUGE, _HUGE) == 1.0
    assert concordance(_HUGE, _HUGE) == pytest.approx(1.0, abs=1e-15)
    assert pearson([0.1, 0.5, 0.9], _HUGE) == pytest.approx(1.0, abs=1e-15)
    # same trend, values 2e200 apart: 2 cov / (var_x + var_y + gap^2) = 1.6 / 14 * 1e-200
    assert concordance([0.1, 0.5, 0.9], _HUGE) == pytest.approx(1.6 / 14 * 1e-200, rel=1e-12)
    # finite variances whose product overflows, or underflows to zero
    assert pearson([1e100, 2e100, 3e100], [3e100, 2e100, 1e100]) == pytest.approx(-1.0, abs=1e-15)
    assert pearson([1e-100, 2e-100, 3e-100], [1e-100, 2e-100, 3e-100]) == pytest.approx(1.0, abs=1e-15)


_GRID = st.integers(-64000, 64000).map(lambda v: v / 64.0)
_PAIRS = st.integers(2, 30).flatmap(
    lambda n: st.tuples(st.lists(_GRID, min_size=n, max_size=n), st.lists(_GRID, min_size=n, max_size=n))
)


@settings(max_examples=300, deadline=None)
@given(_PAIRS, st.integers(-300, 900), st.integers(-300, 900))
def test_coefficients_do_not_depend_on_scale(pair, j, k):
    # Multiplying by a power of two is exact, so Pearson and Spearman must
    # not move at all, for each series scaled on its own; Concordance
    # (both series scaled alike) may move by the last-bit rounding of the
    # squared mean gap, which pow() does not round the same at every scale.
    x, y = (np.array(v) for v in pair)
    cases = (
        (pearson, np.ldexp(x, j), np.ldexp(y, k), 0.0),
        (spearman, np.ldexp(x, j), np.ldexp(y, k), 0.0),
        (concordance, np.ldexp(x, j), np.ldexp(y, j), 4 * np.finfo(float).eps),
    )
    for coef, xs, ys, rel in cases:
        try:
            want = coef(x, y)
        except DegenerateInput:
            with pytest.raises(DegenerateInput):
                coef(xs, ys)
            continue
        assert coef(xs, ys) == pytest.approx(want, rel=rel, abs=0.0)
