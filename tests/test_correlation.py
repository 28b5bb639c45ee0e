import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from corrdet import DegenerateInput, LossConfig, average_ranks, concordance, loss_from_arrays, pearson, spearman
from corrdet.correlation import _centered, _centered_ranks, _clip, _pearson_of


def test_average_ranks_handles_ties():
    assert average_ranks([0.3, 0.1, 0.2]).tolist() == [3.0, 1.0, 2.0]
    assert average_ranks([1.0, 2.0, 2.0, 3.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5.0, 5.0, 5.0]).tolist() == [2.0, 2.0, 2.0]
    assert average_ranks([7.0]).tolist() == [1.0]
    assert average_ranks([]).tolist() == []
    # Any NaN, wherever it stands and next to infinities too, makes every rank NaN.
    for values in (
        [1.0, np.nan],
        [np.nan, 1.0, 2.0, 3.0],
        [1.0, 2.0, np.nan, 3.0, 2.0],
        [np.nan, np.nan, np.nan],
        [np.nan],
        [np.inf, np.nan, -np.inf, 0.0],
        [-np.inf, np.inf, np.nan],
    ):
        got = average_ranks(values)
        assert got.shape == (len(values),)
        assert np.isnan(got).all()


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
    # constant series whose mean rounds (0.1 * 3 / 3 != 0.1): the
    # variance is about 1e-34, not 0, yet the series is constant
    with pytest.raises(DegenerateInput):
        pearson([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        pearson([1.0, 2.0, 3.0], [0.1, 0.1, 0.1])
    with pytest.raises(DegenerateInput):
        concordance([0.1, 0.1, 0.1], [0.1, 0.1, 0.1])


def test_concordance_single_constant_series_is_zero():
    # cov vanishes but the denominator does not; only the both-constant-
    # and-equal case is undefined
    assert concordance([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    assert concordance([1.0, 1.0], [3.0, 3.0]) == 0.0
    assert concordance([0.1, 0.1, 0.1], [1.0, 2.0, 3.0]) == 0.0
    assert concordance([0.1, 0.1, 0.1], [0.2, 0.2, 0.2]) == 0.0
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
    # Integer draws above tie at these sizes; uniform draws do not.
    for n in (512, 1024, 2048, 5000):
        x = rng.uniform(-1.0, 1.0, n)
        assert np.unique(x).size == n
        assert_same_bits(average_ranks(x), rankdata(x, method="average"))


def _plant_tie(rng, x, kind):
    """A copy of the tie-free ``x`` with exactly one pair of equal values."""
    x = x.copy()
    i, j = rng.choice(x.size, 2, replace=False)
    if kind == "equal":
        x[j] = x[i]
    elif kind == "signed zero":
        x[i], x[j] = 0.0, -0.0
    else:
        x[i] = x[j] = rng.choice([np.inf, -np.inf])
    return x


@pytest.mark.parametrize("kind", ["equal", "signed zero", "inf"])
def test_average_ranks_with_one_planted_tie_equal_scipy_rankdata(kind):
    # Tie-free input is ranked without tie groups, input with a tie through
    # them: one tied pair is the least that must take the second path.
    rng = np.random.default_rng(len(kind))
    for n in [*range(2, 65), 512, 1024, 2048]:
        x = rng.uniform(-1.0, 1.0, n)
        assert np.unique(x).size == n
        assert_same_bits(average_ranks(x), rankdata(x, method="average"))
        tied = _plant_tie(rng, x, kind)
        assert np.unique(tied).size == n - 1
        assert_same_bits(average_ranks(tied), rankdata(tied, method="average"))
    for x in ([], [0.5], [-0.0], [np.inf]):
        assert_same_bits(average_ranks(x), rankdata(np.array(x, dtype=np.float64), method="average"))


def assert_spearman_is_the_kernel_on_ranks(x, y):
    """spearman() reads centered ranks and their closed-form variance; the
    two-pass Pearson kernel on the ranks must give the same bits."""
    n = len(x)
    ac, var_a, _ = _centered(average_ranks(x), n)
    bc, var_b, _ = _centered(average_ranks(y), n)
    r = _pearson_of(ac, var_a, bc, var_b)
    if r is None:
        with pytest.raises(DegenerateInput):
            spearman(x, y)
    else:
        assert_same_bits(np.float64(spearman(x, y)), np.float64(_clip(r)))


# The largest n whose squared centered ranks, without ties, sum below
# 2**51: up to it numpy forms every partial sum of the squares exactly.
_EXACT_N = 300_079


@pytest.mark.parametrize("n", [2, 3, 64, 2048, _EXACT_N, _EXACT_N + 1, 10**6])
def test_centered_ranks_are_the_ranks_less_their_mean_with_their_variance(n):
    rng = np.random.default_rng(n)
    x = rng.permutation(n) / n - 0.5
    y = rng.uniform(-1.0, 1.0, n)
    for a in (x, _plant_tie(rng, x, "signed zero"), np.round(x, 1)):
        centered, var = _centered_ranks(a)
        ranks = rankdata(a, method="average")
        assert float(np.mean(ranks)) == (n + 1) / 2
        assert_same_bits(centered + (n + 1) / 2, ranks)
        assert_same_bits(average_ranks(a), ranks)
        assert var == float(np.mean(centered * centered))
        assert_spearman_is_the_kernel_on_ranks(a, y)
    # Tie-free: the closed form up to the bound; past it numpy's sum of
    # squares may round, as it does at 10**6, and the core keeps its value.
    var = _centered_ranks(x)[1]
    if n <= _EXACT_N:
        assert var == (n * n - 1) / 12
    if n == 10**6:
        assert var != (n * n - 1) / 12


_FINITE_TIED = st.sampled_from((0.0, -0.0, 1.0, 2.5, -3.0)) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.lists(_FINITE_TIED, min_size=n, max_size=n), st.lists(_FINITE_TIED, min_size=n, max_size=n))
    )
)
def test_spearman_is_the_pearson_kernel_on_average_ranks(pair):
    assert_spearman_is_the_kernel_on_ranks(*pair)


_ARGSORT = np.argsort


def random_tie_order(monkeypatch, seed):
    """Make numpy's default argsort break ties at random, as a sort whose tie
    order varies (by SIMD path, say) might; a stable sort is left alone."""
    rng = np.random.default_rng(seed)

    def argsort(a, *args, **kwargs):
        if args or kwargs:
            return _ARGSORT(a, *args, **kwargs)
        a = np.asarray(a)
        return np.lexsort((rng.permutation(a.size), a))

    monkeypatch.setattr(np, "argsort", argsort)


def _many_ties(rng, n):
    return rng.choice([0.0, -0.0, 0.25, 0.5, 0.75, 1.0], n)


@pytest.mark.parametrize("n", [7, 64, 512, 2048])
def test_average_ranks_do_not_depend_on_tie_order(n, monkeypatch):
    rng = np.random.default_rng(n)
    x, y = _many_ties(rng, n), _many_ties(rng, n)
    ranks, rho = average_ranks(x), spearman(x, y)
    # Shuffled input: each value keeps its rank.  Tied ranks are half-integers
    # and (n + 1) / 2 is their mean, so every Spearman moment is exact and the
    # shuffle cannot move a bit of it either.
    p = rng.permutation(n)
    assert_same_bits(average_ranks(x[p]), ranks[p])
    assert spearman(x[p], y[p]) == rho
    # The same input under other orders within ties.
    for seed in range(3):
        random_tie_order(monkeypatch, seed)
        assert_same_bits(average_ranks(x), ranks)
        assert spearman(x, y) == rho


# Per-image and pooled sizes; scores with a spread of 4 to 6 take the
# one-block path at epsilon 1 and the PAV path at epsilon 0.01.
@pytest.mark.parametrize("n", [48, 1024])
@pytest.mark.parametrize("epsilon", [1.0, 0.01])
def test_spearman_loss_does_not_depend_on_tie_order(n, epsilon, monkeypatch):
    rng = np.random.default_rng(n)
    ious, scores = _many_ties(rng, n), rng.normal(size=n)
    cfg = LossConfig("spearman", epsilon)
    want = loss_from_arrays(ious, scores, cfg)
    for seed in range(3):
        random_tie_order(monkeypatch, seed)
        got = loss_from_arrays(ious, scores, cfg)
        assert got.value == want.value
        assert_same_bits(got.grad_scores, want.grad_scores)


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
    # one variance below the normal range, their product inside it: r is
    # still that of the unscaled series, bit for bit
    x, y = np.array([0.2, 0.5, 0.9, 0.4]), np.array([0.1, 0.4, 0.9, 0.3])
    assert pearson(np.ldexp(x, 40), np.ldexp(y, -530)) == pearson(x, y)
    # both variances underflow to zero at raw scale
    assert pearson(np.ldexp(x, -600), y) == pearson(x, y)
    assert concordance(np.ldexp(x, -600), np.ldexp(y, -600)) == pytest.approx(concordance(x, y), rel=0.0, abs=4 * np.finfo(float).eps)


_GRID = st.integers(-64000, 64000).map(lambda v: v / 64.0)
_PAIRS = st.integers(2, 30).flatmap(
    lambda n: st.tuples(st.lists(_GRID, min_size=n, max_size=n), st.lists(_GRID, min_size=n, max_size=n))
)


@settings(max_examples=300, deadline=None)
@given(_PAIRS, st.integers(-1000, 1000), st.integers(-1000, 1000))
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
