import json
import math
import struct
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexigauge import stats
from lexigauge.errors import DegenerateDataError, DomainError
from lexigauge.stats import (
    _midranks,
    descriptives,
    effect_size_from_z,
    kde,
    ndtr,
    ndtri,
    p_two_sided_from_z,
    shapiro_wilk,
    wilcoxon_rank_sum,
)
from oracles import exact_rank_sum_p, z_from_effect_size

# ---------------------------------------------------------------------------
# Descriptives
# ---------------------------------------------------------------------------


def test_descriptives_symmetric_sequence():
    d = descriptives([1, 2, 3, 4, 5])
    assert (d.minimum, d.q1, d.median, d.mean, d.q3, d.maximum) == (1, 2, 3, 3, 4, 5)


def test_descriptives_constant_input():
    d = descriptives([1, 1, 1, 1])
    assert {d.minimum, d.q1, d.median, d.mean, d.q3, d.maximum} == {1.0}


def test_descriptives_interpolation_convention():
    d = descriptives([1, 2, 3, 4])
    assert (d.q1, d.median, d.q3) == (1.75, 2.5, 3.25)


def test_descriptives_empty_raises():
    with pytest.raises(DomainError):
        descriptives([])


def test_descriptives_permutation_invariant():
    rng = np.random.default_rng(5)
    values = list(rng.normal(size=40))
    reference = descriptives(values)
    for _ in range(5):
        rng.shuffle(values)
        d = descriptives(values)
        # order statistics are exactly permutation-invariant; the mean only
        # up to float summation order
        assert (d.minimum, d.q1, d.median, d.q3, d.maximum) == (
            reference.minimum,
            reference.q1,
            reference.median,
            reference.q3,
            reference.maximum,
        )
        assert d.mean == pytest.approx(reference.mean, rel=1e-12)


def test_descriptives_ordering_invariant():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = descriptives(rng.exponential(size=int(rng.integers(2, 60))))
        assert d.minimum <= d.q1 <= d.median <= d.q3 <= d.maximum
        assert d.minimum <= d.mean <= d.maximum


# ---------------------------------------------------------------------------
# Shapiro-Wilk
# ---------------------------------------------------------------------------


def test_shapiro_matches_reference_fixtures(data_dir):
    cases = json.loads((data_dir / "shapiro_fixtures.json").read_text())
    assert len(cases) == 20
    for case in cases:
        result = shapiro_wilk(case["values"])
        assert result.n == case["n"]
        assert result.w_statistic == pytest.approx(case["w"], abs=1e-3)
        assert result.p_value == pytest.approx(case["p"], abs=1e-2)


def test_shapiro_near_degenerate_has_w_below_one():
    result = shapiro_wilk([1.0, 1.0, 1.0, 2.0])
    assert 0.0 < result.w_statistic < 1.0
    assert 0.0 <= result.p_value <= 1.0


def test_shapiro_identical_values_raise():
    with pytest.raises(DegenerateDataError):
        shapiro_wilk([3.0, 3.0, 3.0, 3.0])


@pytest.mark.parametrize("n", [0, 1, 2, 5001])
def test_shapiro_out_of_range_n_raises(n):
    with pytest.raises(DomainError):
        shapiro_wilk(list(range(n)))


@pytest.mark.parametrize(
    "values",
    [[i * 1e200 for i in range(1, 9)], [1.7e308, 1.7e308, -1.7e308, 1e308]],
    ids=["squares-overflow", "mean-overflows"],
)
def test_shapiro_overflowing_sum_of_squares_raises(values):
    with pytest.raises(DomainError, match="overflows"):
        shapiro_wilk(values)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "values",
    [[1e300, -1e300, 1e300, 2], [i * 1e200 for i in range(1, 9)],
     [1.7e308, 1.7e308, -1.7e308, 1e308]],
)
def test_shapiro_overflow_raises_without_a_numpy_warning(values):
    # The overflow is reported once, as the DomainError, not also as a
    # RuntimeWarning on stderr.
    with pytest.raises(DomainError, match="overflows"):
        shapiro_wilk(values)


def test_shapiro_rejects_clear_non_normality():
    rng = np.random.default_rng(11)
    result = shapiro_wilk(rng.exponential(size=500))
    assert result.p_value < 0.05


def test_shapiro_accepts_normal_draw():
    rng = np.random.default_rng(12)
    result = shapiro_wilk(rng.normal(size=200))
    assert result.p_value > 0.05
    assert result.w_statistic > 0.98


_SHAPES = {
    "normal": lambda rng, n: rng.normal(size=n),
    "gamma": lambda rng, n: rng.gamma(2.0, 3.0, n),
    "uniform": lambda rng, n: rng.uniform(size=n),
    "ties": lambda rng, n: np.round(rng.normal(size=n) * 3.0),
}


@st.composite
def seeded_samples(draw, min_size):
    """``min_size`` to 400 values of one shape from a seeded generator; the
    ``ties`` shape holds few distinct values.  Never all equal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))](rng, draw(st.integers(min_size, 400)))
    assume(np.ptp(values) > 0)
    return values


@settings(max_examples=300, deadline=None)
@given(seeded_samples(min_size=3))
def test_shapiro_matches_scipy_within_its_single_precision(values):
    scipy_stats = pytest.importorskip("scipy.stats")
    # scipy's routine works in single precision: over 3,000 such samples W
    # differed by at most 1.8e-9 and p by at most 7.3e-8.
    result, expected = shapiro_wilk(values), scipy_stats.shapiro(values)
    assert abs(result.w_statistic - expected.statistic) <= 1e-8
    assert abs(result.p_value - expected.pvalue) <= 1e-6


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum
# ---------------------------------------------------------------------------


def _midranks_oracle(values):
    """Brute force: rank = #less + (#equal + 1) / 2; tie sizes by value."""
    ranks = [
        sum(v < x for v in values) + (sum(v == x for v in values) + 1) / 2
        for x in values
    ]
    counts = Counter(values)
    return ranks, [counts[v] for v in sorted(counts)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=60))
def test_midranks_match_brute_force_oracle(values):
    ranks, tie_sizes = _midranks(np.asarray(values, dtype=float))
    expected_ranks, expected_ties = _midranks_oracle(values)
    assert ranks.tolist() == expected_ranks
    assert tie_sizes.tolist() == expected_ties


def test_ranksum_identical_samples():
    result = wilcoxon_rank_sum([1, 2, 3], [1, 2, 3])
    assert result.u_statistic == 4.5  # n^2 / 2
    assert result.p_value == pytest.approx(1.0)
    assert result.effect_size_r == pytest.approx(0.0)


def test_ranksum_fully_separated_u_zero():
    assert wilcoxon_rank_sum([1, 2], [3, 4]).u_statistic == 0.0


def test_ranksum_empty_raises():
    with pytest.raises(DomainError):
        wilcoxon_rank_sum([], [1.0])


def test_ranksum_exchangeable_two_sided():
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(3, 30)))
        y = rng.normal(0.4, size=int(rng.integers(3, 30)))
        ab = wilcoxon_rank_sum(x, y)
        ba = wilcoxon_rank_sum(y, x)
        assert ab.p_value == pytest.approx(ba.p_value, rel=1e-12)
        assert ab.effect_size_r == pytest.approx(ba.effect_size_r, rel=1e-12)
        assert ab.u_statistic + ba.u_statistic == pytest.approx(len(x) * len(y))


def test_ranksum_rank_invariance_under_monotone_transforms():
    rng = np.random.default_rng(22)
    x = rng.normal(size=25)
    y = rng.normal(0.8, size=18)
    reference = wilcoxon_rank_sum(x, y)
    transforms = []
    for k in range(50):
        a = float(rng.uniform(0.1, 3.0))
        b = float(rng.uniform(-2.0, 2.0))
        transforms.append(lambda v, a=a, b=b: a * np.exp(v) + b)
        transforms.append(lambda v, a=a, b=b: a * v**3 + b * v + (a + 1) * v)
    for transform in transforms[:50]:
        result = wilcoxon_rank_sum(transform(x), transform(y))
        assert result.u_statistic == reference.u_statistic
        assert result.z_score == pytest.approx(reference.z_score, rel=1e-12)
        assert result.p_value == pytest.approx(reference.p_value, rel=1e-12)
        assert result.effect_size_r == pytest.approx(reference.effect_size_r, rel=1e-12)


def test_ranksum_effect_size_bounds():
    rng = np.random.default_rng(23)
    for _ in range(30):
        x = rng.normal(size=int(rng.integers(2, 20)))
        y = rng.normal(float(rng.uniform(-2, 2)), size=int(rng.integers(2, 20)))
        result = wilcoxon_rank_sum(x, y)
        assert 0.0 <= result.effect_size_r <= 1.0
        assert 0.0 <= result.u_statistic <= result.n_x * result.n_y
        assert 0.0 <= result.p_value <= 1.0


def test_ranksum_with_heavy_ties_stays_sane():
    result = wilcoxon_rank_sum([1, 1, 1, 2, 2], [1, 2, 2, 2, 3])
    assert 0.0 <= result.p_value <= 1.0
    assert math.isfinite(result.z_score)


def test_ranksum_all_identical_values():
    result = wilcoxon_rank_sum([5, 5, 5], [5, 5])
    assert result.z_score == 0.0
    assert result.p_value == 1.0


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
    y=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
)
def test_ranksum_equals_scipy_mannwhitneyu_with_heavy_ties(x, y):
    scipy_stats = pytest.importorskip("scipy.stats")
    assume(len(set(x + y)) > 1)  # all-equal samples: test_ranksum_all_identical_values
    result = wilcoxon_rank_sum(x, y)
    expected = scipy_stats.mannwhitneyu(
        x, y, use_continuity=True, alternative="two-sided", method="asymptotic"
    )
    assert (result.u_statistic, result.p_value) == (expected.statistic, expected.pvalue)


# ---------------------------------------------------------------------------
# Exact enumeration oracle (tests/oracles.py), checked by hand
# ---------------------------------------------------------------------------


def test_exact_hand_enumerations():
    assert exact_rank_sum_p([1, 2], [3, 4]) == pytest.approx(1 / 3)
    assert exact_rank_sum_p([1], [2]) == 1.0
    assert exact_rank_sum_p([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1)


def test_exact_symmetric_in_samples():
    x, y = [0.3, 1.7, 2.2], [0.9, 1.1, 3.5, 4.2]
    assert exact_rank_sum_p(x, y) == pytest.approx(exact_rank_sum_p(y, x))


def test_exact_matches_full_manual_enumeration_small_case():
    # independent re-derivation for n_x = 2, n_y = 3
    x, y = [10.0, 20.0], [1.0, 2.0, 3.0]
    combined = sorted(x + y)
    ranks_x = [combined.index(v) + 1 for v in x]
    u_obs = sum(ranks_x) - 2 * 3 / 2.0
    us = [sum(c) - 3.0 for c in combinations(range(1, 6), 2)]
    le = sum(1 for u in us if u <= u_obs)
    ge = sum(1 for u in us if u >= u_obs)
    expected = min(1.0, 2.0 * min(le, ge) / len(us))
    assert exact_rank_sum_p(x, y) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Effect-size conversions
# ---------------------------------------------------------------------------


def test_effect_size_round_trip():
    z = z_from_effect_size(0.163, 1302)
    assert effect_size_from_z(z, 1302) == pytest.approx(0.163)


# ---------------------------------------------------------------------------
# Normal CDF and its inverse against scipy.special (a test-only oracle)
# ---------------------------------------------------------------------------


def _same_bits(ours: float, theirs: float) -> bool:
    """Equal bit for bit, signed zeros included; any two NaNs count as equal
    because scipy does not fix the sign or payload of a NaN result."""
    if math.isnan(ours) or math.isnan(theirs):
        return math.isnan(ours) and math.isnan(theirs)
    return struct.pack("<d", ours) == struct.pack("<d", theirs)


def _mismatches(ours, theirs, points):
    expected = theirs(np.asarray(points, dtype=float)).tolist()
    return [
        (p, ours(p), e) for p, e in zip(points, expected) if not _same_bits(ours(p), e)
    ]


_SUBNORMAL = 5e-324
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, _SUBNORMAL, -_SUBNORMAL, 2.2e-308]
# ndtr underflows to 0 past the erfc MAXLOG cut at x = -sqrt(2 * 709.78)
_NDTR_UNDERFLOW = -math.sqrt(2.0 * 709.782712893384)


# Pinned: signed zeros, infinities, nan, subnormals, the ndtr tails past
# |x| = 38 and its underflow cut, and the ndtri tails near 0 and 1.
@settings(max_examples=3000, deadline=None)
@given(
    st.one_of(
        st.floats(width=64),
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e-14),
        st.floats(min_value=1.0 - 1e-6, max_value=1.0),
    )
)
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(_SUBNORMAL)
@example(-1e-310)
@example(-38.5)
@example(38.5)
@example(_NDTR_UNDERFLOW)
@example(1e-300)
@example(1.0 - 2.0**-53)
@example(math.exp(-2.0))
def test_ndtr_and_ndtri_match_scipy_bit_for_bit(x):
    special = pytest.importorskip("scipy.special")
    assert _mismatches(ndtr, special.ndtr, [x]) == []
    assert _mismatches(ndtri, special.ndtri, [x]) == []


def _around(centres, rng, width=64):
    """Each centre, every float within ``width`` ulps of it, and random
    points within a relative 1e-6 of it."""
    points = []
    for c in centres:
        points.append(c)
        below = above = c
        for _ in range(width):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            points += [below, above]
        points += (c * (1.0 + rng.uniform(-1e-6, 1e-6, 200))).tolist()
    return points


def test_ndtr_and_ndtri_match_scipy_on_a_seeded_sweep():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20210)
    raw_bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64).tolist()
    # ndtr switches formula at |x| = 1, sqrt(2) and 8 * sqrt(2)
    ndtr_edges = [s * c for s in (1.0, -1.0) for c in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0))]
    ndtr_points = (
        rng.uniform(-40.0, 40.0, 20_000).tolist()
        + rng.normal(0.0, 3.0, 20_000).tolist()
        + raw_bits
        + _EDGE_FLOATS
        + _around(ndtr_edges + [_NDTR_UNDERFLOW, -38.4], rng)
    )
    # ndtri switches formula at exp(-2), 1 - exp(-2) and exp(-32)
    ndtri_points = (
        rng.uniform(0.0, 1.0, 20_000).tolist()
        + (10.0 ** rng.uniform(-320.0, 0.0, 20_000)).tolist()
        + (1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 20_000)).tolist()
        + raw_bits
        + _EDGE_FLOATS
        + [-1.0, 2.0, 1.0, 0.5]
        + _around([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)], rng)
    )
    assert _mismatches(ndtr, special.ndtr, ndtr_points) == []
    assert _mismatches(ndtri, special.ndtri, ndtri_points) == []


@pytest.mark.parametrize("n", [3, 4, 5, 11, 12, 20, 650, 1200, 5000])
def test_ndtri_matches_scipy_on_the_shapiro_grid(n):
    special = pytest.importorskip("scipy.special")
    grid = ((np.arange(1, n + 1) - 0.375) / (n + 0.25)).tolist()
    assert _mismatches(ndtri, special.ndtri, grid) == []


# ---------------------------------------------------------------------------
# KDE
# ---------------------------------------------------------------------------


def test_kde_normal_sample_integrates_to_one():
    rng = np.random.default_rng(31)
    series = kde(rng.normal(size=1000), grid_points=512)
    integral = np.trapezoid(series.density, series.grid)
    assert integral == pytest.approx(1.0, abs=0.01)
    assert len(series.grid) == 512
    assert min(series.density) >= 0.0
    assert series.bandwidth > 0.0


def test_kde_integral_holds_across_distributions():
    rng = np.random.default_rng(32)
    for values in [rng.exponential(size=400), rng.uniform(size=300), rng.normal(3, 0.1, 200)]:
        series = kde(values, grid_points=256)
        assert np.trapezoid(series.density, series.grid) == pytest.approx(1.0, abs=0.01)


def test_kde_symmetric_input_gives_symmetric_density():
    values = np.concatenate([np.arange(1, 8), -np.arange(1, 8), [0.0]])
    series = kde(values, grid_points=101)
    density = np.asarray(series.density)
    assert np.allclose(density, density[::-1], atol=1e-9)
    grid = np.asarray(series.grid)
    assert np.allclose(grid, -grid[::-1], atol=1e-9)


def test_kde_empty_sample_raises():
    with pytest.raises(DomainError, match=r"^cannot estimate a density from an empty sample$"):
        kde([])


def test_kde_zero_variance_raises():
    with pytest.raises(DegenerateDataError):
        kde([2.0] * 50)


def test_kde_small_grid_rejected():
    with pytest.raises(DomainError):
        kde([1.0, 2.0, 3.0], grid_points=8)


def test_kde_grid_past_the_cap_rejected():
    assert len(kde([1.0, 2.0, 3.0, 5.0], grid_points=2**16).grid) == 2**16
    with pytest.raises(DomainError, match=r"^grid_points must be <= 65536, got 65537$"):
        kde([1.0, 2.0, 3.0, 5.0], grid_points=2**16 + 1)


@pytest.mark.parametrize("grid_points", [64.0, True], ids=repr)
def test_kde_grid_that_is_not_an_int_rejected(grid_points):
    message = rf"^grid_points must be an integer, got {grid_points!r}$"
    with pytest.raises(DomainError, match=message):
        kde([1.0, 2.0, 3.0, 5.0], grid_points=grid_points)


# Every entry point that reads a sample rejects a NaN or an infinity in it.
_READS_A_SAMPLE = {
    "descriptives": descriptives,
    "shapiro_wilk": shapiro_wilk,
    "kde": kde,
    "wilcoxon_rank_sum x": lambda v: wilcoxon_rank_sum(v, [2.5, 3.5]),
    "wilcoxon_rank_sum y": lambda v: wilcoxon_rank_sum([2.5, 3.5], v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_READS_A_SAMPLE))
def test_stats_entry_points_reject_a_non_finite_sample(entry, bad):
    with pytest.raises(DomainError, match=r"^sample holds a NaN or an infinity$"):
        _READS_A_SAMPLE[entry]([bad, 1.0, 2.0, 4.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "entry,values",
    [(descriptives, [1.7e308, 1.7e308]), (kde, [1e308, -1e308, 0.0, 5.0])],
    ids=["descriptives-mean", "kde-grid"],
)
def test_a_finite_sample_whose_arithmetic_overflows_is_a_domain_error(entry, values):
    # Reported once, as the DomainError, not as a RuntimeWarning and an
    # infinite or NaN result.
    with pytest.raises(DomainError, match="overflow"):
        entry(values)


def test_kde_grid_spans_three_bandwidths():
    rng = np.random.default_rng(33)
    values = rng.normal(size=100)
    series = kde(values, grid_points=64)
    assert series.grid[0] == pytest.approx(values.min() - 3 * series.bandwidth)
    assert series.grid[-1] == pytest.approx(values.max() + 3 * series.bandwidth)


@pytest.mark.parametrize("block_elements", [1, 700, 1 << 18])
@pytest.mark.parametrize("n", [2, 3, 650, 1000, 4099])
def test_kde_row_blocks_give_the_unblocked_densities_bit_for_bit(monkeypatch, n, block_elements):
    monkeypatch.setattr(stats, "_KDE_BLOCK_ELEMENTS", block_elements)
    values = np.random.default_rng(n).gamma(2.0, 3.0, size=n)
    series = kde(values, grid_points=300)
    grid, h = np.array(series.grid), series.bandwidth
    z = (grid[:, None] - values[None, :]) / h
    unblocked = np.exp(-0.5 * z * z).sum(axis=1) / (n * h * math.sqrt(2.0 * math.pi))
    assert [d.hex() for d in series.density] == [float(d).hex() for d in unblocked]


def test_kde_memory_is_bounded_by_its_row_blocks():
    # One grid-by-sample float64 array here would be 512 * 20,000 * 8 bytes
    # (82 MB); the row blocks keep the peak to a few of its 2 MB blocks.
    values = np.random.default_rng(34).normal(size=20_000)
    tracemalloc.start()
    try:
        kde(values, grid_points=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@settings(max_examples=300, deadline=None)
@given(seeded_samples(min_size=2))
def test_kde_matches_scipy_gaussian_kde(values):
    scipy_stats = pytest.importorskip("scipy.stats")
    series = kde(values, grid_points=64)
    # Rounding in (grid - x) / h, which the two libraries do differently,
    # grows with max|x| / h: two nearly equal values far from zero lose digits.
    assume(np.abs(values).max() <= 100 * series.bandwidth)
    bw_method = series.bandwidth / np.std(values, ddof=1)
    expected = scipy_stats.gaussian_kde(values, bw_method=bw_method)(np.array(series.grid))
    np.testing.assert_allclose(series.density, expected, rtol=1e-12, atol=0.0)
