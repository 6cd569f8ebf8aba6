"""Nonparametric statistics: six-number summaries, Shapiro-Wilk normality,
Wilcoxon rank-sum with effect size, an exact small-sample oracle, and
Gaussian kernel density series for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateDataError, DomainError, UnsupportedDataError

__all__ = [
    "Descriptives",
    "NormalityResult",
    "RankSumResult",
    "DensitySeries",
    "descriptives",
    "shapiro_wilk",
    "wilcoxon_rank_sum",
    "exact_rank_sum_p",
    "kde",
    "z_from_effect_size",
    "effect_size_from_z",
    "p_two_sided_from_z",
    "z_from_p_two_sided",
]

QUARTILE_METHOD = "linear interpolation at (n-1)*p"


@dataclass(frozen=True)
class Descriptives:
    """Six-number summary: min, 1st quartile, median, mean, 3rd quartile, max."""

    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float


@dataclass(frozen=True)
class NormalityResult:
    w_statistic: float
    p_value: float
    n: int


@dataclass(frozen=True)
class RankSumResult:
    u_statistic: float
    z_score: float
    p_value: float
    effect_size_r: float
    n_x: int
    n_y: int


@dataclass(frozen=True)
class DensitySeries:
    grid: tuple[float, ...]
    density: tuple[float, ...]
    bandwidth: float


def descriptives(values) -> Descriptives:
    """Six-number summary with quartiles by linear interpolation between
    order statistics at index (n-1)*p."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DomainError("descriptives of an empty sample are undefined")
    q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75])
    return Descriptives(
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(med),
        mean=float(arr.mean()),
        q3=float(q3),
        maximum=float(arr.max()),
    )


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston's AS R94 approximation)
# ---------------------------------------------------------------------------

# Polynomials from Royston (1995), evaluated lowest order first.
_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_G = (-2.273, 0.459)
_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_C6 = (-0.4803, -0.082676, 0.0030302)


def _poly(coeffs, x: float) -> float:
    result = 0.0
    for c in reversed(coeffs):
        result = result * x + c
    return result


def _sw_weights(n: int) -> np.ndarray:
    """Approximate best linear unbiased weights for the W statistic."""
    if n == 3:
        return np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    i = np.arange(1, n + 1)
    m = ndtri((i - 0.375) / (n + 0.25))
    ssq_m = float(m @ m)
    c = m / math.sqrt(ssq_m)
    rsn = 1.0 / math.sqrt(n)
    a = np.empty(n)
    a_n = c[-1] + _poly(_C1, rsn)
    if n > 5:
        a_n1 = c[-2] + _poly(_C2, rsn)
        phi = (ssq_m - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
            1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2
        )
        a[2:-2] = m[2:-2] / math.sqrt(phi)
        a[-1], a[-2] = a_n, a_n1
        a[0], a[1] = -a_n, -a_n1
    else:
        phi = (ssq_m - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2)
        a[1:-1] = m[1:-1] / math.sqrt(phi)
        a[-1] = a_n
        a[0] = -a_n
    return a


def shapiro_wilk(values) -> NormalityResult:
    """Shapiro-Wilk test of normality for 3 <= n <= 5000.

    W close to 1 is consistent with a normal sample; the p-value uses the
    exact n=3 distribution and a normalizing transformation of 1-W
    elsewhere (Royston's approximation, valid through n=5000).  Raises
    DomainError when the sample's sum of squares overflows a float.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 3 or n > 5000:
        raise DomainError(f"Shapiro-Wilk supports 3 <= n <= 5000, got n={n}")
    if x[-1] == x[0]:
        raise DegenerateDataError("all sample values are identical")

    a = _sw_weights(n)
    centered = x - x.mean()
    squares = centered @ centered
    if not np.isfinite(squares):
        raise DomainError("Shapiro-Wilk sum of squares overflows for this sample")
    w = float((a @ x) ** 2 / squares)
    w = min(w, 1.0)

    if n == 3:
        # Exact: P(W <= w) = (6/pi) * (asin(sqrt(w)) - asin(sqrt(3/4)))
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
    elif n <= 11:
        g = _poly(_G, float(n))
        mu = _poly(_C3, float(n))
        sigma = math.exp(_poly(_C4, float(n)))
        if g - math.log1p(-w) <= 0:
            p = 0.0
        else:
            z = (-math.log(g - math.log1p(-w)) - mu) / sigma
            p = float(ndtr(-z))
    else:
        ln_n = math.log(n)
        mu = _poly(_C5, ln_n)
        sigma = math.exp(_poly(_C6, ln_n))
        z = (math.log1p(-w) - mu) / sigma
        p = float(ndtr(-z))
    return NormalityResult(w_statistic=w, p_value=p, n=n)


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum / Mann-Whitney U
# ---------------------------------------------------------------------------


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..n with ties sharing their average rank; also returns the
    tie-group sizes needed for the variance correction."""
    _, inverse, tie_sizes = np.unique(
        values, return_inverse=True, return_counts=True, equal_nan=False
    )
    # a group of c ties after i smaller values shares rank i + (c + 1) / 2
    group_ranks = np.cumsum(tie_sizes) - 0.5 * (tie_sizes - 1)
    return group_ranks[inverse], tie_sizes


def wilcoxon_rank_sum(x, y) -> RankSumResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney U) test.

    Midranks for ties, tie-corrected variance, 0.5 continuity correction,
    and effect size r = |z| / sqrt(n_x + n_y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_x, n_y = x.size, y.size
    if n_x == 0 or n_y == 0:
        raise DomainError("both samples must be non-empty")
    n = n_x + n_y
    ranks, tie_sizes = _midranks(np.concatenate([x, y]))
    r_x = float(ranks[:n_x].sum())
    u = r_x - n_x * (n_x + 1) / 2.0

    mu = n_x * n_y / 2.0
    tie_term = float(((tie_sizes**3) - tie_sizes).sum())
    variance = (n_x * n_y / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        # every observation identical: no ordering information at all
        z = 0.0
    else:
        diff = u - mu
        corrected = math.copysign(max(abs(diff) - 0.5, 0.0), diff)
        z = corrected / math.sqrt(variance)
    return RankSumResult(
        u_statistic=u,
        z_score=z,
        p_value=p_two_sided_from_z(z),
        effect_size_r=effect_size_from_z(z, n),
        n_x=n_x,
        n_y=n_y,
    )


def exact_rank_sum_p(x, y) -> float:
    """Exact two-sided rank-sum p-value by enumerating every possible
    assignment of ranks to the first sample.

    Supports n_x + n_y <= 20 and tie-free data only; used as the oracle
    that validates the normal approximation at small sample sizes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_x, n_y = x.size, y.size
    if n_x == 0 or n_y == 0:
        raise DomainError("both samples must be non-empty")
    n = n_x + n_y
    if n > 20:
        raise DomainError(f"exact enumeration supports n_x + n_y <= 20, got {n}")
    combined = np.concatenate([x, y])
    if np.unique(combined).size != n:
        raise UnsupportedDataError("exact enumeration requires tie-free data")

    ranks = np.argsort(np.argsort(combined)) + 1
    u_obs = float(ranks[:n_x].sum()) - n_x * (n_x + 1) / 2.0

    offset = n_x * (n_x + 1) / 2.0
    count_le = 0
    count_ge = 0
    total = 0
    for assignment in combinations(range(1, n + 1), n_x):
        u = sum(assignment) - offset
        if u <= u_obs:
            count_le += 1
        if u >= u_obs:
            count_ge += 1
        total += 1
    return min(1.0, 2.0 * min(count_le, count_ge) / total)


# ---------------------------------------------------------------------------
# Effect-size conversions (r <-> z <-> two-sided p)
# ---------------------------------------------------------------------------


def z_from_effect_size(r: float, n_total: int) -> float:
    """|z| implied by rank-sum effect size r at a combined sample size."""
    return r * math.sqrt(n_total)


def effect_size_from_z(z: float, n_total: int) -> float:
    return abs(z) / math.sqrt(n_total)


def p_two_sided_from_z(z: float) -> float:
    return min(1.0, 2.0 * float(ndtr(-abs(z))))


def z_from_p_two_sided(p: float) -> float:
    if not 0.0 < p <= 1.0:
        raise DomainError("two-sided p must be in (0, 1]")
    return float(-ndtri(p / 2.0))


# ---------------------------------------------------------------------------
# Kernel density estimation
# ---------------------------------------------------------------------------


def kde(values, grid_points: int = 512) -> DensitySeries:
    """Gaussian KDE with Silverman's rule-of-thumb bandwidth
    0.9 * min(sd, IQR/1.34) * n^(-1/5), evaluated on grid_points equally
    spaced points spanning [min - 3h, max + 3h]."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DomainError("cannot estimate a density from an empty sample")
    if grid_points < 16:
        raise DomainError(f"grid_points must be >= 16, got {grid_points}")
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    if sd == 0.0:
        raise DegenerateDataError("sample variance is zero")
    q1, q3 = np.quantile(arr, [0.25, 0.75])
    iqr = float(q3 - q1)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    h = 0.9 * scale * arr.size ** (-0.2)

    grid = np.linspace(arr.min() - 3.0 * h, arr.max() + 3.0 * h, grid_points)
    z = (grid[:, None] - arr[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (arr.size * h * math.sqrt(2.0 * math.pi))
    return DensitySeries(
        grid=tuple(float(g) for g in grid),
        density=tuple(float(d) for d in density),
        bandwidth=h,
    )
