"""Nonparametric statistics: six-number summaries, Shapiro-Wilk normality,
Wilcoxon rank-sum with effect size, an exact small-sample oracle, and
Gaussian kernel density series for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

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
    "ndtr",
    "ndtri",
]

QUARTILE_METHOD = "linear interpolation at (n-1)*p"


def _sample(values) -> np.ndarray:
    """``values`` as a float array; raises DomainError if one is not finite."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("sample holds a NaN or an infinity")
    return arr


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
    order statistics at index (n-1)*p.  Raises DomainError for an empty
    sample, one holding a NaN or an infinity, or one whose mean or quartiles
    overflow a float."""
    arr = _sample(values)
    if arr.size == 0:
        raise DomainError("descriptives of an empty sample are undefined")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75])
        mean = arr.mean()
    if not np.isfinite([q1, med, q3, mean]).all():
        raise DomainError("descriptives overflow a float for this sample")
    return Descriptives(
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(med),
        mean=float(mean),
        q3=float(q3),
        maximum=float(arr.max()),
    )


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston's AS R94 approximation)
# ---------------------------------------------------------------------------

# Polynomials from Royston (1995), highest order first.
_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_G = (0.459, -2.273)
_C3 = (-6.714e-4, 0.025054, -0.39978, 0.5440)
_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)
_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)
_C6 = (0.0030302, -0.082676, -0.4803)


def _poly(coeffs: tuple[float, ...], x: float) -> float:
    """Horner's rule over ``coeffs``, highest order first."""
    result = coeffs[0]
    for c in coeffs[1:]:
        result = result * x + c
    return result


def _sw_weights(n: int) -> np.ndarray:
    """Approximate best linear unbiased weights for the W statistic."""
    if n == 3:
        return np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    i = np.arange(1, n + 1)
    m = np.array([ndtri(p) for p in ((i - 0.375) / (n + 0.25)).tolist()])
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
    DomainError when the sample holds a NaN or an infinity, or when its sum
    of squares overflows a float.
    """
    x = np.sort(_sample(values))
    n = x.size
    if n < 3 or n > 5000:
        raise DomainError(f"Shapiro-Wilk supports 3 <= n <= 5000, got n={n}")
    if x[-1] == x[0]:
        raise DegenerateDataError("all sample values are identical")

    a = _sw_weights(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
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
            p = ndtr(-z)
    else:
        ln_n = math.log(n)
        mu = _poly(_C5, ln_n)
        sigma = math.exp(_poly(_C6, ln_n))
        z = (math.log1p(-w) - mu) / sigma
        p = ndtr(-z)
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
    and effect size r = |z| / sqrt(n_x + n_y).  Raises DomainError when a
    sample is empty or holds a NaN or an infinity.
    """
    x, y = _sample(x), _sample(y)
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
    that validates the normal approximation at small sample sizes.  Raises
    DomainError when a sample is empty or holds a NaN or an infinity.
    """
    x, y = _sample(x), _sample(y)
    n_x, n_y = x.size, y.size
    if n_x == 0 or n_y == 0:
        raise DomainError("both samples must be non-empty")
    n = n_x + n_y
    if n > 20:
        raise DomainError(f"exact enumeration supports n_x + n_y <= 20, got {n}")
    combined = np.concatenate([x, y])
    if np.unique(combined).size != n:
        raise UnsupportedDataError("exact enumeration requires tie-free data")

    # U is the first sample's rank sum less a constant: rank sums order alike.
    observed = (np.argsort(np.argsort(combined))[:n_x] + 1).sum()
    rank_sums = np.fromiter(map(sum, combinations(range(1, n + 1), n_x)), dtype=np.int64)
    count = min(int((rank_sums <= observed).sum()), int((rank_sums >= observed).sum()))
    return min(1.0, 2.0 * count / rank_sums.size)


# ---------------------------------------------------------------------------
# Effect-size conversions (r <-> z <-> two-sided p)
# ---------------------------------------------------------------------------


def z_from_effect_size(r: float, n_total: int) -> float:
    """|z| implied by rank-sum effect size r at a combined sample size."""
    return r * math.sqrt(n_total)


def effect_size_from_z(z: float, n_total: int) -> float:
    return abs(z) / math.sqrt(n_total)


def p_two_sided_from_z(z: float) -> float:
    return min(1.0, 2.0 * ndtr(-abs(z)))


def z_from_p_two_sided(p: float) -> float:
    if not 0.0 < p <= 1.0:
        raise DomainError("two-sided p must be in (0, 1]")
    return -ndtri(p / 2.0)


# ---------------------------------------------------------------------------
# Normal CDF and its inverse (Cephes, Moshier 1989)
# ---------------------------------------------------------------------------

# Ports of the Cephes ndtr.c and ndtri.c that scipy.special uses, with the
# published coefficients, highest order first.  Each denominator table keeps
# the implicit leading 1.0 of Cephes' p1evl, so _poly serves both polevl and
# p1evl (1.0 * x + c is exactly x + c).  Only math.exp, math.log
# and math.sqrt are called, so every result is bit-identical to scipy's.
_SQRT1_2 = 7.07106781186547524401e-1
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_MAXLOG = 7.09782712893383996843e2

_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# ndtri: |y - 0.5| <= 3/8, then sqrt(-2 log y) in [2, 8), then in [8, 64)
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _erf(x: float) -> float:
    """Cephes erf on |x| <= 1, the only range ndtr and _erfc reach."""
    z = x * x
    return x * _poly(_ERF_T, z) / _poly(_ERF_U, z)


def _erfc(x: float) -> float:
    """Cephes erfc on x >= 1/sqrt(2), the only range ndtr reaches."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return z * _poly(_ERFC_P, x) / _poly(_ERFC_Q, x)
    return z * _poly(_ERFC_R, x) / _poly(_ERFC_S, x)


def ndtr(a: float) -> float:
    """Standard normal CDF, bit-identical to scipy.special.ndtr."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(abs(x))
    return 1.0 - y if x > 0 else y


def ndtri(y: float) -> float:
    """Inverse standard normal CDF, bit-identical to scipy.special.ndtri:
    -inf at 0, inf at 1, nan outside [0, 1]."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _poly(_NDTRI_P0, y2) / _poly(_NDTRI_Q0, y2))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _poly(_NDTRI_P1, z) / _poly(_NDTRI_Q1, z)
    else:
        x1 = z * _poly(_NDTRI_P2, z) / _poly(_NDTRI_Q2, z)
    x = x0 - x1
    return x if upper else -x


# ---------------------------------------------------------------------------
# Kernel density estimation
# ---------------------------------------------------------------------------


# Elements of one block of kde's grid-by-sample array: 2 MB of float64.
_KDE_BLOCK_ELEMENTS = 1 << 18
# Each density holds one (x, y) pair per grid point, so the grid is capped.
_MAX_KDE_GRID_POINTS = 2**16


def _check_kde_grid(grid_points: int, name: str, error: type[Exception]) -> None:
    """Raise ``error`` naming ``name`` unless 16 <= grid_points <= 65,536."""
    if not 16 <= grid_points <= _MAX_KDE_GRID_POINTS:
        bound = ">= 16" if grid_points < 16 else f"<= {_MAX_KDE_GRID_POINTS}"
        raise error(f"{name} must be {bound}, got {grid_points}")


def kde(values, grid_points: int = 512) -> DensitySeries:
    """Gaussian KDE with Silverman's rule-of-thumb bandwidth
    0.9 * min(sd, IQR/1.34) * n^(-1/5), evaluated on grid_points equally
    spaced points spanning [min - 3h, max + 3h].  Raises DomainError for an
    empty or non-finite sample, a grid outside 16..65,536 points, or a
    sample whose grid or densities overflow a float."""
    arr = _sample(values)
    if arr.size == 0:
        raise DomainError("cannot estimate a density from an empty sample")
    _check_kde_grid(grid_points, "grid_points", DomainError)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        if sd == 0.0:
            raise DegenerateDataError("sample variance is zero")
        q1, q3 = np.quantile(arr, [0.25, 0.75])
        iqr = float(q3 - q1)
        scale = min(sd, iqr / 1.34) if iqr > 0 else sd
        h = 0.9 * scale * arr.size ** (-0.2)

        grid = np.linspace(arr.min() - 3.0 * h, arr.max() + 3.0 * h, grid_points)
        # Grid rows are summed a block at a time, each row still in one
        # contiguous sum, so the densities do not depend on the block size.
        sums = np.empty(grid_points)
        rows = max(1, _KDE_BLOCK_ELEMENTS // arr.size)
        for start in range(0, grid_points, rows):
            z = (grid[start:start + rows, None] - arr[None, :]) / h
            sums[start:start + rows] = np.exp(-0.5 * z * z).sum(axis=1)
        density = sums / (arr.size * h * math.sqrt(2.0 * math.pi))
    if not (np.isfinite(grid).all() and np.isfinite(density).all()):
        raise DomainError("kernel density estimate overflows a float for this sample")
    return DensitySeries(
        grid=tuple(float(g) for g in grid),
        density=tuple(float(d) for d in density),
        bandwidth=h,
    )
