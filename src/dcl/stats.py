"""Sample summaries and the hypothesis tests used by the harnesses.

Everything here is generic plumbing: moment summaries with standard errors,
Kolmogorov-Smirnov tests with the asymptotic p-value, and total variation
distance between an empirical sample and a law with finitely many atoms:
nearest_atoms bins the sample once, and tv_distance_discrete compares the
bin counts with the atoms' weights.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_LEVEL = 0.01


@dataclass(frozen=True)
class SampleSummary:
    """Moment summary of one sample.

    Variance is the unbiased estimator; skewness and excess kurtosis carry
    the standard finite-sample bias corrections. Undefined entries (constant
    samples, too few observations) are NaN.
    """

    count: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    se_mean: float
    se_variance: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical or exact check."""

    __test__ = False  # not a pytest class, despite the name

    statistic: float
    p_value: float
    decision: str
    context: str

    @property
    def passed(self) -> bool:
        return self.decision == "pass"

    def to_dict(self) -> dict:
        return asdict(self)


def exact_check_report(passed: bool, statistic: float, context: str) -> TestReport:
    """Report for a deterministic pass/fail check; p_value is degenerate."""
    return TestReport(
        statistic=statistic,
        p_value=1.0 if passed else 0.0,
        decision="pass" if passed else "fail",
        context=context,
    )


def summarize(samples: Iterable[float]) -> SampleSummary:
    """Two-pass moment summary.

    Centers on the sample mean before accumulating powers, which keeps the
    higher moments accurate for means far from zero.
    """
    x = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples, dtype=np.float64)
    n = int(x.shape[0])
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(x.mean())
    nan = float("nan")
    if n == 1:
        return SampleSummary(1, mean, nan, nan, nan, nan, nan)
    if bool(np.all(x == x[0])):
        # guard the constant sample: the rounded mean can sit one ulp off
        # the common value, which would turn exact zeros into noise moments
        return SampleSummary(n, float(x[0]), 0.0, nan, nan, 0.0, 0.0)
    d = x - mean
    s2 = float(np.dot(d, d)) / (n - 1)
    m2 = float(np.mean(d**2))
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    se_mean = math.sqrt(s2 / n)
    se_variance = s2 * math.sqrt(2.0 / (n - 1))
    # m2 * m2 is 0 when a tiny spread makes it underflow; the shape moments
    # are then 0/0, so they are undefined.
    if m2 * m2 == 0.0:
        return SampleSummary(n, mean, s2, nan, nan, se_mean, se_variance)
    if n >= 3:
        g1 = m3 / m2**1.5
        skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
    else:
        skew = nan
    if n >= 4:
        g2_core = m4 / (m2 * m2)
        kurt = (n - 1.0) / ((n - 2.0) * (n - 3.0)) * ((n + 1.0) * g2_core - 3.0 * (n - 1.0))
    else:
        kurt = nan
    return SampleSummary(n, mean, s2, skew, kurt, se_mean, se_variance)


def kolmogorov_sf(y: float) -> float:
    """Survival function of the Kolmogorov distribution.

    For y >= 1 the alternating series Q(y) = 2 sum_{j>=1} (-1)^(j-1)
    exp(-2 j^2 y^2) converges in a handful of terms. Below 1 it needs
    O(1/y) terms, so the theta-dual form of the CDF is used instead:
    P(K <= y) = sqrt(2 pi)/y sum_{j>=1} exp(-(2j-1)^2 pi^2 / (8 y^2)).
    """
    if y <= 0.0:
        return 1.0
    if y < 1.0:
        total = 0.0
        for j in range(1, 21):
            term = math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8.0 * y * y))
            total += term
            if term < 1e-18 * max(total, 1e-300):
                break
        cdf = math.sqrt(2.0 * math.pi) / y * total
        return min(1.0, max(0.0, 1.0 - cdf))
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * y * y)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, total))


def gaussian_cdf(x: np.ndarray, mean: float, variance: float) -> np.ndarray:
    """CDF of N(mean, variance), elementwise."""
    if variance <= 0.0:
        raise ValueError(f"variance must be > 0, got {variance}")
    scale = math.sqrt(2.0 * variance)
    flat = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.array([0.5 * (1.0 + math.erf((v - mean) / scale)) for v in flat])
    return out.reshape(np.shape(x))


def ks_two_sample(a: np.ndarray, b: np.ndarray, context: str = "") -> TestReport:
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    D is the sup-distance between the two empirical CDFs; the p-value is
    the Kolmogorov survival function at sqrt(n_a n_b / (n_a + n_b)) D.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n_a, n_b = a.shape[0], b.shape[0]
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / n_a
    cdf_b = np.searchsorted(b, pooled, side="right") / n_b
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = math.sqrt(n_a * n_b / (n_a + n_b))
    p = kolmogorov_sf(effective * d)
    return _ks_report(d, p, context)


def ks_one_sample(
    samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray], context: str = ""
) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against a law given by its exact CDF.

    cdf maps a sorted array of points to the law's CDF at each of them. It
    is called once, on the first point of every run of equal sorted
    samples, and each value is repeated over its run: a sum of atomic
    colors takes few distinct values, and a CDF is a function of the point.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("sample must be non-empty")
    heads = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    f = np.repeat(cdf(x[heads]), np.diff(heads, append=n))
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    d = float(max(upper.max(), lower.max()))
    p = kolmogorov_sf(math.sqrt(n) * d)
    return _ks_report(d, p, context)


def ks_one_sample_gaussian(
    samples: np.ndarray, mean: float, variance: float, context: str = ""
) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against N(mean, variance)."""
    return ks_one_sample(samples, lambda x: gaussian_cdf(x, mean, variance), context)


def _ks_report(d: float, p: float, context: str) -> TestReport:
    """A KS test passes when its p-value is at least DEFAULT_LEVEL."""
    return TestReport(
        statistic=d,
        p_value=p,
        decision="pass" if p >= DEFAULT_LEVEL else "fail",
        context=context,
    )


def nearest_atoms(samples: np.ndarray, values: Sequence[float], tol: float) -> np.ndarray:
    """Each sample's nearest atom index into values, or -1 where none lies within tol.

    One broadcast |x - v| argmin over every sample and atom. The atoms must
    lie more than 2 tol apart, so at most one atom is within tol of a sample.
    """
    x = np.asarray(samples, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if tol < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    if np.any(np.diff(np.sort(v)) <= 2.0 * tol):
        raise ValueError("atoms are not distinct beyond the assignment tolerance")
    dist = np.abs(x[:, None] - v[None, :])
    bins = np.argmin(dist, axis=1)
    bins[dist.min(axis=1) > tol] = -1
    return bins


def tv_distance_discrete(bins: np.ndarray, weights: Sequence[float]) -> float:
    """Total variation distance between binned samples and an atomic law.

    bins holds each sample's atom index into weights, or -1 for a sample in
    no atom's bin (nearest_atoms); that unassigned mass counts as fully
    missed. np.bincount(bins + 1) counts the cells, cell 0 the unassigned.
    """
    b = np.asarray(bins, dtype=np.int64)
    if b.shape[0] == 0:
        raise ValueError("cannot compare an empty sample")
    if b.min() < -1 or b.max() >= len(weights):
        raise ValueError(f"bins must lie in [-1, {len(weights)}), got {b.min()}..{b.max()}")
    counts = np.bincount(b + 1, minlength=len(weights) + 1).tolist()
    # Hits per atom are compared exactly, then rounded once: float sums of
    # masses like 1/60 can land an ulp above a band such as 0.1.
    total = b.shape[0]
    misfit = sum(abs(Fraction(c, total) - Fraction(w)) for c, w in zip(counts[1:], weights))
    return float((misfit + Fraction(counts[0], total)) / 2)
