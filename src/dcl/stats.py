"""Sample summaries and the hypothesis tests used by the harnesses.

Everything here is generic plumbing: moment summaries with standard errors,
Kolmogorov-Smirnov tests with the asymptotic p-value, and total variation
distance between an empirical sample and a law with finitely many atoms.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

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


def ks_two_sample(
    a: np.ndarray, b: np.ndarray, level: float = DEFAULT_LEVEL, context: str = ""
) -> TestReport:
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
    return _ks_report(d, p, level, context)


def ks_one_sample_gaussian(
    samples: np.ndarray,
    mean: float,
    variance: float,
    level: float = DEFAULT_LEVEL,
    context: str = "",
) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against N(mean, variance)."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("sample must be non-empty")
    cdf = gaussian_cdf(x, mean, variance)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    d = float(max(upper.max(), lower.max()))
    p = kolmogorov_sf(math.sqrt(n) * d)
    return _ks_report(d, p, level, context)


def _ks_report(d: float, p: float, level: float, context: str) -> TestReport:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return TestReport(
        statistic=d,
        p_value=p,
        decision="pass" if p >= level else "fail",
        context=context,
    )


def tv_distance_discrete(
    empirical: Mapping[float, float],
    law,
    tol: float | None = None,
) -> float:
    """Total variation distance between an empirical sample and an atomic law.

    The law must expose atoms() -> ((value, weight), ...). Each empirical
    value is assigned to the nearest atom when within tol, otherwise its
    mass counts as fully missed. The default tol is 1e-9 max|atom|, intended
    for samples that sit numerically on the atoms; comparisons of noisy
    sample means should pass an explicit tolerance.
    """
    if not hasattr(law, "atoms"):
        raise ValueError(f"law of type {type(law).__name__} has no atoms to compare against")
    pairs = law.atoms()
    values = np.array([v for v, _ in pairs], dtype=np.float64)
    weights = np.array([w for _, w in pairs], dtype=np.float64)
    if tol is None:
        tol = 1e-9 * float(np.max(np.abs(values))) if np.any(values != 0.0) else 1e-9
    if tol < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    order = np.argsort(values)
    sorted_values = values[order]
    if np.any(np.diff(sorted_values) <= 2.0 * tol):
        raise ValueError("law atoms are not distinct beyond the assignment tolerance")

    total = math.fsum(float(f) for f in empirical.values())
    if total <= 0.0:
        raise ValueError("empirical frequencies must have positive total mass")
    assigned = np.zeros(values.shape[0], dtype=np.float64)
    unassigned = 0.0
    for value, freq in empirical.items():
        mass = float(freq) / total
        idx = int(np.argmin(np.abs(values - float(value))))
        if abs(values[idx] - float(value)) <= tol:
            assigned[idx] += mass
        else:
            unassigned += mass
    return 0.5 * (float(np.sum(np.abs(assigned - weights))) + unassigned)
