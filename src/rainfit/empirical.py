"""Empirical quantiles and probability weighted moments.

All quantiles in this package use the linear-interpolation convention with
plotting position h = (n - 1) p + 1 on the sorted sample (the default of R's
`quantile`, type 7).  Benchmark metrics divide by these values, so the
convention is part of the package contract and is documented in the README.
The rule itself is `evaluation.sorted_quantile`, on the standard library
alone, which the D statistics also use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import sorted_quantile

__all__ = ["SortedSample", "empirical_pwm", "empirical_quantile"]


@dataclass(frozen=True)
class SortedSample:
    """Ascending, strictly positive sample of wet-day amounts."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sample must be a nonempty vector")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("sample values must be finite and > 0")
        arr = np.sort(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def quantile(self, p: float) -> float:
        return empirical_quantile(self.values, p)


def empirical_quantile(sample: "SortedSample | np.ndarray", p: float) -> float:
    """Type-7 sample quantile: rank h = (n - 1) p + 1, linear interpolation.

    Accepts a SortedSample or any vector of at least two finite reals (sign
    unrestricted; the formula itself does not care).  p must lie in (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if isinstance(sample, SortedSample):
        x = sample.values
    else:
        x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least two observations for a quantile")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample values must be finite")
    return sorted_quantile(x, p)


def empirical_pwm(sample: SortedSample, j: int) -> float:
    """Unbiased estimator of the probability weighted moment E[Y F(Y)^j].

    On the order statistics x_(1) <= ... <= x_(n),

        nu_hat_j = (1/n) * sum_i [ C(i-1, j) / C(n-1, j) ] * x_(i),

    which requires n > j.  j = 0 is the sample mean.
    """
    if j < 0:
        raise ValueError("moment order j must be >= 0")
    x = sample.values
    n = x.size
    if n <= j:
        raise ValueError("need more than j observations")
    if j == 0:
        return float(np.mean(x))
    i = np.arange(1, n + 1, dtype=float)
    w = np.ones(n)
    for k in range(j):
        w *= (i - 1.0 - k) / (n - 1.0 - k)
    return float(np.mean(w * x))
