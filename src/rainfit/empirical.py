"""Empirical quantiles and probability weighted moments.

All quantiles in this package use the linear-interpolation convention with
plotting position h = (n - 1) p + 1 on the sorted sample (the default of R's
`quantile`, type 7).  Benchmark metrics divide by these values, so the
convention is part of the package contract and is documented in the README.
The rule itself is `evaluation.sorted_quantile`, on the standard library
alone, which the D statistics also use.
"""

from __future__ import annotations

import numpy as np

from .evaluation import sorted_quantile

__all__ = ["empirical_pwms", "empirical_quantile"]


def empirical_quantile(sample, p):
    """Type-7 sample quantile: rank h = (n - 1) p + 1, linear interpolation.

    Accepts any vector of at least two finite reals (sign unrestricted; the
    formula itself does not care).  p is a level in (0, 1), giving a float,
    or a sequence of them, giving a list; the sample is sorted once either
    way.
    """
    scalar = np.ndim(p) == 0
    levels = [p] if scalar else list(p)
    if not all(0.0 < q < 1.0 for q in levels):
        raise ValueError("p must lie strictly between 0 and 1")
    x = np.sort(np.asarray(sample, dtype=float))
    if x.size < 2:
        raise ValueError("need at least two observations for a quantile")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample values must be finite")
    quantiles = [sorted_quantile(x, q) for q in levels]
    return quantiles[0] if scalar else quantiles


def empirical_pwms(values) -> tuple[float, float, float]:
    """Unbiased estimators of the probability weighted moments E[Y F(Y)^j], j = 0, 1, 2.

    On the order statistics x_(1) <= ... <= x_(n) of at least three values,

        nu_hat_j = (1/n) * sum_i [ C(i-1, j) / C(n-1, j) ] * x_(i),

    so nu_hat_0 is the sample mean.  The weight ratio of j = 2 is that of
    j = 1 times (i - 2) / (n - 2).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if x.ndim != 1 or n < 3:
        raise ValueError("need at least three observations for the PWMs")
    i = np.arange(1, n + 1, dtype=float)
    w1 = (i - 1.0) / (n - 1.0)
    w2 = w1 * ((i - 2.0) / (n - 2.0))
    return float(np.mean(x)), float(np.mean(w1 * x)), float(np.mean(w2 * x))
