"""Quantile-based method comparison.

For method m at site s the correspondence metric is
D^p_m(s) = ln(q_model / q_empirical) at quantile level p: positive when the
method overestimates the empirical quantile, negative when it
underestimates.  Per (method, p) the distribution of D across sites is
summarized by its median and quartiles, and classified as underestimating
(U, Q3 < 0), overestimating (O, Q1 > 0), or nominal (N, the IQR contains 0,
endpoints inclusive).

This module and `report` use the standard library alone, so `rainfit
report` rebuilds the tables without importing numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "EvaluationSummary",
    "FitResult",
    "PAPER_QUANTILES",
    "QuantileSet",
    "SummaryCell",
    "asinh_axis_transform",
    "classify",
    "log_ratio_metric",
    "sorted_quantile",
    "summarize",
]


PAPER_QUANTILES: tuple[float, ...] = (0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99)


@dataclass(frozen=True)
class QuantileSet:
    """Strictly ascending probabilities in (0, 1) at which methods are scored."""

    probabilities: tuple[float, ...] = PAPER_QUANTILES

    def __post_init__(self) -> None:
        ps = tuple(float(p) for p in self.probabilities)
        if len(ps) == 0:
            raise ValueError("quantile set must be nonempty")
        if any(not 0.0 < p < 1.0 for p in ps):
            raise ValueError("quantile levels must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError("quantile levels must be strictly ascending")
        object.__setattr__(self, "probabilities", ps)


@dataclass
class FitResult:
    """One (site, method) fit: parameters, quantiles, and diagnostics.

    `estimated_quantiles` maps p to the fitted model's quantile in mm and
    must be strictly increasing in p for converged fits.  `error` is set
    (and `converged` is False) when the fit raised instead of returning.
    `empirical_quantiles` carries the site's own sample quantiles so that
    reports can be rebuilt from the records file alone.
    """

    site_id: str
    method: str
    estimated_quantiles: dict[float, float]
    converged: bool
    fit_seconds: float
    params: dict
    diagnostics: dict = field(default_factory=dict)
    n_wet: int | None = None
    empirical_quantiles: dict[float, float] | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.converged and self.error is None and len(self.estimated_quantiles) > 1:
            qs = [self.estimated_quantiles[p] for p in sorted(self.estimated_quantiles)]
            if any(b <= a for a, b in zip(qs, qs[1:])):
                raise ValueError("converged fit has non-increasing quantiles")

    def to_record(self) -> dict:
        # json.dumps-ready: keys become repr(p) strings, scalars plain Python.
        return {
            "site_id": self.site_id,
            "method": self.method,
            "estimated_quantiles": {repr(float(p)): float(v) for p, v in self.estimated_quantiles.items()},
            "converged": bool(self.converged),
            "fit_seconds": float(self.fit_seconds),
            "params": self.params,
            "diagnostics": self.diagnostics,
            "n_wet": self.n_wet,
            "empirical_quantiles": (
                None
                if self.empirical_quantiles is None
                else {repr(float(p)): float(v) for p, v in self.empirical_quantiles.items()}
            ),
            "error": self.error,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "FitResult":
        emp = record.get("empirical_quantiles")
        return cls(
            site_id=record["site_id"],
            method=record["method"],
            estimated_quantiles={float(k): v for k, v in record["estimated_quantiles"].items()},
            converged=record["converged"],
            fit_seconds=record["fit_seconds"],
            params=record["params"],
            diagnostics=record.get("diagnostics", {}),
            n_wet=record.get("n_wet"),
            empirical_quantiles=None if emp is None else {float(k): v for k, v in emp.items()},
            error=record.get("error"),
        )


def log_ratio_metric(q_model: float, q_empirical: float) -> float:
    """D = ln(q_model / q_empirical); zero iff equal, positive iff overestimate."""
    if not (q_model > 0.0 and q_empirical > 0.0):
        raise ValueError("quantiles must be > 0 (zero empirical quantiles are flagged upstream)")
    return math.log(q_model / q_empirical)


def sorted_quantile(x: Sequence[float], p: float) -> float:
    """Type-7 quantile of an ascending sequence: rank h = (n - 1) p + 1.

    Linear interpolation between the order statistics around h, the
    default of R's `quantile`.  This is the package's one quantile rule:
    `empirical.empirical_quantile` validates and sorts, then calls it.
    The caller guarantees len(x) >= 1 and 0 <= p <= 1.
    """
    h = (len(x) - 1) * p + 1.0
    i = int(h)
    if i >= len(x):
        return float(x[-1])
    return float(x[i - 1] + (h - i) * (x[i] - x[i - 1]))


def classify(d_values) -> str:
    """U/O/N rule on the quartiles of the D distribution across sites.

    U if Q3 < 0 (the whole IQR is below zero), O if Q1 > 0, N otherwise;
    an endpoint exactly at zero counts as containing zero.  Quartiles use
    the same type-7 convention as everything else in the package.
    """
    d = sorted(map(float, d_values))
    if len(d) < 4:
        raise ValueError("need at least 4 values to classify an IQR")
    if not all(map(math.isfinite, d)):
        raise ValueError("sample values must be finite")
    return _iqr_class(sorted_quantile(d, 0.25), sorted_quantile(d, 0.75))


def _iqr_class(q1: float, q3: float) -> str:
    """The U/O/N rule on a quartile pair: U if q3 < 0, O if q1 > 0, else N."""
    if q3 < 0.0:
        return "U"
    if q1 > 0.0:
        return "O"
    return "N"


def asinh_axis_transform(x: float, scale: float = 8.0) -> float:
    """Axis transform asinh(scale * x): odd, monotone, linear near zero."""
    return math.asinh(scale * x)


@dataclass(frozen=True)
class SummaryCell:
    """Distribution of D^p over sites for one (method, p)."""

    n_sites: int
    median: float
    q1: float
    q3: float
    lo: float
    hi: float
    whisker_lo: float
    whisker_hi: float
    klass: str | None


@dataclass
class EvaluationSummary:
    """Per-(method, p) statistics plus bookkeeping of failures/exclusions.

    `failures` counts fits per method that errored or did not converge;
    `excluded` counts converged fits dropped at one p for a missing,
    non-positive or non-finite quantile on either side of the ratio.
    """

    methods: tuple[str, ...]
    probabilities: tuple[float, ...]
    cells: dict[tuple[str, float], SummaryCell]
    failures: dict[str, int]
    excluded: dict[tuple[str, float], int]
    n_sites: int
    warnings: list[str] = field(default_factory=list)


def _cell_from_d(d_values: Iterable[float]) -> SummaryCell:
    d = sorted(map(float, d_values))
    n = len(d)
    # Quartiles of non-finite values are undefined, as in empirical_quantile;
    # a single value is its own median and quartiles.
    if n > 1 and not all(map(math.isfinite, d)):
        raise ValueError("sample values must be finite")
    med = sorted_quantile(d, 0.5)
    q1 = sorted_quantile(d, 0.25)
    q3 = sorted_quantile(d, 0.75)
    iqr = q3 - q1
    # Whiskers end at the most extreme values within 1.5 IQR of the box.
    lo_at = bisect_left(d, q1 - 1.5 * iqr)
    hi_at = bisect_right(d, q3 + 1.5 * iqr)
    return SummaryCell(
        n_sites=n,
        median=med,
        q1=q1,
        q3=q3,
        lo=d[0],
        hi=d[-1],
        whisker_lo=d[lo_at] if lo_at < n else q1,
        whisker_hi=d[hi_at - 1] if hi_at else q3,
        # The U/O/N rule is well defined for any n >= 1 (q1 = q3 = d[0] when
        # degenerate), so summary cells are always classified even though
        # the standalone classify() keeps its >= 4 precondition.
        klass=_iqr_class(q1, q3),
    )


def _site_list(sites: Sequence[str], shown: int = 5) -> str:
    """The first `shown` site ids, and how many more there are."""
    more = f" and {len(sites) - shown} more" if len(sites) > shown else ""
    return ", ".join(sites[:shown]) + more


def summarize(
    results: Iterable[FitResult],
    empirical: Mapping[str, Mapping[float, float]],
    qset: QuantileSet = QuantileSet(),
    order: Sequence[str] = (),
) -> EvaluationSummary:
    """Aggregate fit results into per-(method, p) distribution statistics.

    Only converged, error-free fits contribute to D distributions; the rest
    are counted per method in `failures`.  A site is dropped at a single p
    (and counted in `excluded`, with a warning that names it) when the
    empirical or estimated quantile there is missing, non-positive, NaN or
    infinite.  Output is independent of input ordering: sites are
    processed in sorted id order and methods in `order`, then any others
    alphabetically.
    """
    results = list(results)
    if not results:
        raise ValueError("no fit results to summarize")

    present = {r.method for r in results}
    methods = tuple([m for m in order if m in present] + sorted(present.difference(order)))
    by_method: dict[str, dict[str, FitResult]] = {m: {} for m in methods}
    for r in results:
        by_method[r.method][r.site_id] = r

    cells: dict[tuple[str, float], SummaryCell] = {}
    failures: dict[str, int] = {}
    excluded: dict[tuple[str, float], int] = {}
    warnings: list[str] = []
    site_ids: set[str] = set()

    for method in methods:
        rows = by_method[method]
        site_ids.update(rows)
        ok = [(s, r) for s, r in sorted(rows.items()) if r.converged and r.error is None]
        failures[method] = len(rows) - len(ok)
        # One pass over the sites fills every level's D list.
        d_lists: dict[float, list[float]] = {p: [] for p in qset.probabilities}
        dropped: dict[float, list[str]] = {p: [] for p in qset.probabilities}
        for site, r in ok:
            site_empirical = empirical.get(site, {})
            for p, d_list in d_lists.items():
                q_m = r.estimated_quantiles.get(p, math.nan)
                q_e = site_empirical.get(p, math.nan)
                # False for a missing (NaN), non-positive or infinite quantile.
                if 0.0 < q_m < math.inf and 0.0 < q_e < math.inf:
                    d_list.append(log_ratio_metric(q_m, q_e))
                else:
                    dropped[p].append(site)
        for p, d_list in d_lists.items():
            if dropped[p]:
                excluded[(method, p)] = len(dropped[p])
                warnings.append(
                    f"{method} at p={p:g}: {len(dropped[p])} site(s) excluded"
                    f" (missing, non-positive or non-finite quantile): {_site_list(dropped[p])}"
                )
            if d_list:
                cells[(method, p)] = _cell_from_d(d_list)

    return EvaluationSummary(
        methods=methods,
        probabilities=qset.probabilities,
        cells=cells,
        failures=failures,
        excluded=excluded,
        n_sites=len(site_ids),
        warnings=warnings,
    )
