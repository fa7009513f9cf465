"""Quantile-based method comparison.

For method m at site s the correspondence metric is
D^p_m(s) = ln(q_model / q_empirical) at quantile level p: positive when the
method overestimates the empirical quantile, negative when it
underestimates.  Per (method, p) the distribution of D across sites is
summarized by its median and quartiles, and classified as underestimating
(U, Q3 < 0), overestimating (O, Q1 > 0), or nominal (N, the IQR contains 0,
endpoints inclusive).

A fit is its record: the dict `pipeline.run_single_fit` returns and
`fits.jsonl` stores, one per line.  `summarize` reads those records as
they are, and scores each fit against the empirical quantiles its own
record carries, so `benchmark` and `report` build the tables from the
same objects.

This module and `report` use the standard library alone, and their types
are named tuples, so `rainfit report` rebuilds the tables without
importing numpy or `dataclasses`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "EvaluationSummary",
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


class QuantileSet(NamedTuple("_Levels", [("probabilities", tuple)])):
    """Strictly ascending probabilities in (0, 1) at which methods are scored.

    Made from a sequence of levels, which it checks (a boolean or a string
    is not a level), or from a `QuantileSet`, which it returns as it is.
    """

    __slots__ = ()

    def __new__(cls, probabilities: Iterable[float] = PAPER_QUANTILES) -> QuantileSet:
        if isinstance(probabilities, QuantileSet):
            return probabilities
        ps = tuple(probabilities)
        # float() reads "0.5" as 0.5 and True as 1.0; a string's levels are its characters.
        if any(isinstance(p, (bool, str)) for p in ps):
            raise ValueError(f"quantile levels must be numbers, got {probabilities!r}")
        ps = tuple(map(float, ps))
        if len(ps) == 0:
            raise ValueError("quantile set must be nonempty")
        if any(not 0.0 < p < 1.0 for p in ps):
            raise ValueError("quantile levels must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError("quantile levels must be strictly ascending")
        return super().__new__(cls, ps)


def log_ratio_metric(q_model: float, q_empirical: float) -> float:
    """D = ln(q_model / q_empirical); zero iff equal, positive iff overestimate.

    Where the quotient underflows to 0 or overflows, D is
    ln q_model - ln q_empirical, which is finite for finite quantiles.
    """
    if not (q_model > 0.0 and q_empirical > 0.0):
        raise ValueError("quantiles must be > 0 (zero empirical quantiles are flagged upstream)")
    ratio = q_model / q_empirical
    if ratio == 0.0 or ratio == math.inf:
        return math.log(q_model) - math.log(q_empirical)
    return math.log(ratio)


def sorted_quantile(x: Sequence[float], p: float) -> float:
    """Type-7 quantile of an ascending sequence: rank h = (n - 1) p + 1.

    Linear interpolation between the order statistics around h, the
    default of R's `quantile`.  This is the package's one quantile rule:
    `numerics.empirical_quantile` validates and sorts, then calls it.
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
    the same type-7 convention as everything else in the package; the
    rule is the one `summarize` applies to each cell.
    """
    d = list(d_values)
    if len(d) < 4:
        raise ValueError("need at least 4 values to classify an IQR")
    return _cell_from_d(d).klass


def asinh_axis_transform(x: float, scale: float = 8.0) -> float:
    """Axis transform asinh(scale * x): odd, monotone, linear near zero."""
    return math.asinh(scale * x)


class SummaryCell(NamedTuple):
    """Distribution of D^p over sites for one (method, p)."""

    n_sites: int
    median: float
    q1: float
    q3: float
    lo: float
    hi: float
    whisker_lo: float
    whisker_hi: float
    klass: str


class EvaluationSummary(NamedTuple):
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
    warnings: list[str]


def _cell_from_d(d_values: Iterable[float]) -> SummaryCell:
    d = sorted(map(float, d_values))
    n = len(d)
    # Quartiles of non-finite values are undefined, as in
    # numerics.empirical_quantile; a single value is its own median and
    # quartiles.
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
        # `classify`, which returns this class, keeps its >= 4 precondition.
        klass="U" if q3 < 0.0 else "O" if q1 > 0.0 else "N",
    )


def _site_list(sites: Sequence[str], shown: int = 5) -> str:
    """The first `shown` site ids, and how many more there are."""
    more = f" and {len(sites) - shown} more" if len(sites) > shown else ""
    return ", ".join(sites[:shown]) + more


def _levels(levels: Mapping[str, float] | None) -> dict[float, float]:
    """A record's level map, its `repr(p)` keys read back as floats."""
    return {float(p): q for p, q in (levels or {}).items()}


def summarize(
    records: Iterable[Mapping],
    qset: QuantileSet | None = None,
    order: Sequence[str] = (),
) -> EvaluationSummary:
    """Aggregate fit records into per-(method, p) distribution statistics.

    Records have the shape `fits.jsonl` stores, level maps keyed by
    `repr(p)`, and each fit is scored against the empirical quantiles its
    own record carries.  `qset` defaults to every level those carry; a
    requested level that no record carries is a ValueError naming it,
    unless no record carries any level (every site too small for
    empirical quantiles), when every cell is blank.

    Only converged fits contribute to D distributions (a converged record
    has no error: `pipeline._check_record`); the rest are counted per
    method in `failures`.  A site is dropped at a single p
    (and counted in `excluded`, with a warning that names it) when the
    empirical or estimated quantile there is missing, non-positive, NaN or
    infinite.  There is one record per (site, method), as `run_fits` and
    `load_records` give them, and their order does not matter: D values
    are sorted, dropped sites are named in id order, and methods come in
    `order`, then any others alphabetically.

    The records are consumed once, in a single pass that keeps none of
    them, so they may come from a generator such as `load_records`.  The
    pass keeps the D lists, the failure counts, the dropped site ids and
    the set of site ids.  Without `qset`, a level first carried by a later
    record drops every converged fit before it at that level.
    """
    site_ids: set[str] = set()
    recorded: set[float] = set()  # the levels the empirical maps carry
    # The levels to score: qset's, or else those recorded so far, a set
    # that grows as the pass goes.
    levels = recorded if qset is None else qset.probabilities
    failures: dict[str, int] = {}
    converged: dict[str, list[str]] = {}  # per method, the sites of its converged fits
    d_lists: dict[str, dict[float, list[float]]] = {}
    dropped: dict[str, dict[float, list[str]]] = {}
    for r in records:
        site, method = r["site_id"], r["method"]
        site_ids.add(site)
        if method not in failures:
            failures[method], converged[method] = 0, []
            d_lists[method] = {p: [] for p in levels}
            dropped[method] = {p: [] for p in levels}
        empirical = _levels(r.get("empirical_quantiles"))
        if qset is None and not empirical.keys() <= recorded:
            # A level first carried here: every converged fit before lacks it.
            for p in empirical.keys() - recorded:
                for m, by_level in d_lists.items():
                    by_level[p], dropped[m][p] = [], list(converged[m])
        recorded.update(empirical)
        if not r["converged"]:
            failures[method] += 1
            continue
        converged[method].append(site)
        estimated = _levels(r["estimated_quantiles"])
        for p, d_list in d_lists[method].items():
            q_m = estimated.get(p, math.nan)
            q_e = empirical.get(p, math.nan)
            # False for a missing (NaN), non-positive or infinite quantile.
            if 0.0 < q_m < math.inf and 0.0 < q_e < math.inf:
                d_list.append(log_ratio_metric(q_m, q_e))
            else:
                dropped[method][p].append(site)

    if not site_ids:
        raise ValueError("no fit results to summarize")
    if qset is None:
        if not recorded:
            raise ValueError("records carry no quantile levels")
        qset = QuantileSet(sorted(recorded))
    missing = sorted(set(qset.probabilities).difference(recorded))
    if missing and recorded:
        raise ValueError(
            f"quantile levels {', '.join(map(repr, missing))} are not recorded"
            f" (recorded: {', '.join(map(repr, sorted(recorded)))})"
        )

    methods = tuple([m for m in order if m in failures] + sorted(set(failures).difference(order)))
    cells: dict[tuple[str, float], SummaryCell] = {}
    excluded: dict[tuple[str, float], int] = {}
    warnings: list[str] = []
    for method in methods:
        for p in qset.probabilities:
            sites = sorted(dropped[method][p])
            if sites:
                excluded[(method, p)] = len(sites)
                warnings.append(
                    f"{method} at p={p:g}: {len(sites)} site(s) excluded"
                    f" (missing, non-positive or non-finite quantile): {_site_list(sites)}"
                )
            if d_lists[method][p]:
                cells[(method, p)] = _cell_from_d(d_lists[method][p])

    return EvaluationSummary(
        methods=methods,
        probabilities=qset.probabilities,
        cells=cells,
        failures={m: failures[m] for m in methods},
        excluded=excluded,
        n_sites=len(site_ids),
        warnings=warnings,
    )
