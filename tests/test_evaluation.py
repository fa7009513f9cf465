"""Quantile log-ratio metric, U/O/N classification, and summaries."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainfit.evaluation import (
    PAPER_QUANTILES,
    QuantileSet,
    _cell_from_d,
    asinh_axis_transform,
    classify,
    log_ratio_metric,
    summarize,
)
from rainfit.pipeline import METHODS

import oracles


# --- metric -----------------------------------------------------------------


def test_metric_known_values():
    assert log_ratio_metric(2.0, 2.0) == 0.0
    assert log_ratio_metric(2.0 * math.e, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert log_ratio_metric(1.0, 2.0) == pytest.approx(
        math.log(0.5), abs=1e-12
    )


def test_metric_rejects_nonpositive():
    for qm, qe in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            log_ratio_metric(qm, qe)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=100, deadline=None)
def test_metric_scale_invariant(qm, qe, c):
    assert log_ratio_metric(c * qm, c * qe) == pytest.approx(
        log_ratio_metric(qm, qe), abs=1e-10
    )



def test_metric_where_the_quotient_under_or_overflows():
    # 5e-324 / 3 underflows to 0 and 1e300 / 1e-10 overflows to inf: D is
    # then ln q_model - ln q_empirical, finite.
    assert log_ratio_metric(5e-324, 3.0) == pytest.approx(-745.5387, abs=1e-4)
    assert log_ratio_metric(1e300, 1e-10) == pytest.approx(713.8014, abs=1e-4)


# Three ordinary fits and one whose quantiles over one level (0.5 and
# 0.9) divide to 0 or to inf.
EXTREME_QUOTIENTS = [
    ({0.5: 5e-324, 0.9: 1.0}, {0.5: 3.0, 0.9: 4.0}),
    ({0.5: 1e300, 0.9: 2e300}, {0.5: 1e-10, 0.9: 2e-10}),
]


def extreme_quotient_records(estimated, empirical):
    ordinary = [make_record(f"site-{i:03d}", "naveau-mle", {0.5: 2.0 + i, 0.9: 5.0 + i},
                            {0.5: 2.1 + i, 0.9: 5.2 + i}) for i in range(1, 4)]
    return [make_record("site-000", "naveau-mle", estimated, empirical)] + ordinary


@pytest.mark.parametrize("estimated, empirical", EXTREME_QUOTIENTS)
def test_summarize_scores_a_quotient_that_under_or_overflows(estimated, empirical):
    summary = summarize(extreme_quotient_records(estimated, empirical))
    assert summary.excluded == {} and summary.warnings == []
    for p, q in estimated.items():
        cell = summary.cells[("naveau-mle", p)]
        assert cell.n_sites == 4
        assert all(map(math.isfinite, (cell.lo, cell.q1, cell.median, cell.q3, cell.hi)))
        assert log_ratio_metric(q, empirical[p]) in (cell.lo, cell.hi)

# --- classification -------------------------------------------------------------


def test_classify_clear_cases():
    assert classify([-0.1, -0.1, -0.1, -0.1]) == "U"
    assert classify([-1.0, -0.5, 0.5, 1.0]) == "N"
    assert classify([0.2, 0.2, 0.2, 0.2]) == "O"


def test_classify_zero_endpoint_counts_as_containing_zero():
    # Q1 lands exactly on 0: still N, "contains 0" read inclusively.
    assert classify([0.0, 0.0, 0.0, 1.0]) == "N"
    # Q3 exactly 0 likewise.
    assert classify([-1.0, 0.0, 0.0, 0.0]) == "N"


def test_classify_order_invariant():
    values = [0.3, -0.2, 0.7, -0.5, 0.1, 0.9, -0.4]
    expected = classify(values)
    rng = random.Random(5)
    for _ in range(10):
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert classify(shuffled) == expected


def test_classify_refuses_a_nan():
    with pytest.raises(ValueError, match="^sample values must be finite$"):
        classify([0.1, math.nan, 0.2, 0.3])


def test_classify_needs_four_values():
    with pytest.raises(ValueError):
        classify([0.1, 0.2, 0.3])


@given(st.lists(st.sampled_from([-0.5, -0.1, 0.0, 0.1, 0.5]), min_size=4, max_size=12))
@settings(max_examples=200, deadline=None)
def test_summary_cells_classify_like_classify(values):
    assert _cell_from_d(np.array(values)).klass == classify(values)


def numpy_cell(values) -> tuple:
    """Reference for `_cell_from_d`: type-7 quartiles and 1.5 IQR whiskers by numpy."""
    d = np.sort(np.asarray(values, dtype=float))

    def quantile(p):
        h = (d.size - 1) * p + 1.0
        i = int(np.floor(h))
        return float(d[-1]) if i >= d.size else float(d[i - 1] + (h - i) * (d[i] - d[i - 1]))

    q1, med, q3 = quantile(0.25), quantile(0.5), quantile(0.75)
    in_lo = d[d >= q1 - 1.5 * (q3 - q1)]
    in_hi = d[d <= q3 + 1.5 * (q3 - q1)]
    whisker_lo = float(in_lo[0]) if in_lo.size else q1
    whisker_hi = float(in_hi[-1]) if in_hi.size else q3
    return (d.size, med, q1, q3, float(d[0]), float(d[-1]), whisker_lo, whisker_hi)


@given(
    st.lists(
        # + 0.0 turns -0.0, which no log ratio gives, into 0.0: the two sorts
        # may order equal zeros differently.
        st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-1.0, 0.0, 0.25, 3.0])).map(
            lambda x: x + 0.0
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_summary_cells_equal_the_numpy_reference_to_the_bit(values):
    cell = _cell_from_d(values)
    got = (cell.n_sites, cell.median, cell.q1, cell.q3, cell.lo, cell.hi,
           cell.whisker_lo, cell.whisker_hi)
    assert [x.hex() if isinstance(x, float) else x for x in got] == [
        x.hex() if isinstance(x, float) else x for x in numpy_cell(values)
    ]


# --- QuantileSet ------------------------------------------------------------------


def test_quantile_set_default_and_validation():
    assert QuantileSet().probabilities == PAPER_QUANTILES
    with pytest.raises(ValueError):
        QuantileSet(())
    with pytest.raises(ValueError):
        QuantileSet((0.5, 0.5))
    with pytest.raises(ValueError):
        QuantileSet((0.9, 0.5))
    with pytest.raises(ValueError):
        QuantileSet((0.0, 0.5))
    with pytest.raises(ValueError):
        QuantileSet((0.5, 1.0))


@pytest.mark.parametrize("levels", ["0.5", ("0.25", "0.5"), (0.5, True), [np.float64(0.1), "0.9"]])
def test_quantile_set_refuses_a_string_or_a_boolean(levels):
    # float() would read "0.5" as 0.5 and True as 1.0; a string's levels
    # would be its characters.
    with pytest.raises(ValueError, match="^quantile levels must be numbers, got "):
        QuantileSet(levels)


# --- summarize --------------------------------------------------------------------


def make_record(site, method, quantiles, empirical, **kw):
    """A record as `fits.jsonl` stores it: level maps keyed by repr(p)."""
    return {
        "site_id": site,
        "method": method,
        "estimated_quantiles": {repr(p): q for p, q in quantiles.items()},
        "empirical_quantiles": {repr(p): q for p, q in empirical.items()},
        "converged": True,
        "error": None,
        "fit_seconds": 0.01,
        "params": {"kappa": 1.0},
        "n_wet": 500,
        **kw,
    }


def grid_records(n_sites, methods, model_factor=1.0):
    """One converged record per (site, method); model = factor * empirical."""
    records = []
    for i in range(n_sites):
        site = f"site-{i:03d}"
        emp = {p: 1.0 + 10.0 * p + i for p in PAPER_QUANTILES}
        for m in methods:
            records.append(make_record(site, m, {p: model_factor * q for p, q in emp.items()}, emp))
    return records


def test_summarize_identity_is_zero_and_nominal():
    summary = summarize(grid_records(1, ["naveau-mle"]))
    for p in PAPER_QUANTILES:
        cell = summary.cells[("naveau-mle", p)]
        assert cell.median == 0.0
        assert cell.klass == "N"
    assert summary.failures == {"naveau-mle": 0}
    assert summary.n_sites == 1


def test_summarize_shifted_method_is_overestimating():
    factor = math.exp(0.1)
    records = grid_records(6, ["naveau-mle"]) + grid_records(6, ["naveau-pwm"], model_factor=factor)
    summary = summarize(records)
    for p in PAPER_QUANTILES:
        cell = summary.cells[("naveau-pwm", p)]
        assert cell.median == pytest.approx(0.1, abs=1e-12)
        assert cell.klass == "O"
        assert summary.cells[("naveau-mle", p)].klass == "N"


def test_summarize_order_independent():
    records = grid_records(8, ["naveau-mle", "gamma-mixture-2"], 1.1)
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    a = summarize(records)
    b = summarize(shuffled)
    assert a.methods == b.methods
    assert a.cells == b.cells
    assert a.failures == b.failures


def test_summarize_scores_each_fit_against_its_own_empirical_quantiles():
    # Two methods at one site disagree on the empirical quantiles: each is
    # scored against its own record's, whatever the order of the records.
    a = make_record("s0", "naveau-mle", {0.5: 2.0}, {0.5: 2.0})
    b = make_record("s0", "naveau-pwm", {0.5: 2.0}, {0.5: 4.0})
    for records in ([a, b], [b, a]):
        summary = summarize(records)
        assert summary.cells[("naveau-mle", 0.5)].median == 0.0
        assert summary.cells[("naveau-pwm", 0.5)].median == math.log(0.5)


def test_summarize_excludes_a_converged_fit_without_empirical_quantiles():
    # It is dropped at every level, not scored against another method's.
    records = [
        make_record("s0", "naveau-mle", {0.5: 2.0}, {0.5: 2.0}),
        make_record("s0", "naveau-pwm", {0.5: 2.0}, {}, empirical_quantiles=None),
    ]
    summary = summarize(records)
    assert ("naveau-pwm", 0.5) not in summary.cells
    assert summary.excluded == {("naveau-pwm", 0.5): 1}
    assert summary.failures == {"naveau-mle": 0, "naveau-pwm": 0}


def test_summarize_defaults_to_the_recorded_levels_and_names_a_missing_one():
    records = grid_records(2, ["naveau-mle"])
    assert summarize(records).probabilities == PAPER_QUANTILES
    assert summarize(records, QuantileSet((0.5,))).probabilities == (0.5,)
    with pytest.raises(ValueError, match=r"quantile levels 0\.33 are not recorded \(recorded: 0\.01, "):
        summarize(records, QuantileSet((0.33, 0.5)))
    with pytest.raises(ValueError, match="records carry no quantile levels"):
        summarize([{**records[0], "empirical_quantiles": None}])


def test_summarize_counts_failures_and_exclusions():
    records = grid_records(5, ["naveau-mle"])
    # One non-converged fit is excluded from the distribution.
    records[0]["converged"] = False
    # One site's empirical 0.01-quantile is non-positive: dropped at that p.
    records[1]["empirical_quantiles"]["0.01"] = 0.0
    summary = summarize(records)
    assert summary.failures["naveau-mle"] == 1
    assert summary.excluded[("naveau-mle", 0.01)] == 1
    assert summary.cells[("naveau-mle", 0.01)].n_sites == 3
    assert summary.cells[("naveau-mle", 0.5)].n_sites == 4
    assert any("excluded" in w for w in summary.warnings)


# A non-finite fitted quantile sits where the fitted quantiles can still
# increase: +inf at the top level, -inf at the bottom one.
NON_FINITE_AT = [(math.nan, 0.5), (math.inf, 0.99), (-math.inf, 0.01)]


@pytest.mark.parametrize("n_sites", [1, 3])
@pytest.mark.parametrize("side", ["model", "empirical"])
@pytest.mark.parametrize("value, p", NON_FINITE_AT)
def test_summarize_excludes_a_non_finite_quantile_and_names_its_site(n_sites, side, value, p):
    records = grid_records(n_sites, ["naveau-mle"])
    key = "estimated_quantiles" if side == "model" else "empirical_quantiles"
    records[0][key][repr(p)] = value
    summary = summarize(records)
    assert summary.excluded == {("naveau-mle", p): 1}
    assert [w for w in summary.warnings if "site-000" in w] == [
        f"naveau-mle at p={p:g}: 1 site(s) excluded"
        " (missing, non-positive or non-finite quantile): site-000"
    ]
    if n_sites == 1:
        assert ("naveau-mle", p) not in summary.cells
    else:
        cell = summary.cells[("naveau-mle", p)]
        assert cell.n_sites == n_sites - 1 and math.isfinite(cell.median)
    assert all(c.n_sites == n_sites for (_, q), c in summary.cells.items() if q != p)


def test_summarize_names_at_most_five_excluded_sites():
    records = grid_records(7, ["naveau-mle"])
    for record in records:
        record["empirical_quantiles"]["0.5"] = 0.0
    (warning,) = summarize(records).warnings
    assert warning.endswith(": site-000, site-001, site-002, site-003, site-004 and 2 more")


def test_summarize_empty_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_canonical_method_order():
    records = grid_records(4, ["gamma-mixture-4", "naveau-mle", "zzz-custom"])
    summary = summarize(records, order=tuple(METHODS))
    assert summary.methods == ("naveau-mle", "gamma-mixture-4", "zzz-custom")


def failures_and_exclusions():
    records = grid_records(5, ["naveau-mle"])
    records[0]["converged"] = False
    records[1]["empirical_quantiles"]["0.01"] = 0.0
    return records


def a_level_one_record_lacks():
    records = grid_records(3, ["naveau-mle", "naveau-pwm"])
    del records[2]["estimated_quantiles"]["0.99"]
    del records[3]["empirical_quantiles"]["0.25"]
    return records


def a_level_one_record_alone_carries():
    records = grid_records(3, ["naveau-mle", "naveau-pwm"])
    records[4]["empirical_quantiles"]["0.33"] = 2.0
    records[4]["estimated_quantiles"]["0.33"] = 2.2
    return records


def a_non_finite_quantile():
    records = grid_records(3, ["naveau-mle"])
    records[0]["estimated_quantiles"]["0.99"] = math.inf
    return records


# The edge cases of the summarize tests above.  A single pass meets a
# level that some records lack before or after them, depending on order.
EDGE_CASE_RECORD_SETS = {
    "identity": lambda: grid_records(1, ["naveau-mle"]),
    "two-methods": lambda: grid_records(6, ["naveau-mle"]) + grid_records(6, ["naveau-pwm"], 1.1),
    "own-empirical": lambda: [make_record("s0", "naveau-mle", {0.5: 2.0}, {0.5: 2.0}),
                              make_record("s0", "naveau-pwm", {0.5: 2.0}, {0.5: 4.0})],
    "null-empirical": lambda: [make_record("s0", "naveau-mle", {0.5: 2.0}, {0.5: 2.0}),
                               make_record("s0", "naveau-pwm", {0.5: 2.0}, {}, empirical_quantiles=None)],
    "failures-and-exclusions": failures_and_exclusions,
    "a-level-lacking": a_level_one_record_lacks,
    "a-level-alone": a_level_one_record_alone_carries,
    "non-finite": a_non_finite_quantile,
    "under-or-overflow": lambda: extreme_quotient_records(*EXTREME_QUOTIENTS[0]),
}


@pytest.mark.parametrize("qset", [None, QuantileSet((0.5,))], ids=["recorded-levels", "p0.5"])
@pytest.mark.parametrize("name", EDGE_CASE_RECORD_SETS)
def test_summarize_of_an_iterator_equals_summarize_of_the_list(name, qset):
    records = EDGE_CASE_RECORD_SETS[name]()
    expected = summarize(records, qset)
    assert summarize(iter(records), qset) == expected
    assert summarize(iter(records[::-1]), qset) == expected


def test_summary_cell_quartiles_are_ordered():
    cell = summarize(grid_records(9, ["naveau-mle"], model_factor=1.05)).cells[("naveau-mle", 0.5)]
    assert cell.lo <= cell.whisker_lo <= cell.q1 <= cell.median
    assert cell.median <= cell.q3 <= cell.whisker_hi <= cell.hi


# --- axis transform ----------------------------------------------------------------


def test_asinh_axis_transform():
    assert asinh_axis_transform(0.0) == 0.0
    assert asinh_axis_transform(0.3) == -asinh_axis_transform(-0.3)
    assert asinh_axis_transform(1.0) == pytest.approx(
        oracles.ASINH_8, abs=1e-12
    )
    for x, expect in zip((-1.0, 0.0, 1.0), (-oracles.ASINH_8, 0.0, oracles.ASINH_8)):
        assert asinh_axis_transform(x) == pytest.approx(expect, abs=1e-12)
