"""Empirical quantiles (type-7) and probability weighted moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rainfit.egpd import EgpdParams, conditional_pwms, egpd_simulate, empirical_pwms
from rainfit.numerics import RngState, empirical_quantile


def test_estimators_sort_their_input():
    x = np.array([3.0, 1.0, 2.0, 5.0])
    assert empirical_pwms(x) == empirical_pwms(np.sort(x))
    assert empirical_quantile(x, 0.3) == empirical_quantile(np.sort(x), 0.3)


def test_quantile_rank_formula_1_to_100():
    s = np.arange(1.0, 101.0)
    assert empirical_quantile(s, 0.5) == pytest.approx(50.5, abs=1e-12)
    # rank h = 99 * 0.99 + 1 = 99.01, interpolated between 99 and 100.
    assert empirical_quantile(s, 0.99) == pytest.approx(99.01, abs=1e-12)


def test_quantile_constant_sample():
    s = np.full(17, 3.0)
    for p in (0.01, 0.25, 0.5, 0.75, 0.99):
        assert empirical_quantile(s, p) == 3.0


def test_quantile_domain_errors():
    s = np.array([1.0, 2.0])
    for p in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            empirical_quantile(s, p)
    with pytest.raises(ValueError):
        empirical_quantile(np.array([2.0]), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantile_refuses_a_non_finite_sample(bad):
    with pytest.raises(ValueError, match="^sample values must be finite$"):
        empirical_quantile(np.array([1.0, bad, 2.0]), 0.5)


def test_quantile_of_a_sequence_of_levels_is_each_level_to_the_bit(monkeypatch):
    x = egpd_simulate(501, EgpdParams(1.2, 4.0, 0.2), RngState(3))
    levels = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    sorts = []
    real_sort = np.sort
    monkeypatch.setattr(np, "sort", lambda a: sorts.append(1) or real_sort(a))
    together = empirical_quantile(x, levels)
    assert len(sorts) == 1
    assert together == [empirical_quantile(x, p) for p in levels]
    assert all(type(q) is float for q in together)
    assert empirical_quantile(x, []) == []
    with pytest.raises(ValueError):
        empirical_quantile(x, [0.5, 1.0])


def test_quantile_accepts_raw_vectors_with_signs():
    # Quartiles of signed metric values reuse the same rank formula.
    d = np.array([-1.0, -0.5, 0.5, 1.0])
    assert empirical_quantile(d, 0.25) == pytest.approx(-0.625, abs=1e-12)
    assert empirical_quantile(d, 0.75) == pytest.approx(0.625, abs=1e-12)


def test_pwm_hand_values():
    nu = empirical_pwms(np.array([1.0, 2.0, 3.0]))
    assert nu == pytest.approx((2.0, 4.0 / 3.0, 1.0), abs=1e-14)


def test_pwm_zero_order_is_mean():
    g = RngState(seed=21).generator()
    x = g.uniform(0.1, 40.0, size=257)
    assert empirical_pwms(x)[0] == pytest.approx(float(np.mean(x)), rel=1e-14)


def test_pwm_needs_enough_points():
    with pytest.raises(ValueError):
        empirical_pwms(np.array([1.0, 2.0]))


positive_samples = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=60),
    elements=st.floats(min_value=0.01, max_value=1e4),
)


@given(positive_samples, st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=120, deadline=None)
def test_quantile_within_range(xs, p):
    q = empirical_quantile(xs, p)
    assert np.min(xs) <= q <= np.max(xs)


@given(
    positive_samples,
    st.floats(min_value=0.01, max_value=0.49),
    st.floats(min_value=0.5, max_value=0.99),
)
@settings(max_examples=120, deadline=None)
def test_quantile_monotone_in_p(xs, p1, p2):
    assert empirical_quantile(xs, p1) <= empirical_quantile(xs, p2)


@given(positive_samples, st.sampled_from([0.25, 0.5, 4.0, 2.0**-8]))
@settings(max_examples=120, deadline=None)
def test_scale_equivariance_exact_for_binary_scales(xs, c):
    # Powers of two scale float64 exactly, so equivariance is exact.
    assert empirical_quantile(c * xs, 0.7) == c * empirical_quantile(xs, 0.7)
    if xs.size > 2:
        assert empirical_pwms(c * xs) == pytest.approx(
            tuple(c * nu for nu in empirical_pwms(xs)), rel=1e-13
        )


def test_scale_equivariance_general_scale():
    g = RngState(seed=8).generator()
    x = g.uniform(0.5, 30.0, size=101)
    for p in (0.1, 0.5, 0.9):
        assert empirical_quantile(3.0 * x, p) == pytest.approx(
            3.0 * empirical_quantile(x, p), rel=1e-13
        )


def test_pwm_consistency_against_closed_form():
    # n = 1e5 draws; each estimator within 4 Monte-Carlo standard errors of
    # the closed form, with the SE estimated by 20-fold subsampling.
    params = EgpdParams(kappa=1.5, sigma=2.0, xi=0.2)
    x = egpd_simulate(100_000, params, RngState(seed=6))
    folds = x.reshape(20, 5000)
    full = empirical_pwms(x)
    per_fold = np.array([empirical_pwms(f) for f in folds])
    for j in (0, 1, 2):
        se = float(np.std(per_fold[:, j], ddof=1)) / np.sqrt(20.0)
        assert abs(full[j] - conditional_pwms(params, 0.0)[j]) <= 4.0 * se
