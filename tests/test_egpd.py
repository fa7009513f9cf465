"""Extended-GP distribution functions and the four fitting procedures."""

import math
import re
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainfit.egpd import (
    EgpdParams,
    XI_EPS,
    conditional_pwms,
    egpd_cdf,
    egpd_log_pdf,
    egpd_quantile,
    egpd_simulate,
    fit_mle,
    fit_pwm,
    fit_pwm_from_moments,
    gp_cdf,
)
import rainfit.egpd
from rainfit.numerics import RngState

import oracles

SEVEN_P = (0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99)


def max_log_ratio(fitted: EgpdParams, truth: EgpdParams, ps=SEVEN_P) -> float:
    return max(
        abs(math.log(egpd_quantile(p, fitted) / egpd_quantile(p, truth)))
        for p in ps
    )


# --- parameter validation -------------------------------------------------


def test_params_validation():
    EgpdParams(kappa=1.0, sigma=1.0, xi=-0.5)
    EgpdParams(kappa=1.0, sigma=1.0, xi=0.95)
    for bad in (
        dict(kappa=0.0, sigma=1.0, xi=0.1),
        dict(kappa=1.0, sigma=0.0, xi=0.1),
        dict(kappa=1.0, sigma=1.0, xi=-0.51),
        dict(kappa=1.0, sigma=1.0, xi=0.96),
        dict(kappa=float("nan"), sigma=1.0, xi=0.1),
    ):
        with pytest.raises(ValueError):
            EgpdParams(**bad)


def test_params_take_numpy_numbers_as_floats():
    params = EgpdParams(np.float64(1.2), np.int64(5), np.float32(0.5))
    assert params == EgpdParams(1.2, 5.0, 0.5)
    assert all(type(v) is float for v in params.to_dict().values())


def moments_fit(data, threshold):
    """fit_pwm_from_moments of fixed PWMs at threshold; data go unused."""
    return fit_pwm_from_moments(1.2, 0.6, 0.4, threshold)


def model_pwms(data, threshold):
    """conditional_pwms of a fixed model at threshold; data go unused."""
    return conditional_pwms(EgpdParams(2.0, 5.0, 0.2), threshold)


@pytest.mark.parametrize("entry", [fit_mle, fit_pwm, moments_fit, model_pwms])
@pytest.mark.parametrize("threshold, kind", [(True, "a boolean"), ("1", "a str")])
def test_every_entry_point_refuses_a_boolean_or_a_string_threshold(entry, threshold, kind):
    # True would censor at 1 mm, and "1" failed in arithmetic as a TypeError.
    data = egpd_simulate(200, EgpdParams(2.0, 5.0, 0.2), RngState(seed=20))
    with pytest.raises(ValueError, match=f"^'threshold' holds {kind}, not a number: {re.escape(repr(threshold))}$"):
        entry(data, threshold)


@pytest.mark.parametrize("fit", [fit_mle, fit_pwm, moments_fit, model_pwms])
@pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
def test_fits_reject_a_negative_or_non_finite_threshold(fit, threshold):
    data = egpd_simulate(200, EgpdParams(2.0, 5.0, 0.2), RngState(seed=20))
    with pytest.raises(ValueError, match="censoring threshold"):
        fit(data, threshold)


# --- distribution functions -------------------------------------------------


def test_gp_cdf_known_points():
    assert gp_cdf(0.0, 1.0, 0.3) == 0.0
    assert gp_cdf(2.0 * math.log(2.0), 2.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert gp_cdf(2.0, 1.0, 0.5) == pytest.approx(0.75, abs=1e-12)


def test_gp_cdf_saturates_beyond_bounded_support():
    # xi < 0: support ends at -sigma/xi.
    assert gp_cdf(2.0, 1.0, -0.5) == 1.0
    assert gp_cdf(10.0, 1.0, -0.5) == 1.0


def test_gp_cdf_domain_errors():
    with pytest.raises(ValueError):
        gp_cdf(-0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        gp_cdf(1.0, 0.0, 0.1)


def test_egpd_cdf_known_points():
    assert egpd_cdf(2.0, EgpdParams(2.0, 1.0, 0.5)) == pytest.approx(
        0.5625, abs=1e-12
    )
    assert egpd_cdf(math.log(2.0), EgpdParams(3.0, 1.0, 0.0)) == pytest.approx(
        0.125, abs=1e-12
    )
    params1 = EgpdParams(1.0, 2.0, 0.3)
    for y in (0.0, 0.5, 2.0, 11.0):
        assert egpd_cdf(y, params1) == pytest.approx(
            gp_cdf(y, 2.0, 0.3), abs=1e-14
        )


def test_egpd_log_pdf_known_points():
    assert egpd_log_pdf(1.0, EgpdParams(1.0, 1.0, 0.0)) == pytest.approx(
        -1.0, abs=1e-12
    )
    assert egpd_log_pdf(math.log(2.0), EgpdParams(2.0, 1.0, 0.0)) == pytest.approx(
        math.log(0.5), abs=1e-12
    )


def test_egpd_log_pdf_matches_cdf_derivative():
    params = EgpdParams(1.7, 4.0, 0.2)
    y, h = 3.0, 1e-6
    fd = (egpd_cdf(y + h, params) - egpd_cdf(y - h, params)) / (2.0 * h)
    assert math.exp(egpd_log_pdf(y, params)) == pytest.approx(fd, abs=1e-6)


def test_egpd_log_pdf_outside_support():
    with pytest.raises(ValueError):
        egpd_log_pdf(0.0, EgpdParams(1.0, 1.0, 0.1))
    with pytest.raises(ValueError):
        egpd_log_pdf(-1.0, EgpdParams(1.0, 1.0, 0.1))
    # Beyond the bounded upper endpoint the density is zero, not an error.
    assert egpd_log_pdf(3.0, EgpdParams(1.0, 1.0, -0.5)) == -math.inf


def test_egpd_log_pdf_at_kappa_1_is_the_gp_density_where_h_underflows():
    # H(5e-324) underflows to 0; at kappa = 1 the (kappa - 1) ln H term is
    # absent, so the density is the GP's, -ln sigma - (1 + xi) y / sigma.
    assert egpd_log_pdf(5e-324, EgpdParams(1.0, 10.0, 0.1)) == -math.log(10.0)
    got = egpd_log_pdf(np.array([5e-324, 1.0]), EgpdParams(1.0, 10.0, 0.1))
    assert got[0] == -math.log(10.0)
    assert got[1] == pytest.approx(math.log(0.1) - 11.0 * math.log1p(0.01), rel=1e-14)


def test_egpd_cdf_gives_a_scalar_the_bits_of_the_same_value_in_an_array():
    # The grid covers y = 0, the |xi| < 1e-8 branch, and points at and
    # beyond the support's end -sigma/xi = 8 of xi = -0.5.
    ys = (0.0, 1e-300, 1e-9, 0.37, 1.0, 3.3, 8.0, 9.5, 41.0, 1e4)
    for kappa in (0.013, 0.5, 1.0, 1.7, 6.0, 160.0):
        for xi in (-0.5, -0.2, -5e-9, 0.0, 5e-9, 0.3, 0.95):
            params = EgpdParams(kappa, 4.0, xi)
            for y in ys:
                assert egpd_cdf(y, params) == egpd_cdf(np.array([y]), params)[0]
    rng = np.random.default_rng(7)
    for _ in range(2000):
        kappa, sigma = np.exp(rng.uniform(-3.0, 3.0, 2))
        params = EgpdParams(kappa, sigma, rng.uniform(-0.5, 0.95))
        y = float(rng.exponential(3.0 * sigma))
        assert egpd_cdf(y, params) == egpd_cdf(np.array([y]), params)[0]


def test_egpd_quantile_known_points():
    # kappa = 1 closed form (sigma/xi)[(1-p)^{-xi} - 1] at the top of the
    # xi box.
    assert egpd_quantile(0.5, EgpdParams(1.0, 1.0, 0.95)) == pytest.approx(
        (0.5 ** -0.95 - 1.0) / 0.95, abs=1e-12
    )
    # Inverse of the cdf example F(2) = 0.5625 above.
    assert egpd_quantile(0.5625, EgpdParams(2.0, 1.0, 0.5)) == pytest.approx(
        2.0, abs=1e-12
    )
    assert egpd_quantile(0.5, EgpdParams(1.0, 2.0, 0.0)) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-12
    )
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            egpd_quantile(p, EgpdParams(1.0, 1.0, 0.1))


PARAM_GRID = [
    EgpdParams(kappa, sigma, xi)
    for kappa in (0.5, 1.0, 2.0)
    for sigma in (0.5, 5.0)
    for xi in (-0.2, 0.0, 0.3)
]


def test_quantile_cdf_roundtrip_grid():
    ps = np.concatenate(
        [[0.001], np.linspace(0.01, 0.99, 99), [0.999]]
    )
    t0 = time.perf_counter()
    for params in PARAM_GRID:
        for p in ps:
            q = egpd_quantile(float(p), params)
            assert abs(egpd_cdf(q, params) - p) <= 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_xi_branch_continuity():
    for kappa in (0.5, 1.0, 2.0):
        base = EgpdParams(kappa, 3.0, 0.0)
        for xi in (XI_EPS, -XI_EPS):
            near = EgpdParams(kappa, 3.0, xi)
            for p in (0.01, 0.5, 0.99, 0.999):
                q0 = egpd_quantile(p, base)
                q1 = egpd_quantile(p, near)
                assert abs(q1 / q0 - 1.0) <= 1e-5


@given(
    st.floats(min_value=0.002, max_value=0.49),
    st.floats(min_value=0.5, max_value=0.998),
    st.sampled_from(PARAM_GRID),
)
@settings(max_examples=150, deadline=None)
def test_quantile_strictly_increasing(p_lo, p_hi, params):
    assert egpd_quantile(p_lo, params) < egpd_quantile(p_hi, params)


def test_density_integrates_to_one():
    # y = t^2 removes the y -> 0 singularity of the kappa < 1 density.
    for params in PARAM_GRID:
        hi = egpd_quantile(0.9999, params)

        def integrand(t):
            y = np.maximum(t * t, 1e-300)
            return np.exp(egpd_log_pdf(y, params)) * 2.0 * t

        total = oracles.gauss_legendre_integrate(
            integrand, 0.0, math.sqrt(hi), panels=64
        )
        assert 0.9999 - 1e-4 <= total <= 1.0 + 1e-6


# --- simulation ---------------------------------------------------------------


def test_simulate_refuses_a_negative_count():
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        egpd_simulate(-1, EgpdParams(2.0, 5.0, 0.2), RngState(seed=4))


def test_simulate_empty_and_deterministic():
    params = EgpdParams(2.0, 5.0, 0.2)
    assert egpd_simulate(0, params, RngState(seed=4)).size == 0
    a = egpd_simulate(500, params, RngState(seed=4))
    b = egpd_simulate(500, params, RngState(seed=4))
    assert np.array_equal(a, b)
    assert np.all(a > 0.0)


def test_simulate_ks_against_cdf():
    params = EgpdParams(2.0, 5.0, 0.2)
    x = egpd_simulate(10_000, params, RngState(seed=12))
    assert oracles.ks_ok(x, lambda v: egpd_cdf(v, params))


def test_simulate_gp_mean():
    # kappa = 1 reduces to a GP; mean sigma/(1 - xi) at xi = 0.25.
    params = EgpdParams(1.0, 1.0, 0.25)
    x = egpd_simulate(1_000_000, params, RngState(seed=15))
    se = float(np.std(x, ddof=1)) / math.sqrt(x.size)
    assert abs(float(np.mean(x)) - 1.0 / 0.75) <= 3.0 * se


# --- theoretical PWMs -----------------------------------------------------------


def test_pwm_gp_mean_exact():
    assert conditional_pwms(EgpdParams(1.0, 1.0, 0.5), 0.0)[0] == pytest.approx(
        2.0, abs=1e-10
    )
    for xi in (-0.2, 0.1, 0.5):
        assert conditional_pwms(EgpdParams(1.0, 2.0, xi), 0.0)[0] == pytest.approx(
            2.0 / (1.0 - xi), abs=1e-10
        )


def test_pwm_closed_form_frozen_value():
    got = conditional_pwms(EgpdParams(2.0, 1.0, 0.25), 0.0)[0]
    assert got == pytest.approx(oracles.PWM_K2_S1_XI025_J0, rel=1e-12)


def test_pwm_exponential_branch_harmonic_numbers():
    for j, expect in enumerate(oracles.PWM_K2_S1_XI0):
        got = conditional_pwms(EgpdParams(2.0, 1.0, 0.0), 0.0)[j]
        assert got == pytest.approx(expect, rel=1e-10)
    # j=1 for the plain exponential: integral of -ln(1-u) u du = 3/4.
    assert conditional_pwms(EgpdParams(1.0, 1.0, 0.0), 0.0)[1] == pytest.approx(
        0.75, rel=1e-10
    )


def test_pwm_matches_quantile_quadrature():
    # nu_j = integral_0^1 Q(u) u^j du, via the u = 1 - (1 - t)^4
    # substitution that tames the endpoint where xi > 0.
    for kappa in (0.5, 1.0, 2.0):
        for xi in (-0.2, 0.1, 0.5):
            params = EgpdParams(kappa, 1.0, xi)
            for j in (0, 1, 2):

                def integrand(t):
                    u = 1.0 - (1.0 - t) ** 4
                    du = 4.0 * (1.0 - t) ** 3
                    u = np.clip(u, 1e-300, 1.0 - 2.0**-53)
                    return egpd_quantile(u, params) * u**j * du

                quad = oracles.gauss_legendre_integrate(integrand, 0.0, 1.0, panels=96)
                closed = conditional_pwms(params, 0.0)[j]
                assert closed == pytest.approx(quad, rel=1e-6)


def _mp_pwm_shape(kappa: float, xi: float, j: int):
    """s_j = (kappa B(kappa m, 1 - xi) - 1/m) / xi at 50 digits, m = j + 1."""
    with mp.workdps(50):
        k, x, m = mp.mpf(kappa), mp.mpf(xi), j + 1
        a = k * m + 1
        if xi == 0.0:
            return (mp.digamma(a) + mp.euler) / m
        delta = mp.loggamma(a) + mp.loggamma(1 - x) - mp.loggamma(a - x)
        return mp.expm1(delta) / (m * x)


XI_GRID = [round(-0.5 + 0.01 * i, 2) for i in range(146)]  # -0.5 .. 0.95


def _worst_relative_error(pwms, kappa: float, scale: float = 1.0) -> float:
    """Worst relative error of pwms(xi) against scale * s_j(kappa, xi) over XI_GRID."""
    worst = 0.0
    for xi in XI_GRID:
        got = pwms(xi)
        for j in (0, 1, 2):
            ref = scale * _mp_pwm_shape(kappa, xi, j)
            worst = max(worst, float(abs((got[j] - ref) / ref)))
    return worst


# --- MLE ------------------------------------------------------------------------


def _profile_point(sigma: float, xi: float, y_max: float) -> np.ndarray:
    lo = rainfit.egpd._xi_floor(sigma, y_max)
    return np.array([math.log(sigma), (xi - lo) / (0.95 - lo)])


def test_profile_loglik_gradient_matches_central_differences():
    data = egpd_simulate(800, EgpdParams(1.5, 4.0, 0.15), RngState(seed=31))
    y_max = float(np.max(data))
    exceed = data[data >= 1.0]
    cases = (
        (data, 0, 0.0),
        (exceed, data.size - exceed.size, 1.0),
    )
    points = [
        (4.0, 0.15),
        (2.0, 1e-12),
        (9.0, 0.8),
        # Close to the xi < 0 support edge: 1 + xi max(y) / sigma = 0.01.
        (0.4 * y_max, -0.99 * 0.4),
        (0.6 * y_max, -0.45),
    ]
    for sample, n_below, threshold in cases:
        evaluate = rainfit.egpd._profile_loglik(sample, n_below, threshold)
        for sigma, xi in points:
            x = _profile_point(sigma, xi, y_max)
            value, grad, _, _ = evaluate(x)
            assert math.isfinite(value)
            for i in (0, 1):
                step = np.zeros(2)
                step[i] = 1e-7
                fd = (evaluate(x + step)[0] - evaluate(x - step)[0]) / 2e-7
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_profile_loglik_is_the_public_log_likelihood_at_kappa_hat(threshold):
    # The MLE objective, times -n, is the log-likelihood that egpd_log_pdf
    # and egpd_cdf give: the exceedances' log densities plus n_below times
    # ln F(threshold), at the profiled kappa-hat, which maximizes it.
    data = egpd_simulate(600, EgpdParams(0.8, 5.0, 0.15), RngState(seed=33))
    exceed = data[data >= threshold]
    n_below = data.size - exceed.size
    assert (n_below > 0) == (threshold > 0.0)
    evaluate = rainfit.egpd._profile_loglik(exceed, n_below, threshold)

    def public(kappa, sigma, xi):
        params = EgpdParams(kappa, sigma, xi)
        censored = n_below * math.log(egpd_cdf(threshold, params)) if n_below else 0.0
        return math.fsum(egpd_log_pdf(exceed, params).tolist()) + censored

    y_max = float(np.max(exceed))
    points = [(2.0, 0.0), (2.0, 0.4), (5.0, 1e-12), (5.0, 0.15), (12.0, 0.8),
              # xi < 0 keeps max(y) inside the support only at a large sigma.
              (0.5 * y_max, -0.3), (0.6 * y_max, -0.5)]
    for sigma, xi in points:
        value, _, kappa, xi_used = evaluate(_profile_point(sigma, xi, y_max))
        assert xi_used == pytest.approx(xi, abs=1e-12)
        loglik = public(kappa, sigma, xi_used)
        assert -value * data.size == pytest.approx(loglik, rel=1e-12, abs=0.0)
        for factor in (0.999, 1.001):
            assert public(kappa * factor, sigma, xi_used) < loglik


def test_profile_loglik_is_finite_on_the_whole_box():
    # Every (ln sigma, v) L-BFGS-B may try keeps max(y) inside the support.
    data = egpd_simulate(500, EgpdParams(0.7, 2.0, -0.2), RngState(seed=32))
    evaluate = rainfit.egpd._profile_loglik(data, 0, 0.0)
    for log_sigma in (-12.0, -3.0, 0.0, math.log(float(np.max(data)) / 2.0), 5.0, 12.0):
        for v in (0.0, 1e-12, 0.3, 1.0):
            value, grad, kappa, xi = evaluate(np.array([log_sigma, v]))
            assert math.isfinite(value) and np.all(np.isfinite(grad))
            assert -0.5 <= xi <= 0.95 and math.exp(-12) <= kappa <= math.exp(12)


def test_profile_loglik_is_inf_where_the_gp_cdf_underflows():
    # At sigma = 1, H(5e-324) is subnormal and 1 / H overflows: the
    # gradient would be infinite or NaN, so the point is walled off.  No
    # start of the fit has a finite likelihood, and it says so.
    data = np.array([5e-324] * 100 + [1.0] * 100)
    evaluate = rainfit.egpd._profile_loglik(data, 0, 0.0)
    with np.errstate(all="ignore"):
        value, grad, _, _ = evaluate(np.array([0.0, 0.5]))
    assert value == math.inf and grad.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="not finite at any start"):
        fit_mle(data)


@pytest.mark.parametrize("fit", [fit_mle, fit_pwm])
def test_fits_refuse_a_sample_whose_mean_overflows(fit):
    with pytest.raises(ValueError, match="moments are out of float range"):
        fit(np.array([1e308, 1.5e308] * 100))



@pytest.mark.parametrize("fit", [fit_mle, fit_pwm])
@pytest.mark.parametrize("pair, mean", [((1e-300, 2e-300), "1.5e-300"), ((1e300, 2e300), "1.5e+300")])
def test_fits_refuse_a_sample_whose_mean_is_outside_the_sigma_box(fit, pair, mean):
    # sigma is boxed to [e^-12, e^12] mm: a fit of a sample whose mean lies
    # outside would stop at the box's edge with quantiles that mean nothing.
    with pytest.raises(ValueError, match=rf"{re.escape(mean)} mm, is outside sigma's range"
                                         r" \[6\.14e-06, 1\.63e\+05\] mm"):
        fit(np.array(pair * 100), restarts=1)

def test_mle_recovers_simulated_parameters():
    truth = EgpdParams(2.0, 5.0, 0.2)
    data = egpd_simulate(20_000, truth, RngState(seed=7))
    t0 = time.perf_counter()
    fitted, diag = fit_mle(data)
    elapsed = time.perf_counter() - t0
    assert diag["converged"]
    assert elapsed < 10.0
    assert max_log_ratio(fitted, truth) <= 0.02


def test_mle_on_gp_data_finds_kappa_near_one():
    truth = EgpdParams(1.0, 2.0, 0.15)
    data = egpd_simulate(20_000, truth, RngState(seed=9))
    fitted, diag = fit_mle(data)
    assert diag["converged"]
    assert 0.8 <= fitted.kappa <= 1.25


def test_mle_never_worse_than_simplex_on_c3():
    # -64006.51675447177 is the log-likelihood the multistart simplex search
    # reached on acceptance criterion C3's fixture.
    data = egpd_simulate(20_000, EgpdParams(2.0, 5.0, 0.2), RngState(seed=7))
    _, diag = fit_mle(data, rng=RngState(seed=7).derive(1))
    assert diag["converged"]
    assert diag["objective"] >= -64006.51675447177


def test_mle_constant_data_does_not_crash():
    fitted, diag = fit_mle(np.full(200, 1.0))
    assert isinstance(fitted, EgpdParams)
    assert (not diag["converged"]) or diag["boundary_hit"]


def test_mle_rejects_bad_data():
    with pytest.raises(ValueError):
        fit_mle(np.array([]))
    with pytest.raises(ValueError):
        fit_mle(np.array([1.0, -2.0, 3.0]))


# --- censored MLE -----------------------------------------------------------------


def test_censored_mle_inactive_threshold_is_bitwise_plain_mle():
    data = egpd_simulate(2_000, EgpdParams(2.0, 5.0, 0.2), RngState(seed=20))
    plain, plain_diag = fit_mle(data)
    cens, cens_diag = fit_mle(data, 0.5 * float(np.min(data)))
    assert (cens.kappa, cens.sigma, cens.xi) == (
        plain.kappa,
        plain.sigma,
        plain.xi,
    )
    assert cens_diag["objective"] == plain_diag["objective"]
    assert cens_diag["restart_index"] == plain_diag["restart_index"]


def test_censored_mle_handles_discretized_data():
    truth = EgpdParams(2.0, 5.0, 0.2)
    raw = egpd_simulate(20_000, truth, RngState(seed=13))
    data = np.round(raw / 0.2) * 0.2
    data = data[data > 0.0]
    fitted, diag = fit_mle(data, 1.0)
    assert diag["converged"]
    d99 = abs(
        math.log(egpd_quantile(0.99, fitted) / egpd_quantile(0.99, truth))
    )
    assert d99 <= 0.05


def _c5_discretized_sample() -> np.ndarray:
    raw = egpd_simulate(20_000, EgpdParams(2.0, 5.0, 0.2), RngState(seed=13))
    data = np.round(raw / 0.2) * 0.2
    return data[data > 0.0]


def test_censored_mle_never_worse_than_simplex_on_c5():
    # -64422.60706338743 is what the simplex search reached on acceptance
    # criterion C5's discretized fixture.
    _, diag = fit_mle(_c5_discretized_sample(), 1.0, rng=RngState(seed=13).derive(1))
    assert diag["converged"]
    assert diag["objective"] >= -64422.60706338743


def test_censored_mle_error_paths():
    with pytest.raises(ValueError):
        fit_mle(np.full(200, 0.5), 1.0)
    # Fewer than 30 exceedances is not enough signal above the threshold.
    data = np.concatenate([np.full(200, 0.5), np.full(20, 2.0)])
    with pytest.raises(ValueError):
        fit_mle(data, 1.0)


# --- PWM ---------------------------------------------------------------------------


def test_pwm_fixed_point_from_exact_moments():
    truth = EgpdParams(2.0, 1.0, 0.25)
    nu = [conditional_pwms(truth, 0.0)[j] for j in (0, 1, 2)]
    fitted, diag = fit_pwm_from_moments(nu[0], nu[1], nu[2])
    assert diag["converged"]
    assert fitted.kappa == pytest.approx(2.0, abs=1e-4)
    assert fitted.sigma == pytest.approx(1.0, abs=1e-4)
    assert fitted.xi == pytest.approx(0.25, abs=1e-4)


def test_pwm_recovers_simulated_parameters():
    truth = EgpdParams(0.8, 2.0, 0.1)
    data = egpd_simulate(50_000, truth, RngState(seed=3))
    fitted, diag = fit_pwm(data)
    assert diag["converged"]
    assert max_log_ratio(fitted, truth) <= 0.05


def test_pwm_residual_never_above_simplex_on_c4():
    # 3.252971275318998e-09 is the residual the simplex search left on
    # acceptance criterion C4's fixture.
    data = egpd_simulate(50_000, EgpdParams(2.0, 5.0, 0.2), RngState(seed=3))
    _, diag = fit_pwm(data, rng=RngState(seed=3).derive(1))
    assert diag["converged"]
    assert diag["residual"] <= 3.252971275318998e-09


def test_pwm_exponential_data():
    from rainfit.egpd import empirical_pwms

    truth = EgpdParams(1.0, 2.0, 0.0)
    data = egpd_simulate(20_000, truth, RngState(seed=5))
    nu0, nu1, _ = empirical_pwms(data)
    ratio = nu1 / nu0
    assert ratio == pytest.approx(0.75, abs=0.01)
    fitted, diag = fit_pwm(data)
    assert diag["converged"]
    assert abs(fitted.xi) <= 0.05


# --- censored PWM ---------------------------------------------------------------------


def test_conditional_pwms_against_exact_integrals():
    got = conditional_pwms(EgpdParams(2.0, 5.0, 0.2), 1.0)
    for g, expect in zip(got, oracles.COND_PWMS_K2_S5_XI02_YL1):
        assert g == pytest.approx(expect, rel=1e-12)
    assert egpd_cdf(1.0, EgpdParams(2.0, 5.0, 0.2)) == pytest.approx(
        oracles.P_L_K2_S5_XI02_YL1, rel=1e-12
    )


def test_conditional_pwms_at_zero_threshold_are_the_plain_pwms():
    # p_L = 0 makes Y | Y >= 0 the whole distribution; xi up to 0.95 puts
    # the strongest (1 - u)^(-xi) singularity the fitting box allows at u = 1.
    for kappa in (0.3, 1.0, 2.0, 8.0):
        for xi in (-0.45, -0.2, 0.0, 0.1, 0.3, 0.6, 0.8, 0.95):
            params = EgpdParams(kappa, 3.0, xi)
            got = conditional_pwms(params, 0.0)
            for j in (0, 1, 2):
                ref = 3.0 * float(_mp_pwm_shape(kappa, xi, j))
                assert got[j] == pytest.approx(ref, rel=1e-12)


def _mp_conditional_pwms(kappa: float, sigma: float, xi: float, threshold: float):
    """nu_j^c at 60 digits, integrated over v = 1 - u^(1/kappa) on (0, v_L).

    There u = (1 - v)^kappa, du = -kappa (1 - v)^(kappa - 1) dv and
    Q = (sigma/xi)(v^(-xi) - 1), with v_L = 1 - H(threshold).
    """
    with mp.workdps(60):
        k, s, x, c = (mp.mpf(v) for v in (kappa, sigma, xi, threshold))
        v_l = mp.exp(-c / s) if xi == 0.0 else (1 + x * c / s) ** (-1 / x)
        p_l = (1 - v_l) ** k
        cache = {}  # the three integrals share their nodes

        def parts(v):
            if v not in cache:
                q = -s * mp.log(v) if xi == 0.0 else s / x * (v ** (-x) - 1)
                t = ((1 - v) ** k - p_l) / (1 - p_l)
                cache[v] = (q * k * (1 - v) ** (k - 1) / (1 - p_l), t)
            return cache[v]

        out = []
        for j in (0, 1, 2):

            def integrand(v):
                weight, t = parts(v)
                return weight * t**j

            out.append(float(mp.quad(integrand, [0, v_l / 2, v_l])))
        return out, float(p_l)


def test_conditional_pwms_against_60_digit_quadrature():
    worst = 0.0
    for kappa in (0.09, 1.0, 6.0):
        for xi in (-0.45, -1e-3, 0.0, 1e-3, 0.3, 0.6):
            params = EgpdParams(kappa, 4.0, xi)
            for p_target in (0.5, 0.95, 0.99):
                threshold = float(egpd_quantile(p_target, params))
                ref, p_l = _mp_conditional_pwms(kappa, 4.0, xi, threshold)
                assert p_l == pytest.approx(p_target, rel=1e-9)
                got = conditional_pwms(params, threshold)
                err = max(abs(g - r) / abs(r) for g, r in zip(got, ref))
                worst = max(worst, err)
    assert worst <= 1e-12


@pytest.mark.parametrize("kappa, bound", [(math.exp(-12.0), 2e-3), (1e-3, 1.5e-6)])
def test_conditional_pwms_at_zero_threshold_and_tiny_kappa_stay_within_their_known_error(
    kappa, bound
):
    # With p_L = 0 and tiny kappa the mass sits within about kappa of u = 1,
    # which the tanh-sinh rule resolves coarsely: the worst errors over the
    # grid were 6.1e-4 at the fit clamp kappa = e^-12 and 3.7e-7 at 1e-3.
    # The plain PWM fit solves at threshold 0, so a fit driven to the
    # clamp meets this error; the bounds keep it where it is.
    sigma = 3.0
    worst = _worst_relative_error(
        lambda xi: conditional_pwms(EgpdParams(kappa, sigma, xi), 0.0), kappa, scale=sigma
    )
    assert worst <= bound


def test_conditional_pwms_continuous_across_xi_zero():
    for kappa in (0.09, 1.0, 6.0):
        at_zero = conditional_pwms(EgpdParams(kappa, 4.0, 0.0), 1.0)
        for delta in (1e-6, 1e-9, 1e-12):
            for sign in (-1.0, 1.0):
                near = conditional_pwms(EgpdParams(kappa, 4.0, sign * delta), 1.0)
                for a, b in zip(near, at_zero):
                    # |d nu / d xi| is a few nu here; allow 100 nu per unit xi.
                    assert abs(a - b) <= 100.0 * delta * b + 1e-14 * b


def test_conditional_pwms_error_paths():
    params = EgpdParams(2.0, 5.0, -0.25)  # support ends at 20
    for bad in (-1.0, float("nan"), float("inf"), 20.0, 25.0):
        with pytest.raises(ValueError):
            conditional_pwms(params, bad)


def test_censored_mass_is_egpd_cdf_to_the_bit():
    # conditional_pwms reads p_L = F(threshold) from this helper; it must
    # agree with the public CDF to the bit.
    grid = np.concatenate([[0.0, 1e-9, 0.3, 1.0], np.geomspace(1e-3, 400.0, 57)])
    for kappa in (0.09, 1.0, 6.0):
        for xi in (-0.45, -1e-9, 0.0, 1e-9, 0.2, 0.95):
            params = EgpdParams(kappa, 5.0, xi)
            for c in grid:
                p_l, one_minus_p = rainfit.egpd._censored_mass(float(c), params)
                assert p_l == egpd_cdf(float(c), params)
                expect = 1.0 - p_l if p_l < 0.5 else None
                if expect is not None:
                    assert one_minus_p == pytest.approx(expect, rel=1e-14)
    # 1 - F near F = 1, where 1 - p_l would cancel: kappa = 2, sigma = 5,
    # xi = 0.2 at c = 1e4 has 1 - F = 1 - (1 - 2001^-5)^2 (mpmath, 40 digits).
    with mp.workdps(40):
        expect = float(1 - (1 - mp.mpf(2001) ** -5) ** 2)
    got = rainfit.egpd._censored_mass(1e4, EgpdParams(2.0, 5.0, 0.2))[1]
    assert got == pytest.approx(expect, rel=1e-13)


def array_censored_mass(threshold, params):
    """`_censored_mass` as it was computed before it ran on one float: on
    one-element arrays through `_gp_tail`."""
    log_tail = rainfit.egpd._gp_tail(np.array([threshold]), params.sigma, params.xi)
    h = -np.expm1(-log_tail)
    tail, h0 = float(log_tail[0]), float(h[0])
    if tail > math.log(2.0):
        log_h = math.log1p(-math.exp(-tail))
    else:
        log_h = math.log(h0) if h0 > 0.0 else -math.inf
    return float(np.power(h, params.kappa)[0]), -math.expm1(params.kappa * log_h)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(log_kappa=st.floats(-12.0, 12.0), log_sigma=st.floats(-12.0, 12.0),
       xi=st.one_of(st.floats(-0.5, 0.95), st.floats(-2e-8, 2e-8)),
       threshold=st.one_of(st.just(0.0), st.floats(-20.0, 12.0).map(math.exp)))
def test_censored_mass_on_one_float_keeps_the_array_path_s_bits(log_kappa, log_sigma, xi, threshold):
    # Over the fit box, and xi on both sides of the exponential branch.
    params = EgpdParams(math.exp(log_kappa), math.exp(log_sigma), xi)
    got = rainfit.egpd._censored_mass(threshold, params)
    assert got == array_censored_mass(threshold, params)
    assert got[0] == egpd_cdf(threshold, params)


def test_censored_pwm_fit_calls_conditional_pwms_through_module_global(monkeypatch):
    # Benchmark tracing wraps rainfit.egpd.conditional_pwms in place; the fit
    # must look the name up at call time or those counters read zero.
    calls = []
    original = rainfit.egpd.conditional_pwms

    def counting(params, threshold):
        calls.append(threshold)
        return original(params, threshold)

    monkeypatch.setattr(rainfit.egpd, "conditional_pwms", counting)
    data = egpd_simulate(400, EgpdParams(0.8, 4.0, 0.15), RngState(seed=21))
    fit_pwm(data, 1.0, restarts=0)
    assert len(calls) > 0
    assert set(calls) == {1.0}
    # The plain fit solves the same system at threshold 0.
    calls.clear()
    fit_pwm(data, restarts=0)
    assert len(calls) > 0
    assert set(calls) == {0.0}



def test_pwm_residuals_beyond_the_support_use_the_point_mass_limit(monkeypatch):
    # Moments whose mean sits near the threshold drive some trial points to
    # a bounded tail (xi < 0) that ends at or below the threshold, where
    # conditional_pwms raises: the residuals then use (c, c/2, c/3) and
    # stay finite.
    beyond = []
    original = rainfit.egpd.conditional_pwms

    def spying(params, threshold):
        try:
            return original(params, threshold)
        except ValueError:
            beyond.append(params)
            raise

    monkeypatch.setattr(rainfit.egpd, "conditional_pwms", spying)
    _, diag = fit_pwm_from_moments(1.2, 0.6, 0.4, threshold=1.0, restarts=4)
    assert len(beyond) > 0
    assert math.isfinite(diag["objective"]) and math.isfinite(diag["residual"])

def test_censored_pwm_fixed_point_from_own_moments():
    truth = EgpdParams(2.0, 5.0, 0.2)
    nu = conditional_pwms(truth, 1.0)
    fitted, diag = fit_pwm_from_moments(*nu, 1.0)
    assert diag["converged"]
    assert fitted.kappa == pytest.approx(truth.kappa, rel=1e-3)
    assert fitted.sigma == pytest.approx(truth.sigma, rel=1e-3)
    assert fitted.xi == pytest.approx(truth.xi, abs=1e-3)


def test_censored_pwm_inactive_threshold_matches_plain_pwm():
    data = egpd_simulate(5_000, EgpdParams(2.0, 1.0, 0.1), RngState(seed=18))
    plain, _ = fit_pwm(data)
    cens, diag = fit_pwm(data, 0.5 * float(np.min(data)))
    assert diag["converged"]
    for p in (0.25, 0.5, 0.75, 0.9, 0.99):
        d = math.log(egpd_quantile(p, cens) / egpd_quantile(p, plain))
        assert abs(d) <= 1e-3


def test_censored_pwm_residual_never_above_simplex_on_c5():
    # 4.230785770474421e-09 is the simplex search's residual on C5's fixture.
    _, diag = fit_pwm(_c5_discretized_sample(), 1.0, rng=RngState(seed=13).derive(1))
    assert diag["converged"]
    assert diag["residual"] <= 4.230785770474421e-09


@pytest.mark.parametrize("scale", [0.1, 25.4])
def test_fits_are_equivariant_under_a_change_of_units(scale):
    # Rescaling the data and the threshold by c rescales sigma and every
    # fitted quantile by c and leaves kappa and xi where they were.
    data = egpd_simulate(600, EgpdParams(1.3, 4.0, 0.15), RngState(seed=33))
    fits = (
        lambda y, c: fit_mle(y, restarts=1),
        lambda y, c: fit_pwm(y, restarts=1),
        lambda y, c: fit_mle(y, c, restarts=1),
        lambda y, c: fit_pwm(y, c, restarts=1),
    )
    for fit in fits:
        base, base_diag = fit(data, 1.0)
        scaled, scaled_diag = fit(data * scale, scale)
        assert base_diag["converged"] and scaled_diag["converged"]
        assert scaled.kappa == pytest.approx(base.kappa, rel=1e-6)
        assert scaled.xi == pytest.approx(base.xi, rel=1e-6, abs=1e-9)
        for p in SEVEN_P:
            assert egpd_quantile(p, scaled) == pytest.approx(
                scale * egpd_quantile(p, base), rel=1e-6
            )


def test_censored_pwm_error_paths():
    with pytest.raises(ValueError):
        fit_pwm(np.full(200, 0.5), 1.0)
    data = np.concatenate([np.full(200, 0.5), np.full(20, 2.0)])
    with pytest.raises(ValueError):
        fit_pwm(data, 1.0)
    nu = conditional_pwms(EgpdParams(2.0, 5.0, 0.2), 1.0)
    for threshold in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="threshold"):
            fit_pwm_from_moments(*nu, threshold)
    with pytest.raises(ValueError, match="moments"):
        fit_pwm_from_moments(nu[0], math.inf, nu[2])
