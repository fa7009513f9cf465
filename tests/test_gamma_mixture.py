"""Gamma mixtures: density, CDF/quantile, posterior, and MAP fitting."""

import builtins
import json
import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from rainfit.gamma_mixture import (
    GammaMixtureParams,
    _LogDensity,
    _map_bounds,
    _map_value_and_gradient,
    _params_from_z,
    _sliced_init,
    fit_map,
    log_posterior,
    mixture_cdf,
    mixture_log_pdf,
    mixture_quantile,
    mixture_simulate,
)
import rainfit.gamma_mixture
from rainfit.numerics import RngState, jittered_starts, lbfgsb, nelder_mead

import oracles

SEVEN_P = (0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99)

K3_PARAMS = GammaMixtureParams(
    weights=(0.25, 0.45, 0.30),
    shapes=(0.8, 2.5, 6.0),
    scales=(0.6, 2.0, 4.5),
)

# The truth mixture of acceptance criterion C6.
C6_PARAMS = GammaMixtureParams(
    weights=(0.3, 0.5, 0.2), shapes=(0.5, 2.0, 8.0), scales=(0.5, 2.0, 5.0)
)


def density_integral(params: GammaMixtureParams, hi: float | None = None):
    """Adaptive quadrature of the mixture density (handles shape < 1)."""
    f = lambda y: math.exp(mixture_log_pdf(y, params))
    if hi is None:
        hi = mixture_quantile(1.0 - 1e-12, params) * 4.0
    total, err = integrate.quad(
        f, 0.0, hi, points=[a * b for a, b in zip(params.shapes, params.scales)],
        limit=400, epsabs=1e-11, epsrel=1e-11,
    )
    assert err < 1e-9
    return total


# --- parameter validation ------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        GammaMixtureParams((0.5, 0.6), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        GammaMixtureParams((0.5, 0.5), (1.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        GammaMixtureParams((0.5, 0.5), (1.0, -1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        GammaMixtureParams((1.2, -0.2), (1.0, 1.0), (1.0, 1.0))


@pytest.mark.parametrize("fields, message", [
    (((1.0,), ("2",), (1.0,)), "'shapes' holds a str, not a number: '2'"),
    ((np.array([True, False]), (1.0, 2.0), (1.0, 1.0)), "'weights' holds a boolean, not a number: np.True_"),
    (((0.5, 0.5), (1.0, 2.0), [1.0, False]), "'scales' holds a boolean, not a number: False"),
])
def test_params_refuse_a_boolean_or_a_string(fields, message):
    # float() would read "2" as 2.0 and the weights (True, False) as (1, 0).
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GammaMixtureParams(*fields)


def test_params_take_numpy_numbers_as_floats():
    params = GammaMixtureParams(np.array([0.25, 0.75]), np.array([1, 2]), [np.float32(0.5), np.int64(3)])
    assert params == GammaMixtureParams((0.25, 0.75), (1.0, 2.0), (0.5, 3.0))
    assert all(type(v) is float for values in params.to_dict().values() for v in values)


# --- density ----------------------------------------------------------------


def test_log_pdf_exponential_intercept():
    # pi = (1, 0) with component 1 = Ga(1, 2): f(0+) = 1/2.
    gm = GammaMixtureParams((1.0, 0.0), (1.0, 3.0), (2.0, 1.0))
    assert mixture_log_pdf(1e-12, gm) == pytest.approx(math.log(0.5), abs=1e-9)


def test_log_pdf_duplicate_components_collapse():
    gm = GammaMixtureParams((0.5, 0.5), (2.0, 2.0), (1.0, 1.0))
    # Same as a single Ga(2, 1): f(1) = 1 * e^{-1}.
    assert mixture_log_pdf(1.0, gm) == pytest.approx(-1.0, abs=1e-12)


def test_log_pdf_rejects_nonpositive_y():
    with pytest.raises(ValueError):
        mixture_log_pdf(0.0, K3_PARAMS)
    with pytest.raises(ValueError):
        mixture_log_pdf(-1.0, K3_PARAMS)


def test_density_integrates_to_one():
    assert density_integral(K3_PARAMS) == pytest.approx(1.0, abs=1e-8)
    # Mass below the 0.99999 quantile is that probability, by definition.
    hi = mixture_quantile(0.99999, K3_PARAMS)
    total, _ = integrate.quad(
        lambda y: math.exp(mixture_log_pdf(y, K3_PARAMS)),
        0.0,
        hi,
        limit=400,
        epsabs=1e-11,
        epsrel=1e-11,
    )
    assert total == pytest.approx(0.99999, abs=1e-8)


# --- CDF and quantile ----------------------------------------------------------


def test_cdf_known_points():
    assert mixture_cdf(0.0, K3_PARAMS) == 0.0
    single = GammaMixtureParams((1.0,), (1.0,), (2.0,))
    assert mixture_cdf(2.0 * math.log(2.0), single) == pytest.approx(
        0.5, abs=1e-12
    )
    two_exp = GammaMixtureParams((0.5, 0.5), (1.0, 1.0), (1.0, 3.0))
    assert mixture_cdf(1.0, two_exp) == pytest.approx(
        oracles.MIX_CDF_AT_1, abs=1e-12
    )


def test_quantile_known_points():
    single = GammaMixtureParams((1.0,), (1.0,), (2.0,))
    assert mixture_quantile(0.5, single) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-10
    )
    two_exp = GammaMixtureParams((0.5, 0.5), (1.0, 1.0), (1.0, 3.0))
    assert mixture_quantile(oracles.MIX_CDF_AT_1, two_exp) == pytest.approx(
        1.0, abs=1e-8
    )
    with pytest.raises(ValueError):
        mixture_quantile(0.0, single)
    with pytest.raises(ValueError):
        mixture_quantile(1.0, single)


def test_quantile_cdf_roundtrips():
    for y in (0.1, 1.0, 10.0):
        p = mixture_cdf(y, K3_PARAMS)
        assert mixture_quantile(p, K3_PARAMS) == pytest.approx(y, abs=1e-8)
    for p in (0.001, 0.01, 0.2, 0.5, 0.9, 0.999):
        q = mixture_quantile(p, K3_PARAMS)
        assert mixture_cdf(q, K3_PARAMS) == pytest.approx(p, abs=1e-10)


# One mixture per K = 1..4, none with a shape below 0.5 (see the next test).
MIXTURES_BY_K = (
    GammaMixtureParams((1.0,), (2.0,), (3.0,)),
    GammaMixtureParams((0.6, 0.4), (0.7, 4.0), (0.5, 3.0)),
    K3_PARAMS,
    GammaMixtureParams((0.1, 0.2, 0.3, 0.4), (0.5, 1.5, 4.0, 12.0), (0.2, 1.0, 3.0, 2.5)),
)
TAIL_P = (1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-9)


def bracket_top(params, p_max):
    """The top of `mixture_quantile`'s bracket for levels up to p_max, by its docstring."""
    a, b = np.array(params.shapes), np.array(params.scales)
    hi = float(np.max(a * b) + 10.0 * np.max(b * np.sqrt(a)))
    while mixture_cdf(hi, params) <= p_max:
        hi *= 2.0
    return hi


@pytest.mark.parametrize("params", MIXTURES_BY_K, ids=["k1", "k2", "k3", "k4"])
def test_quantile_array_matches_scalar_calls_and_inverts_the_cdf(params):
    ps = np.array(TAIL_P)
    q = mixture_quantile(ps, params)
    assert q.shape == ps.shape
    # A scalar call sizes the bracket for its own level, so the two agree to
    # the bisection's resolution, hi / 2^64 with hi the widest bracket.
    scalar = np.array([mixture_quantile(float(p), params) for p in ps])
    resolution = bracket_top(params, ps.max()) * 2.0**-64
    assert np.all(np.abs(q - scalar) <= 2.0 * resolution + 4e-16 * q)
    assert np.max(np.abs(mixture_cdf(q, params) - ps)) <= 1e-12
    assert np.max(np.abs(mixture_cdf(scalar, params) - ps)) <= 1e-12


@pytest.mark.parametrize("params", MIXTURES_BY_K, ids=["k1", "k2", "k3", "k4"])
def test_quantile_is_its_docstring_bisection_to_the_bit(params):
    # mixture_simulate draws through mixture_quantile, so a changed bit here
    # moves every simulated corpus.
    ps = np.array(TAIL_P)
    lo = np.zeros_like(ps)
    hi = np.full_like(ps, bracket_top(params, ps.max()))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = mixture_cdf(mid, params) < ps
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    assert mixture_quantile(ps, params).tobytes() == (0.5 * (lo + hi)).tobytes()


def test_quantile_of_no_level_is_an_empty_array():
    got = mixture_quantile(np.array([]), K3_PARAMS)
    assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_quantile_resolution_near_zero_is_the_bracket_over_2_to_the_64():
    # 64 halvings of [0, hi] resolve q to hi / 2^64 in absolute terms.  Below
    # a shape-0.3 component the 1e-6 quantile is about 3e-18, so the CDF
    # there is only good to about 1.5e-8; the bound is the bisection's.
    params = GammaMixtureParams(
        (0.1, 0.2, 0.3, 0.4), (0.3, 1.5, 4.0, 12.0), (0.2, 1.0, 3.0, 2.5)
    )
    p = 1e-6
    q = mixture_quantile(p, params)
    step = bracket_top(params, p) * 2.0**-64
    assert mixture_cdf(max(q - step, 0.0), params) <= p <= mixture_cdf(q + step, params)


@pytest.mark.parametrize(
    "bad", [0.0, 1.0, -0.1, 1.5, math.nan, [0.5, 1.0], [0.0, 0.5], np.array([0.2, math.nan])]
)
def test_quantile_rejects_levels_outside_the_open_unit_interval(bad):
    with pytest.raises(ValueError):
        mixture_quantile(bad, K3_PARAMS)


def test_quantile_of_a_mixture_past_the_float_range_is_a_named_error():
    # A scale of 1e307: the bracket's first top, about 1.6e308, is finite.
    # At 0.999999 its CDF there is below the level, and doubling the top
    # overflows; at 0.999 the top covers the level, but the bisection's
    # lo + hi would overflow.
    params = GammaMixtureParams((1.0,), (2.0,), (1e307,))
    for levels in ([0.5, 0.999999], [0.5, 0.999]):
        with pytest.raises(ValueError, match="^the mixture's quantiles overflow a float$"):
            mixture_quantile(levels, params)


def test_single_gamma_cdf_and_quantile_match_oracles():
    gamma3 = GammaMixtureParams((1.0,), (3.0,), (1.0,))
    assert mixture_cdf(3.0, gamma3) == pytest.approx(oracles.REG_GAMMA_3_3, abs=1e-12)
    assert mixture_quantile(0.5, gamma3) == pytest.approx(oracles.GAMMA3_MEDIAN, abs=1e-12)


def test_cdf_monotone():
    hi = mixture_quantile(0.9995, K3_PARAMS)
    ys = np.linspace(0.0, hi, 400)
    vals = np.array([mixture_cdf(float(y), K3_PARAMS) for y in ys])
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[-1] == pytest.approx(0.9995, abs=1e-10)


# --- posterior -------------------------------------------------------------------


def test_log_posterior_prior_only():
    gm = GammaMixtureParams((0.5, 0.5), (1.0, 1.0), (1.0, 1.0))
    got = log_posterior(np.array([]), gm)
    assert got == pytest.approx(2.0 * oracles.PRIOR_TERM_A1_B1, abs=1e-12)


def test_log_posterior_additivity():
    gm = K3_PARAMS
    base = log_posterior(np.array([]), gm)
    one = log_posterior(np.array([2.5]), gm)
    assert one - base == pytest.approx(mixture_log_pdf(2.5, gm), abs=1e-12)
    xs = np.array([0.4, 2.5, 9.0])
    many = log_posterior(xs, gm)
    assert many == pytest.approx(
        base + float(np.sum(mixture_log_pdf(xs, gm))), abs=1e-10
    )


def test_log_posterior_permutation_invariant():
    data = np.array([0.5, 1.0, 4.0, 7.5])
    perm = GammaMixtureParams(
        weights=(0.30, 0.25, 0.45),
        shapes=(6.0, 0.8, 2.5),
        scales=(4.5, 0.6, 2.0),
    )
    assert log_posterior(data, K3_PARAMS) == pytest.approx(
        log_posterior(data, perm), abs=1e-10
    )


# --- density kernel and fit objective ---------------------------------------------

E12 = math.exp(12.0)
WIDE_Y = np.logspace(-3.0, 4.0, 2001)


@pytest.mark.parametrize(
    "y, params",
    [
        (mixture_simulate(1000, C6_PARAMS, RngState(seed=7)), C6_PARAMS),
        (WIDE_Y, C6_PARAMS),
        # A zero weight gives a -inf row of terms.
        (
            WIDE_Y,
            GammaMixtureParams((0.6, 0.0, 0.4), (0.5, 2.0, 8.0), (0.5, 2.0, 5.0)),
        ),
        # Shapes and scales at the e^+-12 clamp box.
        (
            WIDE_Y,
            GammaMixtureParams(
                (0.25, 0.25, 0.25, 0.25),
                (1 / E12, E12, 1 / E12, E12),
                (E12, 1 / E12, 1 / E12, E12),
            ),
        ),
        (WIDE_Y, GammaMixtureParams((0.5, 0.5), (1 / E12, E12), (1 / E12, E12))),
    ],
    ids=["c6-n1000", "c6-wide-y", "zero-weight", "clamp-box", "clamp-box-k2"],
)
def test_log_density_kernel_matches_scipy_logsumexp(y, params):
    w, a, b = (np.array(t) for t in (params.weights, params.shapes, params.scales))
    got = mixture_log_pdf(y, params).copy()
    terms = _LogDensity(y, w.size).component_terms(w, a, b)
    ref = special.logsumexp(terms, axis=0)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_log_pdf_underflows_to_minus_infinity():
    # y / b overflows for both components, so every term is -inf.
    gm = GammaMixtureParams((0.5, 0.5), (1.0, 2.0), (0.5, 0.25))
    with np.errstate(over="ignore", divide="ignore"):
        assert mixture_log_pdf(1e308, gm) == -math.inf


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_map_objective_equals_public_log_posterior(k):
    x = mixture_simulate(1000, C6_PARAMS, RngState(seed=7))
    value_and_gradient = _map_value_and_gradient(x, k)
    starts = jittered_starts(_sliced_init(x, k), 5, RngState(seed=7).derive(k))
    # Starts with a shape and with a scale on the +-12 box bound.
    for index, bound in ((k - 1, 12.0), (3 * k - 2, -12.0)):
        on_bound = starts[0].copy()
        on_bound[index] = bound
        starts.append(on_bound)
    h = 1e-5
    for z in starts:
        want = -log_posterior(x, _params_from_z(z, k)) / x.size
        value, grad = value_and_gradient(z)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        # Central differences; the largest error seen is 1.6e-10 of the scale.
        central = np.empty_like(z)
        for i in range(z.size):
            step = np.zeros_like(z)
            step[i] = h
            central[i] = (
                value_and_gradient(z + step)[0] - value_and_gradient(z - step)[0]
            ) / (2.0 * h)
        assert np.max(np.abs(grad - central)) <= 1e-7 * (1.0 + np.max(np.abs(grad)))


@pytest.fixture(scope="module")
def c6_sample():
    """The n = 20,000 sample of acceptance criterion C6."""
    return mixture_simulate(20_000, C6_PARAMS, RngState(seed=7))


# K = 4 with every shape and scale at e^-12 or e^+12, in four sign patterns.
BOX_CORNERS_K4 = [
    GammaMixtureParams(
        (0.1, 0.2, 0.3, 0.4),
        tuple(E12 ** s for s in shape_signs),
        tuple(E12 ** s for s in scale_signs),
    )
    for shape_signs, scale_signs in (
        ((1, 1, 1, 1), (1, 1, 1, 1)),
        ((-1, -1, -1, -1), (-1, -1, -1, -1)),
        ((1, -1, 1, -1), (-1, 1, 1, -1)),
        ((-1, 1, -1, 1), (1, -1, -1, 1)),
    )
]


@pytest.mark.parametrize("params", [C6_PARAMS, *BOX_CORNERS_K4],
                         ids=["c6", "corner-0", "corner-1", "corner-2", "corner-3"])
def test_log_density_kernel_matches_scipy_logsumexp_on_the_c6_sample(c6_sample, params):
    test_log_density_kernel_matches_scipy_logsumexp(c6_sample, params)


def mp_map_gradient(x, z, k):
    """The gradient formula of `_map_value_and_gradient`, in 40-digit arithmetic."""
    with mp.workdps(40):
        logits = [mp.mpf(t) for t in z[: k - 1]] + [mp.mpf(0)]
        total = mp.fsum(mp.exp(t) for t in logits)
        w = [mp.exp(t) / total for t in logits]
        a = [mp.exp(mp.mpf(t)) for t in z[k - 1 : 2 * k - 1]]
        log_b = [mp.mpf(t) for t in z[2 * k - 1 :]]
        b = [mp.exp(t) for t in log_b]
        n_k, s1, sl = [mp.mpf(0)] * k, [mp.mpf(0)] * k, [mp.mpf(0)] * k
        for y in x:
            y = mp.mpf(float(y))
            log_y = mp.log(y)
            t = [mp.log(w[j]) - mp.loggamma(a[j]) - a[j] * log_b[j]
                 + (a[j] - 1) * log_y - y / b[j] for j in range(k)]
            top = max(t)
            e = [mp.exp(tj - top) for tj in t]
            s = mp.fsum(e)
            for j in range(k):
                n_k[j] += e[j] / s
                s1[j] += e[j] * y / s
                sl[j] += e[j] * log_y / s
        # The prior's u = 1.1 and v = 2; rho = q = r = 1.
        u, v = mp.mpf("1.1"), mp.mpf(2)
        grad = [n_k[j] - len(x) * w[j] for j in range(k - 1)]
        grad += [a[j] * (sl[j] - n_k[j] * (mp.digamma(a[j]) + log_b[j])
                         - log_b[j] - mp.digamma(a[j])) for j in range(k)]
        grad += [(s1[j] + v) / b[j] - a[j] * (n_k[j] + 1) - (u + 1) for j in range(k)]
        return np.array([float(g / -len(x)) for g in grad])


def test_map_objective_matches_at_the_k4_box_corners():
    # Central differences cannot check the gradient here: at e^+-12 the
    # log-sum-exp bends on scales far below any usable step.  The value is
    # checked against the public log posterior, and the gradient against
    # its own formula evaluated in 40-digit arithmetic.
    x = mixture_simulate(1000, C6_PARAMS, RngState(seed=7))
    value_and_gradient = _map_value_and_gradient(x, 4)
    logits = jittered_starts(np.zeros(3), 8, RngState(seed=7).derive(4))
    signs = np.random.default_rng(4).choice([-1.0, 1.0], size=(8, 8))
    for z_logits, corner in zip(logits, signs):
        z = np.concatenate([z_logits, 12.0 * corner])
        value, grad = value_and_gradient(z)
        want = -log_posterior(x, _params_from_z(z, 4)) / x.size
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        oracle = mp_map_gradient(x, z, 4)
        assert np.max(np.abs(grad - oracle)) <= 1e-10 * (1.0 + np.max(np.abs(oracle)))


@pytest.mark.parametrize("k", [3, 4])
def test_map_objective_matches_on_the_c6_sample(c6_sample, k):
    # As test_map_objective_equals_public_log_posterior, at n = 20,000.
    value_and_gradient = _map_value_and_gradient(c6_sample, k)
    h = 1e-5
    for z in jittered_starts(_sliced_init(c6_sample, k), 3, RngState(seed=7).derive(k)):
        want = -log_posterior(c6_sample, _params_from_z(z, k)) / c6_sample.size
        value, grad = value_and_gradient(z)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        central = np.array([
            (value_and_gradient(z + h * e)[0] - value_and_gradient(z - h * e)[0]) / (2.0 * h)
            for e in np.eye(z.size)
        ])
        assert np.max(np.abs(grad - central)) <= 1e-7 * (1.0 + np.max(np.abs(grad)))


def test_simulate_refuses_a_negative_count():
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        mixture_simulate(-1, C6_PARAMS, RngState(seed=7))


@pytest.mark.parametrize("x", [
    np.array([1e200] * 10),  # the mean's square overflows
    np.array([1.0] * 9 + [1e155]),  # the mean's square is finite, the variance overflows
])
def test_start_refuses_a_sample_whose_moments_overflow(x):
    with pytest.raises(ValueError, match="^the sample's moments are out of float range$"):
        _sliced_init(x, 2)


def test_map_objective_runs_no_import_per_evaluation(monkeypatch):
    # scipy is imported where it is called; the objective binds its special
    # functions once per fit, so evaluations after the first import nothing.
    x = mixture_simulate(1000, C6_PARAMS, RngState(seed=7))
    value_and_gradient = _map_value_and_gradient(x, 3)
    z = _sliced_init(x, 3)
    value_and_gradient(z)
    imports = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imports.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    for i in range(100):
        value_and_gradient(z + 1e-3 * i)
    monkeypatch.undo()
    assert imports == []


# --- MAP fitting ------------------------------------------------------------------


def test_map_recovers_single_gamma_quantiles():
    truth = GammaMixtureParams((1.0,), (2.0,), (3.0,))
    data = mixture_simulate(20_000, truth, RngState(seed=10))
    fitted, diag = fit_map(data, 2)
    assert diag["converged"]
    for p in SEVEN_P:
        d = math.log(mixture_quantile(p, fitted) / mixture_quantile(p, truth))
        assert abs(d) <= 0.03
    # Every fitted mixture must be a proper density.
    assert density_integral(fitted) == pytest.approx(1.0, abs=1e-6)
    # Components come out sorted by mean.
    means = [a * b for a, b in zip(fitted.shapes, fitted.scales)]
    assert means == sorted(means)


def test_map_converged_reads_the_projected_gradient(monkeypatch):
    x = mixture_simulate(1000, C6_PARAMS, RngState(seed=7))
    monkeypatch.setattr(rainfit.gamma_mixture, "MAX_ITER", 1)
    _, diag = fit_map(x, 3, restarts=0)
    monkeypatch.undo()
    assert not diag["converged"]
    assert diag["n_iter"] == 1
    fitted, diag = fit_map(x, 3, restarts=1)
    assert diag["converged"]
    # Restarted at the fitted mode, L-BFGS-B stops almost at once; whatever
    # status scipy reports, the projected gradient there decides.
    w, a, b = (np.array(t) for t in (fitted.weights, fitted.shapes, fitted.scales))
    mode = np.concatenate([np.log(w[:-1] / w[-1]), np.log(a), np.log(b)])
    value_and_gradient = _map_value_and_gradient(x, 3)
    result = lbfgsb(value_and_gradient, mode, *_map_bounds(3), max_iter=5000)
    assert result.converged
    assert -result.value * x.size >= diag["objective"] - 1e-9 * abs(diag["objective"])


def test_map_never_worse_than_simplex_on_c6():
    # -52587.69289267023 is the log posterior the multistart simplex search
    # reached on this fixture (acceptance criterion C6's K=3 fit).
    x = mixture_simulate(20_000, C6_PARAMS, RngState(seed=7))
    _, diag = fit_map(x, 3, rng=RngState(seed=7).derive(1))
    assert diag["converged"]
    assert diag["objective"] >= -52587.69289267023


def test_map_rejects_k_too_large_for_sample():
    data = mixture_simulate(20, K3_PARAMS, RngState(seed=2))
    with pytest.raises(ValueError):
        fit_map(data, 3)


def test_map_k1_matches_direct_two_parameter_fit():
    truth = GammaMixtureParams((1.0,), (2.0,), (3.0,))
    data = mixture_simulate(5_000, truth, RngState(seed=10))
    fitted, diag = fit_map(data, 1)
    assert diag["converged"]

    def neg(z):
        try:
            gm = GammaMixtureParams((1.0,), (math.exp(z[0]),), (math.exp(z[1]),))
        except (ValueError, OverflowError):
            return float("inf")
        return -log_posterior(data, gm)

    def polish(z0):
        res = nelder_mead(neg, z0, xatol=1e-11, fatol=1e-15)
        return GammaMixtureParams(
            (1.0,), (math.exp(res.x[0]),), (math.exp(res.x[1]),)
        )

    # Both routes, polished to the mode itself, must land on the same
    # 2-parameter posterior mode; the raw fit sits within stopping
    # tolerance of it.
    from_map = polish([math.log(fitted.shapes[0]), math.log(fitted.scales[0])])
    from_neutral = polish([0.0, math.log(float(np.mean(data)))])
    for p in SEVEN_P:
        q_map = mixture_quantile(p, from_map)
        q_neutral = mixture_quantile(p, from_neutral)
        assert q_map == pytest.approx(q_neutral, rel=1e-6)
        assert mixture_quantile(p, fitted) == pytest.approx(q_map, rel=1e-5)


def test_map_diagnostics_serialize():
    data = mixture_simulate(600, K3_PARAMS, RngState(seed=3))
    fitted, diag = fit_map(data, 2, restarts=2)
    payload = json.dumps(diag)
    assert "converged" in json.loads(payload)
    assert density_integral(fitted) == pytest.approx(1.0, abs=1e-6)


# --- simulation --------------------------------------------------------------------


def test_simulate_deterministic_and_positive():
    a = mixture_simulate(400, K3_PARAMS, RngState(seed=8))
    b = mixture_simulate(400, K3_PARAMS, RngState(seed=8))
    assert np.array_equal(a, b)
    assert np.all(a > 0.0)
    assert mixture_simulate(0, K3_PARAMS, RngState(seed=8)).size == 0


def test_simulate_ks_against_cdf():
    x = mixture_simulate(10_000, K3_PARAMS, RngState(seed=14))
    assert oracles.ks_ok(
        x, lambda v: np.array([mixture_cdf(float(y), K3_PARAMS) for y in v])
    )
