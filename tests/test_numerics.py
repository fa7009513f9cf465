"""Solvers, the multistart driver, diagnostics, and the deterministic RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainfit.numerics import (
    RngState,
    LocalResult,
    jittered_starts,
    lbfgsb,
    multistart,
    nelder_mead,
    positive_sample,
    solve_least_squares,
    splitmix64,
)

import oracles


# --- positive_sample --------------------------------------------------------


@pytest.mark.parametrize("data, message", [
    ([], "data must be a nonempty vector"),
    ([[1.0, 2.0]], "data must be a nonempty vector"),
    (3.0, "data must be a nonempty vector"),
    ([1.0, 0.0], "data values must be finite and > 0"),
    ([1.0, -2.0], "data values must be finite and > 0"),
    ([1.0, math.nan], "data values must be finite and > 0"),
    ([math.inf, 1.0], "data values must be finite and > 0"),
], ids=["empty", "2-d", "scalar", "zero", "negative", "nan", "inf"])
def test_positive_sample_rejects_what_no_fit_can_take(data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        positive_sample(data)


def test_positive_sample_is_the_data_as_a_float_vector():
    x = np.array([0.5, 2.0, 1e300])
    assert positive_sample(x) is x
    assert positive_sample([1, 2]).dtype == np.float64


# --- nelder_mead ------------------------------------------------------------


def test_nelder_mead_quadratic():
    # The flat bottom of |v|^2 trips the value-spread stop while |v| is
    # still ~sqrt(fatol), so disable it and let the simplex-size stop
    # deliver full positional accuracy.
    res = nelder_mead(lambda v: float(np.sum(v * v)), [1.0, 1.0], fatol=1e-16)
    assert res.converged
    assert np.max(np.abs(res.x)) <= 1e-6


def test_nelder_mead_quadratic_default_options():
    res = nelder_mead(lambda v: float(np.sum(v * v)), [1.0, 1.0])
    assert res.converged
    assert np.max(np.abs(res.x)) <= 1e-4


def test_nelder_mead_rosenbrock():
    def rosen(v):
        return float(100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2)

    res = nelder_mead(rosen, [-1.2, 1.0])
    assert res.converged
    assert np.max(np.abs(res.x - 1.0)) <= 1e-4


def test_nelder_mead_constant_objective():
    res = nelder_mead(lambda v: 3.5, [2.0, -1.0, 0.5])
    assert res.converged
    assert np.allclose(res.x, [2.0, -1.0, 0.5])
    assert res.value == 3.5


def test_nelder_mead_counts_its_evaluations():
    calls = []

    def f(v):
        calls.append(v.copy())
        return float(np.sum((v - 0.5) ** 2))

    res = nelder_mead(f, [1.0, 1.0, 1.0])
    assert res.n_eval == len(calls) > res.n_iter


def test_nelder_mead_treats_nonfinite_proposals_as_walls():
    # Minimum of (x - 1)^2 with the objective undefined left of 0.2: the
    # simplex must walk around the wall rather than crash.
    def f(v):
        x = v[0]
        if x < 0.2:
            return float("inf")
        return (x - 1.0) ** 2

    res = nelder_mead(f, [2.0])
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-6)


# --- local solvers and the multistart driver --------------------------------


def test_lbfgsb_stops_at_the_box_and_reads_the_projected_gradient():
    def value_and_gradient(x):
        return float(np.sum((x - 2.0) ** 2)), 2.0 * (x - 2.0)

    lower, upper = np.array([-1.0, -1.0]), np.array([1.0, 3.0])
    res = lbfgsb(value_and_gradient, np.array([5.0, -4.0]), lower, upper, max_iter=100)
    assert res.converged
    assert res.x == pytest.approx([1.0, 2.0], abs=1e-9)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.n_eval >= res.n_iter >= 1
    stopped = lbfgsb(value_and_gradient, np.array([-1.0, -1.0]), lower, upper, max_iter=0)
    assert not stopped.converged


@pytest.fixture()
def setulb_calls(monkeypatch):
    """(m, g, task) of every L-BFGS-B kernel call, g and task as it left them."""
    from scipy.optimize import _lbfgsb

    calls = []
    setulb = _lbfgsb.setulb

    def spy(m, x, low, high, nbd, f, g, factr, pgtol, wa, iwa, task, *rest):
        setulb(m, x, low, high, nbd, f, g, factr, pgtol, wa, iwa, task, *rest)
        calls.append((m, g, int(task[0])))

    monkeypatch.setattr(_lbfgsb, "setulb", spy)
    return calls


def test_lbfgsb_memory_exceeds_the_largest_mixture_dimension(setulb_calls):
    # K = 4 mixtures are 11-dimensional; scipy's default memory of 10
    # correction pairs made those fits take about 40% more evaluations.
    lbfgsb(lambda x: (float(x @ x), 2.0 * x), np.ones(11), -np.ones(11), np.ones(11), max_iter=50)
    assert setulb_calls and all(m >= 3 * 4 - 1 for m, _, _ in setulb_calls)


def test_solve_least_squares_counts_every_residual_call():
    calls = []

    def residuals(x):
        calls.append(x.copy())
        return np.array([x[0] ** 2 - 2.0, x[0] * x[1] - 3.0])

    res = solve_least_squares(residuals, np.array([1.0, 1.0]), max_eval=200)
    assert res.converged
    assert res.x == pytest.approx([math.sqrt(2.0), 3.0 / math.sqrt(2.0)], rel=1e-12)
    assert res.value <= 1e-28
    # Forward differences are counted too.
    assert res.n_eval == len(calls) > res.n_iter
    # A difference quotient's base point is the residual just computed
    # there, not a second call at the same x.
    assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))


def test_multistart_keeps_the_first_best_and_counts_starts_at_it():
    values = iter([3.0, 1.0, 1.0 + 1e-9, 1.0, 2.0])

    def solve(x0):
        return LocalResult(x=x0, value=next(values), converged=True, n_iter=2, n_eval=5)

    best, diag = multistart(solve, [np.array([float(i)]) for i in range(5)])
    assert best.x[0] == 1.0
    assert diag == {"restart_index": 1, "n_iter": 2, "n_eval": 25, "restarts_at_best": 3}


# --- the Gauss-Legendre panel rule that test_egpd.py uses as an oracle ------


def test_quadrature_polynomials_exact():
    assert oracles.gauss_legendre_integrate(lambda x: x, 0.0, 1.0) == pytest.approx(
        0.5, abs=1e-14
    )
    assert oracles.gauss_legendre_integrate(lambda x: x**3, 0.0, 1.0) == pytest.approx(
        0.25, abs=1e-14
    )


def test_quadrature_sine():
    got = oracles.gauss_legendre_integrate(np.sin, 0.0, math.pi, panels=16)
    assert got == pytest.approx(2.0, abs=1e-10)


# --- RNG ---------------------------------------------------------------------


def test_splitmix64_reference_vector():
    assert splitmix64(0) == oracles.SPLITMIX64_OF_0
    # 64-bit wraparound stays in range.
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_rng_frozen_uniforms():
    got = RngState(seed=1, stream=0).uniforms(4)
    assert got.tolist() == list(oracles.RNG_1_0_FIRST_UNIFORMS)
    assert RngState(seed=1, stream=0).doubles(4) == list(oracles.RNG_1_0_FIRST_UNIFORMS)


def numpy_philox(seed: int, stream: int) -> np.random.Generator:
    """numpy's generator keyed by (seed, stream) as 64-bit words."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


EDGE_WORDS = (0, 1, 2**63, 2**64 - 1)


@pytest.mark.parametrize(
    "seed, stream",
    [(seed, stream) for seed in EDGE_WORDS for stream in EDGE_WORDS]
    + [(-1, 0), (-987654321, 2**63 + 5)]
    + [(1, RngState(seed=1).derive(3, 4).stream),
       (9, RngState(seed=9, stream=77).derive(0, 6, 2).stream)],
)
def test_rng_doubles_are_numpys_philox_stream_to_the_bit(seed, stream):
    # n = 1..13 crosses the edges of the four-output Philox blocks.
    state = RngState(seed=seed, stream=stream)
    for n in range(1, 14):
        assert state.doubles(n) == numpy_philox(seed, stream).random(n).tolist()


def test_rng_derive_frozen_stream():
    assert RngState(seed=1, stream=0).derive(3, 4).stream == (
        oracles.RNG_1_0_DERIVE_3_4_STREAM
    )


def test_rng_same_state_same_draws():
    a = RngState(seed=9, stream=77).uniforms(64)
    b = RngState(seed=9, stream=77).uniforms(64)
    assert np.array_equal(a, b)


def test_rng_derive_depends_on_index_order():
    base = RngState(seed=5)
    assert base.derive(3, 4).stream != base.derive(4, 3).stream
    assert base.derive(1).stream != base.derive(2).stream
    # Deriving is stateless: repeating gives the same child.
    assert base.derive(1, 2) == base.derive(1, 2)


def test_rng_uniforms_in_open_interval():
    u = RngState(seed=3).uniforms(10_000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_splitmix64_stays_in_64_bits(x):
    assert 0 <= splitmix64(x) < 2**64


def test_jittered_starts_keeps_init_first():
    init = np.array([0.5, -1.0, 2.0])
    starts = jittered_starts(init, 4, RngState(seed=2))
    assert len(starts) == 4
    assert np.array_equal(starts[0], init)
    again = jittered_starts(init, 4, RngState(seed=2))
    for a, b in zip(starts, again):
        assert np.array_equal(a, b)
    # Restart points differ from the init and from one another.
    assert not np.array_equal(starts[1], starts[2])


@pytest.mark.parametrize("size", [2, 3, 5, 8, 11])
def test_jittered_starts_are_numpys_uniform_offsets_to_the_bit(size):
    # The offsets numpy's Generator.uniform(-0.5, 0.5) draws from restart
    # r's stream, for the parameter counts of every fit (2 and 3 for the
    # EGPD fits, 5, 8 and 11 for the K = 2, 3, 4 mixtures).
    rng = RngState(seed=4, stream=21).derive(7, 2)
    init = np.linspace(-3.0, 4.0, size)
    expected = [init] + [
        init + numpy_philox(rng.seed, rng.derive(r).stream).uniform(-0.5, 0.5, size)
        for r in range(1, 8)
    ]
    for n_restarts in range(1, 9):
        starts = jittered_starts(init, n_restarts, rng)
        assert [x.tobytes() for x in starts] == [x.tobytes() for x in expected[:n_restarts]]


# --- the solvers against public scipy ----------------------------------------
# lbfgsb drives scipy's kernel without its public wrapper; it must take the
# wrapper's steps, to the bit.


def assert_lbfgsb_matches_scipy(value_and_gradient, x0, lower, upper, max_iter, setulb_calls):
    from scipy.optimize import Bounds, minimize

    setulb_calls.clear()
    res = lbfgsb(value_and_gradient, x0, lower, upper, max_iter=max_iter)
    gradient = setulb_calls[-1][1]
    requests = sum(task == 3 for _, _, task in setulb_calls)  # 3: "evaluate f and g at x"
    ref = minimize(
        value_and_gradient,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=Bounds(lower, upper),
        options={"maxiter": max_iter, "maxcor": 20, "ftol": 1e-15, "gtol": 1e-10},
    )
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.value.hex() == float(ref.fun).hex()
    assert gradient.tobytes() == ref.jac.tobytes()
    assert (res.n_iter, res.n_eval) == (ref.nit, ref.nfev)
    return res, requests


def map_problem(k, seed=7):
    """The K-component MAP objective on 600 mixture draws, its box and starts."""
    from rainfit.gamma_mixture import (
        GammaMixtureParams,
        _map_bounds,
        _map_value_and_gradient,
        _sliced_init,
        mixture_simulate,
    )

    truth = GammaMixtureParams(weights=(0.3, 0.5, 0.2), shapes=(0.5, 2.0, 8.0), scales=(0.5, 2.0, 5.0))
    x = mixture_simulate(600, truth, RngState(seed=seed))
    starts = jittered_starts(_sliced_init(x, k), 3, RngState(seed=3).derive(k))
    return _map_value_and_gradient(x, k), *_map_bounds(k), starts


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lbfgsb_matches_scipy_on_the_map_objective(k, setulb_calls):
    value_and_gradient, lower, upper, starts = map_problem(k)
    for z0 in starts:
        res, _ = assert_lbfgsb_matches_scipy(value_and_gradient, z0, lower, upper, 5000, setulb_calls)
        assert res.converged


def test_lbfgsb_serves_a_repeated_point_from_its_cache(setulb_calls):
    # Near the mode a line-search step can round away and setulb asks again
    # for the x it just had; scipy serves that from its cache and does not
    # count it, so the solve must too.
    value_and_gradient, lower, upper, starts = map_problem(2, seed=4)
    res, requests = assert_lbfgsb_matches_scipy(
        value_and_gradient, starts[0], lower, upper, 5000, setulb_calls
    )
    assert requests > res.n_eval


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_lbfgsb_matches_scipy_on_the_egpd_profile_likelihood(threshold, setulb_calls):
    from rainfit.egpd import EgpdParams, _profile_loglik, egpd_simulate

    y = egpd_simulate(400, EgpdParams(0.8, 5.0, 0.15), RngState(seed=11))
    exceed = y[y >= threshold]
    evaluate = _profile_loglik(exceed, y.size - exceed.size, threshold)
    lower, upper = np.array([-12.0, 0.0]), np.array([12.0, 1.0])
    for x0 in ([1.0, 0.4], [3.0, 0.05], [-1.0, 0.9]):
        assert_lbfgsb_matches_scipy(
            lambda x: evaluate(x)[:2], np.array(x0), lower, upper, 5000, setulb_calls
        )


def test_lbfgsb_matches_scipy_from_a_start_outside_the_box(setulb_calls):
    def value_and_gradient(x):
        return float(np.sum((x - 2.0) ** 2) + x[0] * x[1]), 2.0 * (x - 2.0) + x[::-1]

    lower, upper = np.array([-1.0, -1.0]), np.array([1.0, 3.0])
    assert_lbfgsb_matches_scipy(value_and_gradient, np.array([5.0, -4.0]), lower, upper, 100, setulb_calls)


@pytest.mark.parametrize("max_iter", [0, 3])
def test_lbfgsb_matches_scipy_when_the_iteration_budget_stops_it(max_iter, setulb_calls):
    value_and_gradient, lower, upper, starts = map_problem(3)
    res, _ = assert_lbfgsb_matches_scipy(value_and_gradient, starts[1], lower, upper, max_iter, setulb_calls)
    assert not res.converged


def record_calls(monkeypatch, module, name):
    """Replace module.name by a spy that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


# --- solve_least_squares: Levenberg-Marquardt in Python floats ----------------


def spied(residuals):
    """residuals, and the list of the points it is called at."""
    calls = []

    def spy(x):
        calls.append(x.copy())
        return residuals(x)

    return spy, calls


def rosenbrock(x):
    return np.array([x[0] - 1.0, 10.0 * (x[1] - x[0] ** 2)])


def test_solve_least_squares_takes_one_jacobian_of_forward_differences_per_iteration():
    spy, calls = spied(rosenbrock)
    res = solve_least_squares(spy, np.array([-1.2, 1.0]), max_eval=500)
    assert res.converged
    assert res.x.tolist() == [1.0, 1.0] and res.value == 0.0
    # Each Jacobian is two calls, each one coordinate sqrt(eps) from a
    # point already evaluated; every other call is a trial step.
    h = math.sqrt(np.finfo(float).eps)
    differences = [
        x for i, x in enumerate(calls)
        if any(np.count_nonzero(x != base) == 1 and np.max(x - base) == pytest.approx(h, rel=1e-6)
               for base in calls[:i])
    ]
    assert len(differences) == 2 * res.n_iter
    # A trial follows every Jacobian but the last, which may stop on a
    # step below the tolerance without one.
    assert res.n_iter - 1 <= res.n_eval - 1 - 2 * res.n_iter


def test_solve_least_squares_stops_unconverged_within_its_budget():
    full = solve_least_squares(rosenbrock, np.array([-1.2, 1.0]), max_eval=500)
    for max_eval in range(1, full.n_eval):
        res = solve_least_squares(rosenbrock, np.array([-1.2, 1.0]), max_eval=max_eval)
        assert res.n_eval <= max_eval and not res.converged
        # Too few calls for one Jacobian and one trial: only x0 is evaluated.
        assert (res.n_eval == 1) == (max_eval <= 3)
    # One more call than the solve needs leaves it unchanged.
    res = solve_least_squares(rosenbrock, np.array([-1.2, 1.0]), max_eval=full.n_eval + 1)
    assert (res.x.tobytes(), res.value, res.converged, res.n_iter, res.n_eval) == (
        full.x.tobytes(), full.value, full.converged, full.n_iter, full.n_eval)


def test_solve_least_squares_converges_where_the_residual_has_no_zero():
    # The least-squares point of an inconsistent linear system, and a
    # coordinate the residuals stop depending on (a caller's clamp): that
    # Jacobian column is zero, so J'J is singular, and the coordinate
    # stays where it started while the other is solved.
    res = solve_least_squares(lambda x: np.array([x[0] - 1.0, x[0] - 2.0]), np.array([10.0]), max_eval=100)
    assert res.converged and res.x[0] == pytest.approx(1.5, rel=1e-14) and res.value == pytest.approx(0.5)

    def clamped(x):
        return np.array([x[1] - 3.0, min(max(x[0], -1.0), 1.0) - 5.0])

    res = solve_least_squares(clamped, np.array([4.0, 0.0]), max_eval=100)
    assert res.converged and res.x.tolist() == [4.0, pytest.approx(3.0, rel=1e-9)]
    assert res.value == pytest.approx(16.0)


def test_solve_least_squares_scales_a_difference_step_lost_to_rounding():
    # From |x| = 2^28 on, x + 1.5e-8 rounds back to x: the step grows with |x|.
    def large(x):
        return np.array([1e-8 * x[0] - 2.0, x[1] - 1.0, 1e-8 * x[0] * x[1] - 2.0])

    res = solve_least_squares(large, np.array([3e8, 2.0]), max_eval=200)
    assert res.converged
    assert res.x == pytest.approx([2e8, 1.0], rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_least_squares_stops_at_a_non_finite_start(bad):
    res = solve_least_squares(lambda x: np.array([x[0] - 1.0, bad]), np.array([0.0]), max_eval=200)
    assert not res.converged and (res.n_eval, res.n_iter) == (1, 0)


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_solve_least_squares_finds_minpacks_roots_of_the_pwm_system(threshold, monkeypatch):
    # From every start of a plain and a censored PWM fit, scipy's MINPACK
    # Levenberg-Marquardt (`least_squares(method="lm")`) is the oracle: the
    # loop reaches the same root.
    from scipy.optimize import least_squares

    from rainfit import egpd

    calls = record_calls(monkeypatch, egpd, "solve_least_squares")
    y = egpd.egpd_simulate(300, egpd.EgpdParams(1.3, 4.0, 0.1), RngState(seed=5))
    egpd.fit_pwm(y, threshold, restarts=3)
    monkeypatch.undo()
    assert len(calls) == 4
    for (residuals, x0), kwargs in calls:
        res = solve_least_squares(residuals, x0, **kwargs)
        ref = least_squares(residuals, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert res.converged and res.value <= 1e-28
        assert res.n_eval <= kwargs["max_eval"]
        assert res.x == pytest.approx(ref.x, rel=1e-9, abs=1e-9)
