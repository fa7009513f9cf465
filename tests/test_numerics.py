"""Solvers, the multistart driver, diagnostics, and the deterministic RNG."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainfit.numerics import (
    EULER_GAMMA,
    FitDiagnostics,
    RngState,
    LocalResult,
    jittered_starts,
    lbfgsb,
    multistart,
    nelder_mead,
    solve_least_squares,
    splitmix64,
)

import oracles


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


def test_nelder_mead_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        nelder_mead(lambda v: float("nan"), [0.0])


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


def test_lbfgsb_memory_exceeds_the_largest_mixture_dimension(monkeypatch):
    # K = 4 mixtures are 11-dimensional; scipy's default memory of 10
    # correction pairs made those fits take about 40% more evaluations.
    import scipy.optimize

    options = []
    minimize = scipy.optimize.minimize

    def spy(*args, **kwargs):
        options.append(kwargs["options"])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", spy)
    lbfgsb(lambda x: (float(x @ x), 2.0 * x), np.ones(11), -np.ones(11), np.ones(11), max_iter=50)
    assert options[0]["maxcor"] >= 3 * 4 - 1


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


def test_solve_least_squares_uses_the_given_jacobian():
    def residuals(x):
        return np.array([x[0] - 1.0, 10.0 * (x[1] - x[0] ** 2)])

    def jacobian(x):
        return np.array([[1.0, 0.0], [-20.0 * x[0], 10.0]])

    res = solve_least_squares(residuals, np.array([-1.2, 1.0]), jacobian=jacobian, max_eval=200)
    assert res.converged
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-12)


def test_multistart_keeps_the_first_best_and_counts_starts_at_it():
    values = iter([3.0, 1.0, 1.0 + 1e-9, 1.0, 2.0])

    def solve(x0):
        return LocalResult(x=x0, value=next(values), converged=True, n_iter=2, n_eval=5)

    run = multistart(solve, [np.array([float(i)]) for i in range(5)])
    assert run.index == 1
    assert run.best.x[0] == 1.0
    assert run.n_eval == 25
    assert run.at_best == 3
    diag = run.diagnostics(converged=True, objective=-1.0)
    assert (diag.restart_index, diag.n_iter, diag.n_eval, diag.restarts_at_best) == (1, 2, 25, 3)


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


# --- diagnostics -------------------------------------------------------------


def test_diagnostics_serialize_to_plain_json():
    diag = FitDiagnostics(
        converged=np.bool_(True),
        objective=np.float64(-12.5),
        restart_index=np.int64(1),
        n_iter=200,
        restarts_at_best=np.int64(2),
        residual=np.float64(1e-9),
    )
    encoded = json.dumps(diag.to_dict())
    back = json.loads(encoded)
    assert back["converged"] is True
    assert back["restarts_at_best"] == 2
    assert back["objective"] == -12.5
    assert back["restart_index"] == 1
    assert back["residual"] == 1e-9


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)
