"""Extended generalized Pareto distribution with a power carrier.

The family has CDF F(y) = H(y; sigma, xi)^kappa, where H is the generalized
Pareto CDF.  kappa > 0 reshapes the low-rainfall end of the distribution
while the GP pair (sigma, xi) keeps control of the upper tail, which makes
the family usable across the whole wet-day range rather than only above a
high threshold.

Two fits are provided, maximum likelihood (`fit_mle`) and probability
weighted moments (`fit_pwm`).  Each takes a threshold, 0 by default,
where it is the plain fit; above 0 it is the censored variant, which
treats values below the threshold as interval-censored at zero cost to
the tail fit.  Both PWM fits match the PWMs of Y | Y >= threshold, at
threshold 0 the PWMs of Y, to the sample's.  `empirical_pwms` estimates
the sample's, and `conditional_pwms` integrates the model's with a
fixed tanh-sinh rule that resolves the (1 - u)^(-xi) endpoint singularity
of the quantile function to near machine precision.

Every fit runs `numerics.multistart` from a fixed start plus jittered
copies.  The likelihood fits profile kappa out in closed form and run
L-BFGS-B over (ln sigma, xi) on the analytic gradient, with xi mapped so
that no trial point puts an observation outside the support.  The PWM
fits solve their three moment equations by Levenberg-Marquardt on a
forward-difference Jacobian.  The module binds no special function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    LOG_CLAMP,
    MAX_ITER,
    MOMENTS_OUT_OF_RANGE,
    RngState,
    _real_number,
    at_log_clamp,
    checked_array,
    jittered_starts,
    lbfgsb,
    multistart,
    nelder_mead,  # noqa: F401 - unused; rainbench/tracer.py patches this name
    positive_sample,
    solve_least_squares,
)

__all__ = [
    "EgpdParams",
    "XI_EPS",
    "XI_MAX",
    "XI_MIN",
    "conditional_pwms",
    "egpd_cdf",
    "egpd_log_pdf",
    "egpd_quantile",
    "egpd_simulate",
    "empirical_pwms",
    "fit_mle",
    "fit_pwm",
    "fit_pwm_from_moments",
    "gp_cdf",
]

XI_EPS = 1e-8
XI_MIN = -0.5
XI_MAX = 0.95

# kappa's and sigma's box.
_SCALE_MIN = math.exp(-LOG_CLAMP)
_SCALE_MAX = math.exp(LOG_CLAMP)
_LN2 = math.log(2.0)
_DEFAULT_RNG = RngState(seed=0x5EED0F17)
_SMALL_SAMPLE_N = 100


@dataclass(frozen=True)
class EgpdParams:
    """Parameter triple (kappa, sigma, xi).

    kappa is the dimensionless carrier power, sigma the GP scale in mm, and
    xi the GP shape.  xi is restricted to the common fitting box
    [-0.5, 0.95]: moment estimators need xi < 1 (and xi < 0.5 for finite
    estimator variance), likelihood regularity needs xi > -0.5.
    """

    kappa: float
    sigma: float
    xi: float

    def __post_init__(self) -> None:
        for name in ("kappa", "sigma", "xi"):
            object.__setattr__(self, name, _real_number(name, getattr(self, name)))
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError("kappa must be finite and > 0")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be finite and > 0")
        if not (math.isfinite(self.xi) and XI_MIN <= self.xi <= XI_MAX):
            raise ValueError(f"xi must lie in [{XI_MIN}, {XI_MAX}]")

    def to_dict(self) -> dict:
        return {"kappa": self.kappa, "sigma": self.sigma, "xi": self.xi}


def _gp_tail(y: np.ndarray, sigma: float, xi: float) -> np.ndarray:
    """L = -ln(1 - H) = ln(1 + xi y / sigma) / xi for the GP CDF H at y >= 0.

    L is y / sigma on the exponential branch |xi| < 1e-8, and inf at and
    beyond the end -sigma/xi of the support of an xi < 0.
    """
    if abs(xi) < XI_EPS:
        return y / sigma
    z = xi * y / sigma
    outside = z <= -1.0
    return np.where(outside, np.inf, np.log1p(np.where(outside, 0.0, z)) / xi)


def gp_cdf(y, sigma: float, xi: float):
    """Generalized Pareto CDF H(y; sigma, xi).

    H(y) = 1 - (1 + xi y / sigma)^(-1/xi), with the exponential limit
    1 - exp(-y/sigma) on the |xi| < 1e-8 branch.  For xi < 0 the support
    ends at -sigma/xi and H is 1 beyond it.  Accepts scalars or arrays.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError("sigma must be > 0")
    arr, scalar = checked_array(y, lambda v: v >= 0.0, "y must be finite and >= 0")
    out = -np.expm1(-_gp_tail(arr, sigma, xi))
    return float(out[0]) if scalar else out


def egpd_cdf(y, params: EgpdParams):
    """F(y) = H(y; sigma, xi)^kappa.  F(0) = 0 and F is nondecreasing."""
    out = np.power(gp_cdf(y, params.sigma, params.xi), params.kappa)
    return out if np.ndim(y) else float(out)


def _censoring_threshold(threshold) -> float:
    """threshold as a float; a ValueError unless it is a number, finite and >= 0."""
    threshold = _real_number("threshold", threshold)
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError("censoring threshold must be finite and >= 0")
    return threshold


def _censored_mass(threshold: float, params: EgpdParams) -> tuple[float, float]:
    """(F(threshold), 1 - F(threshold)) for a scalar threshold >= 0.

    F is egpd_cdf(threshold, params), by the same operations.  1 - F is
    formed as -expm1(kappa ln H), so it keeps its relative accuracy as F
    approaches 1.
    """
    threshold = _censoring_threshold(threshold)
    log_tail = _gp_tail(np.array([threshold]), params.sigma, params.xi)
    h = -np.expm1(-log_tail)
    # ln H = ln(1 - e^-L), from whichever side does not cancel.
    tail, h0 = float(log_tail[0]), float(h[0])
    if tail > _LN2:
        log_h = math.log1p(-math.exp(-tail))
    else:
        log_h = math.log(h0) if h0 > 0.0 else -math.inf
    return float(np.power(h, params.kappa)[0]), -math.expm1(params.kappa * log_h)


def egpd_log_pdf(y, params: EgpdParams):
    """Log density ln[kappa h(y) H(y)^(kappa-1)]; -inf outside the support.

    With L = -ln(1 - H) it is ln kappa - ln sigma - (1 + xi) L
    + (kappa - 1) ln H, the last term 0 at kappa = 1.  Where y / sigma is
    so small that H underflows to 0, that term is +-inf for kappa != 1.
    """
    arr, scalar = checked_array(y, lambda v: v > 0.0, "y must be finite and > 0")
    kappa, sigma, xi = params.kappa, params.sigma, params.xi
    log_tail = _gp_tail(arr, sigma, xi)
    out = math.log(kappa) - math.log(sigma) - (1.0 + xi) * log_tail
    if kappa != 1.0:
        with np.errstate(divide="ignore"):
            out += (kappa - 1.0) * np.log(-np.expm1(-log_tail))
    return float(out[0]) if scalar else out


def egpd_quantile(p, params: EgpdParams):
    """Quantile Q(p) = (sigma/xi)[(1 - p^(1/kappa))^(-xi) - 1].

    Uses the exponential-limit branch -sigma ln(1 - p^(1/kappa)) for
    |xi| < 1e-8.  The roundtrip |egpd_cdf(Q(p)) - p| holds to 1e-10.
    """
    arr, scalar = checked_array(p, lambda v: (v > 0.0) & (v < 1.0),
                                "p must lie strictly inside (0, 1)")
    kappa, sigma, xi = params.kappa, params.sigma, params.xi
    log_one_minus_u = np.log1p(-np.power(arr, 1.0 / kappa))
    if abs(xi) < XI_EPS:
        out = -sigma * log_one_minus_u
    else:
        out = (sigma / xi) * np.expm1(-xi * log_one_minus_u)
    return float(out[0]) if scalar else out


def egpd_simulate(n: int, params: EgpdParams, rng: RngState) -> np.ndarray:
    """n inverse-CDF draws; deterministic for a given RngState."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return egpd_quantile(rng.uniforms(n), params)


# --- fitting machinery -----------------------------------------------------


def _xi_to_s(xi: float) -> float:
    frac = (xi - XI_MIN) / (XI_MAX - XI_MIN)
    return math.log(frac / (1.0 - frac))


def _s_to_xi(s: float) -> float:
    s = min(max(s, -30.0), 30.0)
    return XI_MIN + (XI_MAX - XI_MIN) / (1.0 + math.exp(-s))


def _exp_clamped(log_value: float) -> float:
    return math.exp(min(max(float(log_value), -LOG_CLAMP), LOG_CLAMP))


def _boundary_hit(params: EgpdParams) -> bool:
    """ln kappa or ln sigma at its clamp, or xi within 1e-3 of an end of its box."""
    return at_log_clamp((params.kappa, params.sigma)) or not XI_MIN + 1e-3 < params.xi < XI_MAX - 1e-3


def _exceedances(data, threshold: float) -> tuple[int, np.ndarray, float]:
    """The data's size, its values at or above threshold, in order, and their mean.

    The data must be at least 30 finite values > 0, and the threshold, one
    that `_censoring_threshold` passed, at or below at least 30 of them.
    At threshold 0 every value is kept, so the fit is the uncensored one.
    A mean that overflows (no mean of values > 0 underflows to 0), or that
    lies outside sigma's box [e^-12, e^12] mm, is a ValueError; then no
    PWM overflows either, as each is a mean of the values times weights
    <= 1.
    """
    x = positive_sample(data)
    if x.size < 30:
        raise ValueError("need at least 30 observations")
    exceed = x[x >= threshold]
    if exceed.size < 30:
        raise ValueError("need at least 30 observations at or above the threshold")
    with np.errstate(over="ignore"):
        mean = float(np.mean(exceed))
    if mean == math.inf:
        raise ValueError(MOMENTS_OUT_OF_RANGE)
    if not _SCALE_MIN <= mean <= _SCALE_MAX:
        raise ValueError(f"the mean of the values at or above the threshold, {mean:.3g} mm,"
                         f" is outside sigma's range [{_SCALE_MIN:.3g}, {_SCALE_MAX:.3g}] mm")
    return x.size, exceed, mean


# 1 + xi max(y) / sigma stays at or above this on every trial point of the
# likelihood fits, so the largest observation never leaves the support.
_EDGE_MARGIN = 1e-10


def _xi_floor(sigma: float, y_max: float) -> float:
    """Lowest xi the likelihood fits try at this sigma: -0.5, or just above
    the xi at which max(y) would sit on the support's upper end."""
    return max(XI_MIN, -(1.0 - _EDGE_MARGIN) * sigma / y_max)


# While |z| < 1e-3 for every point, (ln(1 + z) - z/(1 + z)) / z^2 is summed
# as its series 1/2 - 2z/3 + 3z^2/4 - 4z^3/5 + 5z^4/6 (truncation below
# 1e-15 relative).  Otherwise the closed form's cancellation costs at most
# 2 eps / |z| relative per point, which is below 1e-11 of the gradient.
_PHI_SERIES = 1e-3
_PHI_COEFFS = (5.0 / 6.0, -4.0 / 5.0, 3.0 / 4.0, -2.0 / 3.0, 0.5)


def _gp_terms(u: np.ndarray, xi: float):
    """Per-point GP pieces at u = y / sigma, for the profile likelihood.

    Returns (ln(1 + z), L, ln H, q, p, r) with z = xi u, H the GP CDF,
    L = ln(1 + z) / xi = -ln(1 - H) (u at xi = 0), q = u / (1 + z),
    p = (L - q) / xi = u^2 (ln(1 + z) - z/(1 + z)) / z^2 and
    r = 1 / (e^L - 1).  With them the GP log density is
    ln h = -ln sigma - ln(1 + z) - L, and the derivatives in
    (ln sigma, xi) are
        d ln h = (-1 + (1 + xi) q,  p - q),   d ln H = (-q r,  -p r).
    """
    z = xi * u
    log1p_z = np.log1p(z)
    q = u / (1.0 + z)
    if abs(xi) * float(np.max(u)) < _PHI_SERIES:
        big_l = log1p_z / xi if xi != 0.0 else u
        phi = _PHI_COEFFS[0]
        for coeff in _PHI_COEFFS[1:]:
            phi = phi * z + coeff
        p = u * u * phi
    else:
        big_l = log1p_z / xi
        p = (big_l - q) / xi
    big_h = -np.expm1(-big_l)
    r = np.exp(-big_l) / big_h
    return log1p_z, big_l, np.log(big_h), q, p, r


def _profile_loglik(exceed: np.ndarray, n_below: int, threshold: float):
    """x = (ln sigma, v) -> (-profile log-likelihood / n, gradient, kappa-hat, xi).

    kappa is profiled out: dl/dkappa = 0 gives
        kappa-hat = -n_exc / (sum ln H(y_i) + n_below ln H(threshold)),
    clamped to e^+-12.  kappa-hat is either stationary or held at a clamp,
    so (envelope theorem) the profile's gradient is the likelihood's
    gradient in (ln sigma, xi) at fixed kappa = kappa-hat.  xi = lo +
    (0.95 - lo) v with lo = `_xi_floor(sigma, max(y))`, so every v in
    [0, 1] keeps max(y), and the threshold below it, inside the support.
    So the objective is finite on the whole box, and L-BFGS-B never meets
    an infinite value or a penalty, as long as every H(y) and H(threshold)
    is a normal float.  Where one underflows to 0 or a subnormal (y / sigma
    below about 1e-308), the value or gradient can be infinite or NaN: that
    point is returned as inf with a zero gradient.  The caller sets
    np.errstate.
    """
    n_exc = exceed.size
    n_total = n_exc + n_below
    y_max = float(np.max(exceed))

    def evaluate(x: np.ndarray):
        log_sigma, v = float(x[0]), float(x[1])
        sigma = math.exp(log_sigma)
        lo = _xi_floor(sigma, y_max)
        xi = lo + (XI_MAX - lo) * v
        log1p_z, big_l, log_big_h, q, p, r = _gp_terms(exceed / sigma, xi)
        sum_log_big_h = float(np.sum(log_big_h))
        total = sum_log_big_h
        if n_below:
            c_terms = _gp_terms(np.array([threshold / sigma]), xi)
            log_big_h_c, q_c, p_c, r_c = (float(t[0]) for t in c_terms[2:])
            total += n_below * log_big_h_c
        kappa = min(n_exc / -total, _SCALE_MAX) if total < 0.0 else _SCALE_MAX
        kappa = max(kappa, _SCALE_MIN)
        loglik = (
            n_exc * (math.log(kappa) - log_sigma)
            - float(np.sum(log1p_z)) - float(np.sum(big_l))
            + (kappa - 1.0) * sum_log_big_h
        )
        sum_q = float(np.sum(q))
        sum_p = float(np.sum(p))
        d_log_sigma = -n_exc + (1.0 + xi) * sum_q - (kappa - 1.0) * float(np.sum(q * r))
        d_xi = sum_p - sum_q - (kappa - 1.0) * float(np.sum(p * r))
        if n_below:
            loglik += n_below * kappa * log_big_h_c
            d_log_sigma -= n_below * kappa * q_c * r_c
            d_xi -= n_below * kappa * p_c * r_c
        # Chain rule through xi(ln sigma, v): d lo / d ln sigma is lo where
        # the support edge sets lo, and 0 where -0.5 does.
        d_lo = lo if lo > XI_MIN else 0.0
        d_log_sigma += d_xi * (1.0 - v) * d_lo
        if not all(map(math.isfinite, (loglik, d_log_sigma, d_xi))):
            return math.inf, np.zeros(2), kappa, xi
        grad = np.array([d_log_sigma, d_xi * (XI_MAX - lo)])
        return -loglik / n_total, grad / -n_total, kappa, xi

    return evaluate


def fit_mle(
    data,
    threshold: float = 0.0,
    *,
    restarts: int = 4,
    rng: RngState = _DEFAULT_RNG,
) -> tuple[EgpdParams, dict]:
    """Maximum likelihood fit, kappa profiled out, by multistart L-BFGS-B.

    kappa has a closed-form maximizer for each (sigma, xi), so L-BFGS-B
    maximizes the profile likelihood over (ln sigma, xi) on its analytic
    gradient (see `_profile_loglik`), for at most `MAX_ITER` iterations
    per start.  Starts from sigma = mean(data), xi = 0.1 plus `restarts`
    jittered copies (multiplicative jitter bounded by e^0.5, seeded by
    `rng`), and keeps the best mode.  Converged means the projected
    gradient of the per-observation objective is at most 1e-6 there and
    kappa-hat is not held at a clamp e^+-12, where it is not stationary
    (on tied data the likelihood grows without bound towards that corner).
    Non-convergence is flagged in the diagnostics, never raised; the best
    candidate is always returned.  A sample whose mean overflows or lies
    outside sigma's box, or whose likelihood is not finite at any start, is
    a ValueError.

    With a left-censoring threshold above 0, the observations below it
    contribute n_below * ln F(threshold) instead of their exact density,
    and the start uses the mean of the rest.  That makes the fit robust to
    values quantized by instrument precision near the bottom of the scale.
    At threshold 0, or any threshold below min(data), no value is censored
    and the objective, starts and result are the uncensored fit's, bit for
    bit.
    """
    threshold = _censoring_threshold(threshold)
    n_total, exceed, mean = _exceedances(data, threshold)
    evaluate = _profile_loglik(exceed, n_total - exceed.size, threshold)
    y_max = float(np.max(exceed))

    def start(t: np.ndarray) -> np.ndarray:
        # (ln kappa, ln sigma, xi logit) -> (ln sigma, v); kappa is profiled.
        # A start with max(y) beyond its support edge is moved towards
        # heavier tails, a logit step at a time.
        log_sigma = min(max(float(t[1]), -LOG_CLAMP), LOG_CLAMP)
        lo = _xi_floor(math.exp(log_sigma), y_max)
        s = float(t[2])
        for _ in range(5):
            if _s_to_xi(s) > lo:
                break
            s += 1.0
        v = (_s_to_xi(s) - lo) / (XI_MAX - lo)
        return np.array([log_sigma, min(max(v, 0.0), 1.0)])

    lower = np.array([-LOG_CLAMP, 0.0])
    upper = np.array([LOG_CLAMP, 1.0])
    init = np.array([0.0, math.log(mean), _xi_to_s(0.1)])
    # One errstate for the whole fit: the objective turns a non-finite
    # point into inf itself.
    with np.errstate(all="ignore"):
        best, diag = multistart(
            lambda x0: lbfgsb(lambda x: evaluate(x)[:2], x0, lower, upper, max_iter=MAX_ITER),
            [start(t) for t in jittered_starts(init, restarts + 1, rng)],
        )
        if not math.isfinite(best.value):
            raise ValueError("the likelihood is not finite at any start")
        _, _, kappa, xi = evaluate(best.x)
    params = EgpdParams(kappa, math.exp(float(best.x[0])), xi)
    diag.update(
        converged=best.converged and _SCALE_MIN < kappa < _SCALE_MAX,
        objective=-best.value * n_total,
        boundary_hit=_boundary_hit(params),
        small_sample=n_total < _SMALL_SAMPLE_N,
    )
    return params, diag


# Tanh-sinh rule on (0, 1): t = (1 + tanh z)/2 with z = (pi/2) sinh s, at
# s = -3.0, -2.9, ..., 6.0.  1 - t is kept as its own array, as 1/(1 + e^2z),
# down to 1e-275, so the u -> 1 end of the quantile integrand is sampled
# without rounding u to 1.  Nodes crowd double-exponentially towards both
# ends, which is what resolves the algebraic endpoint behaviour
# (1 - u)^(-xi) and u^(1/kappa) that a Gauss-Legendre rule cannot.
_TS_STEP = 0.1
_TS_S = _TS_STEP * np.arange(-30, 61)
_TS_Z = 0.5 * math.pi * np.sinh(_TS_S)
_TS_T = 1.0 / (1.0 + np.exp(-2.0 * _TS_Z))
_TS_ONE_MINUS_T = 1.0 / (1.0 + np.exp(2.0 * _TS_Z))
# Rows: the rule's weights times t^0, t^1 and t^2.
_TS_MOMENT_WEIGHTS = (
    _TS_STEP * 0.25 * math.pi * np.cosh(_TS_S) / np.cosh(_TS_Z) ** 2
) * np.vstack([np.ones_like(_TS_T), _TS_T, _TS_T * _TS_T])


def conditional_pwms(params: EgpdParams, threshold: float) -> tuple[float, float, float]:
    """Theoretical PWMs of Y | Y >= threshold for j = 0, 1, 2.

    At threshold 0 they are the plain PWMs nu_j = E[Y F(Y)^j], in closed
    form (sigma/xi) [kappa B(kappa m, 1 - xi) - 1/m] with m = j + 1, and
    (sigma/m)(psi(kappa m + 1) + euler_gamma) at xi = 0.
    nu_j^c = integral over t in (0, 1) of Q(p_L + (1 - p_L) t) t^j dt, with
    p_L = F(threshold).  The quantile is written through
    v = 1 - u^(1/kappa) as Q = (sigma/xi) expm1(-xi ln v), with ln v taken
    from 1 - u = (1 - p_L)(1 - t), so the integrand has no cancellation at
    any xi (xi = 0 gives -sigma ln v) and stays exact as u -> 1, where it
    grows like (1 - u)^(-xi).  The fixed 91-node tanh-sinh rule above
    clusters nodes double-exponentially at both ends and agrees with
    60-digit quadrature to about 1e-14 relative for xi in [-0.5, 0.95],
    kappa >= 0.05 and p_L up to 0.9999.  It loses accuracy only when kappa
    is tiny and p_L is near 0: about 4e-7 at kappa = 1e-3 and 6e-4 at the
    fits' clamp kappa = e^-12, threshold 0, where the plain PWM fit solves.
    """
    p_l, one_minus_p = _censored_mass(threshold, params)
    if p_l >= 1.0 - 1e-12:
        raise ValueError("threshold is at or beyond the distribution's support")
    kappa, sigma, xi = params.kappa, params.sigma, params.xi
    log_v = np.log(-np.expm1(np.log1p(-one_minus_p * _TS_ONE_MINUS_T) / kappa))
    if xi == 0.0:
        scale, shape = -sigma, log_v
    else:
        scale, shape = sigma / xi, np.expm1(-xi * log_v)
    nu0, nu1, nu2 = (scale * (_TS_MOMENT_WEIGHTS @ shape)).tolist()
    return nu0, nu1, nu2


def fit_pwm_from_moments(
    nu0: float,
    nu1: float,
    nu2: float,
    threshold: float = 0.0,
    *,
    restarts: int = 4,
    rng: RngState = _DEFAULT_RNG,
) -> tuple[EgpdParams, dict]:
    """Solve conditional_pwms(params, threshold) = (nu0, nu1, nu2).

    At threshold 0 the conditional PWMs are the plain ones, E[Y F(Y)^j].
    Levenberg-Marquardt on the three relative residuals over
    (ln kappa, ln sigma, xi), with a forward-difference Jacobian, from
    kappa = 1, sigma = nu0, xi = 0.1 plus `restarts` jittered copies, with
    at most `MAX_ITER` residual evaluations per start.
    ln kappa and ln sigma are clamped to [-12, 12] and xi to [-0.5, 0.95]
    inside the residuals.  Where the threshold is at or beyond the
    support's upper end, the model's PWMs are taken as those of a point
    mass at the threshold, (c, c/2, c/3): their limit as that end falls to
    the threshold.  So the residuals are finite at every trial point.
    Converged means the solver stopped on a tolerance and the residual
    norm is at most 1e-6.  fit_pwm calls this with the empirical PWMs of
    the values at or above the threshold.
    """
    if not all(math.isfinite(v) and v > 0.0 for v in (nu0, nu1, nu2)):
        raise ValueError("probability weighted moments must be finite and > 0")
    threshold = _censoring_threshold(threshold)
    nu_hat = np.array([nu0, nu1, nu2])
    nu_edge = threshold / np.array([1.0, 2.0, 3.0])

    def unpack(t: np.ndarray) -> EgpdParams:
        xi = min(max(float(t[2]), XI_MIN), XI_MAX)
        return EgpdParams(_exp_clamped(t[0]), _exp_clamped(t[1]), xi)

    def residuals(t: np.ndarray) -> np.ndarray:
        try:
            nu_model = np.array(conditional_pwms(unpack(t), threshold))
        except ValueError:  # the threshold is at or beyond the support's end
            nu_model = nu_edge
        return (nu_model - nu_hat) / nu_hat

    init = np.array([0.0, math.log(nu0), _xi_to_s(0.1)])
    starts = jittered_starts(init, restarts + 1, rng)
    best, diag = multistart(
        lambda t0: solve_least_squares(residuals, t0, max_eval=MAX_ITER),
        [np.array([t[0], t[1], _s_to_xi(float(t[2]))]) for t in starts],
    )
    params = unpack(best.x)
    residual = math.sqrt(best.value)
    diag.update(
        converged=best.converged and residual <= 1e-6,
        objective=best.value,
        boundary_hit=_boundary_hit(params),
        residual=residual,
    )
    return params, diag


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


def fit_pwm(
    data,
    threshold: float = 0.0,
    *,
    restarts: int = 4,
    rng: RngState = _DEFAULT_RNG,
) -> tuple[EgpdParams, dict]:
    """PWM fit: the empirical nu_0, nu_1, nu_2 matched to the model's.

    They are the PWMs of {y : y >= threshold} and of Y | Y >= threshold,
    at threshold 0 those of the whole sample and of Y.  Either way one
    system is solved; see fit_pwm_from_moments.
    """
    threshold = _censoring_threshold(threshold)
    n_total, exceed, _ = _exceedances(data, threshold)
    params, diag = fit_pwm_from_moments(
        *empirical_pwms(exceed), threshold, restarts=restarts, rng=rng
    )
    diag["small_sample"] = n_total < _SMALL_SAMPLE_N
    return params, diag
