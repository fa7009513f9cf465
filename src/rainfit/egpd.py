"""Extended generalized Pareto distribution with a power carrier.

The family has CDF F(y) = H(y; sigma, xi)^kappa, where H is the generalized
Pareto CDF.  kappa > 0 reshapes the low-rainfall end of the distribution
while the GP pair (sigma, xi) keeps control of the upper tail, which makes
the family usable across the whole wet-day range rather than only above a
high threshold.

Four estimators are provided: maximum likelihood (`fit_mle`), probability
weighted moments (`fit_pwm`), and censored variants of both that treat
values below a threshold (default 1 mm) as interval-censored at zero cost
to the tail fit.  The censored PWM fit matches conditional PWMs of
Y | Y >= threshold, which `conditional_pwms` integrates with a fixed
tanh-sinh rule that resolves the (1 - u)^(-xi) endpoint singularity of the
quantile function to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import SortedSample, empirical_pwm
from .numerics import (
    EULER_GAMMA,
    FitDiagnostics,
    RngState,
    jittered_starts,
    nelder_mead,
)

__all__ = [
    "CensoringSpec",
    "EgpdParams",
    "XI_EPS",
    "XI_MAX",
    "XI_MIN",
    "conditional_pwms",
    "egpd_cdf",
    "egpd_log_pdf",
    "egpd_quantile",
    "egpd_simulate",
    "fit_mle",
    "fit_mle_censored",
    "fit_pwm",
    "fit_pwm_censored",
    "fit_pwm_censored_from_moments",
    "fit_pwm_from_moments",
    "gp_cdf",
    "theoretical_pwm",
]

XI_EPS = 1e-8
XI_MIN = -0.5
XI_MAX = 0.95

_LOG_CLAMP = 12.0
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
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError("kappa must be finite and > 0")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be finite and > 0")
        if not (math.isfinite(self.xi) and XI_MIN <= self.xi <= XI_MAX):
            raise ValueError(f"xi must lie in [{XI_MIN}, {XI_MAX}]")

    def to_dict(self) -> dict:
        return {"kappa": self.kappa, "sigma": self.sigma, "xi": self.xi}


@dataclass(frozen=True)
class CensoringSpec:
    """Left-censoring threshold in mm; observations below it enter the fit
    only through the probability mass F(threshold)."""

    threshold: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise ValueError("censoring threshold must be > 0")


def _as_float_array(y) -> tuple[np.ndarray, bool]:
    arr = np.asarray(y, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool) -> float | np.ndarray:
    return float(arr) if scalar else arr


def gp_cdf(y, sigma: float, xi: float):
    """Generalized Pareto CDF H(y; sigma, xi).

    H(y) = 1 - (1 + xi y / sigma)^(-1/xi), with the exponential limit
    1 - exp(-y/sigma) on the |xi| < 1e-8 branch.  For xi < 0 the support
    ends at -sigma/xi and H is 1 beyond it.  Accepts scalars or arrays.
    """
    arr, scalar = _as_float_array(y)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError("sigma must be > 0")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite and >= 0")
    if abs(xi) < XI_EPS:
        out = -np.expm1(-arr / sigma)
    else:
        z = xi * arr / sigma
        capped = z <= -1.0
        out = -np.expm1(-np.log1p(np.where(capped, 0.0, z)) / xi)
        out = np.where(capped, 1.0, out)
    out = np.clip(out, 0.0, 1.0)
    return _maybe_scalar(out, scalar)


def egpd_cdf(y, params: EgpdParams):
    """F(y) = H(y; sigma, xi)^kappa.  F(0) = 0 and F is nondecreasing."""
    h = gp_cdf(y, params.sigma, params.xi)
    return np.power(h, params.kappa) if isinstance(h, np.ndarray) else h**params.kappa


def _censored_mass(threshold: float, params: EgpdParams) -> tuple[float, float]:
    """(F(threshold), 1 - F(threshold)) for a scalar threshold >= 0.

    F equals egpd_cdf(threshold, params) to the bit: the ufuncs run on a
    Python float, which skips the array checks but not numpy's own log1p
    and expm1.  1 - F is formed as -expm1(kappa ln H), so it keeps its
    relative accuracy as F approaches 1.
    """
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError("y must be finite and >= 0")
    kappa, sigma, xi = params.kappa, params.sigma, params.xi
    if abs(xi) < XI_EPS:
        log_tail = threshold / sigma
    else:
        z = xi * threshold / sigma
        if z <= -1.0:
            return 1.0, 0.0
        log_tail = float(np.log1p(z)) / xi
    h = float(-np.expm1(-log_tail))
    # ln H = ln(1 - e^-l), from whichever side does not cancel.
    if log_tail > _LN2:
        log_h = math.log1p(-math.exp(-log_tail))
    else:
        log_h = math.log(h) if h > 0.0 else -math.inf
    return h**kappa, -math.expm1(kappa * log_h)


def egpd_log_pdf(y, params: EgpdParams):
    """Log density log[kappa h(y) H(y)^(kappa-1)]; -inf outside the support."""
    arr, scalar = _as_float_array(y)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite and > 0")
    kappa, sigma, xi = params.kappa, params.sigma, params.xi
    if abs(xi) < XI_EPS:
        scaled = arr / sigma
        log_h = -math.log(sigma) - scaled
        big_h = -np.expm1(-scaled)
    else:
        z = xi * arr / sigma
        outside = z <= -1.0
        l1p = np.log1p(np.where(outside, 0.0, z))
        log_h = -math.log(sigma) - (1.0 + 1.0 / xi) * l1p
        big_h = -np.expm1(-l1p / xi)
        log_h = np.where(outside, -np.inf, log_h)
        big_h = np.where(outside, 1.0, big_h)
    with np.errstate(divide="ignore"):
        log_big_h = np.log(big_h)
    out = math.log(kappa) + log_h + (kappa - 1.0) * log_big_h
    return _maybe_scalar(out, scalar)


def egpd_quantile(p, params: EgpdParams):
    """Quantile Q(p) = (sigma/xi)[(1 - p^(1/kappa))^(-xi) - 1].

    Uses the exponential-limit branch -sigma ln(1 - p^(1/kappa)) for
    |xi| < 1e-8.  The roundtrip |egpd_cdf(Q(p)) - p| holds to 1e-10.
    """
    arr, scalar = _as_float_array(p)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError("p must lie strictly inside (0, 1)")
    kappa, sigma, xi = params.kappa, params.sigma, params.xi
    log_one_minus_u = np.log1p(-np.power(arr, 1.0 / kappa))
    if abs(xi) < XI_EPS:
        out = -sigma * log_one_minus_u
    else:
        out = (sigma / xi) * np.expm1(-xi * log_one_minus_u)
    return _maybe_scalar(out, scalar)


def egpd_simulate(n: int, params: EgpdParams, rng: RngState) -> np.ndarray:
    """n inverse-CDF draws; deterministic for a given RngState."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.empty(0)
    return np.asarray(egpd_quantile(rng.uniforms(n), params))


def theoretical_pwm(j: int, params: EgpdParams) -> float:
    """Probability weighted moment nu_j = E[Y F(Y)^j] in closed form.

    With m = j + 1, nu_j = (sigma/xi) [kappa B(kappa m, 1 - xi) - 1/m],
    evaluated as (sigma/xi) expm1(delta)/m with
    delta = lgamma(kappa m + 1) + lgamma(1 - xi) - lgamma(kappa m + 1 - xi)
    to avoid the cancellation of the two terms at small xi.  The xi -> 0
    limit is exact: nu_j = (sigma/m) [psi(kappa m + 1) + euler_gamma].
    Requires xi < 1 - 1e-6 for the moment to exist.
    """
    if j not in (0, 1, 2):
        raise ValueError("moment order j must be 0, 1 or 2")
    kappa, sigma, xi = params.kappa, params.sigma, params.xi
    if xi >= 1.0 - 1e-6:
        raise ValueError("PWMs require xi < 1")
    m = j + 1.0
    if abs(xi) < XI_EPS:
        from scipy.special import digamma

        return sigma / m * (float(digamma(kappa * m + 1.0)) + EULER_GAMMA)
    return sigma / xi * _pwm_shape(j, kappa, xi)


# --- fitting machinery -----------------------------------------------------


def _xi_to_s(xi: float) -> float:
    frac = (xi - XI_MIN) / (XI_MAX - XI_MIN)
    return math.log(frac / (1.0 - frac))


def _s_to_xi(s: float) -> float:
    s = min(max(s, -30.0), 30.0)
    return XI_MIN + (XI_MAX - XI_MIN) / (1.0 + math.exp(-s))


def _theta_from_t(t: np.ndarray) -> EgpdParams:
    log_kappa = min(max(float(t[0]), -_LOG_CLAMP), _LOG_CLAMP)
    log_sigma = min(max(float(t[1]), -_LOG_CLAMP), _LOG_CLAMP)
    return EgpdParams(math.exp(log_kappa), math.exp(log_sigma), _s_to_xi(float(t[2])))


def _boundary_hit(params: EgpdParams) -> bool:
    edge = 1e-3
    if abs(math.log(params.kappa)) >= _LOG_CLAMP - 1e-9:
        return True
    if abs(math.log(params.sigma)) >= _LOG_CLAMP - 1e-9:
        return True
    return params.xi <= XI_MIN + edge or params.xi >= XI_MAX - edge


def _validate_data(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("data must be a nonempty vector")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("data values must be finite and > 0")
    if arr.size < 30:
        raise ValueError("need at least 30 observations")
    return arr


def _multistart_minimize(
    objective,
    init: np.ndarray,
    restarts: int,
    rng: RngState,
    *,
    max_iter: int,
    xatol: float = 1e-9,
    fatol: float = 1e-10,
):
    """Run nelder_mead from init and `restarts` jittered copies; keep the best.

    Starting points where the objective is not finite are nudged toward
    heavier tails (xi upward) a few times before giving up on that start.
    Returns the best result, its start's index and the objective
    evaluations summed over all starts, probes included.
    """
    starts = jittered_starts(init, restarts + 1, rng)
    best = None
    best_index = -1
    n_eval = 0
    for index, t0 in enumerate(starts):
        t0 = t0.copy()
        ok = False
        for _ in range(5):
            n_eval += 1
            if np.isfinite(objective(t0)):
                ok = True
                break
            t0[-1] += 1.0
        if not ok:
            continue
        result = nelder_mead(objective, t0, xatol=xatol, fatol=fatol, max_iter=max_iter)
        n_eval += result.n_eval
        if best is None or result.value < best.value:
            best = result
            best_index = index
    if best is None:
        raise RuntimeError("no feasible starting point found")
    return best, best_index, n_eval


def fit_mle(
    data,
    *,
    restarts: int = 4,
    rng: RngState | None = None,
    max_iter: int = 5000,
) -> tuple[EgpdParams, FitDiagnostics]:
    """Maximum likelihood fit over (ln kappa, ln sigma, logit-scaled xi).

    Starts from kappa=1, sigma=mean(data), xi=0.1 plus `restarts` jittered
    copies (multiplicative jitter bounded by e^0.5, seeded by `rng`), and
    keeps the best mode.  Non-convergence is flagged in the diagnostics,
    never raised; the best candidate is always returned.
    """
    x = _validate_data(data)
    return _fit_mle_impl(x, x, 0, restarts, rng, max_iter)


def fit_mle_censored(
    data,
    spec: CensoringSpec = CensoringSpec(),
    *,
    restarts: int = 4,
    rng: RngState | None = None,
    max_iter: int = 5000,
) -> tuple[EgpdParams, FitDiagnostics]:
    """Censored maximum likelihood.

    Observations below spec.threshold contribute n_below * ln F(threshold)
    instead of their exact density, which makes the fit robust to values
    quantized by instrument precision near the bottom of the scale.  With a
    threshold below min(data) the objective, starts, and result coincide
    bit-for-bit with fit_mle.
    """
    x = _validate_data(data)
    exceed = x[x >= spec.threshold]
    n_below = x.size - exceed.size
    if exceed.size == 0:
        raise ValueError("all data fall below the censoring threshold")
    if exceed.size < 30:
        raise ValueError("need at least 30 observations at or above the threshold")
    return _fit_mle_impl(x, exceed, n_below, restarts, rng, max_iter, threshold=spec.threshold)


def _fit_mle_impl(
    full: np.ndarray,
    exceed: np.ndarray,
    n_below: int,
    restarts: int,
    rng: RngState | None,
    max_iter: int,
    *,
    threshold: float | None = None,
) -> tuple[EgpdParams, FitDiagnostics]:
    rng = rng if rng is not None else _DEFAULT_RNG
    n_total = full.size

    def neg_mean_loglik(t: np.ndarray) -> float:
        params = _theta_from_t(t)
        total = float(np.sum(egpd_log_pdf(exceed, params)))
        if n_below > 0:
            mass = _censored_mass(threshold, params)[0]
            if mass <= 0.0:
                return math.inf
            total += n_below * math.log(mass)
        return -total / n_total if math.isfinite(total) else math.inf

    init = np.array([0.0, math.log(float(np.mean(exceed))), _xi_to_s(0.1)])
    best, best_index, n_eval = _multistart_minimize(
        neg_mean_loglik, init, restarts, rng, max_iter=max_iter
    )
    params = _theta_from_t(best.x)
    diag = FitDiagnostics(
        converged=best.converged,
        objective=-best.value * n_total,
        restart_index=best_index,
        n_iter=best.n_iter,
        n_eval=n_eval,
        boundary_hit=_boundary_hit(params),
        small_sample=n_total < _SMALL_SAMPLE_N,
    )
    return params, diag


def _pwm_shape(j: int, kappa: float, xi: float) -> float:
    """g_j(kappa, xi) = kappa B(kappa(j+1), 1-xi) - 1/(j+1), via expm1."""
    a = kappa * (j + 1.0) + 1.0
    delta = math.lgamma(a) + math.lgamma(1.0 - xi) - math.lgamma(a - xi)
    return math.expm1(delta) / (j + 1.0)


def fit_pwm_from_moments(
    nu0: float,
    nu1: float,
    nu2: float,
    *,
    restarts: int = 4,
    rng: RngState | None = None,
    max_iter: int = 5000,
) -> tuple[EgpdParams, FitDiagnostics]:
    """Solve the two-ratio PWM system for (kappa, xi), then back out sigma.

    Matches nu1/nu0 and nu2/nu0 against g_j(kappa, xi)/g_0(kappa, xi) by
    least squares over (ln kappa, xi), with xi clipped to the fitting box
    and kept off the xi=0 branch (|xi| >= 1e-8, where g_j/xi is 0/0).
    sigma = xi nu0 / g_0.  Converged means the optimizer stopped and the
    residual norm is at most 1e-6.
    """
    if not all(math.isfinite(v) and v > 0.0 for v in (nu0, nu1, nu2)):
        raise ValueError("probability weighted moments must be finite and > 0")
    rng = rng if rng is not None else _DEFAULT_RNG
    r1_target = nu1 / nu0
    r2_target = nu2 / nu0

    def unpack(z: np.ndarray) -> tuple[float, float]:
        log_kappa = min(max(float(z[0]), -_LOG_CLAMP), _LOG_CLAMP)
        xi = min(max(float(z[1]), XI_MIN), XI_MAX)
        if abs(xi) < XI_EPS:
            xi = XI_EPS if xi >= 0.0 else -XI_EPS
        return math.exp(log_kappa), xi

    def objective(z: np.ndarray) -> float:
        kappa, xi = unpack(z)
        g0 = _pwm_shape(0, kappa, xi)
        g1 = _pwm_shape(1, kappa, xi)
        g2 = _pwm_shape(2, kappa, xi)
        if g0 == 0.0 or not all(map(math.isfinite, (g0, g1, g2))):
            return math.inf
        return (g1 / g0 - r1_target) ** 2 + (g2 / g0 - r2_target) ** 2

    init = np.array([0.0, 0.1])
    best, best_index, n_eval = _multistart_minimize(
        objective, init, restarts, rng, max_iter=max_iter, xatol=1e-10, fatol=1e-16
    )
    kappa, xi = unpack(best.x)
    sigma = xi * nu0 / _pwm_shape(0, kappa, xi)
    params = EgpdParams(kappa, sigma, xi)
    residual = math.sqrt(best.value)
    diag = FitDiagnostics(
        converged=best.converged and residual <= 1e-6,
        objective=best.value,
        restart_index=best_index,
        n_iter=best.n_iter,
        n_eval=n_eval,
        boundary_hit=_boundary_hit(params),
        residual=residual,
    )
    return params, diag


def fit_pwm(
    data,
    *,
    restarts: int = 4,
    rng: RngState | None = None,
    max_iter: int = 5000,
) -> tuple[EgpdParams, FitDiagnostics]:
    """PWM fit: empirical nu_0, nu_1, nu_2 matched to their closed forms."""
    x = _validate_data(data)
    sample = SortedSample(x)
    nu = [empirical_pwm(sample, j) for j in (0, 1, 2)]
    params, diag = fit_pwm_from_moments(
        nu[0], nu[1], nu[2], restarts=restarts, rng=rng, max_iter=max_iter
    )
    diag.small_sample = x.size < _SMALL_SAMPLE_N
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

    nu_j^c = integral over t in (0, 1) of Q(p_L + (1 - p_L) t) t^j dt, with
    p_L = F(threshold).  The quantile is written through
    v = 1 - u^(1/kappa) as Q = (sigma/xi) expm1(-xi ln v), with ln v taken
    from 1 - u = (1 - p_L)(1 - t), so the integrand has no cancellation at
    any xi (xi = 0 gives -sigma ln v) and stays exact as u -> 1, where it
    grows like (1 - u)^(-xi).  The fixed 91-node tanh-sinh rule above
    clusters nodes double-exponentially at both ends and agrees with
    60-digit quadrature to about 1e-14 relative for xi in [-0.5, 0.95],
    kappa >= 0.05 and p_L up to 0.9999.  It loses accuracy only when kappa
    is tiny and p_L is near 0 (about 4e-7 at kappa = 1e-3, threshold 0).
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


def fit_pwm_censored_from_moments(
    nu0: float,
    nu1: float,
    nu2: float,
    threshold: float,
    *,
    mean_start: float | None = None,
    restarts: int = 4,
    rng: RngState | None = None,
    max_iter: int = 5000,
) -> tuple[EgpdParams, FitDiagnostics]:
    """Solve conditional_pwms(params, threshold) = (nu0, nu1, nu2).

    Least squares on relative residuals over all three transformed
    parameters; used by fit_pwm_censored with the exceedance sample's
    empirical PWMs plugged in.
    """
    if not (nu0 > 0.0 and nu1 > 0.0 and nu2 > 0.0):
        raise ValueError("conditional PWMs must be > 0")
    rng = rng if rng is not None else _DEFAULT_RNG
    nu_hat = np.array([nu0, nu1, nu2])

    def objective(t: np.ndarray) -> float:
        params = _theta_from_t(t)
        if params.xi < 0.0 and -params.sigma / params.xi <= threshold:
            return math.inf
        try:
            nu_model = np.array(conditional_pwms(params, threshold))
        except ValueError:
            return math.inf
        if not np.all(np.isfinite(nu_model)):
            return math.inf
        rel = (nu_model - nu_hat) / nu_hat
        return float(np.dot(rel, rel))

    init = np.array(
        [0.0, math.log(mean_start if mean_start is not None else nu0), _xi_to_s(0.1)]
    )
    best, best_index, n_eval = _multistart_minimize(
        objective, init, restarts, rng, max_iter=max_iter, xatol=1e-10, fatol=1e-16
    )
    params = _theta_from_t(best.x)
    residual = math.sqrt(best.value)
    diag = FitDiagnostics(
        converged=best.converged and residual <= 1e-6,
        objective=best.value,
        restart_index=best_index,
        n_iter=best.n_iter,
        n_eval=n_eval,
        boundary_hit=_boundary_hit(params),
        residual=residual,
    )
    return params, diag


def fit_pwm_censored(
    data,
    spec: CensoringSpec = CensoringSpec(),
    *,
    restarts: int = 4,
    rng: RngState | None = None,
    max_iter: int = 5000,
) -> tuple[EgpdParams, FitDiagnostics]:
    """Censored PWM: exceedance PWMs matched to conditional theoretical PWMs.

    The empirical PWMs of {y : y >= threshold} are matched against the
    conditional moments of Y | Y >= threshold by least squares on relative
    residuals, over all three transformed parameters.
    """
    x = _validate_data(data)
    threshold = spec.threshold
    exceed = x[x >= threshold]
    if exceed.size == 0:
        raise ValueError("all data fall below the censoring threshold")
    if exceed.size < 30:
        raise ValueError("need at least 30 observations at or above the threshold")
    sample = SortedSample(exceed)
    nu = [empirical_pwm(sample, j) for j in (0, 1, 2)]
    params, diag = fit_pwm_censored_from_moments(
        nu[0],
        nu[1],
        nu[2],
        threshold,
        mean_start=float(np.mean(exceed)),
        restarts=restarts,
        rng=rng,
        max_iter=max_iter,
    )
    diag.small_sample = x.size < _SMALL_SAMPLE_N
    return params, diag
