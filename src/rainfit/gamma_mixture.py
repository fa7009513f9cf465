"""K-component gamma mixtures fitted by maximum a posteriori estimation.

The density is f(y) = sum_k pi_k y^(a_k - 1) e^(-y/b_k) / (Gamma(a_k) b_k^a_k)
with b_k a scale (not a rate).  The prior is the conjugate family of
Damsleth, b_k ~ InverseGamma(u, v) and p(a_k | b_k) proportional to
rho^(a_k - 1) / (b_k^(a_k q) Gamma(a_k)^r), fixed at u = 1.1, v = 2 and
rho = q = r = 1, so p(a_k | b_k) is proportional to 1 / (b_k^a_k Gamma(a_k));
the weights have a flat prior over the simplex.  The posterior
mode is found by L-BFGS-B on the analytic gradient in the transformed
space (softmax logits, ln a_k, ln b_k), dimension 3K - 1, with ln a_k and
ln b_k boxed to [-12, 12].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .numerics import (
    LOG_CLAMP,
    MAX_ITER,
    MOMENTS_OUT_OF_RANGE,
    RngState,
    _real_number,
    at_log_clamp,
    checked_array,
    empirical_quantile,
    jittered_starts,
    lbfgsb,
    multistart,
    nelder_mead,  # noqa: F401 - unused; rainbench/tracer.py patches this name
    positive_sample,
    scipy_function,
)

__all__ = [
    "GammaMixtureParams",
    "fit_map",
    "log_posterior",
    "mixture_cdf",
    "mixture_log_pdf",
    "mixture_quantile",
    "mixture_simulate",
]

_FLOAT_MIN = np.finfo(float).min
# Above this bracket top, the bisection's lo + hi can overflow.
_HALF_MAX = float(np.finfo(float).max) / 2.0
_DEFAULT_RNG = RngState(seed=0x6A77A)
# A component of a fitted mode counts towards `effective_k` from this weight.
_EFFECTIVE_WEIGHT = 1e-6
# The prior's u and v; rho = q = r = 1.
_PRIOR_U = 1.1
_PRIOR_V = 2.0


@dataclass(frozen=True)
class GammaMixtureParams:
    """Weights, shapes and scales of a K-component gamma mixture.

    Weights are probabilities summing to 1; shapes are dimensionless and
    scales are in mm.  K = 1 is accepted as an internal degenerate case
    (plain gamma); the benchmark profile uses K in {2, 3, 4}.
    """

    weights: tuple[float, ...]
    shapes: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        w, a, b = (tuple(_real_number(name, x) for x in getattr(self, name))
                   for name in ("weights", "shapes", "scales"))
        if not (len(w) == len(a) == len(b)) or len(w) == 0:
            raise ValueError("weights, shapes and scales must share a positive length")
        if any(not (math.isfinite(x) and 0.0 <= x <= 1.0) for x in w):
            raise ValueError("weights must lie in [0, 1]")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if any(not (math.isfinite(x) and x > 0.0) for x in a + b):
            raise ValueError("shapes and scales must be finite and > 0")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "shapes", a)
        object.__setattr__(self, "scales", b)

    def to_dict(self) -> dict:
        return {name: list(values) for name, values in asdict(self).items()}


class _LogDensity:
    """Per-point log mixture density of one sample y > 0, for K weights w,
    shapes a and scales b.

    The density has this one code path: mixture_log_pdf builds one per call
    and fit_map one per fit.  Component k's term
        t_k = c_k + (a_k - 1) ln y - y / b_k,
        c_k = ln w_k - ln Gamma(a_k) - a_k ln b_k,
    is row k of the (K, 3) coefficients (a_k - 1, -1 / b_k, c_k) times the
    rows (ln y, y, 1): one einsum.  The coefficients are K scalars computed
    with `math`, since numpy's per-call overhead exceeds the arithmetic at
    K <= 4.  The rows and the scratch arrays are made here, so the thousands
    of evaluations in a fit allocate nothing of size n.  Each call
    overwrites the array the previous call returned.  einsum runs its own
    loops, not BLAS, so no thread count changes a result.
    """

    def __init__(self, y: np.ndarray, k: int) -> None:
        self._basis = np.array([np.log(y), y, np.ones(y.size)])
        self._coef = np.empty((k, 3))
        self._terms = np.empty((k, y.size))
        # Rows 1/s, y/s and ln y/s for the statistics.  Until those are
        # formed, row 0 holds the column sums s and row 2 the maxima m.
        self._weights = np.empty((3, y.size))
        self._sums = self._weights[0]
        self._max = self._weights[2]

    def component_terms(self, w, a, b) -> np.ndarray:
        """(K, n) matrix of log[pi_k Ga(y; a_k, b_k)]; -inf rows for pi_k = 0."""
        rows = []
        for wk, ak, bk in zip(w, a, b):
            log_wk = math.log(wk) if wk > 0.0 else -math.inf
            rows.append((ak - 1.0, -1.0 / bk, log_wk - math.lgamma(ak) - ak * math.log(bk)))
        self._coef[:] = rows
        return np.einsum("kj,jn->kn", self._coef, self._basis, out=self._terms)

    def shifted_exp(self, w, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """exp(t - m) in place of the terms t, its column sums, and m = max_k t_k.

        Shifting by the column maximum keeps exp() in range; a zero-weight
        component's -inf row contributes exp(-inf) = 0.  The floor on m
        turns a column that is -inf throughout (y / b overflowed for every
        component) into -inf rather than -inf - -inf = nan.
        """
        terms = self.component_terms(w, a, b)
        m = np.maximum.reduce(terms, axis=0, out=self._max)
        np.maximum(m, _FLOAT_MIN, out=m)
        terms -= m
        np.exp(terms, out=terms)
        return terms, np.add.reduce(terms, axis=0, out=self._sums), m

    def log_lik_and_stats(self, w, a, b) -> tuple[float, np.ndarray]:
        """Log likelihood and the (3, K) rows N = sum r, S1 = sum r y, Sl = sum r ln y.

        The responsibilities are r = e / s with e = exp(t - m) and s its
        column sums, so the three rows are one einsum of e against 1/s, y/s
        and ln y/s.  The likelihood is the sum of what mixture_log_pdf
        returns, by the same operations.
        """
        e, total, m = self.shifted_exp(w, a, b)
        weights = self._weights
        log_density = np.log(total, out=weights[1])
        log_density += m
        loglik = float(np.add.reduce(log_density))
        np.divide(1.0, total, out=total)
        np.multiply(self._basis[1], total, out=weights[1])
        np.multiply(self._basis[0], total, out=weights[2])
        return loglik, np.einsum("jn,kn->jk", weights, e)


def mixture_log_pdf(y, params: GammaMixtureParams):
    """Log mixture density at y > 0: m + ln sum_k exp(t_k - m), m = max_k t_k,
    with t the component terms of `_LogDensity`."""
    arr, scalar = checked_array(y, lambda v: v > 0.0, "y must be finite and > 0")
    density = _LogDensity(arr, len(params.weights))
    _, out, m = density.shifted_exp(params.weights, params.shapes, params.scales)
    np.log(out, out=out)
    out += m
    return float(out[0]) if scalar else out


def _cdf_of(params: GammaMixtureParams):
    """The mixture CDF as a function of a 1-D array y >= 0, unchecked.

    The parameter arrays are bound once, for callers that evaluate it in a
    loop.
    """
    gammainc = scipy_function("gammainc")

    w, a, b = (np.array(t)[:, None] for t in (params.weights, params.shapes, params.scales))
    return lambda y: np.clip(np.add.reduce(w * gammainc(a, y / b), axis=0), 0.0, 1.0)


def mixture_cdf(y, params: GammaMixtureParams):
    """Mixture CDF: sum_k pi_k P(a_k, y/b_k) with P the regularized gamma CDF."""
    arr, scalar = checked_array(y, lambda v: v >= 0.0, "y must be finite and >= 0")
    out = _cdf_of(params)(arr)
    return float(out[0]) if scalar else out


def mixture_quantile(p, params: GammaMixtureParams):
    """Inverse mixture CDF at a scalar or an array of levels inside (0, 1).

    Bisection, 64 halvings of one bracket [0, hi] shared by every level;
    hi starts at max_k(a_k b_k) + 10 max_k(b_k sqrt(a_k)) and doubles until
    it covers the largest level.  A hi above half the largest float, where
    the bisection's lo + hi would overflow, is a ValueError.  Each result
    is within hi / 2^64 of the quantile: below a component of shape well
    under 1, a level of 1e-6 or less has only that absolute accuracy.
    """
    u, scalar = checked_array(p, lambda v: (v > 0.0) & (v < 1.0),
                              "p must lie strictly inside (0, 1)")
    cdf = _cdf_of(params)
    a = np.array(params.shapes)
    b = np.array(params.scales)
    hi_edge = float(np.max(a * b) + 10.0 * np.max(b * np.sqrt(a)))
    p_max = float(np.max(u, initial=0.0))
    while hi_edge <= _HALF_MAX and cdf(np.array([hi_edge]))[0] <= p_max:
        hi_edge *= 2.0
    if not hi_edge <= _HALF_MAX:
        raise ValueError("the mixture's quantiles overflow a float")
    lo = np.zeros_like(u)
    hi = np.full_like(u, hi_edge)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out


def mixture_simulate(n: int, params: GammaMixtureParams, rng: RngState) -> np.ndarray:
    """n inverse-CDF draws from the mixture; deterministic for a given rng."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return mixture_quantile(rng.uniforms(n), params)


def _log_prior(a, b) -> float:
    """Damsleth log prior summed over the K shapes a and scales b (scalars)."""
    constant = _PRIOR_U * math.log(_PRIOR_V) - math.lgamma(_PRIOR_U)
    total = 0.0
    for ak, bk in zip(a, b):
        log_bk = math.log(bk)
        total += (
            constant - ak * log_bk - (_PRIOR_U + 1.0) * log_bk - _PRIOR_V / bk
            - math.lgamma(ak)
        )
    return total


def log_posterior(data, params: GammaMixtureParams) -> float:
    """Log posterior density (up to the constant flat weight prior).

    Likelihood plus, per component,
        log IG(b; u, v) = u ln v - lgamma(u) - (u + 1) ln b - v/b
    and the conditional shape prior
        (a - 1) ln rho - a q ln b - r lgamma(a) = -a ln b - lgamma(a).
    The flat simplex prior on weights contributes zero.
    """
    loglik = float(np.sum(mixture_log_pdf(data, params)))
    return loglik + _log_prior(params.shapes, params.scales)


# --- MAP fitting -----------------------------------------------------------


def _components_from_z(
    zl: list[float], k: int
) -> tuple[list[float], list[float], list[float]]:
    """Weights, shapes and scales of the transformed point zl, as floats."""
    logits = zl[: k - 1] + [0.0]
    top = max(logits)
    e = [math.exp(t - top) for t in logits]
    total = sum(e)
    return (
        [ej / total for ej in e],
        [math.exp(t) for t in zl[k - 1 : 2 * k - 1]],
        [math.exp(t) for t in zl[2 * k - 1 :]],
    )


def _params_from_z(z: np.ndarray, k: int) -> GammaMixtureParams:
    """The mixture at the transformed point z, its components sorted by
    mean a_k b_k ascending (a stable sort): label order carries no meaning
    during optimization."""
    w, a, b = _components_from_z(np.asarray(z, dtype=float).tolist(), k)
    order = sorted(range(k), key=lambda j: a[j] * b[j])
    return GammaMixtureParams(*(tuple(v[j] for j in order) for v in (w, a, b)))


def _sliced_init(x: np.ndarray, k: int) -> np.ndarray:
    """Quantile-sliced moment-matched start in the transformed space."""
    edges = empirical_quantile(x, [j / k for j in range(1, k)])
    bounds = [-math.inf] + edges + [math.inf]
    weights = np.empty(k)
    log_a = np.empty(k)
    log_b = np.empty(k)
    for j in range(k):
        piece = x[(x >= bounds[j]) & (x < bounds[j + 1])] if k > 1 else x
        if piece.size == 0:
            piece = x
        # Values near the float limits over- or underflow the moments: a
        # ValueError, not a warning and a start of zeros or infinities.
        with np.errstate(over="ignore", invalid="ignore"):
            m = float(np.mean(piece))
            if not 0.0 < m * m < math.inf:
                raise ValueError(MOMENTS_OUT_OF_RANGE)
            v = float(np.var(piece, ddof=1)) if piece.size > 1 else (0.5 * m) ** 2
        v = max(v, 1e-12 * m * m)
        if not 0.0 < v < math.inf:
            raise ValueError(MOMENTS_OUT_OF_RANGE)
        a = min(max(m * m / v, 1e-3), 1e3)
        weights[j] = max(piece.size / x.size, 1e-3)
        log_a[j] = math.log(a)
        log_b[j] = math.log(m / a)
    weights = weights / weights.sum()
    logits = np.log(weights[: k - 1]) - math.log(weights[-1])
    return np.concatenate([logits, log_a, log_b])


def _map_value_and_gradient(x: np.ndarray, k: int):
    """z -> (f, grad f), f = -log_posterior(x, _params_from_z(z, k)) / n.

    x must already be validated.  One (K, n) pass gives both: with
    responsibilities r, N_k = sum r, S1_k = sum r y and Sl_k = sum r ln y,
    the log posterior's partial derivatives are
        d/d ln a_k = a_k (Sl_k - N_k psi(a_k) - N_k ln b_k - ln b_k - psi(a_k)),
        d/d ln b_k = S1_k / b_k - a_k N_k - (u + 1) + v / b_k - a_k,
        d/d logit_j = N_j - n w_j,
    the logit of component K being fixed at 0.  Everything of size K is
    scalar `math`, as in the density's coefficients and the prior.  A
    non-finite value is returned as inf with a zero gradient.  scipy's
    digamma is bound here, once per fit, so an evaluation runs no import
    statement.
    """
    digamma = scipy_function("psi")

    density = _LogDensity(x, k)
    n = x.size

    def value_and_gradient(z: np.ndarray) -> tuple[float, np.ndarray]:
        zl = z.tolist()
        w, a, b = _components_from_z(zl, k)
        loglik, stats = density.log_lik_and_stats(w, a, b)
        value = -(loglik + _log_prior(a, b)) / n
        if not math.isfinite(value):
            return math.inf, np.zeros(z.size)
        n_k, s1, sl = stats.tolist()
        psi = digamma(a).tolist()
        grad = [nj - n * wj for nj, wj in zip(n_k[: k - 1], w)]
        grad += [
            ak * (slk - nk * (pk + lbk) - lbk - pk)
            for ak, nk, slk, pk, lbk in zip(a, n_k, sl, psi, zl[2 * k - 1 :])
        ]
        grad += [
            (s1k + _PRIOR_V) / bk - ak * (nk + 1.0) - (_PRIOR_U + 1.0)
            for ak, bk, nk, s1k in zip(a, b, n_k, s1)
        ]
        return value, np.array(grad) / -n

    return value_and_gradient


def _map_bounds(k: int) -> tuple[np.ndarray, np.ndarray]:
    """L-BFGS-B box of the transformed space: free logits, |ln a|, |ln b| <= 12."""
    lower = np.concatenate([np.full(k - 1, -np.inf), np.full(2 * k, -LOG_CLAMP)])
    return lower, -lower


def fit_map(
    data,
    k: int,
    *,
    restarts: int = 7,
    rng: RngState = _DEFAULT_RNG,
) -> tuple[GammaMixtureParams, dict]:
    """MAP fit of a K-component gamma mixture by multistart L-BFGS-B.

    Starts from a quantile-sliced moment-matched point plus `restarts`
    jittered copies, each clipped into the box |ln a_k|, |ln b_k| <= 12,
    and maximizes log_posterior in the transformed space using its analytic
    gradient, for at most `MAX_ITER` L-BFGS-B iterations per start.  The fit
    is converged when the best start ends where the projected gradient of
    the per-observation objective is at most 1e-6.  Components of the
    returned mode are sorted by mean a_k b_k ascending.  K larger than n/10
    is rejected as unidentifiable at that sample size.  The diagnostics add
    the mode's `min_weight` and `effective_k`, its number of weights
    >= 1e-6: a mode with fewer has collapsed onto fewer components.
    """
    x = positive_sample(data)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > x.size / 10:
        raise ValueError("k too large for the sample size (k > n/10)")
    n = x.size
    dim = 3 * k - 1

    value_and_gradient = _map_value_and_gradient(x, k)
    lower, upper = _map_bounds(k)
    best, diag = multistart(
        lambda z0: lbfgsb(value_and_gradient, z0, lower, upper, max_iter=MAX_ITER),
        jittered_starts(_sliced_init(x, k), restarts + 1, rng),
    )
    if not math.isfinite(best.value):
        raise ValueError("the log posterior is not finite at any start")

    params = _params_from_z(best.x, k)
    diag.update(
        converged=best.converged,
        objective=-best.value * n,
        boundary_hit=at_log_clamp(params.shapes + params.scales),
        small_sample=n < 50 * dim,
        min_weight=min(params.weights),
        effective_k=sum(w >= _EFFECTIVE_WEIGHT for w in params.weights),
    )
    return params, diag
