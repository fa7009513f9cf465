"""Shared numerical kernels.

The local solvers and the multistart driver every fit runs, the checks of
a distribution function's argument and of a sample, a sample's quantile,
the box both model families keep their log parameters in, and
deterministic splittable random streams.  Every function is a pure
function of its explicit inputs, so the fits built on it repeat to the bit.

`multistart` runs one local solve from each start, keeps the best, and
starts the diagnostics dict `fits.jsonl` stores.  The local solves are
`lbfgsb`, L-BFGS-B on an analytic gradient (the likelihood and MAP fits),
and `solve_least_squares`, Levenberg-Marquardt in Python floats (the PWM
fits).  `nelder_mead` is no fit's solver: it is the name
`rainbench/tracer.py` patches, and a test oracle.

The fits get each compiled scipy function by name from `scipy_function`,
and `_SCIPY_FUNCTIONS` is the one place that knows which extension file
holds it.  `_scipy_kernel` loads that file without running any package
`__init__`: importing `scipy.optimize` and `scipy.special` would add
0.38-0.46 s to each process that fits (2-core host), and the extension
files alone add next to nothing.  Each process that fits calls
`preload_scipy` before its first fit is timed, so a scipy without a
function the methods call stops the run before any fit.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Sequence

import numpy as np

from .evaluation import sorted_quantile

__all__ = [
    "LOG_CLAMP",
    "LocalResult",
    "MAX_ITER",
    "MOMENTS_OUT_OF_RANGE",
    "RngState",
    "at_log_clamp",
    "checked_array",
    "empirical_quantile",
    "jittered_starts",
    "lbfgsb",
    "multistart",
    "nelder_mead",
    "positive_sample",
    "preload_scipy",
    "scipy_function",
    "scipy_version",
    "solve_least_squares",
    "splitmix64",
]

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
# Philox4x64-10 (Salmon et al. 2011, Random123): the round multipliers, the
# Weyl constants added to the key between rounds, and the round count.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10

# L-BFGS-B stops on a relative objective change below _FTOL or a projected
# gradient below _GTOL (both on a per-observation objective); a solve counts
# as converged when the projected gradient at the returned point is at most
# _CONVERGED_GTOL, however the line search ended.
_FTOL = 1e-15
_GTOL = 1e-10
_CONVERGED_GTOL = 1e-6
# Every fit's budget per start: L-BFGS-B iterations for the likelihood and
# MAP fits, Levenberg-Marquardt residual evaluations (difference steps
# included) for the moment fits.
MAX_ITER = 5000
# Correction pairs L-BFGS-B keeps.  scipy's default of 10 is below the 11
# dimensions of the K = 4 mixture MAP; 20 pairs cut the mixture fits'
# evaluations by about 40% on the paper-like-50 and mixture-50 presets.
_LBFGSB_MEMORY = 20
# The rest of the L-BFGS-B settings are scipy's defaults: 20 line-search
# steps per iteration and a cap of 15,000 evaluations.
_LBFGSB_MAX_LINE_SEARCH = 20
_LBFGSB_MAX_EVAL = 15000
# setulb's task codes, and the stop reasons scipy's minimize gives it.
_TASK_NEW_X = 1
_TASK_FG = 3
_TASK_STOP = 5
_STOP_EVALUATIONS = 502
_STOP_ITERATIONS = 504
# Levenberg-Marquardt: the step and relative-decrease tolerance, the
# damping after the first failed Gauss-Newton step (Nielsen's tau for a
# good start; from 1e-4 to 1e-8 the PWM fits of four presets took 0.88-1.08
# times the evaluations of the MINPACK solver this loop replaced), and the
# forward-difference step, sqrt(eps) as approx_fprime's.
_LM_TOL = 1e-15
_LM_DAMPING_START = 1e-6
_FD_STEP = math.sqrt(sys.float_info.epsilon)
# A start "reached the best mode" when its final objective is within this
# relative distance of the best start's; the absolute floor covers moment
# fits whose best residual is zero.
_BEST_RTOL = 1e-6
_BEST_ATOL = 1e-12


# What the fits call of scipy, by function name, and the compiled module
# that holds each (see `_scipy_kernel`): L-BFGS-B's `setulb`, in C with
# this signature since scipy 1.15, and the ufuncs behind scipy.special's
# digamma (`psi`) and gammainc.  pyproject.toml states the same requirement.
_SCIPY_REQUIREMENT = "rainfit requires scipy>=1.15 and has been run on scipy 1.17.1 only"
_SCIPY_FUNCTIONS = {
    "setulb": "scipy.optimize._lbfgsb",
    "psi": "scipy.special._special_ufuncs",
    "gammainc": "scipy.special._special_ufuncs",
}
_loaded_kernels: dict[str, ModuleType] = {}


def _scipy_kernel(full_name: str) -> ModuleType:
    """The compiled scipy module full_name, without its package.

    The module an `import` statement loaded, if one has, so a spy on it
    sees every call; otherwise the extension file alone, loaded once from
    the package's directory without running any package `__init__`.  The
    directory is found from the top-level package's spec plus the
    subpackage's path: `find_spec("scipy.optimize")` would import `scipy`.
    """
    module = sys.modules.get(full_name) or _loaded_kernels.get(full_name)
    if module is None:
        import importlib.util
        import os.path
        from importlib.machinery import PathFinder

        top, *sub = full_name.split(".")[:-1]
        spec = importlib.util.find_spec(top)
        if spec is None:
            raise ImportError(f"{top} is not installed; {_SCIPY_REQUIREMENT}", name=top)
        directories = [os.path.join(d, *sub) for d in spec.submodule_search_locations]
        spec = PathFinder.find_spec(full_name, directories)
        if spec is None:
            raise ImportError(
                f"scipy's compiled module {full_name} is not in {', '.join(directories)};"
                f" {_SCIPY_REQUIREMENT}",
                name=full_name,
            )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # A single-phase extension module enters itself in sys.modules as it
        # initializes.  Left there, a later `import scipy.optimize` would take
        # it from there and never bind it as the package's attribute; removed,
        # that import makes its own module over the same compiled functions.
        if sys.modules.get(full_name) is module:
            del sys.modules[full_name]
        _loaded_kernels[full_name] = module
    return module


def scipy_function(name: str):
    """scipy's compiled function `name`, from its module in `_SCIPY_FUNCTIONS`.

    A module without it is an ImportError that names both.
    """
    full_name = _SCIPY_FUNCTIONS[name]
    module = _scipy_kernel(full_name)
    if not hasattr(module, name):
        raise ImportError(
            f"scipy's compiled module {full_name} has no {name}; {_SCIPY_REQUIREMENT}",
            name=full_name,
        )
    return getattr(module, name)


def scipy_version() -> str:
    """scipy's version string, read from the `version.py` beside its kernels.

    Loaded by `_scipy_kernel`, so reading it runs no scipy `__init__` and
    adds nothing to sys.modules.
    """
    return _scipy_kernel("scipy.version").version


def preload_scipy(names) -> None:
    """Load and check the scipy functions names (`_SCIPY_FUNCTIONS` keys)."""
    for name in names:
        scipy_function(name)


def checked_array(x, in_domain: Callable[[np.ndarray], np.ndarray], message: str):
    """(x as a float array of at least one dimension, whether x is a scalar).

    The argument check of every distribution function: a ValueError with
    `message` unless every value is finite and `in_domain` holds for it.
    """
    arr = np.asarray(x, dtype=float)
    values = np.atleast_1d(arr)
    if not (np.all(np.isfinite(values)) and np.all(in_domain(values))):
        raise ValueError(message)
    return values, arr.ndim == 0


def positive_sample(data) -> np.ndarray:
    """data as a 1-D float array; a ValueError unless it is nonempty, finite and > 0."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("data must be a nonempty vector")
    return checked_array(x, lambda v: v > 0.0, "data values must be finite and > 0")[0]


# Both model families raise this when a sample's mean or variance, which
# their starts and moment estimators need, over- or underflows a float.
MOMENTS_OUT_OF_RANGE = "the sample's moments are out of float range"

# The fits keep the log of every scale and shape parameter (the EGPD's
# kappa and sigma, the mixtures' a_k and b_k) in [-LOG_CLAMP, LOG_CLAMP].
LOG_CLAMP = 12.0


def at_log_clamp(values) -> bool:
    """Whether any of the positive values has its log at an end of the box."""
    return max(abs(math.log(v)) for v in values) >= LOG_CLAMP - 1e-9


def empirical_quantile(sample, p):
    """Type-7 sample quantile: rank h = (n - 1) p + 1, linear interpolation.

    Accepts any vector of at least two finite reals (sign unrestricted; the
    formula itself does not care).  p is a level in (0, 1), giving a float,
    or a sequence of them, giving a list; the sample is sorted once either
    way and each level goes to `evaluation.sorted_quantile`.
    """
    scalar = np.ndim(p) == 0
    levels = [p] if scalar else list(p)
    if not all(0.0 < q < 1.0 for q in levels):
        raise ValueError("p must lie strictly between 0 and 1")
    x = np.sort(np.asarray(sample, dtype=float))
    if x.size < 2:
        raise ValueError("need at least two observations for a quantile")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample values must be finite")
    quantiles = [sorted_quantile(x, q) for q in levels]
    return quantiles[0] if scalar else quantiles


@dataclass
class LocalResult:
    """Outcome of one local solve from one start."""

    x: np.ndarray
    value: float
    converged: bool
    n_iter: int
    n_eval: int


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: Sequence[float] | np.ndarray,
    *,
    xatol: float = 1e-9,
    fatol: float = 1e-10,
    max_iter: int = 5000,
) -> LocalResult:
    """Minimize f from x0 by scipy's Nelder-Mead simplex.

    `scipy.optimize.minimize(method="Nelder-Mead")` with these tolerances
    and `maxiter` = max_iter: it stops when both the simplex's max-norm
    spread and the spread of its values are within xatol and fatol, or
    after max_iter iterations.  `converged` is scipy's `success`, `n_iter`
    its `nit` and `n_eval` its `nfev`, the calls of f.  An infinite value
    rejects a proposal, so an objective may wall off its domain with +inf.
    """
    from scipy.optimize import minimize

    res = minimize(f, x0, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": fatol, "maxiter": max_iter})
    return LocalResult(x=res.x, value=float(res.fun), converged=bool(res.success),
                       n_iter=int(res.nit), n_eval=int(res.nfev))


def lbfgsb(
    value_and_gradient: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    max_iter: int,
) -> LocalResult:
    """Minimize from x0, clipped into the box [lower, upper], by L-BFGS-B.

    value_and_gradient(x) returns the objective and its gradient; max_iter
    caps the iterations, and the solver keeps _LBFGSB_MEMORY correction
    pairs.  A bound may be infinite (the mixture logits are unbounded).
    `converged` is whether the projected gradient max |P(x - g) - x| at
    the returned point, P the projection onto the box, is at most 1e-6.
    That test, not the solver's stop reason, decides, since a line search
    can stop short at a stationary point.

    This is the reverse-communication loop of scipy's
    `minimize(method="L-BFGS-B", jac=True)` over the same compiled
    `setulb`, with the same options and the same stops (max_iter, and
    15,000 evaluations), so it takes the same iterates to the bit.  A
    request at the x just evaluated is served from a one-entry cache, as
    scipy serves it; `n_eval` counts the calls of value_and_gradient,
    which is scipy's `nfev`, and `n_iter` its `nit`.
    """
    setulb = scipy_function("setulb")
    x = np.array(np.clip(x0, lower, upper), dtype=np.float64)
    n = x.size
    m = _LBFGSB_MEMORY
    has_lower = ~np.isinf(lower)
    has_upper = ~np.isinf(upper)
    # setulb's bound codes: 0 none, 1 lower only, 2 both, 3 upper only.
    nbd = np.where(has_lower, np.where(has_upper, 2, 1), np.where(has_upper, 3, 0)).astype(np.int32)
    low = np.where(has_lower, lower, 0.0)
    high = np.where(has_upper, upper, 0.0)
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = _FTOL / sys.float_info.epsilon
    n_iter = n_eval = 0
    x_seen = None
    while True:
        setulb(m, x, low, high, nbd, f, g, factr, _GTOL, wa, iwa, task, lsave, isave, dsave,
               _LBFGSB_MAX_LINE_SEARCH, ln_task)
        if task[0] == _TASK_FG:
            if x_seen is None or not (x == x_seen).all():
                x_seen = x.copy()
                f_seen, g_seen = value_and_gradient(x_seen)
                n_eval += 1
            # setulb writes into g (it restores it after a failed line
            # search), so it gets a copy and the cached gradient stays.
            f, g = f_seen, np.array(g_seen, dtype=np.float64)
        elif task[0] == _TASK_NEW_X:
            n_iter += 1
            if n_iter >= max_iter:
                task[:] = _TASK_STOP, _STOP_ITERATIONS
            elif n_eval > _LBFGSB_MAX_EVAL:
                task[:] = _TASK_STOP, _STOP_EVALUATIONS
        else:
            break
    step = np.clip(x - g, lower, upper) - x
    return LocalResult(
        x=x,
        value=float(f),
        converged=float(np.max(np.abs(step))) <= _CONVERGED_GTOL,
        n_iter=n_iter,
        n_eval=n_eval,
    )


def solve_least_squares(
    residuals: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    max_eval: int,
) -> LocalResult:
    """Minimize |residuals(x)|^2 from x0 by Levenberg-Marquardt.

    Each iteration takes the Jacobian J by forward differences with
    absolute steps of sqrt(eps) = 1.5e-8, as scipy's `approx_fprime` takes
    them, around the residual r already computed at x.  It then tries
    steps s solving (J'J + damping diag(J'J)) s = -J'r until one lowers
    |r|^2 (Marquardt 1963; a zero diagonal entry counts as 1).  The
    damping starts at 0, so the first steps are Gauss-Newton's, and moves
    by Nielsen's rule (Madsen, Nielsen & Tingleff 2004): after a failed
    step it is multiplied by 2, 4, 8, ... (from 1e-6 if it was 0), and
    after a success by max(1/3, 1 - (2 rho - 1)^3), rho the decrease over
    the one the linear model predicted.  J'J, J'r and the Cholesky solve
    run in Python floats: for three unknowns numpy's per-call overhead
    costs more than the arithmetic.

    The solve stops, converged, when |r|^2 is 0, when a step is at most
    1e-15 (1 + max |x|) in every coordinate, or when an accepted step
    lowers |r|^2 by at most 1e-15 of itself.  It stops unconverged when
    max_eval calls of `residuals` leave no room for a Jacobian and a
    trial, or for another trial, and at a non-finite |r|^2, J'J or J'r.
    `n_eval` counts every call, difference steps included, and `n_iter`
    the Jacobians.  The `value` is the squared residual norm; whether it
    is small enough is the caller's test.  The solve is unconstrained: a
    caller with parameter limits clamps inside `residuals`.
    """
    x = np.array(x0, dtype=float).tolist()
    r = residuals(np.array(x)).tolist()
    f = _dot(r, r)
    n, n_eval, n_iter = len(x), 1, 0
    damping, growth = 0.0, 2.0
    converged = f == 0.0
    while not converged and 0.0 < f < math.inf and n_eval + n < max_eval:
        columns = []
        for i, xi in enumerate(x):
            # From |x| = 2^28 on, x + sqrt(eps) rounds to x: the step scales with x.
            h = _FD_STEP if xi + _FD_STEP != xi else _FD_STEP * xi
            r_step = residuals(np.array(x[:i] + [xi + h] + x[i + 1 :])).tolist()
            columns.append([(a - b) / ((xi + h) - xi) for a, b in zip(r_step, r)])
        n_eval, n_iter = n_eval + n, n_iter + 1
        jtj = [[_dot(ci, cj) for cj in columns] for ci in columns]
        jtr = [_dot(ci, r) for ci in columns]
        if not math.isfinite(sum(jtr) + sum(map(sum, jtj))):
            break
        while n_eval < max_eval:
            scaled = [damping * (jtj[i][i] or 1.0) for i in range(n)]
            step = _damped_step(jtj, jtr, scaled)
            if step is not None:  # else J'J + damping D is not positive definite
                if max(map(abs, step)) <= _LM_TOL * (1.0 + max(map(abs, x))):
                    converged = True
                    break
                trial = [a + b for a, b in zip(x, step)]
                r_trial = residuals(np.array(trial)).tolist()
                n_eval += 1
                f_trial = _dot(r_trial, r_trial)
                if f_trial < f:
                    predicted = _dot(step, [c * s - g for s, c, g in zip(step, scaled, jtr)])
                    rho = (f - f_trial) / predicted if predicted > 0.0 else 0.0
                    converged = f_trial == 0.0 or f - f_trial <= _LM_TOL * f
                    x, r, f = trial, r_trial, f_trial
                    damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                    growth = 2.0
                    break
            damping, growth = max(damping * growth, _LM_DAMPING_START), 2.0 * growth
    return LocalResult(x=np.array(x), value=f, converged=converged, n_iter=n_iter, n_eval=n_eval)


def _dot(a: list[float], b: list[float]) -> float:
    return sum(map(operator.mul, a, b))


def _damped_step(a: list[list[float]], g: list[float], damping: list[float]) -> list[float] | None:
    """The s with (a + diag(damping)) s = -g, by Cholesky; None unless positive definite."""
    low: list[list[float]] = []  # row i holds its i + 1 entries up to the diagonal
    for i, a_row in enumerate(a):
        row: list[float] = []
        for j in range(i):
            row.append((a_row[j] - _dot(row, low[j])) / low[j][j])
        pivot = a_row[i] - _dot(row, row) + damping[i]
        if not pivot > 0.0:
            return None
        low.append(row + [math.sqrt(pivot)])
    y: list[float] = []
    for g_i, row in zip(g, low):
        y.append((-g_i - _dot(row, y)) / row[-1])
    for i in reversed(range(len(y))):
        y[i] = (y[i] - _dot([row[i] for row in low[i + 1 :]], y[i + 1 :])) / low[i][i]
    return y


def multistart(
    solve: Callable[[np.ndarray], LocalResult], starts: Sequence[np.ndarray]
) -> tuple[LocalResult, dict]:
    """Run `solve` from every start and keep the lowest final value.

    Returns the best start's result (the first, on ties) and the start of
    its fit's diagnostics: that start's `restart_index` and `n_iter`,
    `n_eval` summed over all starts, and `restarts_at_best`, the number of
    starts whose final value is within 1e-6 relative (1e-12 absolute) of
    the best.  Each fit adds its own keys to that dict.
    """
    results = [solve(x0) for x0 in starts]
    index = 0
    for i, result in enumerate(results):
        if result.value < results[index].value:
            index = i
    best = results[index]
    tol = _BEST_RTOL * abs(best.value) + _BEST_ATOL
    return best, {
        "restart_index": index,
        "n_iter": best.n_iter,
        "n_eval": sum(r.n_eval for r in results),
        "restarts_at_best": sum(abs(r.value - best.value) <= tol for r in results),
    }


def splitmix64(x: int) -> int:
    """One SplitMix64 mixing step: uint64 in, well-scrambled uint64 out."""
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngState:
    """Addressable deterministic random stream.

    A (seed, stream) pair keys a Philox counter-based generator, so the
    sequence depends only on the pair and never on draw order elsewhere in
    the program.  Child streams for site i / method j / restart r are derived
    with `derive`, which folds indices into the stream id through SplitMix64;
    distinct index tuples map to distinct streams for all practical purposes.
    """

    seed: int
    stream: int = 0

    def derive(self, *indices: int) -> "RngState":
        """New state whose stream id mixes in the given index path."""
        h = self.stream & _MASK64
        for ix in indices:
            h = splitmix64(h ^ (int(ix) & _MASK64))
        return RngState(seed=self.seed, stream=h)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator for this state; equal states give equal draws."""
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, n: int) -> np.ndarray:
        """First n uniforms of the stream, clipped into the open interval (0, 1)."""
        u = self.generator().random(n)
        return np.clip(u, 2.0**-53, 1.0 - 2.0**-53)

    def doubles(self, n: int) -> list[float]:
        """First n doubles in [0, 1) of the stream, computed without numpy.random.

        The same values, to the bit, as `self.generator().random(n)`: numpy's
        Philox4x64-10 encrypts the counters 1, 2, ... under the key
        (seed, stream), each block gives four 64-bit outputs, and an output
        x becomes (x >> 11) * 2**-53.  So no fit imports numpy.random, which
        adds 6.2-6.3 MB of peak RSS to a process (2-core host), a fifth of
        `paper-mixed`'s 30.3 MB peak.
        """
        key = (self.seed & _MASK64, self.stream & _MASK64)
        out: list[float] = []
        for counter in range(1, (n + 3) // 4 + 1):
            out.extend((x >> 11) * 2.0**-53 for x in _philox4x64(counter, *key))
        return out[:n]


def _philox4x64(counter: int, k0: int, k1: int) -> tuple[int, int, int, int]:
    """Philox4x64-10 of the counter (counter, 0, 0, 0) under the key (k0, k1)."""
    c0, c1, c2, c3 = counter, 0, 0, 0
    for _ in range(_PHILOX_ROUNDS):
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        k0 = (k0 + _PHILOX_W0) & _MASK64
        k1 = (k1 + _PHILOX_W1) & _MASK64
    return c0, c1, c2, c3


def jittered_starts(
    init: np.ndarray,
    n_restarts: int,
    rng: RngState,
) -> list[np.ndarray]:
    """Deterministic multistart points: init itself, then jittered copies.

    Restart r > 0 adds independent uniform(-0.5, 0.5) offsets per
    coordinate, u - 0.5 for the first doubles u of the stream
    `rng.derive(r)` (`RngState.doubles`), so the list does not depend on
    evaluation order.  These are the offsets numpy's
    `Generator.uniform(-0.5, 0.5)` draws from that stream, to the bit.
    """
    init = np.asarray(init, dtype=float)
    starts = [init.copy()]
    for r in range(1, n_restarts):
        offsets = [u - 0.5 for u in rng.derive(r).doubles(init.size)]
        starts.append(init + np.array(offsets))
    return starts

