"""Shared numerical kernels.

The local solvers and the multistart driver every fit runs, and
deterministic splittable random streams.  Everything in this module is a
pure function of its explicit inputs so that the statistical modules built
on top stay reproducible to the bit across runs, platforms, and worker
counts.

`multistart` runs one local solve from each start and keeps the best; both
model families call it.  Beside the best solve it returns the start of the
fit's diagnostics, a dict of plain Python numbers that each fit completes
and `fits.jsonl` stores as the record's `diagnostics` (the README's
`fits.jsonl` paragraph lists its keys).  The local solves are `lbfgsb`
(L-BFGS-B on an analytic gradient: the gamma-mixture MAP and the two EGPD
likelihood fits) and `solve_least_squares` (Levenberg-Marquardt on a
forward-difference Jacobian: the one moment system of the two EGPD PWM
fits).  Both drive scipy's compiled kernels, `setulb` and MINPACK's
`lmder`, directly, without the public `minimize` and `least_squares`
wrappers that copy and check x and re-evaluate around every call; they
take the steps those wrappers take, to the bit.  Every L-BFGS-B solve
keeps `_LBFGSB_MEMORY` = 20 correction pairs, more than the 3K - 1
dimensions of the largest mixture.  No fit calls `nelder_mead`, which is
scipy's Nelder-Mead simplex (`scipy.optimize.minimize`, imported when it
is called) returning a `LocalResult`: it is kept as the name
`rainbench/tracer.py` patches in `egpd` and `gamma_mixture`, and as an
oracle for tests that is independent of the fits' own solvers.

Importing any rainfit module loads numpy alone.  scipy is loaded inside
the functions that call it, as three compiled extension files that
`_scipy_kernel` loads without running any package `__init__`: the two
solver kernels and `_special_ufuncs`, whose `psi` and `gammainc` are
scipy.special's `digamma` and `gammainc` (the gamma mixtures call them).
No fit calls what the packages' `__init__`s load besides (scipy.linalg,
sparse, fft, spatial, scipy's array-API layer).  The one exception is MINPACK's
`_lmder`: on its first call it imports `scipy._lib._ccallback`, and with
it the `scipy` package, so `preload_scipy(lmder=True)` imports that up
front.  `pipeline.run_fits` calls `preload_scipy` once, before a fit
is timed or a worker pool forks, with `lmder` only when a PWM method is
requested, so no fit pays for the loading and a scipy without a function
the fits call stops the run before the first fit.  Without a PWM method
the loading runs no scipy `__init__`: on a 2-core host, loading what
two mixtures at restarts 0 call takes 0.029 s CPU, against 0.054 s for
loading `egpd` and the `scipy` package as well (and 0.43 s for importing
scipy.special).

No fit imports numpy.random either: a fit's only random draws, its
jittered starts, come from `RngState.doubles`, which computes the Philox
stream numpy's generator reads in Python, to the bit.  `RngState.generator`
and `uniforms` keep numpy's generator for the bulk draws of `simulate` and
the presets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "LocalResult",
    "MAX_ITER",
    "RngState",
    "SPECIAL_UFUNCS",
    "jittered_starts",
    "lbfgsb",
    "multistart",
    "nelder_mead",
    "positive_sample",
    "preload_scipy",
    "scipy_functions",
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
# MAP fits, Levenberg-Marquardt residual evaluations for the moment fits.
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
# Levenberg-Marquardt: ftol, xtol and gtol, MINPACK's initial step bound
# factor, and the forward-difference step, sqrt(eps) as approx_fprime's.
_LM_TOL = 1e-15
_LM_STEP_FACTOR = 100.0
_FD_STEP = math.sqrt(sys.float_info.epsilon)
# A start "reached the best mode" when its final objective is within this
# relative distance of the best start's; the absolute floor covers moment
# fits whose best residual is zero.
_BEST_RTOL = 1e-6
_BEST_ATOL = 1e-12


# What the fits call of scipy, by compiled module (see `_scipy_kernel`):
# L-BFGS-B's `setulb`, in C with this signature since scipy 1.15; MINPACK's
# `_lmder`; and the ufuncs behind scipy.special's digamma (`psi`) and
# gammainc.
# pyproject.toml states the same requirement.
_SCIPY_REQUIREMENT = "rainfit requires scipy>=1.15 and has been run on scipy 1.17.1 only"
SPECIAL_UFUNCS = "scipy.special._special_ufuncs"
_SCIPY_FUNCTIONS = {
    "scipy.optimize._lbfgsb": ("setulb",),
    "scipy.optimize._minpack": ("_lmder",),
    SPECIAL_UFUNCS: ("psi", "gammainc"),
}
_loaded_kernels: dict[str, ModuleType] = {}


def _scipy_kernel(package: str, name: str) -> ModuleType:
    """<package>.<name>, a compiled scipy module, without its package.

    The module `import <package>` loaded, if it has, so a spy on it sees
    every call; otherwise the extension file alone, loaded once from the
    package's directory without running any package `__init__`.  The
    directory is found from the top-level package's spec plus the
    subpackage's path: `find_spec("scipy.optimize")` would import `scipy`.
    """
    full_name = f"{package}.{name}"
    module = sys.modules.get(full_name) or _loaded_kernels.get(full_name)
    if module is None:
        import importlib.util
        import os.path

        top, _, sub = package.partition(".")
        spec = importlib.util.find_spec(top)
        if spec is None:
            raise ImportError(f"{top} is not installed; {_SCIPY_REQUIREMENT}", name=top)
        directories = [os.path.join(d, *sub.split(".")) for d in spec.submodule_search_locations]
        module = _load_extension(full_name, directories)
        _loaded_kernels[full_name] = module
    return module


def _load_extension(full_name: str, directories: list[str]) -> ModuleType:
    """Load the module full_name from its file in directories, outside sys.modules."""
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec

    spec = PathFinder.find_spec(full_name, directories)
    if spec is None:
        raise ImportError(
            f"scipy's compiled module {full_name} is not in {', '.join(directories)};"
            f" {_SCIPY_REQUIREMENT}",
            name=full_name,
        )
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # A single-phase extension module enters itself in sys.modules as it
    # initializes.  Left there, a later `import scipy.optimize` would take it
    # from there and never bind it as the package's attribute; removed, that
    # import makes its own module over the same compiled functions.
    if sys.modules.get(full_name) is module:
        del sys.modules[full_name]
    return module


def scipy_functions(module: str, *names: str) -> tuple:
    """The functions `names` of scipy's compiled `module`, by `_scipy_kernel`.

    A name the module lacks is an ImportError that names it.
    """
    package, _, base = module.rpartition(".")
    loaded = _scipy_kernel(package, base)
    for name in names:
        if not hasattr(loaded, name):
            raise ImportError(
                f"scipy's compiled module {module} has no {name}; {_SCIPY_REQUIREMENT}",
                name=module,
            )
    return tuple(getattr(loaded, name) for name in names)


def scipy_version() -> str:
    """scipy's version string, read from the `version.py` beside its kernels.

    Loaded by `_scipy_kernel`, so reading it runs no scipy `__init__` and
    adds nothing to sys.modules (0.3 ms, against about 30 ms of imports
    for `importlib.metadata`).
    """
    return _scipy_kernel("scipy", "version").version


def preload_scipy(*, lmder: bool) -> None:
    """Load and check every function of scipy a fit calls.

    With `lmder` (a fit that solves by `solve_least_squares` will run),
    also import `scipy._lib._ccallback`: MINPACK's `_lmder` imports it, and
    with it the `scipy` package, on its first call.
    """
    for module, names in _SCIPY_FUNCTIONS.items():
        scipy_functions(module, *names)
    if lmder:
        import scipy._lib._ccallback  # noqa: F401


def positive_sample(data) -> np.ndarray:
    """data as a 1-D float array; a ValueError unless it is nonempty, finite and > 0."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("data must be a nonempty vector")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("data values must be finite and > 0")
    return x


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
    (setulb,) = scipy_functions("scipy.optimize._lbfgsb", "setulb")
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
    """Minimize |residuals(x)|^2 from x0 by Levenberg-Marquardt (MINPACK).

    Calls MINPACK's `lmder`, the kernel of scipy's
    `least_squares(method="lm")`, with the same arguments (internal
    scaling, step bound factor 100, tolerances 1e-15), so it takes the
    same steps to the bit.  It skips the evaluations `least_squares`
    makes around the kernel: the residuals and Jacobian at x0 before it
    and the Jacobian at the solution after it.

    The Jacobian is forward differences with absolute steps of
    sqrt(eps) = 1.5e-8, as scipy's `approx_fprime` takes them; their base
    point is the residual just computed there, served from a one-entry
    cache.  max_eval caps MINPACK's calls of `residuals`; `n_eval` counts
    every call, difference steps included, and `n_iter` the Jacobians, one
    per iteration.  The `value` is the squared residual norm and
    `converged` says the solver met a tolerance (MINPACK info 1-4) before
    the budget ran out; whether the residual is small enough is the
    caller's test.  The solve is unconstrained: a caller with parameter
    limits clamps inside `residuals`.
    """
    (_lmder,) = scipy_functions("scipy.optimize._minpack", "_lmder")
    n_eval = 0
    x_seen = None
    r_seen = None

    def cached(x: np.ndarray) -> np.ndarray:
        nonlocal n_eval, x_seen, r_seen
        if x_seen is None or not (x == x_seen).all():
            x_seen = x.copy()
            r_seen = residuals(x_seen)
            n_eval += 1
        return r_seen

    def forward_differences(x: np.ndarray) -> np.ndarray:
        nonlocal n_eval
        r0 = cached(x)
        rows = np.empty((x.size, r0.size))
        for i, xi in enumerate(x.tolist()):
            h = _FD_STEP
            if xi + h == xi:  # a step lost to rounding: scale it with |x|
                h = _FD_STEP * (1.0 if xi >= 0.0 else -1.0) * max(1.0, abs(xi))
            stepped = x.copy()
            stepped[i] = xi + h
            n_eval += 1
            rows[i] = (residuals(stepped) - r0) / ((xi + h) - xi)
        return rows.T

    # _lmder(fun, Dfun, x0, args, full_output, col_deriv, ftol, xtol, gtol,
    # maxfev, factor, diag); diag=None is MINPACK's internal scaling.
    x, info, status = _lmder(
        cached,
        forward_differences,
        np.array(x0, dtype=float),
        (),
        True,
        False,
        _LM_TOL,
        _LM_TOL,
        _LM_TOL,
        max_eval,
        _LM_STEP_FACTOR,
        None,
    )
    fvec = info["fvec"]
    return LocalResult(
        x=x,
        value=float(np.dot(fvec, fvec)),
        converged=1 <= status <= 4,
        n_iter=int(info["njev"]),
        n_eval=n_eval,
    )


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
        x becomes (x >> 11) * 2**-53.  For the few draws of a jittered
        start this costs less than importing numpy.random.
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

