"""Shared numerical kernels.

The local solvers and the multistart driver every fit runs, and
deterministic splittable random streams.  Everything in this module is a
pure function of its explicit inputs so that the statistical modules built
on top stay reproducible to the bit across runs, platforms, and worker
counts.

`multistart` runs one local solve from each start and keeps the best; both
model families call it.  The local solves are `lbfgsb` (L-BFGS-B on an
analytic gradient: the gamma-mixture MAP and the two EGPD likelihood fits)
and `solve_least_squares` (the two EGPD moment systems).  Every L-BFGS-B
solve keeps `_LBFGSB_MEMORY` = 20 correction pairs, more than the 3K - 1
dimensions of the largest mixture.  `nelder_mead` is kept for tests and
tracing and no fit calls it.

Importing any rainfit module loads numpy alone.  scipy is imported inside
the functions that call it: `lbfgsb` and `solve_least_squares` here, and
the special functions the EGPD and mixture code bind where they run.
`pipeline.run_fits` imports scipy.optimize once, before it times a fit or
forks a worker pool, so no fit's time and no worker pays for the import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "FitDiagnostics",
    "LocalResult",
    "Multistart",
    "RngState",
    "jittered_starts",
    "lbfgsb",
    "multistart",
    "nelder_mead",
    "solve_least_squares",
    "splitmix64",
]

EULER_GAMMA = float(np.euler_gamma)

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

# L-BFGS-B stops on a relative objective change below _FTOL or a projected
# gradient below _GTOL (both on a per-observation objective); a solve counts
# as converged when the projected gradient at the returned point is at most
# _CONVERGED_GTOL, however the line search ended.
_FTOL = 1e-15
_GTOL = 1e-10
_CONVERGED_GTOL = 1e-6
# Correction pairs L-BFGS-B keeps.  scipy's default of 10 is below the 11
# dimensions of the K = 4 mixture MAP; 20 pairs cut the mixture fits'
# evaluations by about 40% on the paper-like-50 and mixture-50 presets.
_LBFGSB_MEMORY = 20
# A start "reached the best mode" when its final objective is within this
# relative distance of the best start's; the absolute floor covers moment
# fits whose best residual is zero.
_BEST_RTOL = 1e-6
_BEST_ATOL = 1e-12


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
    """Minimize f by the Nelder-Mead simplex method.

    Stops as soon as the simplex diameter (max-norm spread of the vertices)
    drops to xatol, or the spread of vertex values drops to fatol, or
    max_iter iterations have run; `converged` reports whether a tolerance
    was met and `n_eval` counts the calls of f.  The objective must be
    finite at x0; non-finite values at later proposals are treated as +inf
    (rejected), which makes hard parameter clamps safe.

    Deterministic: the initial simplex is built from x0 by perturbing one
    coordinate at a time (5% relative, or 2.5e-4 for zero coordinates) and
    all ties are broken by stable ordering.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError("x0 must be one-dimensional")
    n = x0.size
    n_eval = 0

    def safe_f(x: np.ndarray) -> float:
        nonlocal n_eval
        n_eval += 1
        v = f(x)
        return float(v) if np.isfinite(v) else math.inf

    f0 = safe_f(x0)
    if not np.isfinite(f0):
        raise ValueError("objective is not finite at the initial point")

    verts = np.tile(x0, (n + 1, 1))
    for i in range(n):
        if verts[i + 1, i] != 0.0:
            verts[i + 1, i] *= 1.05
        else:
            verts[i + 1, i] = 2.5e-4
    vals = np.array([float(f0)] + [safe_f(verts[i + 1]) for i in range(n)])

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    converged = False
    n_iter = 0
    while n_iter < max_iter:
        order = np.argsort(vals, kind="stable")
        verts = verts[order]
        vals = vals[order]

        diam = float(np.max(np.abs(verts[1:] - verts[0])))
        spread = vals[-1] - vals[0]
        if diam <= xatol or (np.isfinite(spread) and spread <= fatol):
            converged = True
            break

        n_iter += 1
        centroid = verts[:-1].mean(axis=0)
        xr = centroid + alpha * (centroid - verts[-1])
        fr = safe_f(xr)
        if fr < vals[0]:
            xe = centroid + gamma * (centroid - verts[-1])
            fe = safe_f(xe)
            if fe < fr:
                verts[-1], vals[-1] = xe, fe
            else:
                verts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            verts[-1], vals[-1] = xr, fr
        else:
            if fr < vals[-1]:
                xc = centroid + rho * (xr - centroid)
            else:
                xc = centroid + rho * (verts[-1] - centroid)
            fc = safe_f(xc)
            if fc < min(fr, vals[-1]):
                verts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    verts[i] = verts[0] + sigma * (verts[i] - verts[0])
                    vals[i] = safe_f(verts[i])

    order = np.argsort(vals, kind="stable")
    return LocalResult(
        x=verts[order[0]].copy(),
        value=float(vals[order[0]]),
        converged=converged,
        n_iter=n_iter,
        n_eval=n_eval,
    )


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
    pairs.  `converged` is whether the projected gradient max |P(x - g) - x|
    at the returned point, P the projection onto the box, is at most 1e-6.
    That test, not scipy's status, decides, since a line search can stop
    short at a stationary point.
    """
    from scipy.optimize import Bounds, minimize

    result = minimize(
        value_and_gradient,
        np.clip(x0, lower, upper),
        jac=True,
        method="L-BFGS-B",
        bounds=Bounds(lower, upper),
        options={"maxiter": max_iter, "maxcor": _LBFGSB_MEMORY, "ftol": _FTOL, "gtol": _GTOL},
    )
    step = np.clip(result.x - result.jac, lower, upper) - result.x
    return LocalResult(
        x=result.x,
        value=float(result.fun),
        converged=float(np.max(np.abs(step))) <= _CONVERGED_GTOL,
        n_iter=int(result.nit),
        n_eval=int(result.nfev),
    )


def solve_least_squares(
    residuals: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
    max_eval: int,
) -> LocalResult:
    """Minimize |residuals(x)|^2 from x0 by Levenberg-Marquardt (MINPACK).

    `jacobian` defaults to forward differences with steps of 1.5e-8.
    max_eval caps the Levenberg-Marquardt calls of `residuals`; `n_eval`
    counts every call, difference steps included, and `n_iter` the
    Jacobians, one per iteration.  The `value` is the squared residual
    norm and `converged` says the solver met a tolerance before the budget
    ran out; whether the residual is small enough is the caller's test.
    The solve is unconstrained: a caller with parameter limits clamps
    inside `residuals` (and zeroes the matching Jacobian columns).
    """
    from scipy.optimize import approx_fprime, least_squares

    n_eval = 0

    def counted(x: np.ndarray) -> np.ndarray:
        nonlocal n_eval
        n_eval += 1
        return residuals(x)

    result = least_squares(
        counted,
        x0,
        jac=jacobian if jacobian is not None else (lambda x: approx_fprime(x, counted)),
        method="lm",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=max_eval,
    )
    return LocalResult(
        x=result.x,
        value=float(np.dot(result.fun, result.fun)),
        converged=result.status > 0,
        n_iter=int(result.njev),
        n_eval=n_eval,
    )


@dataclass
class Multistart:
    """Best of several local solves.

    `index` is the start that reached `best` (the first, on ties), `n_eval`
    the evaluations summed over all starts, and `at_best` the number of
    starts whose final value is within 1e-6 relative (1e-12 absolute) of
    the best.
    """

    best: LocalResult
    index: int
    n_eval: int
    at_best: int

    def diagnostics(self, **fields) -> FitDiagnostics:
        """FitDiagnostics of the best start; `fields` gives the rest."""
        return FitDiagnostics(
            restart_index=self.index,
            n_iter=self.best.n_iter,
            n_eval=self.n_eval,
            restarts_at_best=self.at_best,
            **fields,
        )


def multistart(
    solve: Callable[[np.ndarray], LocalResult], starts: Sequence[np.ndarray]
) -> Multistart:
    """Run `solve` from every start and keep the lowest final value."""
    results = [solve(x0) for x0 in starts]
    index = 0
    for i, result in enumerate(results):
        if result.value < results[index].value:
            index = i
    best = results[index]
    tol = _BEST_RTOL * abs(best.value) + _BEST_ATOL
    return Multistart(
        best=best,
        index=index,
        n_eval=sum(r.n_eval for r in results),
        at_best=sum(abs(r.value - best.value) <= tol for r in results),
    )


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


def jittered_starts(
    init: np.ndarray,
    n_restarts: int,
    rng: RngState,
    *,
    scale: float = 0.5,
) -> list[np.ndarray]:
    """Deterministic multistart points: init itself, then jittered copies.

    Restart r > 0 adds independent uniform(-scale, scale) offsets per
    coordinate, drawn from the stream `rng.derive(r)`, so the list does not
    depend on evaluation order.
    """
    init = np.asarray(init, dtype=float)
    starts = [init.copy()]
    for r in range(1, n_restarts):
        g = rng.derive(r).generator()
        starts.append(init + g.uniform(-scale, scale, size=init.size))
    return starts


@dataclass
class FitDiagnostics:
    """Convergence report attached to every fitted distribution.

    `objective` is the criterion value at the optimum (log-likelihood or
    log-posterior for likelihood fits, squared moment residual for moment
    fits).  `n_iter` counts the best start's iterations, `n_eval` the
    objective evaluations summed over all starts, and `restarts_at_best`
    the starts that ended within 1e-6 relative of the best objective.
    `boundary_hit` marks solutions pinned to a parameter clamp and
    `small_sample` marks fits run on fewer observations than the rule of
    thumb for the parameter count.
    """

    converged: bool
    objective: float
    restart_index: int
    n_iter: int
    n_eval: int = 0
    restarts_at_best: int = 0
    boundary_hit: bool = False
    small_sample: bool = False
    residual: float | None = None
    message: str = ""

    def to_dict(self) -> dict:
        # Plain Python types only: these dicts go straight to json.dumps.
        out = {
            "converged": bool(self.converged),
            "objective": float(self.objective),
            "restart_index": int(self.restart_index),
            "n_iter": int(self.n_iter),
            "n_eval": int(self.n_eval),
            "restarts_at_best": int(self.restarts_at_best),
            "boundary_hit": bool(self.boundary_hit),
            "small_sample": bool(self.small_sample),
        }
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.message:
            out["message"] = self.message
        return out
