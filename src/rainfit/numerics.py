"""Shared numerical kernels.

Special functions, root finding, a simplex minimizer, and deterministic
splittable random streams.  Everything in this module is a pure function of
its explicit inputs so that the statistical modules built on top stay
reproducible to the bit across runs, platforms, and worker counts.

Importing any rainfit module loads numpy alone.  scipy is imported inside
the functions that call it: `reg_lower_incomplete_gamma` (gammainc) and
`brent_root` (brentq) here, `egpd.theoretical_pwm` (digamma, xi -> 0 only),
and in `gamma_mixture` the density, the MAP objective (gammaln, digamma,
bound once per fit) and L-BFGS-B.  `pipeline.run_fits` imports
scipy.optimize once, before it times a fit or forks a worker pool, so no
fit's time and no worker pays for the import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "FitDiagnostics",
    "NelderMeadResult",
    "RngState",
    "brent_root",
    "jittered_starts",
    "nelder_mead",
    "reg_lower_incomplete_gamma",
    "splitmix64",
]

EULER_GAMMA = float(np.euler_gamma)

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def reg_lower_incomplete_gamma(a: float | np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    P(a, 0) = 0 and P(a, x) -> 1 as x -> infinity.  Used as the gamma CDF.
    """
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(a_arr <= 0.0):
        raise ValueError("shape parameter must be > 0")
    if np.any(x_arr < 0.0):
        raise ValueError("x must be >= 0")
    from scipy.special import gammainc

    out = gammainc(a_arr, x_arr)
    if np.isscalar(a) and np.isscalar(x):
        return float(out)
    return out


def brent_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of f on [lo, hi] by Brent's method.

    The endpoints must bracket a sign change; a ValueError is raised
    otherwise.  RuntimeError is raised if the bracket fails to collapse
    within max_iter iterations.
    """
    if not lo < hi:
        raise ValueError("invalid interval: lo must be < hi")
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return float(lo)
    if f_hi == 0.0:
        return float(hi)
    if np.sign(f_lo) == np.sign(f_hi):
        raise ValueError("interval does not bracket a root")
    from scipy.optimize import brentq

    root, info = brentq(
        f, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps, maxiter=max_iter, full_output=True
    )
    if not info.converged:
        raise RuntimeError("brent_root did not converge")
    return float(root)


@dataclass
class NelderMeadResult:
    """Outcome of a simplex minimization."""

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
) -> NelderMeadResult:
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
    return NelderMeadResult(
        x=verts[order[0]].copy(),
        value=float(vals[order[0]]),
        converged=converged,
        n_iter=n_iter,
        n_eval=n_eval,
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
    fits).  `n_iter` counts the best start's iterations and `n_eval` the
    objective evaluations summed over all starts.  `boundary_hit` marks
    solutions pinned to a parameter clamp and `small_sample` marks fits run
    on fewer observations than the rule of thumb for the parameter count.
    """

    converged: bool
    objective: float
    restart_index: int
    n_iter: int
    n_eval: int = 0
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
            "boundary_hit": bool(self.boundary_hit),
            "small_sample": bool(self.small_sample),
        }
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.message:
            out["message"] = self.message
        return out
