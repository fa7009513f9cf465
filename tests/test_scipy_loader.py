"""The scipy loader: the fits' share of scipy, loaded without its packages.

The fits call three compiled scipy modules, `scipy.optimize._lbfgsb`,
`scipy.optimize._minpack` and `scipy.special._special_ufuncs`, which
`numerics._scipy_kernel` loads from their extension files, found from the
top-level `scipy` spec, without running any package `__init__`.
`preload_scipy` loads and checks all three, and with `lmder` also the
`scipy` package that MINPACK's `_lmder` imports on its first call.  This
module checks that contract:

- a missing kernel, function or scipy is an ImportError that names it;
- the special functions the fits bind are scipy.special's, to the bit,
  and its very objects once the package is imported;
- the solvers take public scipy's steps before and after a later
  `import scipy.optimize`;
- without a PWM method, `preload_scipy` runs no package `__init__`
  (`test_imports` checks that a run of each method loads the `scipy`
  package only with a PWM method, in this process or a pool worker).
"""

import pytest

from fresh_python import loaded_packages, run_python
from rainfit import numerics


def test_a_missing_kernel_is_an_import_error_naming_it(tmp_path):
    with pytest.raises(ImportError, match=r"scipy\.optimize\._lbfgsb .*scipy>=1\.15"):
        numerics._load_extension("scipy.optimize._lbfgsb", [str(tmp_path)])
    with pytest.raises(ImportError, match=r"scipy\.optimize\._no_such_kernel .*scipy>=1\.15"):
        numerics._scipy_kernel("scipy.optimize", "_no_such_kernel")
    assert "scipy.optimize._no_such_kernel" not in numerics._loaded_kernels
    with pytest.raises(ImportError, match=r"scipy\.special\._special_ufuncs has no no_such_ufunc"):
        numerics.scipy_functions(numerics.SPECIAL_UFUNCS, "psi", "no_such_ufunc")
    with pytest.raises(ImportError, match=r"scipy\.special\._no_such_ufuncs "):
        numerics.scipy_functions("scipy.special._no_such_ufuncs", "psi")
    with pytest.raises(ImportError, match=r"no_such_scipy is not installed; .*scipy>=1\.15"):
        numerics._scipy_kernel("no_such_scipy.optimize", "_lbfgsb")


def test_solvers_keep_scipy_steps_after_scipy_optimize_is_imported():
    # The kernels load without the package first; a later `import
    # scipy.optimize` makes its own modules over the same compiled
    # functions, and from then on the solvers call through those modules,
    # so a spy on scipy.optimize._lbfgsb sees every call.
    code = """
import json, sys
import numpy as np
from rainfit import numerics

def value_and_gradient(x):
    return float(np.sum((x - 2.0) ** 2) + x[0] * x[1]), 2.0 * (x - 2.0) + x[::-1]

def residuals(x):
    return np.array([x[0] - 1.0, 10.0 * (x[1] - x[0] ** 2)])

def jacobian(x):
    return np.array([[1.0, 0.0], [-20.0 * x[0], 10.0]])

x0, lower, upper = np.array([5.0, -4.0]), np.array([-1.0, -1.0]), np.array([1.0, 3.0])
z0 = np.array([-1.2, 1.0])

def solve():
    res = numerics.lbfgsb(value_and_gradient, x0, lower, upper, max_iter=100)
    lm = numerics.solve_least_squares(residuals, z0, jacobian=jacobian, max_eval=200)
    return [res.x.tobytes().hex(), res.value.hex(), res.n_iter, res.n_eval,
            lm.x.tobytes().hex(), lm.value.hex(), lm.n_iter]

first = solve()
used = {name: numerics._scipy_kernel("scipy.optimize", name) for name in ("_lbfgsb", "_minpack")}
package_before = "scipy.optimize" in sys.modules
import scipy.optimize
from scipy.optimize import Bounds, least_squares, minimize

ref = minimize(value_and_gradient, x0, jac=True, method="L-BFGS-B", bounds=Bounds(lower, upper),
               options={"maxiter": 100, "maxcor": 20, "ftol": 1e-15, "gtol": 1e-10})
lm_ref = least_squares(residuals, z0, jac=jacobian, method="lm", x_scale="jac",
                       xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=200)
public = [ref.x.tobytes().hex(), float(ref.fun).hex(), ref.nit, ref.nfev,
          lm_ref.x.tobytes().hex(), float(np.dot(lm_ref.fun, lm_ref.fun)).hex(), lm_ref.njev]

spied = []
setulb = scipy.optimize._lbfgsb.setulb
def spy(*args):
    spied.append(1)
    return setulb(*args)
scipy.optimize._lbfgsb.setulb = spy
again = solve()
print(json.dumps({
    "package_before": package_before,
    "same_functions": [used["_lbfgsb"].setulb is setulb,
                       used["_minpack"]._lmder is scipy.optimize._minpack._lmder],
    "now_public": [numerics._scipy_kernel("scipy.optimize", "_lbfgsb") is scipy.optimize._lbfgsb,
                   numerics._scipy_kernel("scipy.optimize", "_minpack") is scipy.optimize._minpack],
    "spied": len(spied) > 0,
    "first_matches_public": first == public,
    "again_matches_public": again == public,
}))
"""
    assert run_python(code) == {
        "package_before": False,
        "same_functions": [True, True],
        "now_public": [True, True],
        "spied": True,
        "first_matches_public": True,
        "again_matches_public": True,
    }


def test_bound_special_functions_are_scipy_special_to_the_bit():
    # The fits bind psi, gammaln, gammainc, _riemann_zeta and _zeta from
    # scipy's compiled module without the scipy.special package.  On the
    # grids the fits reach they give scipy.special's values bit for bit,
    # and after a later `import scipy.special` they are its very objects.
    code = """
import hashlib, json, sys
import numpy as np
from rainfit import numerics
from rainfit.egpd import _PWM_M, _SERIES_K

NAMES = ("psi", "gammaln", "gammainc", "_riemann_zeta", "_zeta")
bound = numerics.scipy_functions(numerics.SPECIAL_UFUNCS, *NAMES)
shapes = np.exp(np.linspace(-12.0, 12.0, 241))  # e^-12 .. e^12
xi = np.linspace(-0.5, 0.95, 30)
a = (shapes[:, None] * _PWM_M + 1.0).ravel()  # the PWM series' a = kappa m + 1
args = np.concatenate([shapes, (a[:, None] - xi).ravel(), 1.0 - xi])
rows = np.arange(2.0, _SERIES_K.size + 3.0)[:, None]  # zeta(k, a) for k = 2..13
ratios = np.array([1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 1e5, 1e8])

def digests(psi, gammaln, gammainc, riemann_zeta, zeta):
    values = [psi(args), gammaln(args), gammainc(shapes[:, None], ratios),
              riemann_zeta(np.concatenate([_SERIES_K, [1.5, 30.0, 60.0]])), zeta(rows, a)]
    return [hashlib.sha256(v.tobytes()).hexdigest() for v in values]

first = digests(*bound)
package_before = "scipy.special" in sys.modules
import scipy.special as sp

public = digests(sp.digamma, sp.gammaln, sp.gammainc, sp.zeta, sp.zeta)
print(json.dumps({
    "package_before": package_before,
    "bits": first == public,
    "public_objects": [bound[0] is sp.digamma, bound[1] is sp.gammaln, bound[2] is sp.gammainc,
                       bound[3] is sp._ufuncs._riemann_zeta, bound[4] is sp._ufuncs._zeta],
    "now_public": [f is getattr(sp._special_ufuncs, name) for f, name in zip(bound, NAMES)],
    "rebound": list(numerics.scipy_functions(numerics.SPECIAL_UFUNCS, *NAMES)) == list(bound),
}))
"""
    assert run_python(code) == {
        "package_before": False,
        "bits": True,
        "public_objects": [True] * 5,
        "now_public": [True] * 5,
        "rebound": True,
    }


def test_preload_runs_the_scipy_package_init_only_for_minpack():
    code = """
import json, sys
from rainfit import numerics

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

numerics.preload_scipy(lmder=False)
without = [scipy_modules(), sorted(numerics._loaded_kernels)]
numerics.preload_scipy(lmder=True)
print(json.dumps([without, scipy_modules()]))
"""
    (modules, kernels), with_lmder = run_python(code)
    assert modules == []
    assert kernels == ["scipy.optimize._lbfgsb", "scipy.optimize._minpack",
                       "scipy.special._special_ufuncs"]
    assert {"scipy", "scipy._lib._ccallback"} <= set(with_lmder)
    assert loaded_packages(with_lmder) == []
