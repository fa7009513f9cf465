"""The scipy loader: the fits' share of scipy, loaded without its packages.

The fits get three compiled scipy functions by name from
`numerics.scipy_function`: `setulb` from `scipy.optimize._lbfgsb`, and
`psi` and `gammainc` from `scipy.special._special_ufuncs`.
`numerics._scipy_kernel` loads those two modules from their extension
files, found from the top-level `scipy` spec, without running any package
`__init__`.  `preload_scipy` loads and checks the functions it is given;
each `pipeline.METHODS` entry declares the ones its fits call.
This module checks that contract:

- a missing kernel, function or scipy is an ImportError that names it;
- the special functions the fits bind are scipy.special's, to the bit,
  and its very objects once the package is imported;
- L-BFGS-B takes public scipy's steps before and after a later
  `import scipy.optimize`;
- `preload_scipy` runs no package `__init__` and imports no scipy module
  (`test_imports` checks that no run of any method loads the `scipy`
  package, in this process or a forked worker).
- each method, run alone, requests exactly the functions it declares.
"""

import pytest

from fresh_python import run_python
from rainfit import numerics
from rainfit.pipeline import METHODS


def test_a_missing_kernel_is_an_import_error_naming_it(monkeypatch):
    with pytest.raises(ImportError, match=r"scipy\.optimize\._no_such_kernel is not in .*scipy>=1\.15"):
        numerics._scipy_kernel("scipy.optimize._no_such_kernel")
    assert "scipy.optimize._no_such_kernel" not in numerics._loaded_kernels
    monkeypatch.setitem(numerics._SCIPY_FUNCTIONS, "no_such_ufunc", "scipy.special._special_ufuncs")
    with pytest.raises(ImportError, match=r"scipy\.special\._special_ufuncs has no no_such_ufunc"):
        numerics.scipy_function("no_such_ufunc")
    monkeypatch.setitem(numerics._SCIPY_FUNCTIONS, "psi", "scipy.special._no_such_ufuncs")
    with pytest.raises(ImportError, match=r"scipy\.special\._no_such_ufuncs is not in "):
        numerics.scipy_function("psi")
    with pytest.raises(ImportError, match=r"no_such_scipy is not installed; .*scipy>=1\.15"):
        numerics._scipy_kernel("no_such_scipy.optimize._lbfgsb")


def test_lbfgsb_keeps_scipy_steps_after_scipy_optimize_is_imported():
    # The kernel loads without the package first; a later `import
    # scipy.optimize` makes its own module over the same compiled
    # function, and from then on the solver calls through that module,
    # so a spy on scipy.optimize._lbfgsb sees every call.
    code = """
import json, sys
import numpy as np
from rainfit import numerics

def value_and_gradient(x):
    return float(np.sum((x - 2.0) ** 2) + x[0] * x[1]), 2.0 * (x - 2.0) + x[::-1]

x0, lower, upper = np.array([5.0, -4.0]), np.array([-1.0, -1.0]), np.array([1.0, 3.0])

def solve():
    res = numerics.lbfgsb(value_and_gradient, x0, lower, upper, max_iter=100)
    return [res.x.tobytes().hex(), res.value.hex(), res.n_iter, res.n_eval]

first = solve()
used = numerics._scipy_kernel("scipy.optimize._lbfgsb")
package_before = "scipy.optimize" in sys.modules
import scipy.optimize
from scipy.optimize import Bounds, minimize

ref = minimize(value_and_gradient, x0, jac=True, method="L-BFGS-B", bounds=Bounds(lower, upper),
               options={"maxiter": 100, "maxcor": 20, "ftol": 1e-15, "gtol": 1e-10})
public = [ref.x.tobytes().hex(), float(ref.fun).hex(), ref.nit, ref.nfev]

spied = []
setulb = scipy.optimize._lbfgsb.setulb
def spy(*args):
    spied.append(1)
    return setulb(*args)
scipy.optimize._lbfgsb.setulb = spy
again = solve()
print(json.dumps({
    "package_before": package_before,
    "same_function": used.setulb is setulb,
    "now_public": numerics._scipy_kernel("scipy.optimize._lbfgsb") is scipy.optimize._lbfgsb,
    "spied": len(spied) > 0,
    "first_matches_public": first == public,
    "again_matches_public": again == public,
}))
"""
    assert run_python(code) == {
        "package_before": False,
        "same_function": True,
        "now_public": True,
        "spied": True,
        "first_matches_public": True,
        "again_matches_public": True,
    }


def test_bound_special_functions_are_scipy_special_to_the_bit():
    # The fits bind psi and gammainc from scipy's compiled module without
    # the scipy.special package.  On the grids the fits reach they give
    # scipy.special's values bit for bit, and after a later
    # `import scipy.special` they are its very objects.
    code = """
import hashlib, json, sys
import numpy as np
from rainfit import numerics

NAMES = ("psi", "gammainc")
bound = [numerics.scipy_function(name) for name in NAMES]
shapes = np.exp(np.linspace(-12.0, 12.0, 241))  # e^-12 .. e^12
ratios = np.array([1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 1e5, 1e8])

def digests(psi, gammainc):
    values = [psi(shapes), gammainc(shapes[:, None], ratios)]
    return [hashlib.sha256(v.tobytes()).hexdigest() for v in values]

first = digests(*bound)
package_before = "scipy.special" in sys.modules
import scipy.special as sp

public = digests(sp.digamma, sp.gammainc)
print(json.dumps({
    "package_before": package_before,
    "bits": first == public,
    "public_objects": [bound[0] is sp.digamma, bound[1] is sp.gammainc],
    "now_public": [f is getattr(sp._special_ufuncs, name) for f, name in zip(bound, NAMES)],
    "rebound": [numerics.scipy_function(name) for name in NAMES] == bound,
}))
"""
    assert run_python(code) == {
        "package_before": False,
        "bits": True,
        "public_objects": [True] * 2,
        "now_public": [True] * 2,
        "rebound": True,
    }


def test_preload_imports_no_scipy_module():
    code = """
import json, sys
from rainfit import numerics

numerics.preload_scipy(numerics._SCIPY_FUNCTIONS)
print(json.dumps([sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
                  sorted(numerics._loaded_kernels)]))
"""
    modules, kernels = run_python(code)
    assert modules == []
    assert kernels == ["scipy.optimize._lbfgsb", "scipy.special._special_ufuncs"]


@pytest.mark.parametrize("method", list(METHODS))
def test_each_method_declares_exactly_the_functions_its_fits_request(monkeypatch, method):
    # `run_fits` loads the requested methods' `Method.kernels`; a run of one
    # method alone must ask `scipy_function` for those names and no other,
    # so a stale entry fails here as surely as a missing one.  Together
    # the methods declare every name `_SCIPY_FUNCTIONS` maps.
    import sys

    import numpy as np

    import rainfit.gamma_mixture  # noqa: F401 - loaded before its name is spied on
    from rainfit.corpus import SiteSeries
    from rainfit.egpd import EgpdParams, egpd_simulate
    from rainfit.pipeline import RunConfig, run_fits

    requested = set()
    real = numerics.scipy_function

    def spy(name):
        requested.add(name)
        return real(name)

    for name, module in list(sys.modules.items()):
        if name.startswith("rainfit") and getattr(module, "scipy_function", None) is real:
            monkeypatch.setattr(module, "scipy_function", spy)
    # Only the fits' own requests count, not the preload's.
    monkeypatch.setattr(numerics, "preload_scipy", lambda names: None)
    values = egpd_simulate(300, EgpdParams(1.2, 5.0, 0.1), numerics.RngState(seed=8))
    config = RunConfig(methods=(method,), egpd_restarts=1, mixture_restarts=1, jobs=1)
    records = list(run_fits([SiteSeries("s", np.asarray(values))], config))
    assert [r["error"] for r in records] == [None]
    kernels = METHODS[method].kernels
    assert (sorted(requested), len(set(kernels))) == (sorted(kernels), len(kernels))
    assert set().union(*(m.kernels for m in METHODS.values())) == set(numerics._SCIPY_FUNCTIONS)
