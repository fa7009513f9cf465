"""Import contract: each command loads only the modules its work needs.

`report`, `--help` and `--version` need the standard library alone:
importing the CLI and rebuilding tables load neither numpy nor rainfit's
fit code (`numerics`, `egpd`, `gamma_mixture`, `corpus`, `empirical`).
Loading site CSVs needs numpy and `corpus`, but no fit module and no
scipy.  `run_fits` imports the fit modules and loads the three compiled
scipy modules the fits call, `scipy.optimize._lbfgsb`,
`scipy.optimize._minpack` and `scipy.special._special_ufuncs`, once,
before it forks a pool or starts the first fit.  A run of all seven
methods, a `fit` or a `simulate` of a mixture preset never imports the
scipy.optimize or scipy.special packages (nor scipy.linalg, scipy.sparse
or scipy's array-API layer, which those packages would pull in).  A
solver that ran before `import scipy.optimize` keeps taking public
scipy's steps after it, through the module that import made, and the
special functions the fits bind are scipy.special's own objects, to the
bit.  Importing the CLI sets one BLAS/OpenMP thread unless the
environment already chose a count.  Each check runs in a fresh
interpreter and reads `sys.modules`, the loaded modules or `os.environ`;
none measures time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rainfit
from rainfit.corpus import GeneratorSpec, save_site, simulate_site, write_manifest
from rainfit.evaluation import FitResult
from rainfit.pipeline import METHODS, write_records

SRC = Path(rainfit.__file__).resolve().parents[1]

# Prints, as the last stdout line, the scipy modules the script loaded.
LOADED_SCIPY = (
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))\n"
)


def run_python(code: str) -> object:
    """Run code in a fresh interpreter; the JSON value on its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def egpd_spec(site_id: str, seed: int) -> GeneratorSpec:
    return GeneratorSpec(
        site_id=site_id,
        family="egpd",
        params={"kappa": 1.2, "sigma": 5.0, "xi": 0.1},
        n=300,
        seed=seed,
    )


def test_cli_import_loads_no_scipy():
    assert run_python("import json, sys\nimport rainfit.cli\n" + LOADED_SCIPY) == []


def write_small_records(path: Path, methods=("naveau-mle",)) -> None:
    """Four converged sites per method at three levels."""
    levels = (0.25, 0.5, 0.75)
    write_records(path, [
        FitResult(
            site_id=f"s{i}",
            method=method,
            estimated_quantiles={p: (1.0 + 0.1 * i) * (1.0 + p) for p in levels},
            converged=True,
            fit_seconds=0.0,
            params={},
            empirical_quantiles={p: 1.0 + p for p in levels},
        )
        for i in range(4)
        for method in methods
    ])


def site_file_manifest(tmp_path: Path, first_seed: int) -> Path:
    """A manifest of two EGPD site CSVs, without generators."""
    names = []
    for i in range(2):
        save_site(tmp_path / f"s{i}.csv", simulate_site(egpd_spec(f"s{i}", first_seed + i)))
        names.append(f"s{i}.csv")
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, seed=1, sites=names)
    return manifest


def test_report_loads_no_scipy(tmp_path):
    records = tmp_path / "fits.jsonl"
    write_small_records(records)
    code = (
        "import json, sys\n"
        "from rainfit.cli import main\n"
        f"assert main(['report', '--records', {str(records)!r}, '--out', {str(tmp_path / 'tables')!r}]) == 0\n"
        + LOADED_SCIPY
    )
    assert run_python(code) == []
    assert (tmp_path / "tables" / "medians.csv").is_file()


# Modules that `report`, `--help` and `--version` never load.
NUMERIC_STACK = ("numpy", "rainfit.numerics", "rainfit.egpd", "rainfit.gamma_mixture",
                 "rainfit.corpus", "rainfit.empirical")


def test_cli_import_help_version_and_report_load_no_numpy(tmp_path):
    records = tmp_path / "fits.jsonl"
    write_small_records(records, methods=("naveau-mle", "gamma-mixture-2"))
    report = ["report", "--records", str(records), "--out", str(tmp_path / "tables"), "--svg"]
    code = (
        "import contextlib, io, json, sys\n"
        "import rainfit.cli\n"
        f"stack = {NUMERIC_STACK!r}\n"
        "loaded = [[m for m in stack if m in sys.modules]]\n"
        f"for argv in (['--help'], ['--version'], {report!r}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rainfit.cli.main(argv) == 0\n"
        "    loaded.append([m for m in stack if m in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    assert run_python(code) == [[], [], [], []]
    assert (tmp_path / "tables" / "boxplot-0.5.svg").is_file()


def test_materializing_site_files_loads_no_scipy(tmp_path):
    manifest = site_file_manifest(tmp_path, 40)
    code = (
        "import json, sys\n"
        "from rainfit.corpus import load_manifest\n"
        "from rainfit.pipeline import materialize_corpus\n"
        f"assert len(materialize_corpus(load_manifest({str(manifest)!r}))) == 2\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy')\n"
        "                        or m in ('rainfit.egpd', 'rainfit.gamma_mixture', 'rainfit.numerics'))))\n"
    )
    assert run_python(code) == []


def mixture_spec(site_id: str, seed: int) -> GeneratorSpec:
    return GeneratorSpec(
        site_id=site_id,
        family="gamma-mixture",
        params={"weights": [0.4, 0.6], "shapes": [0.8, 3.0], "scales": [2.0, 6.0]},
        n=300,
        seed=seed,
    )


# Appended to a hook: records which of the fits' scipy modules are loaded.
RECORD_FIT_MODULES = (
    "    from rainfit import numerics\n"
    "    seen.append(['scipy.special' in sys.modules, sorted(numerics._loaded_kernels)])\n"
)
FIT_MODULES_LOADED = [
    False,
    ["scipy.optimize._lbfgsb", "scipy.optimize._minpack", "scipy.special._special_ufuncs"],
]
# Packages no fit, and no simulation, loads: the two whose compiled modules
# the fits call, what the scipy.optimize package would pull in, and scipy's
# array-API layer, which the scipy.special package would.
NEVER_LOADED = ("scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse",
                "scipy._lib._array_api")


def loaded_packages(modules: list[str]) -> list[str]:
    """The NEVER_LOADED packages that modules lists, itself or by a submodule."""
    return [p for p in NEVER_LOADED if any(m == p or m.startswith(p + ".") for m in modules)]


def benchmark_code(manifest: Path, out: Path, jobs: int, hook: str, methods: str = "naveau-mle") -> str:
    """A benchmark run of methods that records, through hook, which of the
    fits' scipy modules were loaded at the hooked call, and prints
    [exit code, any scipy loaded before the run, the hook's records,
    scipy modules loaded after the run]."""
    argv = ["benchmark", "--manifest", str(manifest), "--out", str(out), "--jobs", str(jobs),
            "--methods", methods, "--egpd-restarts", "0", "--mixture-restarts", "0"]
    return (
        "import json, multiprocessing, sys\n"
        "import rainfit.pipeline\n"
        "from rainfit.cli import main\n"
        "before = any(m.startswith('scipy') for m in sys.modules)\n"
        "seen = []\n"
        + hook
        + f"rc = main({argv!r})\n"
        "after = sorted(m for m in sys.modules if m.startswith('scipy.'))\n"
        "print(json.dumps([rc, before, seen, after]))\n"
    )


def test_run_fits_loads_scipy_before_forking_the_pool(tmp_path):
    # Site files, not generators: drawing sites would load the fit modules
    # before run_fits.  run_fits loads them before the fork, though this run
    # of naveau-mle alone calls nothing in gamma_mixture, so that no worker
    # compiles them itself.
    manifest = site_file_manifest(tmp_path, 50)
    hook = (
        "_get_context = multiprocessing.get_context\n"
        "def get_context(*args, **kwargs):\n"
        + RECORD_FIT_MODULES
        + "    seen.append(['rainfit.egpd' in sys.modules, 'rainfit.gamma_mixture' in sys.modules])\n"
        "    return _get_context(*args, **kwargs)\n"
        "multiprocessing.get_context = get_context\n"
    )
    rc, before, seen, _ = run_python(benchmark_code(manifest, tmp_path / "run", 2, hook))
    assert [rc, before, seen[:2]] == [0, False, [FIT_MODULES_LOADED, [True, True]]]


def test_run_fits_loads_scipy_before_the_first_serial_fit(tmp_path):
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, seed=1, generators=[egpd_spec("s0", 50)])
    hook = (
        "_run_single_fit = rainfit.pipeline.run_single_fit\n"
        "def run_single_fit(*args):\n"
        + RECORD_FIT_MODULES
        + "    return _run_single_fit(*args)\n"
        "rainfit.pipeline.run_single_fit = run_single_fit\n"
    )
    rc, before, seen, _ = run_python(benchmark_code(manifest, tmp_path / "run", 1, hook))
    assert [rc, before, seen[:1]] == [0, False, [FIT_MODULES_LOADED]]


def test_seven_method_benchmark_never_imports_the_scipy_optimize_package(tmp_path):
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, seed=1, generators=[egpd_spec("s0", 50), mixture_spec("s1", 51)])
    hook = (
        "_run_fits = rainfit.pipeline.run_fits\n"
        "def run_fits(*args):\n"
        "    results = _run_fits(*args)\n"
        + RECORD_FIT_MODULES
        + "    seen.append(sorted({r.method for r in results if r.converged}))\n"
        "    return results\n"
        "rainfit.pipeline.run_fits = run_fits\n"
    )
    code = benchmark_code(manifest, tmp_path / "run", 1, hook, methods=",".join(METHODS))
    rc, before, (loaded, converged), after = run_python(code)
    assert [rc, before, loaded] == [0, False, FIT_MODULES_LOADED]
    assert converged == sorted(METHODS)
    assert loaded_packages(after) == []


def test_fit_and_simulate_of_mixtures_never_import_scipy_special(tmp_path):
    # `fit` of a mixture and of a PWM method binds all five special
    # functions; `simulate` of mixture sites inverts the mixture CDF.
    fits = []
    for spec, method in ((mixture_spec("m0", 52), "gamma-mixture-2"), (egpd_spec("e0", 53), "naveau-pwm")):
        site = tmp_path / f"{spec.site_id}.csv"
        save_site(site, simulate_site(spec))
        fits.append(["fit", str(site), "--method", method,
                     "--egpd-restarts", "0", "--mixture-restarts", "0"])
    simulate = ["simulate", "--preset", "mixture-50", "--seed", "3", "--out", str(tmp_path / "sim")]
    code = (
        "import contextlib, io, json, sys\n"
        "from rainfit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {fits + [simulate]!r}]\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.'))\n"
        "from rainfit import numerics\n"
        "print(json.dumps([codes, loaded, sorted(numerics._loaded_kernels)]))\n"
    )
    codes, loaded, kernels = run_python(code)
    assert codes == [0, 0, 0]
    assert loaded_packages(loaded) == []
    assert "scipy.special._special_ufuncs" in kernels


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


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
READ_BLAS_VARS = (
    "import json, os\n"
    "import rainfit.cli\n"
    f"print(json.dumps([os.environ.get(v) for v in {BLAS_VARS!r}]))\n"
)


def run_with_blas_env(value: str | None) -> object:
    """READ_BLAS_VARS in a fresh interpreter with each variable unset or set to value."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in BLAS_VARS:
        env.pop(var, None)
        if value is not None:
            env[var] = value
    out = subprocess.run(
        [sys.executable, "-c", READ_BLAS_VARS], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_pins_one_blas_thread_when_unset():
    assert run_with_blas_env(None) == ["1", "1", "1"]


def test_cli_keeps_a_blas_thread_count_the_user_set():
    assert run_with_blas_env("3") == ["3", "3", "3"]
