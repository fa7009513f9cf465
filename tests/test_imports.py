"""Import contract: each command loads only the modules its work needs.

`report`, `--help` and `--version` need the standard library alone:
importing the CLI and rebuilding tables load neither numpy nor rainfit's
fit code (`numerics`, `egpd`, `gamma_mixture`, `corpus`), nor
`dataclasses` and the `inspect`, `ast`, `dis` and `tokenize` it loads.
Loading site CSVs needs `corpus` alone: no numpy, no fit module and no
scipy.  `run_fits` loads what the requested methods call, once, before it
forks a worker or starts the first fit: numpy with the fit module of each
requested family, and the two compiled scipy modules the fits call,
`scipy.optimize._lbfgsb` and `scipy.special._special_ufuncs`.  The first
fit in each process, serial or in a forked worker, then adds no module to
`sys.modules`, and no process that fits loads numpy.random or the `scipy`
package, with or without jittered starts.  A run of all seven methods, a
`fit` or a `simulate` of a mixture preset never imports the `scipy`,
scipy.optimize or scipy.special packages (nor scipy.linalg,
scipy.sparse or scipy's array-API layer, which those packages would pull
in); `test_scipy_loader` holds the rest of the scipy loader's contract.
Importing the CLI sets one BLAS/OpenMP thread unless the environment
already chose a count.  Each check runs in a fresh interpreter and reads
`sys.modules`, the loaded modules or `os.environ`; none measures time.
Writing `run.json` loads no module: scipy's version is read from its
`version.py`, outside `sys.modules`.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from fresh_python import (
    LOADED_SCIPY,
    SRC,
    WATCHED,
    benchmark_code,
    egpd_spec,
    first_fits,
    mixture_spec,
    run_python,
    site_file_manifest,
)
from rainfit.corpus import save_site, simulate_site, write_manifest
from rainfit.pipeline import METHODS, write_records


def test_cli_import_loads_no_scipy():
    assert run_python("import json, sys\nimport rainfit.cli\n" + LOADED_SCIPY) == []


def write_small_records(path: Path, methods=("naveau-mle",)) -> None:
    """Four converged sites per method at three levels."""
    levels = (0.25, 0.5, 0.75)
    write_records(path, [
        {
            "site_id": f"s{i}",
            "method": method,
            "estimated_quantiles": {repr(p): (1.0 + 0.1 * i) * (1.0 + p) for p in levels},
            "converged": True,
            "fit_seconds": 0.0,
            "params": {},
            "empirical_quantiles": {repr(p): 1.0 + p for p in levels},
        }
        for i in range(4)
        for method in methods
    ])


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
                 "rainfit.corpus")


# What `dataclasses` loads, and no fit-free command needs.
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def loaded_by_fit_free_commands(tmp_path: Path, watched: tuple[str, ...]) -> list[list[str]]:
    """In a fresh interpreter, the watched modules loaded after importing
    the CLI and after each of `--help`, `--version` and `report --svg`."""
    records = tmp_path / "fits.jsonl"
    write_small_records(records, methods=("naveau-mle", "gamma-mixture-2"))
    report = ["report", "--records", str(records), "--out", str(tmp_path / "tables"), "--svg"]
    code = (
        "import contextlib, io, json, sys\n"
        "import rainfit.cli\n"
        f"watched = {watched!r}\n"
        "loaded = [[m for m in watched if m in sys.modules]]\n"
        f"for argv in (['--help'], ['--version'], {report!r}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rainfit.cli.main(argv) == 0\n"
        "    loaded.append([m for m in watched if m in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    loaded = run_python(code)
    assert (tmp_path / "tables" / "boxplot-0.5.svg").is_file()
    return loaded


def test_cli_import_help_version_and_report_load_no_numpy(tmp_path):
    assert loaded_by_fit_free_commands(tmp_path, NUMERIC_STACK) == [[], [], [], []]


def test_cli_import_help_version_and_report_load_no_dataclasses(tmp_path):
    assert loaded_by_fit_free_commands(tmp_path, INTROSPECTION) == [[], [], [], []]


def test_materializing_site_files_loads_no_scipy(tmp_path):
    manifest = site_file_manifest(tmp_path, 40)
    code = (
        "import json, sys\n"
        "import rainfit.cli\n"
        "from rainfit.corpus import filter_corpus, load_manifest\n"
        "from rainfit.pipeline import materialize_corpus\n"
        f"kept, dropped = filter_corpus(materialize_corpus(load_manifest({str(manifest)!r})))\n"
        "assert (len(kept), dropped) == (2, 0)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy') or m == 'numpy'\n"
        "                        or m in ('rainfit.egpd', 'rainfit.gamma_mixture', 'rainfit.numerics'))))\n"
    )
    assert run_python(code) == []


def test_a_benchmark_stopped_by_bad_site_data_loads_no_numpy(tmp_path):
    # Every site under --min-wet, or a malformed row: exit 2 before run_fits.
    manifest = site_file_manifest(tmp_path, 50)
    (tmp_path / "bad.csv").write_text("date,rainfall_mm\n2000-01-01,x\n", encoding="utf-8")
    write_manifest(tmp_path / "bad.json", seed=1, sites=["s0.csv", "bad.csv"])
    runs = [[str(manifest), "--min-wet", "100000"], [str(tmp_path / "bad.json")]]
    code = (
        "import contextlib, io, json, sys\n"
        "from rainfit.cli import main\n"
        "codes = []\n"
        f"for manifest, *flags in {runs!r}:\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        f"        codes.append(main(['benchmark', '--manifest', manifest, '--out', {str(tmp_path / 'run')!r}, *flags]))\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    assert run_python(code) == [[2, 2], False]


# Appended to a hook: records which of the fits' scipy modules are loaded.
RECORD_FIT_MODULES = (
    "    from rainfit import numerics\n"
    "    seen.append(['scipy.special' in sys.modules, sorted(numerics._loaded_kernels)])\n"
)
FIT_MODULES_LOADED = [False, ["scipy.optimize._lbfgsb", "scipy.special._special_ufuncs"]]
def test_run_fits_loads_scipy_before_forking_the_pool(tmp_path):
    # Site files, not generators: drawing sites would load the fit modules
    # before run_fits.  run_fits loads egpd before the fork, so that no
    # worker compiles it itself, and not gamma_mixture, which this run of
    # naveau-mle alone never calls.
    manifest = site_file_manifest(tmp_path, 50)
    hook = (
        "_fork = os.fork\n"
        "def fork():\n"
        + RECORD_FIT_MODULES
        + "    seen.append(['rainfit.egpd' in sys.modules, 'rainfit.gamma_mixture' in sys.modules])\n"
        "    return _fork()\n"
        "os.fork = fork\n"
    )
    rc, before, seen, _ = run_python(benchmark_code(manifest, tmp_path / "run", 2, hook))
    assert [rc, before, seen[:2]] == [0, False, [FIT_MODULES_LOADED, [True, False]]]


def test_a_parallel_run_loads_no_process_pool_and_starts_no_thread(tmp_path):
    # The workers are forked by run_fits itself and fed over pipes: no
    # multiprocessing, whose pool loads sockets, subprocesses and queues
    # and runs three threads in the main process.
    argv = ["benchmark", "--manifest", str(site_file_manifest(tmp_path, 90)), "--out",
            str(tmp_path / "run"), "--jobs", "2", "--methods", "naveau-mle", "--egpd-restarts", "0"]
    code = (
        "import json, sys, threading\n"
        "from rainfit.cli import main\n"
        f"rc = main({argv!r})\n"
        "loaded = [m for m in ('multiprocessing', 'socket', 'subprocess', 'queue') if m in sys.modules]\n"
        "print(json.dumps([rc, loaded, threading.active_count()]))\n"
    )
    assert run_python(code) == [0, [], 1]


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
        + "    seen.append(sorted({r['method'] for r in results if r['converged']}))\n"
        "    return results\n"
        "rainfit.pipeline.run_fits = run_fits\n"
    )
    code = benchmark_code(manifest, tmp_path / "run", 1, hook, methods=",".join(METHODS))
    rc, before, (loaded, converged), after = run_python(code)
    assert [rc, before, loaded] == [0, False, FIT_MODULES_LOADED]
    assert converged == sorted(METHODS)
    assert after == []


@pytest.mark.parametrize("methods", ["gamma-mixture-2,gamma-mixture-3", ",".join(METHODS)])
def test_writing_run_json_loads_no_module(tmp_path, methods):
    # scipy's version comes from its version.py, read outside sys.modules:
    # not from importlib.metadata, platform or `import scipy`.
    hook = (
        "_write_run_file = rainfit.pipeline._write_run_file\n"
        "def write_run_file(*args):\n"
        "    before = set(sys.modules)\n"
        "    _write_run_file(*args)\n"
        "    seen.append(sorted(set(sys.modules) - before))\n"
        "    seen.append([m for m in ('importlib.metadata', 'scipy', 'scipy.version') if m in sys.modules])\n"
        "rainfit.pipeline._write_run_file = write_run_file\n"
    )
    code = benchmark_code(site_file_manifest(tmp_path, 70), tmp_path / "run", 1, hook, methods)
    rc, before, seen, _ = run_python(code)
    assert [rc, before, seen] == [0, False, [[], []]]
    assert json.loads((tmp_path / "run" / "run.json").read_text(encoding="utf-8"))["environment"]["scipy"]


def loaded_by(methods: str) -> list[str]:
    """The WATCHED modules a run of methods loads: the fit module of each
    family; never the `scipy` package or numpy.random."""
    wanted = {f"rainfit.{METHODS[m].family}" for m in methods.split(",")}
    return [m for m in WATCHED if m in wanted]


@pytest.mark.parametrize("restarts", [0, 1])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("methods", [*METHODS, ",".join(METHODS)])
def test_the_first_fit_in_each_process_imports_nothing(tmp_path, methods, jobs, restarts):
    # At restarts 1 every fit draws a jittered start.  Its offsets come
    # from RngState.doubles, so no process that fits, serial or a forked
    # worker, ever loads numpy.random.  Nor does any process of any run,
    # the seven methods at --jobs 1 and 2 included, load the `scipy`
    # package (`first_fits` checks the main process).
    fits = first_fits(tmp_path, methods, jobs, restarts)
    assert fits and all(f["worker"] == (jobs > 1) for f in fits)
    assert [f["added"] for f in fits] == [[]] * len(fits)
    assert [f["loaded"] for f in fits] == [loaded_by(methods)] * len(fits)
    assert [f["at_end"] for f in fits] == [[]] * len(fits)


def test_fit_and_simulate_of_mixtures_never_import_scipy_special(tmp_path):
    # `fit` of a mixture and of a PWM method binds all five special
    # functions; `simulate` of mixture sites inverts the mixture CDF.  The
    # PWM fit loads no part of scipy at all.
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
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "from rainfit import numerics\n"
        "print(json.dumps([codes, loaded, sorted(numerics._loaded_kernels)]))\n"
    )
    codes, loaded, kernels = run_python(code)
    assert codes == [0, 0, 0]
    assert loaded == []
    assert "scipy.special._special_ufuncs" in kernels


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


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules([str(SRC / "rainfit")])))
def test_every_name_in_a_modules_all_resolves(name):
    # A stale entry would otherwise fail only at `from rainfit.<name> import *`.
    module = importlib.import_module(f"rainfit.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
