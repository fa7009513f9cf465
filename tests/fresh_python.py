"""Helpers for tests that run rainfit in a fresh interpreter and read its `sys.modules`.

Each check starts a new Python process, so what it reads was loaded by the
code under test alone, not by an earlier test of this session.
`run_in_session` runs a command in a session of its own, under a timeout,
and checks that no process of that session outlives it.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import rainfit
from rainfit.corpus import GeneratorSpec, save_site, simulate_site, write_manifest

SRC = Path(rainfit.__file__).resolve().parents[1]

# Prints, as the last stdout line, the scipy modules the script loaded.
LOADED_SCIPY = (
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))\n"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(code: str) -> object:
    """Run code in a fresh interpreter; the JSON value on its last stdout line."""
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_in_session(code: str, timeout: float) -> tuple[int, str]:
    """Run code in a fresh interpreter that leads a session of its own; its
    exit code and stderr.

    At the timeout the whole session is killed and TimeoutExpired raised.
    Otherwise the command has ended and been reaped, so any process of its
    session that is still there, running or a zombie, outlived it: it is
    killed, and the check fails.
    """
    proc = subprocess.Popen([sys.executable, "-c", code], env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            left = True
        except ProcessLookupError:
            left = False
        proc.kill()
        proc.wait()
    assert not left, f"a process of session {proc.pid} outlived the command"
    return proc.returncode, stderr


def egpd_spec(site_id: str, seed: int) -> GeneratorSpec:
    return GeneratorSpec(
        site_id=site_id,
        family="egpd",
        params={"kappa": 1.2, "sigma": 5.0, "xi": 0.1},
        n=300,
        seed=seed,
    )


def mixture_spec(site_id: str, seed: int) -> GeneratorSpec:
    return GeneratorSpec(
        site_id=site_id,
        family="gamma-mixture",
        params={"weights": [0.4, 0.6], "shapes": [0.8, 3.0], "scales": [2.0, 6.0]},
        n=300,
        seed=seed,
    )


def site_file_manifest(tmp_path: Path, first_seed: int) -> Path:
    """A manifest of two EGPD site CSVs, without generators.

    Drawing generator sites would load the fit modules before `run_fits`
    does, and numpy.random, which no fit loads.
    """
    names = []
    for i in range(2):
        save_site(tmp_path / f"s{i}.csv", simulate_site(egpd_spec(f"s{i}", first_seed + i)))
        names.append(f"s{i}.csv")
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, seed=1, sites=names)
    return manifest


def benchmark_code(manifest: Path, out: Path, jobs: int, hook: str, methods: str = "naveau-mle",
                   restarts: int = 0) -> str:
    """A benchmark run of methods, with `restarts` jittered starts per fit,
    that records through hook what was loaded at the hooked call, and
    prints [exit code, any scipy loaded before the run, the hook's records
    (the list `seen`), scipy and its modules loaded after the run]."""
    argv = ["benchmark", "--manifest", str(manifest), "--out", str(out), "--jobs", str(jobs),
            "--methods", methods, "--egpd-restarts", str(restarts),
            "--mixture-restarts", str(restarts)]
    return (
        "import json, os, sys\n"
        "import rainfit.pipeline\n"
        "from rainfit.cli import main\n"
        "before = any(m.startswith('scipy') for m in sys.modules)\n"
        "seen = []\n"
        + hook
        + f"rc = main({argv!r})\n"
        "after = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps([rc, before, seen, after]))\n"
    )


# A benchmark_code hook: each process that fits writes to
# FIRST_FITS_DIR/<pid>.json whether it is a forked worker, the modules its
# first fit added to sys.modules, which of WATCHED were loaded after that
# fit, and which of NEVER_LOADED_BY_FITS were loaded after its last fit.
WATCHED = ("scipy", "rainfit.egpd", "rainfit.gamma_mixture", "numpy.random")
# No process that fits loads numpy.random or the `scipy` package, which the
# PWM fits' MINPACK binding once imported through `scipy._lib._ccallback`.
NEVER_LOADED_BY_FITS = ("numpy.random", "scipy", "scipy._lib._ccallback", "scipy.optimize._minpack")
FIRST_FIT_HOOK = (
    "main_pid = os.getpid()\n"
    "_run_single_fit = rainfit.pipeline.run_single_fit\n"
    "first = {}\n"
    "def run_single_fit(*args):\n"
    "    before = set(sys.modules)\n"
    "    result = _run_single_fit(*args)\n"
    "    if not first:\n"
    "        first.update(worker=os.getpid() != main_pid, added=sorted(set(sys.modules) - before),\n"
    f"                     loaded=[m for m in {WATCHED!r} if m in sys.modules])\n"
    "    with open(os.path.join(FIRST_FITS_DIR, f'{os.getpid()}.json'), 'w') as fh:\n"
    f"        json.dump(dict(first, at_end=[m for m in {NEVER_LOADED_BY_FITS!r} if m in sys.modules]), fh)\n"
    "    return result\n"
    "rainfit.pipeline.run_single_fit = run_single_fit\n"
)


def first_fits(tmp_path: Path, methods: str, jobs: int, restarts: int) -> list[dict]:
    """Run a benchmark of methods on two EGPD site files in a fresh interpreter;
    what FIRST_FIT_HOOK wrote for each process that fitted.  The main
    process must end the run without the scipy package."""
    manifest = site_file_manifest(tmp_path, 60)
    out = tmp_path / "first-fits"
    out.mkdir()
    hook = f"FIRST_FITS_DIR = {str(out)!r}\n" + FIRST_FIT_HOOK
    rc, before, _, after = run_python(benchmark_code(manifest, tmp_path / "run", jobs, hook, methods, restarts))
    assert [rc, before, [m for m in NEVER_LOADED_BY_FITS if m in after]] == [0, False, []]
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(out.glob("*.json"))]
