"""Import contract: scipy loads only where a fit runs.

Importing the CLI, rebuilding tables with `report` and loading site CSVs
need numpy alone; `run_fits` loads scipy.optimize once, before it forks a
pool or starts the first fit.  Each check runs in a fresh interpreter and
reads `sys.modules`; none measures time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rainfit
from rainfit.corpus import GeneratorSpec, save_site, simulate_site, write_manifest
from rainfit.evaluation import FitResult
from rainfit.pipeline import write_records

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


def test_report_loads_no_scipy(tmp_path):
    records = tmp_path / "fits.jsonl"
    levels = (0.25, 0.5, 0.75)
    write_records(records, [
        FitResult(
            site_id=f"s{i}",
            method="naveau-mle",
            estimated_quantiles={p: (1.0 + 0.1 * i) * (1.0 + p) for p in levels},
            converged=True,
            fit_seconds=0.0,
            params={},
            empirical_quantiles={p: 1.0 + p for p in levels},
        )
        for i in range(4)
    ])
    code = (
        "import json, sys\n"
        "from rainfit.cli import main\n"
        f"assert main(['report', '--records', {str(records)!r}, '--out', {str(tmp_path / 'tables')!r}]) == 0\n"
        + LOADED_SCIPY
    )
    assert run_python(code) == []
    assert (tmp_path / "tables" / "medians.csv").is_file()


def test_materializing_site_files_loads_no_scipy(tmp_path):
    names = []
    for i in range(2):
        name = f"s{i}.csv"
        save_site(tmp_path / name, simulate_site(egpd_spec(f"s{i}", 40 + i)))
        names.append(name)
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, seed=1, sites=names)
    code = (
        "import json, sys\n"
        "from rainfit.corpus import load_manifest\n"
        "from rainfit.pipeline import materialize_corpus\n"
        f"assert len(materialize_corpus(load_manifest({str(manifest)!r}))) == 2\n"
        + LOADED_SCIPY
    )
    assert run_python(code) == []


def benchmark_code(manifest: Path, out: Path, jobs: int, hook: str) -> str:
    """A naveau-mle benchmark run that records, through hook, whether
    scipy.optimize was loaded at the hooked call; the EGPD fits never load
    scipy themselves."""
    argv = ["benchmark", "--manifest", str(manifest), "--out", str(out), "--jobs", str(jobs),
            "--methods", "naveau-mle", "--egpd-restarts", "0"]
    return (
        "import json, multiprocessing, sys\n"
        "import rainfit.pipeline\n"
        "from rainfit.cli import main\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "seen = []\n"
        + hook
        + f"rc = main({argv!r})\n"
        "print(json.dumps([rc, before, seen[:1]]))\n"
    )


def test_run_fits_loads_scipy_before_forking_the_pool(tmp_path):
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, seed=1, generators=[egpd_spec("s0", 50), egpd_spec("s1", 51)])
    hook = (
        "_get_context = multiprocessing.get_context\n"
        "def get_context(*args, **kwargs):\n"
        "    seen.append('scipy.optimize' in sys.modules)\n"
        "    return _get_context(*args, **kwargs)\n"
        "multiprocessing.get_context = get_context\n"
    )
    assert run_python(benchmark_code(manifest, tmp_path / "run", 2, hook)) == [0, False, [True]]


def test_run_fits_loads_scipy_before_the_first_serial_fit(tmp_path):
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, seed=1, generators=[egpd_spec("s0", 50)])
    hook = (
        "_run_single_fit = rainfit.pipeline.run_single_fit\n"
        "def run_single_fit(*args):\n"
        "    seen.append('scipy.optimize' in sys.modules)\n"
        "    return _run_single_fit(*args)\n"
        "rainfit.pipeline.run_single_fit = run_single_fit\n"
    )
    assert run_python(benchmark_code(manifest, tmp_path / "run", 1, hook)) == [0, False, [True]]
