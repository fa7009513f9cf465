"""`benchmark --jobs N` forks its workers and feeds them task indices over pipes.

Each site's tasks go out longest first, and the records come back whole
and in task order, whatever the number of workers.  A worker that dies
or cuts its record short ends the run with exit 3 instead of leaving it
waiting, a worker that cannot load its scipy kernels ends it as a serial
run does, and Ctrl-C ends it with exit 130.
No test runs more than 8 workers.
"""

import json
import os

import pytest
from fresh_python import run_in_session, site_file_manifest
from rainfit import pipeline
from rainfit.cli import main
from rainfit.corpus import GeneratorSpec, write_manifest

TABLES = ("medians.csv", "classes.csv", "boxplots.csv", "medians.txt", "classes.txt")


def two_site_manifest(tmp_path):
    sites = [
        GeneratorSpec(site_id="e0", family="egpd", n=300, seed=31,
                      params={"kappa": 1.2, "sigma": 5.0, "xi": 0.1}),
        GeneratorSpec(site_id="m1", family="gamma-mixture", n=300, seed=32,
                      params={"weights": [0.4, 0.6], "shapes": [0.8, 3.0], "scales": [2.0, 6.0]}),
    ]
    write_manifest(tmp_path / "manifest.json", seed=1, generators=sites)
    return tmp_path / "manifest.json"


def benchmark(manifest, out, jobs, methods="naveau-mle,naveau-pwm,gamma-mixture-2"):
    assert main(["benchmark", "--manifest", str(manifest), "--out", str(out), "--jobs", str(jobs),
                 "--methods", methods, "--egpd-restarts", "1", "--mixture-restarts", "1"]) == 0
    return [json.loads(line) for line in (out / "fits.jsonl").read_text(encoding="utf-8").splitlines()]


def test_three_workers_and_more_workers_than_tasks_write_what_one_process_writes(tmp_path, capsys):
    # Six tasks: --jobs 7 forks six workers.
    manifest = two_site_manifest(tmp_path)
    outputs = []
    for jobs in (1, 3, 7):
        out = tmp_path / f"jobs-{jobs}"
        records = benchmark(manifest, out, jobs)
        for record in records:
            del record["fit_seconds"]
        outputs.append(({name: (out / name).read_bytes() for name in TABLES}, records))
    assert len(outputs[0][1]) == 6
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_each_site_hands_out_its_longest_fits_first(tmp_path, monkeypatch, capsys):
    # Each worker gets its first task before any record comes back: the
    # first site's last two methods in `METHODS` order, the mixture first.
    # The records still come out in task order.
    log = tmp_path / "first-tasks"
    fit = pipeline.run_single_fit

    def run_single_fit(series, method, *args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {series.site_id} {method}\n")
        return fit(series, method, *args)

    monkeypatch.setattr(pipeline, "run_single_fit", run_single_fit)
    records = benchmark(two_site_manifest(tmp_path), tmp_path / "run", 2)
    first = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, task = line.split(" ", 1)
        first.setdefault(pid, task)
    assert sorted(first.values()) == ["e0 gamma-mixture-2", "e0 naveau-pwm"]
    assert [(r["site_id"], r["method"]) for r in records] == [
        (site, method) for site in ("e0", "m1") for method in ("naveau-mle", "naveau-pwm", "gamma-mixture-2")
    ]


def test_a_record_larger_than_a_pipe_buffer_comes_back_whole(tmp_path, monkeypatch, capsys):
    # 1 MiB of diagnostics per record, sixteen times a 64 KiB pipe buffer,
    # each record's own, so a record torn or swapped on the way shows.
    fit = pipeline.run_single_fit

    def run_single_fit(series, method, *args):
        record = fit(series, method, *args)
        record["diagnostics"]["blob"] = f"{series.site_id}/{method};" * (2**20 // 10)
        return record

    monkeypatch.setattr(pipeline, "run_single_fit", run_single_fit)
    records = benchmark(two_site_manifest(tmp_path), tmp_path / "run", 2, "naveau-mle,naveau-pwm")
    assert [(r["site_id"], r["method"]) for r in records] == [
        ("e0", "naveau-mle"), ("e0", "naveau-pwm"), ("m1", "naveau-mle"), ("m1", "naveau-pwm"),
    ]
    for r in records:
        assert r["diagnostics"]["blob"] == f"{r['site_id']}/{r['method']};" * (2**20 // 10)


def test_a_run_stopped_mid_fit_leaves_the_earlier_run_alone(tmp_path, monkeypatch, capsys):
    # The worker given the third task dies.  The records written until then
    # stay in fits.jsonl.partial; the earlier run's records, tables and
    # run.json stay as they were.
    manifest, out = two_site_manifest(tmp_path), tmp_path / "run"
    benchmark(manifest, out, 1, "naveau-mle,naveau-pwm")
    files = TABLES + ("fits.jsonl", "run.json")
    before = {name: (out / name).read_bytes() for name in files}
    fit = pipeline.run_single_fit

    def run_single_fit(series, method, *args):
        if (series.site_id, method) == ("m1", "naveau-mle"):
            os._exit(1)
        return fit(series, method, *args)

    monkeypatch.setattr(pipeline, "run_single_fit", run_single_fit)
    assert main(["benchmark", "--manifest", str(manifest), "--out", str(out), "--jobs", "2",
                 "--methods", "naveau-mle,naveau-pwm", "--egpd-restarts", "1"]) == 3
    assert "exited with status 1 while fitting site 'm1', method 'naveau-mle'" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in files} == before
    partial = (out / "fits.jsonl.partial").read_text(encoding="utf-8").splitlines()
    order = [("e0", "naveau-mle"), ("e0", "naveau-pwm")]
    assert [(r["site_id"], r["method"]) for r in map(json.loads, partial)] == order[:len(partial)]


def run_patched_benchmark(tmp_path, jobs, patch):
    """`cli.run` of `benchmark --methods naveau-mle` on site files s0 and s1
    in a session of its own; its exit code and stderr.  patch defines
    `run_single_fit(series, *args)`, which replaces the pipeline's and may
    call `fit`, the original, and `in_worker()`."""
    manifest = site_file_manifest(tmp_path, 40)
    argv = ["rainfit", "benchmark", "--manifest", str(manifest), "--out", str(tmp_path / "run"),
            "--jobs", str(jobs), "--methods", "naveau-mle", "--egpd-restarts", "0"]
    code = (
        "import os, pickle, signal, sys, time\n"
        "import rainfit.pipeline\n"
        "from rainfit.cli import run\n"
        "main_pid = os.getpid()\n"
        "def in_worker():\n"
        "    return os.getpid() != main_pid\n"
        "fit = rainfit.pipeline.run_single_fit\n"
        + patch
        + "rainfit.pipeline.run_single_fit = run_single_fit\n"
        f"sys.argv = {argv!r}\n"
        "run()\n"
    )
    return run_in_session(code, timeout=60)


@pytest.mark.parametrize("earlier_run", [False, True])
def test_a_scipy_without_a_kernel_ends_a_parallel_run_as_it_ends_a_serial_one(tmp_path, capsys, earlier_run):
    # Each worker loads L-BFGS-B itself, after the fork, and finds it
    # missing; the main process raises the ImportError it sends back.
    # Exit 2 and the same one error line as --jobs 1, no worker left
    # behind, and --out as it was: not made, or an earlier run's files
    # byte for byte, with no records file beside them.
    out = tmp_path / "run"

    def files():
        return {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else None

    if earlier_run:
        assert main(["benchmark", "--manifest", str(site_file_manifest(tmp_path, 40)), "--out", str(out),
                     "--methods", "naveau-mle", "--egpd-restarts", "0"]) == 0
    before = files()
    runs = [run_patched_benchmark(tmp_path, jobs, (
        "from rainfit import numerics\n"
        "numerics._SCIPY_FUNCTIONS['setulb'] = 'scipy.optimize._no_such_kernel'\n"
        "run_single_fit = fit\n"
    )) for jobs in (1, 2)]
    assert [rc for rc, _ in runs] == [2, 2]
    assert runs[1][1] == runs[0][1] and len(runs[0][1].splitlines()) == 1
    assert runs[0][1].startswith("error: scipy's compiled module scipy.optimize._no_such_kernel is not in ")
    assert files() == before


def test_an_out_that_cannot_be_made_leaves_no_worker_to_a_caller_that_keeps_the_error(tmp_path):
    # --out is a file, so making it fails after the workers have forked.  A
    # library caller that keeps the error keeps the frame that ran the
    # fits; the workers must be reaped all the same, before it returns.
    manifest, out = site_file_manifest(tmp_path, 40), tmp_path / "run"
    out.write_text("a file\n")
    rc, stderr = run_in_session(
        "import os, sys\n"
        "from rainfit.pipeline import RunConfig, run_benchmark\n"
        "config = RunConfig(methods=('naveau-mle',), egpd_restarts=0, jobs=2)\n"
        "try:\n"
        f"    run_benchmark({str(manifest)!r}, {str(out)!r}, config)\n"
        "except FileExistsError as exc:\n"
        "    kept = exc\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    sys.exit(0)\n"
        "sys.exit('a worker was not reaped')\n", timeout=60)
    assert rc == 0, stderr
    assert out.read_text() == "a file\n"


def test_a_worker_that_dies_ends_the_run_with_exit_3(tmp_path):
    # The worker fitting s1 kills itself; the one fitting s0 would sleep
    # for ten minutes, so the run ends within the timeout only if the main
    # process kills it, and leaves no process behind only if it reaps both.
    rc, stderr = run_patched_benchmark(tmp_path, 2, (
        "def run_single_fit(series, *args):\n"
        "    if in_worker() and series.site_id == 's1':\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    if in_worker() and series.site_id == 's0':\n"
        "        time.sleep(600)\n"
        "    return fit(series, *args)\n"
    ))
    assert rc == 3, stderr
    assert stderr.startswith("error: worker process ") and "Traceback" not in stderr
    assert "killed by signal 9 while fitting site 's1', method 'naveau-mle'" in stderr


# Two ways the worker fitting s1 writes part of its record, 1 MiB of
# diagnostics, and exits 1: its pickling fails after the string has gone
# out, which cuts the pickle between two opcodes; or it writes the first
# half of the pickle, which cuts the string itself.
CUT_RECORD = {
    "unpicklable": (
        "class Unpicklable:\n"
        "    def __reduce__(self):\n"
        "        raise TypeError('cannot pickle this')\n"
        "def cut(record):\n"
        "    record['diagnostics']['after'] = Unpicklable()\n"
    ),
    "half-written": (
        "dump = pickle.dump\n"
        "def half_dump(record, out):\n"
        "    if record['site_id'] != 's1':\n"
        "        return dump(record, out)\n"
        "    out.write(pickle.dumps(record)[:2**19])\n"
        "    out.flush()\n"
        "    os._exit(1)\n"
        "pickle.dump = half_dump\n"
        "def cut(record):\n"
        "    pass\n"
    ),
}


@pytest.mark.parametrize("how", list(CUT_RECORD))
def test_a_record_cut_off_mid_write_ends_the_run_with_exit_3(tmp_path, how):
    rc, stderr = run_patched_benchmark(tmp_path, 2, CUT_RECORD[how] + (
        "def run_single_fit(series, *args):\n"
        "    record = fit(series, *args)\n"
        "    if in_worker() and series.site_id == 's1':\n"
        "        record['diagnostics']['blob'] = 'x' * 2**20\n"
        "        cut(record)\n"
        "    return record\n"
    ))
    assert rc == 3, stderr
    assert stderr.startswith("error: worker process ") and "Traceback" not in stderr
    assert "exited with status 1 while fitting site 's1', method 'naveau-mle'" in stderr


# How Ctrl-C reaches the fit of s1.  With --jobs 2 a worker sends SIGINT to
# the session, as a terminal does, while the worker fitting s0 sleeps and
# the main process waits; with --jobs 1 the fit raises KeyboardInterrupt.
INTERRUPT = {
    2: ("os.killpg(0, signal.SIGINT)\n"
        "    if in_worker() and series.site_id == 's0':\n"
        "        time.sleep(600)\n"),
    1: "raise KeyboardInterrupt\n",
}


@pytest.mark.parametrize("jobs", list(INTERRUPT))
def test_ctrl_c_ends_the_run_with_exit_130_and_one_error_line(tmp_path, jobs):
    rc, stderr = run_patched_benchmark(tmp_path, jobs, (
        "def run_single_fit(series, *args):\n"
        "    if series.site_id == 's1':\n"
        "        " + INTERRUPT[jobs]
        + "    return fit(series, *args)\n"
    ))
    assert rc == 130, stderr
    assert [line for line in stderr.splitlines() if line.startswith("error:")] == ["error: interrupted"]
    assert "Traceback" not in stderr
