"""`benchmark --jobs N` forks its workers and feeds them task indices over pipes.

The records come back whole and in task order, whatever the number of
workers, and a worker that dies ends the run with exit 3 instead of
leaving it waiting.  No test runs more than 8 workers.
"""

import json

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


def test_a_worker_that_dies_ends_the_run_with_exit_3(tmp_path):
    # The worker fitting s1 kills itself; the one fitting s0 would sleep
    # for ten minutes, so the run ends within the timeout only if the main
    # process kills it, and leaves no process behind only if it reaps both.
    manifest = site_file_manifest(tmp_path, 40)
    argv = ["rainfit", "benchmark", "--manifest", str(manifest), "--out", str(tmp_path / "run"),
            "--jobs", "2", "--methods", "naveau-mle", "--egpd-restarts", "0"]
    code = (
        "import os, signal, sys, time\n"
        "import rainfit.pipeline\n"
        "from rainfit.cli import run\n"
        "main_pid = os.getpid()\n"
        "_run_single_fit = rainfit.pipeline.run_single_fit\n"
        "def run_single_fit(series, *args):\n"
        "    if os.getpid() != main_pid and series.site_id == 's1':\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    if os.getpid() != main_pid and series.site_id == 's0':\n"
        "        time.sleep(600)\n"
        "    return _run_single_fit(series, *args)\n"
        "rainfit.pipeline.run_single_fit = run_single_fit\n"
        f"sys.argv = {argv!r}\n"
        "run()\n"
    )
    rc, stderr = run_in_session(code, timeout=60)
    assert rc == 3, stderr
    assert stderr.startswith("error: worker process ") and "Traceback" not in stderr
    assert "killed by signal 9 while fitting site 's1', method 'naveau-mle'" in stderr
