#!/usr/bin/env python3
"""Benchmark for rainfit: end-to-end run metrics and a traced per-module breakdown.

    python3 rainbench/run.py --workload paper-mixed --seed 1 --seconds 45 --trace 0
    python3 rainbench/run.py --workload all --seed 1        # every workload, interleaved

Run it from the root of a checkout.  It writes each workload's corpus from
--seed under .rainbench-out/ and runs the package from src/ with
PYTHONPATH=src, so rainfit need not be installed.

--trace 0 times `python -m rainfit.cli benchmark` and `report` subprocesses
REPEATS times per workload (interleaved across workloads), plus
fresh-interpreter set-up probes, and reports the medians as the
end-to-end metrics.  The repeat count is fixed: --seconds is recorded, not
obeyed, and the workloads are sized so that the repeats take about that
long.  --trace 1 runs the benchmark once as an untraced subprocess, then
in-process once untraced and once with the tracer installed (see
tracer.py), and reports the per-layer metrics.

Every run passes a correctness gate or counts as failed: exit code 0, one
record per (site, method), and medians/classes/boxplots CSVs byte-identical
across every run of the workload and to what `rainfit report` rebuilds from
fits.jsonl.  A traced run must also repeat exactly the counts of the
previous traced run of the same workload, seed and code in this checkout.
The last line on stdout is one JSON object: correct, attempted, failed,
metrics.
Exit code 0 means every check passed, 1 that a check failed, 2 that the
checkout is not usable.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread everywhere: set before numpy is imported here, and
# inherited by every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".rainbench-out"
PY = sys.executable

TABLES = ("medians.csv", "classes.csv", "boxplots.csv")
# Benchmark runs per workload in one untraced invocation; the metrics are
# their medians.  Each run is followed by its `report` rebuild and a
# set-up probe.
REPEATS = 3
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 150.0
# Median |D| above this on corpora drawn from the fitted families means the
# fits are broken, not merely slow.
D_ABS_SANITY = 0.25
# Printed and recorded, but left out of BENCHMARK.json because they move
# with the seed far more than any bound allows: fail_ratio is often 0,
# d_abs.p50 on mixture-large-n is the sampling noise of a near-perfect fit,
# and on paper-mixed the fit-time percentiles fall between the clusters of
# fast EGPD fits and slow mixture fits.  trace.overhead_s (traced minus
# untraced in-process wall) is smaller than the host's run-to-run noise, so
# it has no direction to be better in.
UNPUBLISHED_UNITS = {"fit_s.p50": "s", "fit_s.tail": "s", "fail_ratio": "ratio", "d_abs.p50": "ln-ratio",
                     "trace.overhead_s": "s"}

SETUP_CODE = (
    "import sys\n"
    "import rainfit.cli\n"
    "from rainfit.corpus import load_manifest\n"
    "from rainfit.pipeline import materialize_corpus\n"
    "materialize_corpus(load_manifest(sys.argv[1]))\n"
)
IMPORT_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import rainfit.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class UnusableCheckout(Exception):
    """The directory holds no rainfit sources or no BENCHMARK.json to run against."""


# --- child processes ---------------------------------------------------------


@dataclass
class ChildRun:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list, log_path: Path) -> ChildRun:
    """Run argv to completion; wall from spawn to exit, rusage of its whole tree.

    wait4 reports the child's own usage plus that of every descendant it
    reaped (the pool workers), and ru_maxrss the largest of them.  The
    child leads its own process group, so a timeout or an interrupt here
    kills its pool workers with it.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)

        def kill_group() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(CHILD_TIMEOUT_S, kill_group)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def setup_probe(manifest: Path, log_path: Path) -> float:
    """Fresh interpreter: import the CLI, load the manifest, materialize the corpus."""
    child = run_child([PY, "-c", SETUP_CODE, manifest], log_path)
    if child.rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.rc}; see {log_path}")
    return child.wall_s


def import_probe() -> float:
    out = subprocess.run([PY, "-c", IMPORT_CODE], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# --- one benchmark run and its gate ------------------------------------------


def file_digests(directory: Path) -> dict[str, str | None]:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        if (directory / name).is_file() else None
        for name in TABLES
    }


def read_records(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def fit_failed(record: dict) -> bool:
    message = (record.get("diagnostics") or {}).get("message", "")
    return record["error"] is not None or not record["converged"] or message.startswith("timeout:")


def abs_d_values(records: list[dict]) -> list[float]:
    """|D| = |ln(q_model / q_empirical)| over converged (site, method, level) cells."""
    out = []
    for r in records:
        if r["error"] is not None or not r["converged"]:
            continue
        emp = r["empirical_quantiles"] or {}
        for p, q_model in r["estimated_quantiles"].items():
            q_emp = emp.get(p)
            if q_emp is not None and q_model > 0.0 and q_emp > 0.0:
                out.append(abs(math.log(q_model / q_emp)))
    return out


def check_records(records: list[dict], n_sites: int, methods: tuple[str, ...]) -> list[str]:
    problems = []
    pairs = {(r["site_id"], r["method"]) for r in records}
    expected = n_sites * len(methods)
    if len(records) != expected or len(pairs) != expected:
        problems.append(f"{len(records)} records ({len(pairs)} distinct), expected {expected}")
    if {m for _, m in pairs} - set(methods):
        problems.append("records name methods that were not requested")
    d_abs = abs_d_values(records)
    if d_abs and statistics.median(d_abs) > D_ABS_SANITY:
        problems.append(f"median |D| {statistics.median(d_abs):.3f} exceeds {D_ABS_SANITY}")
    return problems


def check_tables(tables: dict, reference: dict | None, label: str) -> list[str]:
    problems = []
    for name in TABLES:
        if tables.get(name) is None:
            problems.append(f"{label}: {name} missing")
        elif reference is not None and tables[name] != reference.get(name):
            problems.append(f"{label}: {name} differs from the workload's first run")
    return problems


@dataclass
class BenchRun:
    bench: ChildRun
    report: ChildRun
    records: list[dict]
    tables: dict
    load_before: tuple
    load_after: tuple
    problems: list[str] = field(default_factory=list)

    @property
    def fit_seconds(self) -> list[float]:
        return [r["fit_seconds"] for r in self.records]


def bench_once(w, manifest: Path, n_sites: int, run_dir: Path, reference: dict | None) -> BenchRun:
    """One `rainfit benchmark` subprocess, then `rainfit report` on its records, gated."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    out, rebuilt = run_dir / "bench", run_dir / "report"
    load_before = os.getloadavg()
    bench = run_child([PY, "-m", "rainfit.cli", "benchmark", "--manifest", manifest, "--out", out,
                       *w.benchmark_flags()], run_dir / "benchmark.log")
    load_after = os.getloadavg()
    report = run_child([PY, "-m", "rainfit.cli", "report", "--records", out / "fits.jsonl",
                        "--out", rebuilt], run_dir / "report.log")
    records = read_records(out / "fits.jsonl")
    tables = file_digests(out)
    problems = []
    if bench.rc != 0:
        problems.append(f"benchmark exited {bench.rc}; see {run_dir / 'benchmark.log'}")
    if report.rc != 0:
        problems.append(f"report exited {report.rc}; see {run_dir / 'report.log'}")
    problems += check_records(records, n_sites, w.methods)
    problems += check_tables(tables, reference, "benchmark")
    problems += check_tables(file_digests(rebuilt), tables, "report rebuild")
    return BenchRun(bench, report, records, tables, load_before, load_after, problems)


# --- metrics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten values beyond it: (value, percentile, n).

    With ten or fewer values no such percentile exists and the maximum
    (percentile 100) is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end_metrics(setup_s: list[float], runs: list[BenchRun]) -> tuple[dict, dict]:
    """Medians over the runs of one workload, plus notes printed beside them."""
    # The tail pools the fit times of all runs: a workload has 2-21 fits, too
    # few for one run to have ten fits beyond any percentile above p50.
    tail_s, tail_p, tail_n = tail([t for r in runs for t in r.fit_seconds])
    fits = sum(len(r.records) for r in runs)
    failed_fits = sum(fit_failed(rec) for r in runs for rec in r.records)
    d_abs = abs_d_values(runs[0].records)
    values = {
        "wall_s": statistics.median(r.bench.wall_s for r in runs),
        "setup_s": statistics.median(setup_s),
        "report_s": statistics.median(r.report.wall_s for r in runs),
        "fit_s.p50": statistics.median(statistics.median(r.fit_seconds) for r in runs),
        "fit_s.tail": tail_s,
        "cpu_s": statistics.median(r.bench.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.bench.peak_rss_mb for r in runs),
        "fail_ratio": failed_fits / fits,
        "converged_ratio": 1.0 - failed_fits / fits,
        "d_abs.p50": statistics.median(d_abs) if d_abs else math.nan,
    }
    notes = {
        "wall_s": f"median of {len(runs)} runs",
        "setup_s": f"median of {len(setup_s)} fresh interpreters",
        "report_s": f"median of {len(runs)} rebuilds",
        "fit_s.p50": f"median of {len(runs[0].records)} fits",
        "fit_s.tail": f"p{tail_p:.1f} of {tail_n} fit times, {len(runs)} runs pooled",
        "fail_ratio": f"{failed_fits} of {fits} fits",
        "d_abs.p50": f"{len(d_abs)} converged cells",
    }
    return values, notes


# --- the two modes -----------------------------------------------------------


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise UnusableCheckout(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def check_sources() -> None:
    if not (SRC / "rainfit" / "cli.py").is_file():
        raise UnusableCheckout(f"no rainfit sources under {SRC}")


def make_corpus(w, seed: int, out_dir: Path) -> Path:
    """Write the workload's corpus in a child process; return its manifest.

    The untraced mode never imports numpy or rainfit in this process: Linux
    reports a child's peak RSS as at least its parent's RSS when it was
    spawned, so a large parent would mask the peak of `rainfit benchmark`.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    child = run_child([PY, HERE / "workloads.py", w.name, seed, out_dir], out_dir / "corpus.log")
    if child.rc != 0:
        raise RuntimeError(f"writing the corpus failed with exit code {child.rc}; see {out_dir / 'corpus.log'}")
    return out_dir / "manifest.json"


@dataclass
class Outcome:
    metrics: dict
    notes: dict
    attempted: int
    failed: int
    problems: list[str]
    detail: dict


def measure_untraced(workloads: list, seed: int, work: Path) -> dict[str, Outcome]:
    corpora = {}
    for w in workloads:
        manifest = make_corpus(w, seed, work / w.name / "corpus")
        corpora[w.name] = (manifest, len(json.loads(manifest.read_text())["sites"]))

    runs = {w.name: [] for w in workloads}
    setup = {w.name: [] for w in workloads}
    # Rounds interleave the workloads, rotating which goes first, and each
    # benchmark run is followed by its `report` rebuild and a set-up probe,
    # so that no kind of sample takes all its values in one slow spell of
    # the host.
    # Writing the corpus has already compiled the package and warmed the
    # page cache, so the first run needs no warm-up before it.
    for round_no in range(REPEATS):
        for w in workloads[round_no % len(workloads):] + workloads[:round_no % len(workloads)]:
            manifest, n_sites = corpora[w.name]
            run_dir = work / w.name / f"run-{round_no}"
            reference = runs[w.name][0].tables if runs[w.name] else None
            run = bench_once(w, manifest, n_sites, run_dir, reference)
            runs[w.name].append(run)
            setup[w.name].append(setup_probe(manifest, work / w.name / "setup.log"))
            print(f"{w.name} run {round_no}: wall {run.bench.wall_s:.3f} s, cpu {run.bench.cpu_s:.3f} s, "
                  f"report {run.report.wall_s:.3f} s, load {run.load_before[0]:.2f} -> "
                  f"{run.load_after[0]:.2f}{'; FAILED: ' + '; '.join(run.problems) if run.problems else ''}",
                  flush=True)

    outcomes = {}
    for w in workloads:
        metrics, notes = end_to_end_metrics(setup[w.name], runs[w.name])
        problems = [p for r in runs[w.name] for p in r.problems]
        detail = {
            "setup_s": setup[w.name],
            "runs": [
                {"wall_s": r.bench.wall_s, "cpu_s": r.bench.cpu_s, "peak_rss_mb": r.bench.peak_rss_mb,
                 "report_s": r.report.wall_s, "load_before": r.load_before, "load_after": r.load_after,
                 "fit_seconds": r.fit_seconds, "tables_sha256": r.tables, "problems": r.problems}
                for r in runs[w.name]
            ],
        }
        outcomes[w.name] = Outcome(metrics, notes, len(runs[w.name]),
                                   sum(bool(r.problems) for r in runs[w.name]), problems, detail)
    return outcomes


def run_in_process(w, manifest: Path, out: Path, tracer) -> float:
    """`run_benchmark` with --jobs 1, so every call stays in this process; traced unless tracer is None."""
    from rainfit.pipeline import run_benchmark

    if out.exists():
        shutil.rmtree(out)
    config = w.run_config(jobs=1)
    t0 = time.perf_counter()
    if tracer is None:
        run_benchmark(manifest, out, config)
    else:
        with tracer.installed(), tracer.span("pipeline.run_benchmark"):
            run_benchmark(manifest, out, config)
    return time.perf_counter() - t0


def layer_metrics(tr, import_s: float, pool_busy_frac: float, overhead_s: float) -> dict:
    from workloads import EGPD_METHODS, MIXTURE_METHODS

    calls, secs = tr.calls, tr.secs
    iters = calls["numerics.nm_iters"]
    mix_evals = calls["numerics.obj_evals.mixture"]
    m = {
        "cli.import_s": import_s,
        "corpus.load_s": tr.duration("pipeline.load_site"),
        "corpus.rows": tr.rows,
        "pipeline.fit_phase_s": tr.duration("pipeline.run_fits"),
        "pipeline.write_s": tr.duration("pipeline.write_records") + tr.duration("pipeline.write_report_files"),
        "pipeline.pool_busy_frac": pool_busy_frac,
        "empirical.quantile_calls": calls["empirical.quantile"],
        "empirical.quantile_s": secs["empirical.quantile"],
        "evaluation.summarize_s": tr.duration("pipeline.summarize"),
        "report.render_s": tr.duration("pipeline.write_report_files"),
    }
    for method in EGPD_METHODS + MIXTURE_METHODS:
        m[f"numerics.obj_evals.{method}"] = tr.per_fit_evals(method)
    m.update({
        "numerics.nm_runs": calls["numerics.nm_runs"],
        "numerics.nm_unconverged": calls["numerics.nm_unconverged"],
        "numerics.restarts_at_best.egpd": tr.restarts_at_best("naveau-"),
        "numerics.restarts_at_best.mixture": tr.restarts_at_best("gamma-mixture-"),
        "numerics.nm_self_us_per_iter": 1e6 * secs["numerics.nm_self"] / iters if iters else 0.0,
    })
    for k in (2, 3, 4):
        m[f"gamma_mixture.fit_s.k{k}"] = tr.median_fit_seconds(f"gamma-mixture-{k}")
    m.update({
        "gamma_mixture.log_posterior_calls": calls["gamma_mixture.log_posterior"],
        "gamma_mixture.log_posterior_us": tr.per_call_us("gamma_mixture.log_posterior"),
        "gamma_mixture.mixture_log_pdf_us": tr.per_call_us("gamma_mixture.mixture_log_pdf"),
        "gamma_mixture.objective_overhead_us": (
            1e6 * (secs["numerics.objective.mixture"] - secs["numerics.objective_log_posterior"]) / mix_evals
            if mix_evals else 0.0
        ),
        "gamma_mixture.quantile_us": tr.per_call_us("gamma_mixture.quantile"),
        "egpd.quantile_us": tr.per_call_us("egpd.quantile"),
    })
    for method in EGPD_METHODS:
        m[f"egpd.fit_s.{method.removeprefix('naveau-')}"] = tr.median_fit_seconds(method)
    m.update({
        "egpd.log_pdf_calls": calls["egpd.log_pdf"],
        "egpd.log_pdf_us": tr.per_call_us("egpd.log_pdf"),
        "egpd.conditional_pwms_calls": calls["egpd.conditional_pwms"],
        "egpd.conditional_pwms_us": tr.per_call_us("egpd.conditional_pwms"),
        "trace.overhead_s": overhead_s,
    })
    return m


def code_digest() -> str:
    """Short hash of the code the counts depend on: the package and this benchmark's corpus and tracer."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("rainfit/*.py")) + [HERE / "workloads.py", HERE / "tracer.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_traced(w, seed: int, work: Path) -> Outcome:
    from tracer import Tracer

    sys.path.insert(0, str(SRC))
    manifest = make_corpus(w, seed, work / w.name / "corpus")
    n_sites = len(json.loads(manifest.read_text())["sites"])
    import_probe()  # warm-up: bytecode and page caches
    import_s = statistics.median(import_probe() for _ in range(IMPORT_PROBES))

    untraced = bench_once(w, manifest, n_sites, work / w.name / "untraced", None)
    problems = list(untraced.problems)
    failed = int(bool(untraced.problems))
    pool_busy_frac = sum(untraced.fit_seconds) / (w.jobs * untraced.bench.wall_s)
    print(f"{w.name} untraced subprocess: wall {untraced.bench.wall_s:.3f} s (jobs {w.jobs}), "
          f"fits {sum(untraced.fit_seconds):.3f} s", flush=True)

    # The untraced in-process run is the reference for the tracing overhead:
    # same interpreter, same --jobs 1, wrappers absent.
    walls = []
    tracer = Tracer()
    for label, tr in (("untraced in-process run", None), ("traced run", tracer)):
        out = work / w.name / label.replace(" ", "-")
        try:
            walls.append(run_in_process(w, manifest, out, tr))
            run_problems = check_records(read_records(out / "fits.jsonl"), n_sites, w.methods)
            run_problems += check_tables(file_digests(out), untraced.tables, label)
        except Exception as exc:  # noqa: BLE001 - a crashed run is a failed operation
            walls.append(math.nan)
            run_problems = [f"{label}: {type(exc).__name__}: {exc}"]
        problems += run_problems
        failed += int(bool(run_problems))
        print(f"{w.name} {label}: wall {walls[-1]:.3f} s (jobs 1)"
              f"{'; FAILED: ' + '; '.join(run_problems) if run_problems else ''}", flush=True)
    tracer.write_spans(work / w.name / "spans.jsonl")

    # Counts must repeat exactly: compare with the last traced run of this
    # workload and seed on the same code, if this checkout has one.
    counts = tracer.counts()
    counts_path = WORK / "counts" / f"{w.name}-seed{seed}-{code_digest()}.json"
    if counts_path.is_file():
        previous = json.loads(counts_path.read_text())
        diff = sorted(k for k in set(counts) | set(previous) if counts.get(k) != previous.get(k))
        if diff:
            problems.append(f"counts differ from the previous traced run: {', '.join(diff)}")
            failed += 1
        print(f"{w.name} counts {'differ from' if diff else 'repeat'} the previous traced run "
              f"of this code", flush=True)
    else:
        print(f"{w.name} counts not compared: no previous traced run of this workload, seed and code; "
              f"stored in {counts_path.relative_to(ROOT)}", flush=True)
    counts_path.parent.mkdir(parents=True, exist_ok=True)
    counts_path.write_text(json.dumps(counts, indent=1) + "\n")

    metrics = layer_metrics(tracer, import_s, pool_busy_frac, walls[1] - walls[0])
    detail = {
        "import_s": import_s,
        "untraced_subprocess_wall_s": untraced.bench.wall_s,
        "in_process_wall_s": {"untraced": walls[0], "traced": walls[1]},
        "counts": counts,
        "tables_sha256": untraced.tables,
    }
    return Outcome(metrics, {}, 3, failed, problems, detail)


# --- output ------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit,
    }


def main(argv=None) -> int:
    # SIGTERM unwinds like an interrupt, so run_child kills what it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="nominal measuring time per workload; recorded only (the repeat count is fixed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        check_sources()
    except UnusableCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    if args.trace:
        outcomes = {w.name: measure_traced(w, args.seed, work) for w in workloads}
    else:
        outcomes = measure_untraced(workloads, args.seed, work)

    # Every computed metric is printed; the JSON line carries the ones
    # BENCHMARK.json lists for this mode.
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    for name, outcome in outcomes.items():
        if set(wanted) - set(outcome.metrics):
            print(f"error: BENCHMARK.json names metrics not computed: {set(wanted) - set(outcome.metrics)}",
                  file=sys.stderr)
            return 2
        print(f"\n{name} (seed {args.seed}, trace {args.trace})")
        for metric, value in outcome.metrics.items():
            note = outcome.notes.get(metric)
            unit = wanted.get(metric) or UNPUBLISHED_UNITS[metric]
            print(f"  {metric:<38} {value:>14.6g} {unit:<9}{'  (' + note + ')' if note else ''}"
                  f"{'' if metric in wanted else '  [not in BENCHMARK.json]'}")
            if metric in wanted:
                key = metric if len(outcomes) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": value, "unit": unit}
        for problem in outcome.problems:
            print(f"  FAILED: {problem}")

    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    results = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "outcomes": {name: {"metrics": o.metrics, "notes": o.notes, "problems": o.problems,
                            "detail": o.detail} for name, o in outcomes.items()},
    }
    (work / "results.json").write_text(json.dumps(results, indent=2, default=list) + "\n")
    print(f"\nresults and logs in {work.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
