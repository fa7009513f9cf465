"""Benchmark pipeline: fit each (site, method) pair and write report files.

The pipeline owns everything between a corpus manifest and the files on
disk: building the deterministic task list, running fits (serially or in
forked worker processes), yielding one record per task, in task order, no
matter what the fit did, and writing the records file and `run.json`,
what the run cost.
`report.write_report_files`, imported here, writes the tables derived from
the records.

A fit is its record: `run_single_fit` returns the dict that `fits.jsonl`
stores on one line.  `benchmark` has one path from fits to tables, the
one `report` takes: `write_records` writes each record as it comes, and
`load_records` reads the file back, once, into `evaluation.summarize`,
`run.json`'s sums taken as the records pass (`_summed`), so no process
holds the run's records.
`_check_record` is the one shape check wherever a record enters: a line
read by `load_records`, or a fit just made by `run_single_fit`.

Determinism contract: with a fixed manifest, config and seed, the tables
are byte-identical, regardless of the number of worker processes;
`fits.jsonl` is identical apart from each record's `fit_seconds`, and
`run.json` apart from its seconds, its environment and `jobs`.  Each task
draws from its own RNG stream, derived from (config seed, site index, the
method's position in the `METHODS` table), so no task's randomness
depends on execution order.  Timings land only in `fits.jsonl` and
`run.json`; the CSV and text tables never contain them.

Import rule: this module imports the standard library and `evaluation`
and `report` alone, so `rainfit report`, `--help` and `--version` load no
numpy; nor `dataclasses`, with the `inspect`, `ast`, `dis` and
`tokenize` it loads, for `RunConfig` is a named tuple.  Loading site CSVs
imports `corpus`, on the standard library alone; `run_fits` loads numpy
with the requested methods' fit modules and every scipy function any fit
calls, once, before it forks a worker or times a fit.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .evaluation import EvaluationSummary, QuantileSet, summarize
from .report import write_report_files

if TYPE_CHECKING:
    from .corpus import Manifest, SiteSeries
    from .numerics import RngState

__all__ = [
    "AllFitsFailedError",
    "BLAS_THREAD_VARS",
    "ConfigError",
    "METHODS",
    "Method",
    "RunConfig",
    "load_records",
    "materialize_corpus",
    "run_benchmark",
    "run_fits",
    "run_single_fit",
    "write_records",
    "write_report_files",
]


# The thread counts of the BLAS and OpenMP libraries numpy may use: `cli`
# sets each to 1 unless the user chose, and `run.json` records them.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ConfigError(ValueError):
    """Invalid run configuration (unknown method, bad flag combination)."""


class AllFitsFailedError(RuntimeError):
    """Every fit in the run errored or failed to converge."""


# --- the method table --------------------------------------------------------


class Method(NamedTuple):
    """One `METHODS` entry: what its fits load, and how to run one.

    `family` is the fit module (`egpd` or `gamma_mixture`).  `run` gets
    (values, config, rng) and returns (params dict, diagnostics dict,
    quantile function of a sequence of levels); it imports its fit
    function when called.
    """

    family: str
    run: Callable


def _egpd_method(fit_name: str, *, censored: bool = False) -> Method:
    def run(values, config, rng):
        from . import egpd

        threshold = config.threshold_mm if censored else 0.0
        params, diag = getattr(egpd, fit_name)(values, threshold, restarts=config.egpd_restarts, rng=rng)
        return params.to_dict(), diag, lambda p: egpd_quantile(p, params)

    return Method("egpd", run)


def _mixture_method(k: int) -> Method:
    def run(values, config, rng):
        from .gamma_mixture import fit_map

        params, diag = fit_map(values, k, restarts=config.mixture_restarts, rng=rng)
        return params.to_dict(), diag, lambda p: mixture_quantile(p, params)

    return Method("gamma_mixture", run)


# The paper's seven methods, in its order, which is the row order of the
# tables.  A method's position here is its RNG stream index: reordering
# the table changes fits.  The PWM fits solve their moment systems by
# Levenberg-Marquardt; every other fit runs L-BFGS-B.
METHODS = {
    "naveau-mle": _egpd_method("fit_mle"),
    "naveau-pwm": _egpd_method("fit_pwm"),
    "naveau-mle-c": _egpd_method("fit_mle", censored=True),
    "naveau-pwm-c": _egpd_method("fit_pwm", censored=True),
    "gamma-mixture-2": _mixture_method(2),
    "gamma-mixture-3": _mixture_method(3),
    "gamma-mixture-4": _mixture_method(4),
}
# A method's position in METHODS: its RNG stream index, and its bit in
# `load_records`' check for a second record of one (site, method).
_POSITION = {m: i for i, m in enumerate(METHODS)}


# The numeric calls the pipeline makes through module globals, so that a
# caller can time them by replacing `pipeline.<name>` (rainbench's tracer
# does).  Each imports its module when called, not when this one loads.


def load_site(path) -> SiteSeries:
    from .corpus import load_site

    return load_site(path)


def empirical_quantile(sample, p):
    from .numerics import empirical_quantile

    return empirical_quantile(sample, p)


def egpd_quantile(p, params):
    from .egpd import egpd_quantile

    return egpd_quantile(p, params)


def mixture_quantile(p, params):
    from .gamma_mixture import mixture_quantile

    return mixture_quantile(p, params)


class _RunFields(NamedTuple):
    """`RunConfig`'s fields and defaults, in the order of `run.json`'s `config`."""

    methods: tuple[str, ...] = tuple(METHODS)
    quantiles: QuantileSet = QuantileSet()
    threshold_mm: float = 1.0
    seed: int = 1
    jobs: int = 1
    egpd_restarts: int = 4
    mixture_restarts: int = 7
    min_wet: int = 100


class RunConfig(_RunFields):
    """Knobs for one benchmark run, checked when made.

    `methods` are `METHODS` names; `quantiles` is a `QuantileSet` or a
    sequence of levels that becomes one (whose own checks raise a
    ValueError); neither is a string.  `threshold_mm`, a number (not a
    boolean or a string), feeds the censored estimators only.  `seed`,
    `jobs`, the restart counts and `min_wet` are ints, and a bool is not
    one.  A bad field is a ConfigError.  `min_wet` drops sites with too
    few wet days before any fitting.  A fit's work is bounded by its solvers' iteration and
    evaluation caps, never by wall time.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        # A string is a sequence of its characters: "naveau-mle" is not ten
        # method names, nor "0.5" three levels.
        for name in ("methods", "quantiles"):
            if isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a sequence, not a string: {getattr(self, name)!r}")
        methods = tuple(dict.fromkeys(self.methods))
        if not methods:
            raise ConfigError("at least one method is required")
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown method {unknown[0]!r}; known: {', '.join(METHODS)}")
        for name in ("seed", "jobs", "egpd_restarts", "mixture_restarts", "min_wet"):
            if type(getattr(self, name)) is not int:  # a bool is not a count
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if isinstance(self.threshold_mm, (bool, str)):  # True is not a 1 mm threshold
            raise ConfigError(f"threshold_mm must be a number, got {self.threshold_mm!r}")
        if not (math.isfinite(self.threshold_mm) and self.threshold_mm > 0.0):
            raise ConfigError("threshold_mm must be finite and > 0")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.egpd_restarts < 0 or self.mixture_restarts < 0:
            raise ConfigError("restart counts must be >= 0")
        if self.min_wet < 1:
            raise ConfigError("min_wet must be >= 1")
        return self._replace(methods=methods, quantiles=QuantileSet(self.quantiles))


# --- task execution ----------------------------------------------------------


def run_single_fit(
    series: SiteSeries,
    method: str,
    config: RunConfig,
    rng: RngState,
) -> dict:
    """Fit one method, a `METHODS` name, to one site; return its record.

    The record is the JSON object `fits.jsonl` stores, level maps keyed by
    `repr(p)`.  Fit failures of any kind, a converged fit whose quantiles
    do not increase among them, come back as an error record rather than
    an exception.
    """
    runner = METHODS[method].run
    qs = config.quantiles.probabilities
    levels = [repr(p) for p in qs]
    record = {"site_id": series.site_id, "method": method, "n_wet": series.n_wet,
              "empirical_quantiles": None}
    t0 = time.perf_counter()
    try:
        record["empirical_quantiles"] = dict(zip(levels, empirical_quantile(series.values, qs)))
        t0 = time.perf_counter()
        params, diag, quantile_fn = runner(series.values, config, rng)
        record.update(
            estimated_quantiles=dict(zip(levels, map(float, quantile_fn(qs)))),
            converged=diag["converged"],
            fit_seconds=time.perf_counter() - t0,
            params=params,
            diagnostics=diag,
            error=None,
        )
        _check_record(record)
    except Exception as exc:  # noqa: BLE001 - a failed fit is a record, not a crash
        record.update(
            estimated_quantiles={},
            converged=False,
            fit_seconds=time.perf_counter() - t0,
            params={},
            diagnostics={},
            error=f"{type(exc).__name__}: {exc}",
        )
    return record


def run_fits(sites: Iterable[SiteSeries], config: RunConfig) -> Iterator[dict]:
    """Run every (site, method) pair from config over the given sites.

    Returns an iterator that yields one record per task, in task order
    (site by id, then method in `config.methods` order), each as soon as
    it and every earlier one exist; the fits run as it is consumed.

    Sites are ordered by id; task i gets the RNG stream derived from
    (seed, site index, the method's position in `METHODS`).  With
    jobs > 1 the tasks run in min(jobs, tasks) forked worker processes
    (`_run_workers`), handed out in task order and yielded by index, so
    results are identical to the serial path.  A worker that dies ends
    the run with a ChildProcessError, after every worker is reaped.

    Loaded here, once, before any fit is timed and before a worker forks:
    numpy with `egpd` for the `naveau-*` methods and `gamma_mixture` for
    the mixtures, and every scipy function any fit gets from
    `numerics.scipy_function` (`numerics.preload_scipy`), whichever methods
    run; never the `scipy` package.  So no fit's seconds include an
    import, no worker loads fit code itself, and a scipy without one of
    the functions the fits call is an ImportError here, before any fit.
    No fit loads numpy.random, in this process or a worker: jittered
    starts are computed from the task's Philox stream in Python
    (`RngState.doubles`).
    """
    sites = sorted(sites, key=lambda s: s.site_id)
    if not sites:
        raise ConfigError("no sites to fit")
    from importlib import import_module

    from .numerics import RngState, preload_scipy

    base = RngState(config.seed)
    tasks = [
        (series, method, config, base.derive(si, _POSITION[method]))
        for si, series in enumerate(sites)
        for method in config.methods
    ]
    for family in dict.fromkeys(METHODS[m].family for m in config.methods):
        import_module(f"{__package__}.{family}")
    preload_scipy()
    if config.jobs == 1 or len(tasks) == 1:
        return (run_single_fit(*t) for t in tasks)
    return _run_workers(tasks, min(config.jobs, len(tasks)))


def _run_workers(tasks: list, jobs: int) -> Iterator[dict]:
    """Fit tasks in jobs forked worker processes; yield their records in task order.

    The workers inherit the tasks through the fork.  Each reads a task
    index from its task pipe and writes the record to its result pipe as a
    bare pickle; it gets its next index once that record is read, so tasks
    start in order, one at a time, and the end of its task pipe stops it.
    A record that comes in before an earlier task's waits for it.  A
    result pipe that ends before its record does stops the run: every
    worker is killed and reaped, and ChildProcessError names the dead
    worker's exit status and the site and method it was fitting.  Every
    worker is killed and reaped too when the consumer stops early.
    """
    import pickle
    import select
    import signal
    from contextlib import suppress

    arrived: dict = {}  # records read but not yet yielded, by task index
    done = 0  # the number of records yielded
    todo = iter(range(len(tasks)))
    workers: dict = {}  # result pipe -> [pid, task pipe fd, index of its task]

    def stop(result) -> int:
        """Close a worker's pipes and reap it; its exit code."""
        pid, task_fd, _ = workers.pop(result)
        os.close(task_fd)
        result.close()
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    try:
        for _ in range(jobs):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker
                try:
                    # Keep only its own ends of its own pipes, so that a task
                    # pipe ends when the parent closes it.
                    others = [fd for r, w in workers.items() for fd in (r.fileno(), w[1])]
                    for fd in [task_w, result_r, *others]:
                        os.close(fd)
                    out = open(result_w, "wb")
                    while index := os.read(task_r, 4):
                        pickle.dump(run_single_fit(*tasks[int.from_bytes(index, "little")]), out)
                        out.flush()
                except BaseException:  # a forked worker never returns into its caller
                    os._exit(1)
                os._exit(0)
            os.close(task_r)
            os.close(result_w)
            workers[open(result_r, "rb")] = [pid, task_w, None]
        ready = list(workers)
        while ready:
            for result in ready:
                workers[result][2] = i = next(todo, None)
                if i is None:
                    stop(result)
                else:
                    with suppress(BrokenPipeError):  # a dead worker's result pipe ends too
                        os.write(workers[result][1], i.to_bytes(4, "little"))
            # Yielded once the free workers have their next tasks, so they
            # fit while the consumer writes.
            while done in arrived:
                yield arrived.pop(done)
                done += 1
            ready = select.select(list(workers), [], [])[0] if workers else []
            for result in ready:
                try:
                    # At most one record is in flight on a pipe, so the
                    # buffered pipe never reads past it.
                    arrived[workers[result][2]] = pickle.load(result)
                except (EOFError, pickle.UnpicklingError):
                    pid, _, i = workers[result]
                    code = stop(result)
                    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                    raise ChildProcessError(f"worker process {pid} {how} while fitting site "
                                            f"{tasks[i][0].site_id!r}, method {tasks[i][1]!r}")
    finally:
        for result in list(workers):
            os.kill(workers[result][0], signal.SIGKILL)
            stop(result)


# --- records -------------------------------------------------------------------


def write_records(path, records: Iterable[dict]) -> None:
    """Write one JSON line per record, keys sorted, each as it comes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


_NUMBER_TYPES = {int, float}  # what JSON numbers decode to; bool is not one


def _check_record(record) -> None:
    """Raise ValueError unless record has the shape `run_single_fit` writes.

    String ids, a `METHODS` name, a boolean `converged`, an `error` that is
    null or a string, and null if converged, `fit_seconds` and `params`
    present, and level maps whose keys are distinct levels strictly inside
    (0, 1) and whose values are numbers (`empirical_quantiles` may be null
    or absent, as may `error`, `diagnostics` and `n_wet`).  A converged
    record's estimated quantiles must increase with the level.  So a
    record is a failed fit if and only if it is not `converged`.
    """
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    for key in ("site_id", "method"):
        if not isinstance(record[key], str):
            raise ValueError(f"{key} must be a string")
    if record["method"] not in METHODS:
        raise ValueError(f"unknown method {record['method']!r}")
    if not isinstance(record["converged"], bool):
        raise ValueError("converged must be true or false")
    if not isinstance(record.get("error"), (str, type(None))):
        raise ValueError("error must be null or a string")
    if record["converged"] and record.get("error") is not None:
        raise ValueError("a converged fit has an error")
    for key in ("fit_seconds", "params"):
        if key not in record:
            raise ValueError(f"missing {key!r}")
    maps = {"estimated_quantiles": record["estimated_quantiles"]}
    if record.get("empirical_quantiles") is not None:
        maps["empirical_quantiles"] = record["empirical_quantiles"]
    for key, levels in maps.items():
        if not isinstance(levels, dict):
            raise ValueError(f"{key} must be an object")
        by_level = {float(p): p for p in levels}
        outside = [p for level, p in by_level.items() if not 0.0 < level < 1.0]
        if outside:
            raise ValueError(f"{key} has a level outside (0, 1): {outside[0]!r}")
        if len(by_level) < len(levels):
            p = next(p for p in levels if by_level[float(p)] != p)
            raise ValueError(f"{key} names one level twice: {p!r} and {by_level[float(p)]!r}")
        if not set(map(type, levels.values())) <= _NUMBER_TYPES:
            value = next(v for v in levels.values() if type(v) not in _NUMBER_TYPES)
            raise ValueError(f"{key} has a value that is not a number: {value!r}")
    if record["converged"]:
        estimated = maps["estimated_quantiles"]
        qs = [estimated[p] for p in sorted(estimated, key=float)]
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise ValueError("converged fit has non-increasing quantiles")


def _object_without_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a ValueError if it names one key twice, which
    `json.loads` would otherwise settle by keeping the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"key {key!r} appears twice in one object")
    return obj


_RECORD_DECODER = json.JSONDecoder(object_pairs_hook=_object_without_repeated_keys)


def load_records(path) -> Iterator[dict]:
    """Yield the records of a records file, each line checked by `_check_record`.

    The file is opened at the first record asked for and read once, a line
    at a time as the records are consumed; no record is kept.  A record of
    the wrong shape, an object that repeats a key, a second record of one
    (site, method), or a byte that is not UTF-8 is a ValueError naming
    path:line, raised when the pass reaches that line.  A file with no
    record, empty or blank lines alone, is a ValueError naming path, raised
    at the end of the pass.
    """
    seen: dict[str, int] = {}  # per site id, a bit for each METHODS position it has a record of
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = _RECORD_DECODER.decode(line)
                    _check_record(record)
                    site, bit = record["site_id"], 1 << _POSITION[record["method"]]
                    if seen.get(site, 0) & bit:
                        raise ValueError(f"a second record of site {site!r}, method {record['method']!r}")
                    seen[site] = seen.get(site, 0) | bit
                except (KeyError, ValueError) as exc:
                    raise ValueError(f"{path}:{line_no}: bad record ({exc})") from None
                yield record
    except UnicodeDecodeError as exc:
        from .corpus import _not_utf8

        raise _not_utf8(Path(path), exc) from None
    if not seen:
        raise ValueError(f"{path}: no records")


def materialize_corpus(manifest: Manifest) -> list[SiteSeries]:
    """Load listed site files and draw generator sites (`load_manifest` checked their ids)."""
    from .corpus import simulate_corpus

    return [load_site(p) for p in manifest.site_paths] + simulate_corpus(manifest.generators)


def _environment() -> dict:
    """The Python, numpy and scipy versions, numpy's SIMD dispatch, CPU
    count and BLAS thread variables.

    Read from what the run has loaded, scipy's version by
    `numerics.scipy_version` and the dispatch from numpy's loaded
    `_multiarray_umath`, so recording them imports no module.
    """
    import numpy

    from .numerics import scipy_version

    # numpy 2 moved it from `numpy.core`.
    umath = sys.modules.get("numpy._core._multiarray_umath") or sys.modules["numpy.core._multiarray_umath"]

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version(),
        "numpy_cpu": {"baseline": umath.__cpu_baseline__, "dispatch": umath.__cpu_dispatch__,
                      "enabled": [name for name, on in umath.__cpu_features__.items() if on],
                      "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES")},
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _summed(records: Iterable[dict], sums: dict) -> Iterator[dict]:
    """Yield records as they come, adding into sums[method] each one's
    `n_eval`, `restarts_at_best` and `fit_seconds`, and for a mixture
    method whether it is one of the `collapsed_fits`, whose mode has fewer
    than K effective components."""
    for r in records:
        totals, diag = sums[r["method"]], r["diagnostics"]
        totals["fit_seconds"] += r["fit_seconds"]
        for key in ("n_eval", "restarts_at_best"):
            totals[key] += diag.get(key, 0)
        if "effective_k" in diag:
            totals["collapsed_fits"] += diag["effective_k"] < len(r["params"]["weights"])
        yield r


def _write_run_file(path, config: RunConfig, summary: EvaluationSummary, sums: dict, seconds: dict) -> None:
    """Write `run.json`: the config, the environment, phase seconds and,
    per method, its `fits` and `failed_fits`, the summary's counts of its
    records and of those not converged, then its sums (`_summed`)."""
    run = {
        "config": {**config._asdict(), "quantiles": config.quantiles.probabilities},
        "environment": _environment(),
        "seconds": seconds,
        "methods": {m: dict(fits=summary.n_sites, failed_fits=summary.failures[m], **sums[m]) for m in sums},
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(run, indent=2) + "\n")


def run_benchmark(manifest_path, out_dir, config: RunConfig) -> EvaluationSummary:
    """Manifest to report files, end to end.

    Writes fits.jsonl, the report tables and run.json into out_dir.  Raises
    AllFitsFailedError (after writing all three, the tables then counting
    every fit as failed) when not a single fit converged, so callers can
    distinguish "ran but useless" from config and I/O problems.

    The records go to `fits.jsonl.partial` as the fits yield them, and that
    file becomes `fits.jsonl` once the last is written, so a run stopped
    mid-fit leaves an earlier run's files as they were.  The tables are
    built from `fits.jsonl` by `load_records`, as `report` builds them,
    and `run.json`'s sums in the same pass: the file is read once and no
    record is kept.
    """
    from .corpus import CorpusError, filter_corpus, load_manifest

    t0 = time.perf_counter()
    manifest = load_manifest(manifest_path)
    sites = materialize_corpus(manifest)
    kept, dropped = filter_corpus(sites, config.min_wet)
    if not kept:
        raise CorpusError(f"no sites left after the min_wet={config.min_wet} filter ({dropped} dropped)")
    t1 = time.perf_counter()
    records = run_fits(kept, config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(out_dir / "fits.jsonl.partial", records)
    os.replace(out_dir / "fits.jsonl.partial", out_dir / "fits.jsonl")
    t2 = time.perf_counter()
    sums = {m: dict(n_eval=0, restarts_at_best=0, fit_seconds=0.0) for m in config.methods}
    for m in config.methods:
        if METHODS[m].family == "gamma_mixture":
            sums[m]["collapsed_fits"] = 0
    summary = summarize(_summed(load_records(out_dir / "fits.jsonl"), sums), config.quantiles,
                        order=tuple(METHODS))
    if dropped:
        summary.warnings.insert(0, f"{dropped} site(s) dropped below min_wet={config.min_wet}")
    # Written even when every fit failed, so that no table of an earlier run
    # stands beside these records.
    write_report_files(out_dir, summary)
    seconds = {"load": t1 - t0, "fit": t2 - t1, "write": time.perf_counter() - t2}
    _write_run_file(out_dir / "run.json", config, summary, sums, seconds)
    if set(summary.failures.values()) == {summary.n_sites}:  # a record per (site, method)
        raise AllFitsFailedError(f"all {summary.n_sites * len(config.methods)} fits failed; see fits.jsonl")
    return summary
