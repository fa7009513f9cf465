"""Benchmark pipeline: fit each (site, method) pair and write report files.

The pipeline owns everything between a corpus manifest and the files on
disk: building the deterministic task list, running fits (serially or in a
process pool), collecting one record per task no matter what the fit did,
and writing the records file.  `report.write_report_files`, imported here,
writes the tables derived from them.

A fit is its record: `run_single_fit` returns the dict that `fits.jsonl`
stores on one line, and that same dict goes to `write_records` and
`evaluation.summarize`.  `load_records` reads it back, and `_check_record`
is the one shape check wherever a record enters: a line read by
`load_records`, or a fit just made by `run_single_fit`.

Determinism contract: with a fixed manifest, config and seed, every output
except the per-fit wall-clock times is byte-identical, regardless of the
number of worker processes.  Each task draws from its own RNG stream,
derived from (config seed, site index, the method's position in the
`METHODS` table), so no task's randomness depends on execution order.
Timings land only in the records file (`fits.jsonl`); the CSV and text
tables never contain them.

Import rule: this module imports the standard library and `evaluation`
and `report` alone, so `rainfit report`, `--help` and `--version` load no
numpy.  Loading site CSVs imports `corpus` and numpy where it loads them;
`run_fits` loads what the requested methods call, and only that, once,
before it forks a pool or times a fit (`preload_fits`).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .evaluation import EvaluationSummary, QuantileSet, summarize
from .report import write_report_files

if TYPE_CHECKING:
    from .corpus import Manifest, SiteSeries
    from .numerics import RngState

__all__ = [
    "AllFitsFailedError",
    "ConfigError",
    "METHODS",
    "Method",
    "RunConfig",
    "load_records",
    "materialize_corpus",
    "preload_fits",
    "run_benchmark",
    "run_fits",
    "run_single_fit",
    "write_records",
    "write_report_files",
]


class ConfigError(ValueError):
    """Invalid run configuration (unknown method, bad flag combination)."""


class AllFitsFailedError(RuntimeError):
    """Every fit in the run errored or failed to converge."""


# --- the method table --------------------------------------------------------


class Method(NamedTuple):
    """One `METHODS` entry: what its fits load, and how to run one.

    `family` is the fit module (`egpd` or `gamma_mixture`); `lmder` says
    whether it solves by MINPACK's `lmder`.  `run` gets (values, config,
    rng) and returns (params dict, diagnostics dict, quantile function of a
    sequence of levels); it imports its fit function when called.
    """

    family: str
    lmder: bool
    run: Callable


def _egpd_method(fit_name: str, *, censored: bool = False, lmder: bool = False) -> Method:
    def run(values, config, rng):
        from . import egpd

        threshold = config.threshold_mm if censored else None
        fit = getattr(egpd, fit_name)
        params, diag = fit(values, threshold, restarts=config.egpd_restarts, rng=rng)
        return params.to_dict(), diag, lambda p: egpd_quantile(p, params)

    return Method("egpd", lmder, run)


def _mixture_method(k: int) -> Method:
    def run(values, config, rng):
        from .gamma_mixture import fit_map

        params, diag = fit_map(values, k, restarts=config.mixture_restarts, rng=rng)
        return params.to_dict(), diag, lambda p: mixture_quantile(p, params)

    return Method("gamma_mixture", False, run)


# The paper's seven methods, in its order, which is the row order of the
# tables.  A method's position here is its RNG stream index: reordering
# the table changes fits.  The PWM fits solve their moment systems by
# Levenberg-Marquardt; every other fit runs L-BFGS-B.
METHODS = {
    "naveau-mle": _egpd_method("fit_mle"),
    "naveau-pwm": _egpd_method("fit_pwm", lmder=True),
    "naveau-mle-c": _egpd_method("fit_mle", censored=True),
    "naveau-pwm-c": _egpd_method("fit_pwm", censored=True, lmder=True),
    "gamma-mixture-2": _mixture_method(2),
    "gamma-mixture-3": _mixture_method(3),
    "gamma-mixture-4": _mixture_method(4),
}


# The numeric calls the pipeline makes through module globals, so that a
# caller can time them by replacing `pipeline.<name>` (rainbench's tracer
# does).  Each imports its module when called, not when this one loads.


def load_site(path) -> SiteSeries:
    from .corpus import load_site

    return load_site(path)


def empirical_quantile(sample, p):
    from .empirical import empirical_quantile

    return empirical_quantile(sample, p)


def egpd_quantile(p, params):
    from .egpd import egpd_quantile

    return egpd_quantile(p, params)


def mixture_quantile(p, params):
    from .gamma_mixture import mixture_quantile

    return mixture_quantile(p, params)


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one benchmark run.

    `methods` are `METHODS` names; `threshold_mm` feeds the censored
    estimators only.  `min_wet` drops sites with too few wet days before
    any fitting.  A fit's work is bounded by its solvers' iteration and
    evaluation caps, never by wall time.
    """

    methods: tuple[str, ...] = tuple(METHODS)
    quantiles: QuantileSet = QuantileSet()
    threshold_mm: float = 1.0
    seed: int = 1
    jobs: int = 1
    egpd_restarts: int = 4
    mixture_restarts: int = 7
    min_wet: int = 100
    svg: bool = False

    def __post_init__(self) -> None:
        methods = tuple(dict.fromkeys(self.methods))
        if not methods:
            raise ConfigError("at least one method is required")
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown method {unknown[0]!r}; known: {', '.join(METHODS)}")
        object.__setattr__(self, "methods", methods)
        if not (math.isfinite(self.threshold_mm) and self.threshold_mm > 0.0):
            raise ConfigError("threshold_mm must be finite and > 0")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.egpd_restarts < 0 or self.mixture_restarts < 0:
            raise ConfigError("restart counts must be >= 0")
        if self.min_wet < 1:
            raise ConfigError("min_wet must be >= 1")


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


def _execute_task(task) -> dict:
    return run_single_fit(*task)


def preload_fits(config: RunConfig) -> None:
    """Load, once, everything the fits of `config.methods` call.

    The fit module of each requested family, and scipy's three compiled
    modules (`numerics.preload_scipy`), with the `scipy` package as well
    when a PWM method is requested.  After it, those fits import nothing:
    their jittered starts come from `RngState.doubles`, which needs no
    numpy.random.  `run_fits` calls it; a caller that times fits itself
    calls it first.
    """
    from importlib import import_module

    from .numerics import preload_scipy

    methods = [METHODS[m] for m in config.methods]
    for family in dict.fromkeys(m.family for m in methods):
        import_module(f"{__package__}.{family}")
    preload_scipy(lmder=any(m.lmder for m in methods))


def run_fits(sites: Iterable[SiteSeries], config: RunConfig) -> list[dict]:
    """Run every (site, method) pair from config over the given sites.

    Returns one record per task, in task order: site by id, then method
    in `config.methods` order.

    Sites are ordered by id; task i gets the RNG stream derived from
    (seed, site index, the method's position in `METHODS`).  With
    jobs > 1 the tasks run in a fork-start process pool, mapped in order,
    so results are identical to the serial path.

    What the requested methods call is loaded by `preload_fits`, here,
    before any fit is timed and before the pool forks: `egpd` for the
    `naveau-*` methods, `gamma_mixture` for the mixtures, scipy's three
    compiled modules, and for the PWM methods the `scipy` package, whose
    `__init__` MINPACK's `_lmder` would otherwise run on its first call.
    So no fit's seconds include an import, no worker loads fit code
    itself, and a scipy without one of the functions the fits call is an
    ImportError here, before any fit.  No fit loads numpy.random, in this
    process or a worker: jittered starts are computed from the task's
    Philox stream in Python (`RngState.doubles`).
    """
    sites = sorted(sites, key=lambda s: s.site_id)
    if not sites:
        raise ConfigError("no sites to fit")
    from .numerics import RngState

    base = RngState(config.seed)
    stream = {m: i for i, m in enumerate(METHODS)}
    tasks = [
        (series, method, config, base.derive(si, stream[method]))
        for si, series in enumerate(sites)
        for method in config.methods
    ]
    preload_fits(config)
    if config.jobs == 1 or len(tasks) == 1:
        return [_execute_task(t) for t in tasks]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(config.jobs, len(tasks))) as pool:
        return pool.map(_execute_task, tasks, chunksize=1)


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
    present, and level maps whose keys are levels strictly inside (0, 1)
    and whose values are numbers (`empirical_quantiles` may be null or
    absent, as may `error`, `diagnostics` and `n_wet`).  A converged
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
        outside = [p for p in levels if not 0.0 < float(p) < 1.0]
        if outside:
            raise ValueError(f"{key} has a level outside (0, 1): {outside[0]!r}")
        if not set(map(type, levels.values())) <= _NUMBER_TYPES:
            value = next(v for v in levels.values() if type(v) not in _NUMBER_TYPES)
            raise ValueError(f"{key} has a value that is not a number: {value!r}")
    if record["converged"]:
        estimated = maps["estimated_quantiles"]
        qs = [estimated[p] for p in sorted(estimated, key=float)]
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise ValueError("converged fit has non-increasing quantiles")


def load_records(path) -> list[dict]:
    """Read a records file, each line checked by `_check_record`.

    A record of the wrong shape, a second record of one (site, method),
    or a byte that is not UTF-8 is a ValueError naming path:line.
    """
    records = []
    seen: set[tuple[str, str]] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    _check_record(record)
                    key = (record["site_id"], record["method"])
                    if key in seen:
                        raise ValueError(f"a second record of site {key[0]!r}, method {key[1]!r}")
                    seen.add(key)
                    records.append(record)
                except (KeyError, ValueError) as exc:
                    raise ValueError(f"{path}:{line_no}: bad record ({exc})") from None
    except UnicodeDecodeError as exc:
        from .corpus import _not_utf8  # numpy loads, but only on the way to this error

        raise _not_utf8(Path(path), exc) from None
    return records


def materialize_corpus(manifest: Manifest) -> list[SiteSeries]:
    """Load listed site files and draw generator sites (`load_manifest` checked their ids)."""
    from .corpus import simulate_corpus

    return [load_site(p) for p in manifest.site_paths] + simulate_corpus(manifest.generators)


def run_benchmark(manifest_path, out_dir, config: RunConfig) -> EvaluationSummary:
    """Manifest to report files, end to end.

    Writes fits.jsonl plus the report tables into out_dir.  Raises
    AllFitsFailedError (after writing the records and the tables, which
    then count every fit as failed) when not a single fit converged, so
    callers can distinguish "ran but useless" from config and I/O problems.
    """
    from .corpus import CorpusError, filter_corpus, load_manifest

    manifest = load_manifest(manifest_path)
    sites = materialize_corpus(manifest)
    kept, dropped = filter_corpus(sites, config.min_wet)
    if not kept:
        raise CorpusError(
            f"no sites left after the min_wet={config.min_wet} filter ({dropped} dropped)"
        )
    records = run_fits(kept, config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(out_dir / "fits.jsonl", records)
    all_failed = f"all {len(records)} fits failed; see fits.jsonl"
    # Records of sites too small for empirical quantiles have no level to
    # table, and none of them converged.
    if not any(r["empirical_quantiles"] for r in records):
        raise AllFitsFailedError(all_failed)
    summary = summarize(records, config.quantiles, order=tuple(METHODS))
    if dropped:
        summary.warnings.insert(0, f"{dropped} site(s) dropped below min_wet={config.min_wet}")
    # Written even when every fit failed, so that no table of an earlier run
    # stands beside these records.
    write_report_files(out_dir, summary, svg=config.svg)
    if not any(r["converged"] for r in records):
        raise AllFitsFailedError(all_failed)
    return summary
