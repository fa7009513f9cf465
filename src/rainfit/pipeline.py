"""Benchmark pipeline: fit each (site, method) pair and write report files.

The pipeline owns everything between a corpus manifest and the files on
disk: building the deterministic task list, running fits (serially or in a
process pool), collecting one record per task no matter what the fit did,
and emitting the records file plus the derived tables.

Determinism contract: with a fixed manifest, config and seed, every output
except the per-fit wall-clock times is byte-identical, regardless of the
number of worker processes.  Each task draws from its own RNG stream,
derived from (config seed, site index, method index), so no task's
randomness depends on execution order.  Timings land only in the records
file (`fits.jsonl`); the CSV and text tables never contain them.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .corpus import CorpusError, Manifest, SiteSeries, filter_corpus, load_manifest, load_site, simulate_corpus
from .egpd import CensoringSpec, fit_mle, fit_mle_censored, fit_pwm, fit_pwm_censored, egpd_quantile
from .empirical import empirical_quantile
from .evaluation import (
    EvaluationSummary,
    FitResult,
    MethodId,
    QuantileSet,
    summarize,
)
from .gamma_mixture import fit_map, mixture_quantile
from .numerics import FitDiagnostics, RngState
from .report import (
    render_boxplot_svg,
    render_class_text,
    render_median_text,
    write_boxplot_csv,
    write_class_csv,
    write_median_csv,
    write_text,
)

__all__ = [
    "AllFitsFailedError",
    "ConfigError",
    "RunConfig",
    "empirical_quantile_map",
    "known_methods",
    "load_records",
    "materialize_corpus",
    "register_method",
    "run_benchmark",
    "run_fits",
    "run_single_fit",
    "summarize_results",
    "write_records",
    "write_report_files",
]


class ConfigError(ValueError):
    """Invalid run configuration (unknown method, bad flag combination)."""


class AllFitsFailedError(RuntimeError):
    """Every fit in the run errored or failed to converge."""


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one benchmark run.

    `methods` are registry names; `threshold_mm` feeds the censored
    estimators only.  `timeout_s` is enforced after the fact: a fit that
    exceeds it keeps its numbers but is marked non-converged, since a
    cooperative in-process interrupt of an optimizer is not worth the
    complexity.  `min_wet` drops sites with too few wet days before any
    fitting.
    """

    methods: tuple[str, ...] = tuple(m.value for m in MethodId)
    quantiles: QuantileSet = QuantileSet()
    threshold_mm: float = 1.0
    seed: int = 1
    jobs: int = 1
    egpd_restarts: int = 4
    mixture_restarts: int = 7
    timeout_s: float = 60.0
    min_wet: int = 100
    svg: bool = False

    def __post_init__(self) -> None:
        methods = tuple(dict.fromkeys(str(m) for m in self.methods))
        if not methods:
            raise ConfigError("at least one method is required")
        object.__setattr__(self, "methods", methods)
        if not (math.isfinite(self.threshold_mm) and self.threshold_mm > 0.0):
            raise ConfigError("threshold_mm must be finite and > 0")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.egpd_restarts < 0 or self.mixture_restarts < 0:
            raise ConfigError("restart counts must be >= 0")
        if not self.timeout_s > 0.0:
            raise ConfigError("timeout_s must be > 0")
        if self.min_wet < 1:
            raise ConfigError("min_wet must be >= 1")


# --- method registry ---------------------------------------------------------

MethodRunner = Callable[
    [np.ndarray, RunConfig, RngState],
    tuple[dict, FitDiagnostics, Callable[[np.ndarray], np.ndarray]],
]

_REGISTRY: dict[str, MethodRunner] = {}


def register_method(name: str, runner: MethodRunner) -> None:
    """Add a fitting method under a new name.

    The runner gets (values, config, rng) and returns (params dict,
    FitDiagnostics, quantile function); the quantile function maps an array
    of levels to the array of fitted quantiles.  Registration order fixes the
    method's RNG stream index, so register custom methods in a stable
    order before running.
    """
    if name in _REGISTRY:
        raise ConfigError(f"method {name!r} already registered")
    _REGISTRY[name] = runner


def known_methods() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _egpd_runner(fit):
    def run(values, config, rng):
        params, diag = fit(values, config, rng)
        return params.to_dict(), diag, lambda p: egpd_quantile(p, params)

    return run


def _mixture_runner(k: int):
    def run(values, config, rng):
        params, diag = fit_map(values, k, restarts=config.mixture_restarts, rng=rng)
        return params.to_dict(), diag, lambda p: mixture_quantile(p, params)

    return run


register_method(
    MethodId.NAVEAU_MLE.value,
    _egpd_runner(lambda x, c, r: fit_mle(x, restarts=c.egpd_restarts, rng=r)),
)
register_method(
    MethodId.NAVEAU_PWM.value,
    _egpd_runner(lambda x, c, r: fit_pwm(x, restarts=c.egpd_restarts, rng=r)),
)
register_method(
    MethodId.NAVEAU_MLE_C.value,
    _egpd_runner(
        lambda x, c, r: fit_mle_censored(
            x, CensoringSpec(c.threshold_mm), restarts=c.egpd_restarts, rng=r
        )
    ),
)
register_method(
    MethodId.NAVEAU_PWM_C.value,
    _egpd_runner(
        lambda x, c, r: fit_pwm_censored(
            x, CensoringSpec(c.threshold_mm), restarts=c.egpd_restarts, rng=r
        )
    ),
)
for _k in (2, 3, 4):
    register_method(f"gamma-mixture-{_k}", _mixture_runner(_k))


# --- task execution ----------------------------------------------------------


def run_single_fit(
    series: SiteSeries,
    method: str,
    config: RunConfig,
    rng: RngState,
) -> FitResult:
    """Fit one method to one site.

    Fit failures of any kind come back as an error record rather than an
    exception; only an unknown method name raises (that is a configuration
    problem, not a data one).
    """
    if method not in _REGISTRY:
        raise ConfigError(f"unknown method {method!r}; known: {sorted(_REGISTRY)}")
    runner = _REGISTRY[method]
    qs = config.quantiles.probabilities
    emp = {p: empirical_quantile(series.values, p) for p in qs}
    t0 = time.perf_counter()
    try:
        params, diag, quantile_fn = runner(series.values, config, rng)
        estimated = dict(zip(qs, map(float, quantile_fn(np.array(qs)))))
        elapsed = time.perf_counter() - t0
        converged = diag.converged
        diagnostics = diag.to_dict()
        if elapsed > config.timeout_s:
            converged = False
            diagnostics["message"] = (
                f"timeout: {elapsed:.1f}s exceeded the {config.timeout_s:.1f}s budget"
            )
        return FitResult(
            site_id=series.site_id,
            method=method,
            estimated_quantiles=estimated,
            converged=converged,
            fit_seconds=elapsed,
            params=params,
            diagnostics=diagnostics,
            n_wet=series.n_wet,
            empirical_quantiles=emp,
        )
    except Exception as exc:  # noqa: BLE001 - a failed fit is a record, not a crash
        return FitResult(
            site_id=series.site_id,
            method=method,
            estimated_quantiles={},
            converged=False,
            fit_seconds=time.perf_counter() - t0,
            params={},
            diagnostics={},
            n_wet=series.n_wet,
            empirical_quantiles=emp,
            error=f"{type(exc).__name__}: {exc}",
        )


def _execute_task(task) -> dict:
    series, method, config, rng = task
    return run_single_fit(series, method, config, rng).to_record()


def run_fits(sites: Iterable[SiteSeries], config: RunConfig) -> list[FitResult]:
    """Run every (site, method) pair from config over the given sites.

    Sites are ordered by id and methods by registry index; task i gets the
    RNG stream derived from (seed, site index, method index).  With
    jobs > 1 the tasks run in a fork-start process pool, mapped in order,
    so results are identical to the serial path.  scipy.optimize is
    imported here, before any fit is timed and before the pool forks, so
    neither the first fit's seconds nor each worker pay for the import.
    """
    sites = sorted(sites, key=lambda s: s.site_id)
    if not sites:
        raise ConfigError("no sites to fit")
    registry_order = list(_REGISTRY)
    for m in config.methods:
        if m not in _REGISTRY:
            raise ConfigError(f"unknown method {m!r}; known: {sorted(_REGISTRY)}")
    import scipy.optimize  # noqa: F401 - loaded once, ahead of the fits

    base = RngState(config.seed)
    tasks = []
    for si, series in enumerate(sites):
        for method in config.methods:
            rng = base.derive(si, registry_order.index(method))
            tasks.append((series, method, config, rng))
    if config.jobs == 1 or len(tasks) == 1:
        records = [_execute_task(t) for t in tasks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(config.jobs, len(tasks))) as pool:
            records = pool.map(_execute_task, tasks, chunksize=1)
    return [FitResult.from_record(r) for r in records]


# --- records and summaries ----------------------------------------------------


def write_records(path, results: Iterable[FitResult]) -> None:
    lines = [json.dumps(r.to_record(), sort_keys=True) for r in results]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def load_records(path) -> list[FitResult]:
    results = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                results.append(FitResult.from_record(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as exc:
                raise ValueError(f"{path}:{line_no}: bad record ({exc})") from None
    return results


def empirical_quantile_map(results: Iterable[FitResult]) -> dict[str, dict[float, float]]:
    """Site -> {p: empirical quantile}, as carried in the records themselves."""
    out: dict[str, dict[float, float]] = {}
    for r in results:
        if r.empirical_quantiles:
            out.setdefault(r.site_id, {}).update(r.empirical_quantiles)
    return out


def summarize_results(
    results: Iterable[FitResult], qset: QuantileSet | None = None
) -> EvaluationSummary:
    """Summarize records from the empirical quantiles they carry.

    `run_benchmark` and `report` both come here, so `report` rebuilds the
    benchmark's tables by construction.
    """
    results = list(results)
    if qset is None:
        ps = sorted({p for r in results for p in (r.empirical_quantiles or {})})
        if not ps:
            raise ValueError("records carry no quantile levels")
        qset = QuantileSet(tuple(ps))
    return summarize(results, empirical_quantile_map(results), qset)


def write_report_files(
    out_dir, summary: EvaluationSummary, *, svg: bool = False
) -> list[Path]:
    """Write the CSV and text tables (and optionally per-level SVGs)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, writer) -> None:
        path = out_dir / name
        writer(path)
        written.append(path)

    emit("medians.csv", lambda p: write_median_csv(summary, p))
    emit("classes.csv", lambda p: write_class_csv(summary, p))
    emit("boxplots.csv", lambda p: write_boxplot_csv(summary, p))
    emit("medians.txt", lambda p: write_text(p, render_median_text(summary)))
    emit("classes.txt", lambda p: write_text(p, render_class_text(summary)))
    if svg:
        for prob in summary.probabilities:
            emit(
                f"boxplot-{prob!r}.svg",
                lambda p, prob=prob: write_text(p, render_boxplot_svg(summary, prob)),
            )
    return written


def materialize_corpus(manifest: Manifest) -> list[SiteSeries]:
    """Load listed site files and draw generator sites; ids must not collide."""
    sites = [load_site(p) for p in manifest.site_paths]
    sites.extend(simulate_corpus(manifest.generators))
    seen: set[str] = set()
    for s in sites:
        if s.site_id in seen:
            raise CorpusError(f"duplicate site id {s.site_id!r} in manifest")
        seen.add(s.site_id)
    return sites


def run_benchmark(manifest_path, out_dir, config: RunConfig) -> EvaluationSummary:
    """Manifest to report files, end to end.

    Writes fits.jsonl plus the report tables into out_dir.  Raises
    AllFitsFailedError (after writing the records) when not a single fit
    converged, so callers can distinguish "ran but useless" from config
    and I/O problems.
    """
    manifest = load_manifest(manifest_path)
    sites = materialize_corpus(manifest)
    kept, dropped = filter_corpus(sites, config.min_wet)
    if not kept:
        raise CorpusError(
            f"no sites left after the min_wet={config.min_wet} filter ({dropped} dropped)"
        )
    results = run_fits(kept, config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(out_dir / "fits.jsonl", results)
    if all(r.error is not None or not r.converged for r in results):
        raise AllFitsFailedError(f"all {len(results)} fits failed; see fits.jsonl")
    summary = summarize_results(results, config.quantiles)
    if dropped:
        summary.warnings.insert(0, f"{dropped} site(s) dropped below min_wet={config.min_wet}")
    write_report_files(out_dir, summary, svg=config.svg)
    return summary
