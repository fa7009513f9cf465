"""The method table: RNG streams follow it, and the benchmark's tracer finds
every name it patches.  A fit is its record: what `run_single_fit` returns
is what `fits.jsonl` holds, and `run.json` totals those records."""

import importlib.util
import json
import math
import os
import sys
import tracemalloc
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath as umath

from rainfit import pipeline
from rainfit.cli import main
from rainfit.corpus import (GeneratorSpec, SiteSeries, build_preset, load_site, save_site, simulate_site,
                            write_manifest)
from rainfit.evaluation import QuantileSet, summarize
from rainfit.numerics import RngState
from rainfit.pipeline import METHODS, RunConfig, load_records, run_fits, run_single_fit, write_records

EGPD_SITE = GeneratorSpec(
    site_id="s0", family="egpd", n=400, seed=7,
    params={"kappa": 1.3, "sigma": 4.0, "xi": 0.15},
)

REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "rainbench" / "tracer.py"


def load_script(name: str, path: Path):
    module_spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def fit_records(sites, methods) -> dict:
    config = RunConfig(methods=methods, egpd_restarts=1, mixture_restarts=1)
    records = {}
    for record in run_fits(sites, config):
        del record["fit_seconds"]
        records[record["method"]] = record
    return records



@pytest.mark.parametrize("fields, message", [
    ({"methods": ()}, "at least one method is required"),
    ({"threshold_mm": 0.0}, "threshold_mm must be finite and > 0"),
    ({"threshold_mm": math.nan}, "threshold_mm must be finite and > 0"),
    ({"threshold_mm": math.inf}, "threshold_mm must be finite and > 0"),
    ({"jobs": 0}, "jobs must be >= 1"),
    ({"egpd_restarts": -1}, "restart counts must be >= 0"),
    ({"mixture_restarts": -1}, "restart counts must be >= 0"),
    ({"min_wet": 0}, "min_wet must be >= 1"),
    ({"egpd_restarts": 1.5}, "egpd_restarts must be an integer, got 1.5"),
    ({"mixture_restarts": 2.0}, "mixture_restarts must be an integer, got 2.0"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"jobs": True}, "jobs must be an integer, got True"),
    ({"methods": "naveau-mle"}, "methods must be a sequence, not a string: 'naveau-mle'"),
    ({"threshold_mm": "1"}, "threshold_mm must be a number, got '1'"),
    ({"threshold_mm": True}, "threshold_mm must be a number, got True"),
    ({"quantiles": "0.5"}, "quantiles must be a sequence, not a string: '0.5'"),
], ids=["no-methods", "threshold-0", "threshold-nan", "threshold-inf", "jobs-0",
        "egpd-restarts", "mixture-restarts", "min-wet-0", "egpd-restarts-float",
        "mixture-restarts-float", "seed-float", "jobs-bool", "methods-string",
        "threshold-string", "threshold-bool", "quantiles-string"])
def test_run_config_rejects_an_invalid_field(fields, message):
    with pytest.raises(pipeline.ConfigError, match=f"^{message}$"):
        RunConfig(**fields)


def test_run_fits_of_no_sites_is_a_config_error():
    with pytest.raises(pipeline.ConfigError, match="^no sites to fit$"):
        run_fits([], RunConfig())


def test_run_config_makes_a_sequence_of_levels_its_quantile_set():
    # run_single_fit reads config.quantiles.probabilities, which a tuple
    # lacks; QuantileSet checks the levels.
    config = RunConfig(quantiles=(0.1, 0.5))
    assert type(config.quantiles) is QuantileSet and config.quantiles == QuantileSet((0.1, 0.5))
    assert RunConfig(quantiles=config.quantiles).quantiles is config.quantiles
    with pytest.raises(ValueError, match="^quantile levels must be strictly ascending$"):
        RunConfig(quantiles=[0.5, 0.1])


def test_each_method_draws_the_stream_of_its_table_position():
    # A method's stream index is its position in METHODS, never its place
    # in the requested list, so a fit is the same whatever else runs.
    site = simulate_site(GeneratorSpec(
        site_id="s0", family="gamma-mixture", n=400, seed=7,
        params={"weights": [0.6, 0.4], "shapes": [0.8, 3.0], "scales": [2.0, 6.0]},
    ))
    alone = fit_records([site], ("gamma-mixture-3",))
    seven = fit_records([site], tuple(METHODS))
    reverse = fit_records([site], tuple(reversed(METHODS)))
    assert seven["gamma-mixture-3"] == alone["gamma-mixture-3"]
    assert reverse == seven
    assert all(r["error"] is None for r in seven.values())


MIXTURE_SITE = GeneratorSpec(
    site_id="s1", family="gamma-mixture", n=400, seed=8,
    params={"weights": [0.6, 0.4], "shapes": [0.8, 3.0], "scales": [2.0, 6.0]},
)


def test_run_json_totals_the_records_and_does_not_depend_on_jobs(tmp_path):
    write_manifest(tmp_path / "manifest.json", seed=1, generators=[EGPD_SITE, MIXTURE_SITE])
    repeated = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs-{jobs}"
        assert main(["benchmark", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out),
                     "--jobs", str(jobs), "--egpd-restarts", "1", "--mixture-restarts", "1"]) == 0
        run = json.loads((out / "run.json").read_text(encoding="utf-8"))
        records = [json.loads(line) for line in (out / "fits.jsonl").read_text(encoding="utf-8").splitlines()]
        assert run["config"] == {
            "methods": list(METHODS), "quantiles": [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99],
            "threshold_mm": 1.0, "seed": 1, "jobs": jobs, "egpd_restarts": 1,
            "mixture_restarts": 1, "min_wet": 100,
        }
        assert run["environment"] == {
            "python": sys.version.split()[0], "numpy": np.__version__, "scipy": version("scipy"),
            "numpy_cpu": {"baseline": umath.__cpu_baseline__, "dispatch": umath.__cpu_dispatch__,
                          "enabled": [f for f in umath.__cpu_features__ if umath.__cpu_features__[f]],
                          "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES")},
            "cpu_count": os.cpu_count(),
            "blas_threads": {var: os.environ.get(var) for var in pipeline.BLAS_THREAD_VARS},
        }
        assert list(run["seconds"]) == ["load", "fit", "write"]
        assert all(s > 0.0 for s in run["seconds"].values())
        assert list(run["methods"]) == list(METHODS)
        for method, totals in run["methods"].items():
            mine = [r for r in records if r["method"] == method]
            collapsed = {"collapsed_fits": sum(r["diagnostics"]["effective_k"] < len(r["params"]["weights"])
                                               for r in mine)} if "mixture" in method else {}
            assert totals == {
                "fits": len(mine),
                "failed_fits": sum(not r["converged"] for r in mine),
                "n_eval": sum(r["diagnostics"]["n_eval"] for r in mine),
                "restarts_at_best": sum(r["diagnostics"]["restarts_at_best"] for r in mine),
                "fit_seconds": sum(r["fit_seconds"] for r in mine),
                **collapsed,
            }
            del totals["fit_seconds"]
        del run["config"]["jobs"]
        repeated.append((run["config"], run["methods"]))
    assert repeated[1] == repeated[0]


def test_run_json_counts_mixture_fits_that_collapsed(tmp_path):
    # One gamma component fitted with K = 4: the mode keeps one weight
    # above 1e-6 and three far below it.  No table reads the new keys.
    single = GeneratorSpec(site_id="g", family="gamma-mixture", n=300, seed=1,
                           params={"weights": [1.0], "shapes": [2.0], "scales": [3.0]})
    write_manifest(tmp_path / "manifest.json", seed=1, generators=[single])
    out = tmp_path / "run"
    assert main(["benchmark", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out),
                 "--methods", "gamma-mixture-4", "--mixture-restarts", "2"]) == 0
    (record,) = load_records(out / "fits.jsonl")
    diag, weights = record["diagnostics"], record["params"]["weights"]
    assert record["converged"]
    assert diag["min_weight"] == min(weights) < 1e-6
    assert diag["effective_k"] == sum(w >= 1e-6 for w in weights) == 1
    assert json.loads((out / "run.json").read_text(encoding="utf-8"))["methods"]["gamma-mixture-4"][
        "collapsed_fits"] == 1


DIAGNOSTICS_KEYS = {"converged", "objective", "restart_index", "n_iter", "n_eval",
                    "restarts_at_best", "boundary_hit", "small_sample"}


@pytest.mark.parametrize("method", METHODS)
def test_a_records_diagnostics_are_plain_json_values(method):
    # They go to json.dumps as the fits made them, so no numpy scalar may
    # reach them; the README's `fits.jsonl` paragraph lists these keys.
    config = RunConfig(methods=(method,), egpd_restarts=1, mixture_restarts=1)
    (record,) = run_fits([simulate_site(EGPD_SITE)], config)
    assert record["error"] is None
    diag = record["diagnostics"]
    own = {"residual"} if "pwm" in method else {"min_weight", "effective_k"} if "mixture" in method else set()
    assert set(diag) == DIAGNOSTICS_KEYS | own
    assert {key: type(value) for key, value in diag.items()} == {
        key: bool if key in ("converged", "boundary_hit", "small_sample")
        else float if key in ("objective", "residual", "min_weight") else int
        for key in diag
    }
    assert record["converged"] is diag["converged"]


def test_a_site_read_from_csv_fits_as_its_values_in_a_numpy_array(tmp_path):
    # A site read from CSV makes its doubles an array on first use: the same
    # values passed as an ndarray give the same record.
    save_site(tmp_path / "s1.csv", simulate_site(MIXTURE_SITE))
    site = load_site(tmp_path / "s1.csv")
    as_array = SiteSeries(site.site_id, np.array(load_site(tmp_path / "s1.csv").values))
    config = RunConfig(egpd_restarts=1, mixture_restarts=1)
    for i, method in enumerate(METHODS):
        records = [run_single_fit(series, method, config, RngState(1).derive(0, i))
                   for series in (site, as_array)]
        for record in records:
            del record["fit_seconds"]
        assert records[0] == records[1], method


def test_censored_mle_below_every_value_is_the_uncensored_record():
    # With no jittered starts the two methods' RNG streams go unused, and a
    # threshold below min(data) censors nothing.
    site = simulate_site(EGPD_SITE)
    config = RunConfig(methods=("naveau-mle", "naveau-mle-c"), egpd_restarts=0,
                       threshold_mm=0.5 * float(site.values.min()))
    plain, censored = run_fits([site], config)
    for record in (plain, censored):
        del record["method"], record["fit_seconds"]
    assert plain["error"] is None and censored == plain


def test_censoring_below_every_value_keeps_the_mle_fit_and_moves_the_pwm_fit():
    # Below min(data) naveau-mle-c censors no value, so it is naveau-mle to
    # the bit.  naveau-pwm-c matches the PWMs of Y | Y >= c, which differ
    # from those of Y for every c > 0, so it nears naveau-pwm only as c
    # shrinks.
    spec = next(s for s in build_preset("paper-like-50", 1) if s.site_id == "site-001")
    site = simulate_site(spec)
    gaps = []
    for fraction in (0.5, 0.01):
        config = RunConfig(methods=("naveau-mle", "naveau-pwm", "naveau-mle-c", "naveau-pwm-c"),
                           egpd_restarts=0, threshold_mm=fraction * float(site.values.min()))
        records = {}
        for record in run_fits([site], config):
            del record["fit_seconds"]
            assert record.pop("error") is None
            records[record.pop("method")] = record
        assert records["naveau-mle-c"] == records["naveau-mle"]
        plain = records["naveau-pwm"]["estimated_quantiles"]
        censored = records["naveau-pwm-c"]["estimated_quantiles"]
        gaps.append(max(abs(math.log(censored[p] / plain[p])) for p in plain))
    assert gaps[0] > gaps[1] > 0.0


def test_benchmark_tracer_patches_names_that_exist():
    # rainbench/tracer.py replaces module globals by name; one that no longer
    # exists fails here, not only in a traced benchmark run.
    import rainfit.egpd
    import rainfit.gamma_mixture
    import rainfit.pipeline

    modules = (rainfit.egpd, rainfit.gamma_mixture, rainfit.pipeline)
    before = [dict(vars(m)) for m in modules]
    tracer = load_script("tracer", TRACER).Tracer()
    with tracer.installed():
        patched = sum(vars(m)[k] is not v for m, old in zip(modules, before) for k, v in old.items())
        assert patched > 0
    assert [dict(vars(m)) for m in modules] == before


def test_records_come_back_from_the_records_file_as_written(tmp_path):
    # NaN and Infinity quantiles included, as a non-converged fit may carry.
    config = RunConfig(methods=("naveau-mle", "gamma-mixture-2"), egpd_restarts=0, mixture_restarts=0)
    records = list(run_fits([simulate_site(EGPD_SITE)], config))
    records.append({**records[0], "site_id": "s1", "converged": False,
                    "estimated_quantiles": {"0.25": math.nan, "0.5": math.inf, "0.75": -math.inf}})
    write_records(tmp_path / "fits.jsonl", records)
    back = list(load_records(tmp_path / "fits.jsonl"))
    # json writes NaN and reads it back as another NaN, so compare texts.
    assert [json.dumps(r, sort_keys=True) for r in back] == [json.dumps(r, sort_keys=True) for r in records]
    assert math.isnan(back[-1]["estimated_quantiles"]["0.25"])
    assert back[-1]["estimated_quantiles"]["0.5"] == math.inf


def test_summarizing_a_records_file_keeps_no_record(tmp_path):
    # load_records yields each record as it reads its line and summarize
    # keeps only D values and site ids, so the peak stays below 1 KB per
    # record.  Kept in a list, the decoded records take about 4 KB each.
    config = RunConfig(methods=("naveau-mle", "gamma-mixture-2"), egpd_restarts=0, mixture_restarts=0)
    fits = list(run_fits([simulate_site(EGPD_SITE)], config))
    write_records(tmp_path / "fits.jsonl", ({**r, "site_id": f"site-{i:05d}"} for i in range(1000) for r in fits))
    tracemalloc.start()
    try:
        summary = summarize(load_records(tmp_path / "fits.jsonl"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (summary.n_sites, summary.cells[("gamma-mixture-2", 0.5)].n_sites) == (1000, 1000)
    assert peak < 2000 * 1024


def test_a_converged_fit_with_non_increasing_quantiles_is_an_error_record(monkeypatch):
    def reversed_quantiles(p, params):
        return np.asarray(p, dtype=float)[::-1]

    monkeypatch.setattr(pipeline, "egpd_quantile", reversed_quantiles)
    config = RunConfig(methods=("naveau-mle",), egpd_restarts=0)
    record = run_single_fit(simulate_site(EGPD_SITE), "naveau-mle", config, RngState(1))
    assert record["error"] == "ValueError: converged fit has non-increasing quantiles"
    assert (record["converged"], record["estimated_quantiles"], record["params"]) == (False, {}, {})
    assert list(record["empirical_quantiles"]) == [repr(p) for p in config.quantiles.probabilities]


def stub_fit(series, method, config, rng):
    """A converged record of the shape `run_single_fit` returns, without a
    fit, carrying 256 KiB of diagnostics."""
    levels = config.quantiles.probabilities
    return {"site_id": series.site_id, "method": method, "n_wet": series.n_wet, "converged": True,
            "error": None, "fit_seconds": 0.0, "params": {}, "diagnostics": {"blob": "x" * 2**18},
            "empirical_quantiles": {repr(p): 1.0 + p for p in levels},
            "estimated_quantiles": {repr(p): 1.0 + 2.0 * p for p in levels}}


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_benchmark_keeps_no_record(tmp_path, monkeypatch, jobs):
    # Records stream from the fits to fits.jsonl and back into the tables
    # and run.json, so 48 more records of 256 KiB each, 12 MiB if they were
    # held, leave the peak where it was.  The first run loads what any run
    # loads, outside the comparison.
    monkeypatch.setattr(pipeline, "run_single_fit", stub_fit)
    config = RunConfig(methods=tuple(METHODS)[:4], quantiles=QuantileSet((0.25, 0.5)), jobs=jobs)
    names = []
    for i in range(16):
        save_site(tmp_path / f"s{i:02d}.csv", SiteSeries(f"s{i:02d}", np.linspace(0.5, 50.0, 100)))
        names.append(f"s{i:02d}.csv")
    peaks = []
    for run, n_sites in enumerate([4, 4, 16]):  # 16, 16 and 64 tasks
        write_manifest(tmp_path / f"m{run}.json", seed=1, sites=names[:n_sites])
        tracemalloc.start()
        try:
            summary = pipeline.run_benchmark(tmp_path / f"m{run}.json", tmp_path / f"run{run}", config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert summary.cells[("naveau-pwm-c", 0.5)].n_sites == n_sites
    assert peaks[2] - peaks[1] < 2**20, peaks


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_benchmark_reads_its_records_file_once(tmp_path, monkeypatch, jobs):
    # One pass over fits.jsonl builds the tables and run.json's sums; the
    # counts in run.json are the summary's.
    reads = []

    def counted_load_records(path):
        reads.append(Path(path).name)
        return load_records(path)

    monkeypatch.setattr(pipeline, "load_records", counted_load_records)
    monkeypatch.setattr(pipeline, "run_single_fit", stub_fit)
    for i in range(3):
        save_site(tmp_path / f"s{i}.csv", SiteSeries(f"s{i}", np.linspace(0.5, 50.0, 100)))
    write_manifest(tmp_path / "manifest.json", seed=1, sites=["s0.csv", "s1.csv", "s2.csv"])
    config = RunConfig(methods=("naveau-pwm", "gamma-mixture-2"), quantiles=QuantileSet((0.5,)), jobs=jobs)
    pipeline.run_benchmark(tmp_path / "manifest.json", tmp_path / "run", config)
    assert reads == ["fits.jsonl"]
    run = json.loads((tmp_path / "run" / "run.json").read_text(encoding="utf-8"))
    totals = dict(fits=3, failed_fits=0, n_eval=0, restarts_at_best=0, fit_seconds=0.0)
    assert run["methods"] == {"naveau-pwm": totals, "gamma-mixture-2": {**totals, "collapsed_fits": 0}}
