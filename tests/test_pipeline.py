"""The method table: RNG streams follow it, the profiling script repeats the
benchmark, and the benchmark's tracer finds every name it patches."""

import importlib.util
import json
from pathlib import Path

from rainfit.cli import main
from rainfit.corpus import GeneratorSpec, build_preset, simulate_site, write_manifest
from rainfit.pipeline import METHODS, RunConfig, run_fits

REPO = Path(__file__).resolve().parents[1]
FIT_PROFILE = REPO / "scripts" / "fit_profile.py"
TRACER = REPO / "rainbench" / "tracer.py"


def load_script(name: str, path: Path):
    module_spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def fit_records(sites, methods) -> dict:
    config = RunConfig(methods=methods, egpd_restarts=1, mixture_restarts=1)
    records = {}
    for result in run_fits(sites, config):
        record = result.to_record()
        del record["fit_seconds"]
        records[result.method] = record
    return records


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


def test_fit_profile_repeats_the_benchmark_fits(tmp_path, capsys):
    spec = build_preset("paper-like-50", 1)[0]
    write_manifest(tmp_path / "manifest.json", seed=1, generators=[spec])
    methods = "naveau-pwm,gamma-mixture-2"
    # The script's restart defaults.
    restarts = ["--egpd-restarts", "2", "--mixture-restarts", "1"]
    assert main(["benchmark", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path / "run"), "--methods", methods, "--seed", "1", *restarts]) == 0
    bench = {}
    for line in (tmp_path / "run" / "fits.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        bench[record["method"]] = (record["diagnostics"]["n_eval"], record["diagnostics"]["objective"])
    capsys.readouterr()

    fit_profile = load_script("fit_profile", FIT_PROFILE)
    assert fit_profile.main(["--preset", "paper-like-50", "--seed", "1", "--sites", "0",
                             "--methods", methods, *restarts]) == 0
    profile = json.loads(capsys.readouterr().out)
    assert {f["method"]: (f["n_eval"], f["objective"]) for f in profile["fits"]} == bench
    assert all(f["site"] == spec.site_id and f["seconds"] > 0 for f in profile["fits"])


def test_censored_mle_below_every_value_is_the_uncensored_record():
    # With no jittered starts the two methods' RNG streams go unused, and a
    # threshold below min(data) censors nothing.
    site = simulate_site(GeneratorSpec(
        site_id="s0", family="egpd", n=400, seed=7,
        params={"kappa": 1.3, "sigma": 4.0, "xi": 0.15},
    ))
    config = RunConfig(methods=("naveau-mle", "naveau-mle-c"), egpd_restarts=0,
                       threshold_mm=0.5 * float(site.values.min()))
    plain, censored = (r.to_record() for r in run_fits([site], config))
    for record in (plain, censored):
        del record["method"], record["fit_seconds"]
    assert plain["error"] is None and censored == plain


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
