"""Command-line surface: fit, simulate, benchmark, report."""

import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from fresh_python import SRC
from hypothesis import given, settings
from hypothesis import strategies as st

from rainfit import cli
from rainfit.cli import main
from rainfit.corpus import (
    CSV_HEADER,
    GeneratorSpec,
    SiteSeries,
    save_site,
    simulate_site,
    write_manifest,
)
from rainfit.numerics import RngState
from rainfit.pipeline import METHODS

TABLE_FILES = ("medians.csv", "classes.csv", "boxplots.csv")


def write_site(tmp_path, name="site-a", n=400, seed=21) -> Path:
    spec = GeneratorSpec(
        site_id=name,
        family="egpd",
        params={"kappa": 1.5, "sigma": 4.0, "xi": 0.15},
        n=n,
        seed=seed,
    )
    path = tmp_path / f"{name}.csv"
    save_site(path, simulate_site(spec))
    return path


def small_manifest(tmp_path, n_sites=2, n=300) -> Path:
    gens = [
        GeneratorSpec(
            site_id=f"s{i}",
            family="egpd",
            params={"kappa": 1.2, "sigma": 5.0, "xi": 0.1},
            n=n,
            seed=100 + i,
        )
        for i in range(n_sites)
    ]
    path = tmp_path / "manifest.json"
    write_manifest(path, seed=1, generators=gens)
    return path


# --- fit -------------------------------------------------------------------


def test_fit_outputs_record_json(tmp_path, capsys):
    site = write_site(tmp_path)
    rc = main(["fit", str(site), "--method", "naveau-mle"])
    out = capsys.readouterr().out
    assert rc == 0
    record = json.loads(out)
    assert record["site_id"] == "site-a"
    assert record["method"] == "naveau-mle"
    assert record["converged"] is True
    assert len(record["estimated_quantiles"]) == 7
    qs = [record["estimated_quantiles"][k] for k in sorted(record["estimated_quantiles"], key=float)]
    assert qs == sorted(qs)


def test_fit_small_sample_flag(tmp_path, capsys):
    site = write_site(tmp_path, name="tiny", n=120)
    rc = main(["fit", str(site), "--method", "gamma-mixture-4"])
    record = json.loads(capsys.readouterr().out)
    assert rc in (0, 4)
    assert record["diagnostics"]["small_sample"] is True


@pytest.mark.parametrize(
    "values",
    [[0.2] * 150, [0.1 * (i + 1) for i in range(30)], [0.1 * (i + 1) for i in range(29)]],
    ids=["150-tied", "30-values", "29-values"],
)
def test_fit_of_every_method_on_hostile_sizes_gives_a_record(tmp_path, capsys, values):
    # All-tied data, and n at and just below the EGPD fits' limit of 30:
    # every method writes its record and exits 0 or 4, never with a traceback.
    # On tied data the likelihood grows without bound as kappa-hat runs to
    # its clamp, so the plain likelihood fit does not converge.
    site = tmp_path / "hostile.csv"
    save_site(site, SiteSeries("hostile", np.array(values)))
    for method in METHODS:
        rc = main(["fit", str(site), "--method", method])
        captured = capsys.readouterr()
        assert rc in (0, 4), (method, captured.err)
        record = json.loads(captured.out)
        assert (record["site_id"], record["method"]) == ("hostile", method)
        assert (rc == 0) == (record["error"] is None and record["converged"])
        if method == "naveau-mle" and len(set(values)) == 1:
            assert (rc, record["converged"]) == (4, False), record["params"]


def test_fit_empty_file_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    rc = main(["fit", str(empty), "--method", "naveau-mle"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_fit_unknown_method_is_config_error(tmp_path, capsys):
    site = write_site(tmp_path)
    rc = main(["fit", str(site), "--method", "naveau-mle-x"])
    assert rc == 2


def test_fit_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["fit", str(tmp_path / "nope.csv"), "--method", "naveau-mle"])
    assert rc == 3


@pytest.mark.parametrize("command", ["fit", "benchmark"])
def test_timeout_flag_is_gone(tmp_path, capsys, command):
    # A fit is bounded by its solvers' iteration and evaluation caps, never
    # by wall time, so no flag sets a time budget.
    if command == "fit":
        args = ["fit", str(write_site(tmp_path)), "--method", "naveau-mle"]
    else:
        args = ["benchmark", "--manifest", str(small_manifest(tmp_path)), "--out", str(tmp_path / "o")]
    assert main(args + ["--timeout-s", "5"]) == 2
    assert "--timeout-s" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_quantiles_is_config_error(tmp_path, capsys):
    site = write_site(tmp_path)
    rc = main(["fit", str(site), "--method", "naveau-mle", "--quantiles", "0.5,1.5"])
    assert rc == 2


# --- simulate -------------------------------------------------------------------


def test_simulate_preset_writes_sites_manifest_truth(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["simulate", "--preset", "mixture-50", "--seed", "11", "--out", str(out)])
    assert rc == 0
    csvs = sorted(out.glob("site-*.csv"))
    assert len(csvs) == 50
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 11
    assert manifest["sites"] == [p.name for p in csvs]
    truth = json.loads((out / "truth.json").read_text(encoding="utf-8"))
    assert set(truth) == {p.stem for p in csvs}
    assert all(t["family"] == "gamma-mixture" for t in truth.values())


def test_simulate_unknown_preset_exits_2_naming_the_presets(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--preset", "bogus", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown preset 'bogus'" in err
    for name in ("paper-like-50", "egpd-50", "egpd-50-discretized", "mixture-50"):
        assert repr(name) in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    ([], "one of the arguments --preset --manifest is required"),
    (["--preset", "egpd-50", "--manifest", "manifest.json"], "not allowed with argument"),
])
def test_simulate_needs_exactly_one_source(tmp_path, capsys, flags, message):
    out = tmp_path / "sim"
    assert main(["simulate", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    for out in (out1, out2):
        rc = main(["simulate", "--preset", "egpd-50", "--seed", "7", "--out", str(out)])
        assert rc == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_manifest_discretized_contract(tmp_path, capsys):
    spec = GeneratorSpec(
        site_id="d1",
        family="egpd",
        params={"kappa": 2.0, "sigma": 5.0, "xi": 0.2},
        n=100,
        seed=5,
        discretize_mm=0.2,
    )
    manifest_path = tmp_path / "gen.json"
    write_manifest(manifest_path, seed=5, generators=[spec])
    out = tmp_path / "sim"
    rc = main(["simulate", "--manifest", str(manifest_path), "--out", str(out)])
    assert rc == 0
    lines = (out / "d1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert values.size <= 100
    assert np.all(values > 0.0)
    ratio = values / 0.2
    assert np.max(np.abs(ratio - np.round(ratio))) < 1e-9


# --- benchmark --------------------------------------------------------------------


def test_benchmark_single_method_row(tmp_path, capsys):
    manifest = small_manifest(tmp_path)
    out = tmp_path / "run"
    rc = main(
        [
            "benchmark",
            "--manifest",
            str(manifest),
            "--out",
            str(out),
            "--methods",
            "naveau-pwm",
            "--min-wet",
            "100",
        ]
    )
    assert rc == 0
    assert (out / "fits.jsonl").exists()
    records = [
        json.loads(line)
        for line in (out / "fits.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(records) == 2
    assert {r["method"] for r in records} == {"naveau-pwm"}
    medians = (out / "medians.csv").read_text(encoding="utf-8").splitlines()
    assert len(medians) == 2
    assert medians[1].startswith("naveau-pwm,")
    stdout = capsys.readouterr().out
    assert "naveau-pwm" in stdout


def test_benchmark_records_evaluation_counts(tmp_path):
    manifest = small_manifest(tmp_path, n_sites=1)
    counts = []
    for run in ("a", "b"):
        out = tmp_path / run
        args = ["benchmark", "--manifest", str(manifest), "--out", str(out)]
        assert main(args + ["--egpd-restarts", "1", "--mixture-restarts", "1"]) == 0
        records = [
            json.loads(line)
            for line in (out / "fits.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert len(records) == 7
        counts.append({
            r["method"]: (r["diagnostics"]["n_eval"], r["diagnostics"]["restarts_at_best"])
            for r in records
        })
        for name in TABLE_FILES:
            text = (out / name).read_text(encoding="utf-8")
            assert "n_eval" not in text
            assert "restarts_at_best" not in text
        rows = (out / "medians.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == list(METHODS)
    # Two starts per fit (one restart): at least the best one is at the best.
    assert all(n > 0 and 1 <= at_best <= 2 for n, at_best in counts[0].values())
    assert counts[1] == counts[0]


def test_benchmark_of_permuted_site_files_writes_the_same_outputs(tmp_path, capsys):
    names = [write_site(tmp_path, name, n=300, seed=seed).name for name, seed in (("a", 21), ("b", 22))]
    mixture = GeneratorSpec(site_id="c", family="gamma-mixture", n=300, seed=23,
                            params={"weights": [0.6, 0.4], "shapes": [0.8, 3.0], "scales": [2.0, 6.0]})
    save_site(tmp_path / "c.csv", simulate_site(mixture))
    names.append("c.csv")
    outputs = []
    for run, order in (("first", names), ("permuted", [names[2], names[0], names[1]])):
        write_manifest(tmp_path / f"{run}.json", seed=1, sites=order)
        out = tmp_path / run
        assert main(["benchmark", "--manifest", str(tmp_path / f"{run}.json"), "--out", str(out),
                     "--methods", "naveau-mle,gamma-mixture-2",
                     "--egpd-restarts", "0", "--mixture-restarts", "0"]) == 0
        tables = {name: (out / name).read_bytes() for name in TABLE_FILES + ("medians.txt", "classes.txt")}
        records = [json.loads(line) for line in (out / "fits.jsonl").read_text(encoding="utf-8").splitlines()]
        for record in records:
            del record["fit_seconds"]
        outputs.append((tables, records))
    assert len(outputs[0][1]) == 6
    assert outputs[1] == outputs[0]


def test_benchmark_of_hostile_sites_gives_a_record_per_fit(tmp_path, capsys):
    # All-tied values, n at and below the EGPD limit of 30, n at 100, and
    # two tied values: every method on every site leaves one record, and a
    # failed fit names why.
    sites = {
        "tied": [0.2] * 150,
        "n30": [0.1 * (i + 1) for i in range(30)],
        "n29": [0.1 * (i + 1) for i in range(29)],
        "n100": [0.1 * (i + 1) for i in range(100)],
        "two-ties": [0.2] * 75 + [0.4] * 75,
    }
    for site_id, values in sites.items():
        save_site(tmp_path / f"{site_id}.csv", SiteSeries(site_id, np.array(values)))
    write_manifest(tmp_path / "m.json", seed=1, sites=[f"{s}.csv" for s in sites])
    out = tmp_path / "run"
    rc = main(["benchmark", "--manifest", str(tmp_path / "m.json"), "--out", str(out),
               "--min-wet", "1", "--jobs", "2"])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    records = [json.loads(line) for line in (out / "fits.jsonl").read_text(encoding="utf-8").splitlines()]
    assert sorted((r["site_id"], r["method"]) for r in records) == sorted(
        (site_id, method) for site_id in sites for method in METHODS)
    errors = [r["error"] for r in records if r["error"] is not None]
    assert errors and all(re.fullmatch(r"\w+: \S.*", e) for e in errors), errors
    for name in TABLE_FILES + ("medians.txt", "classes.txt"):
        assert (out / name).stat().st_size > 0


def test_benchmark_all_fits_failed(tmp_path, capsys):
    # Every value sits below the censoring threshold, so the censored
    # methods cannot fit anything.
    g = RngState(seed=30).generator()
    series = SiteSeries(site_id="low", values=g.uniform(0.05, 0.5, size=150))
    save_site(tmp_path / "low.csv", series)
    write_manifest(tmp_path / "m.json", seed=1, sites=["low.csv"])
    out = tmp_path / "run"
    rc = main(
        [
            "benchmark",
            "--manifest",
            str(tmp_path / "m.json"),
            "--out",
            str(out),
            "--methods",
            "naveau-mle-c",
        ]
    )
    assert rc == 4
    assert "error" in capsys.readouterr().err


def thirty_value_manifest(tmp_path) -> Path:
    """A manifest of one site of 30 wet days: naveau-mle fits it, and
    gamma-mixture-4 errors on it (K > n/10)."""
    g = RngState(seed=5).generator()
    save_site(tmp_path / "s30.csv", SiteSeries("s30", g.gamma(0.8, 6.0, size=30) + 0.1))
    write_manifest(tmp_path / "m30.json", seed=1, sites=["s30.csv"])
    return tmp_path / "m30.json"


@pytest.mark.parametrize("case", ["every-fit-errs", "every-site-too-small"])
def test_benchmark_all_fits_failed_replaces_the_tables_of_an_earlier_run(tmp_path, capsys, case):
    # gamma-mixture-4 errs on 30 values (K > n/10).  A site of one wet day
    # has no empirical quantiles, so its records carry no level, and
    # `report` of them needs the levels given.
    out = tmp_path / "run"
    first = ["benchmark", "--manifest", str(thirty_value_manifest(tmp_path)), "--out", str(out),
             "--min-wet", "1"]
    assert main(first + ["--methods", "naveau-mle"]) == 0
    if case == "every-fit-errs":
        second, method, levels = first, "gamma-mixture-4", []
    else:
        (tmp_path / "one.csv").write_text(f"{CSV_HEADER}\n2000-01-01,3.5\n", encoding="utf-8")
        write_manifest(tmp_path / "m1.json", seed=1, sites=["one.csv"])
        second = ["benchmark", "--manifest", str(tmp_path / "m1.json"), "--out", str(out), "--min-wet", "1"]
        method, levels = "naveau-pwm", ["--quantiles", "0.25,0.5"]
    assert main(second + ["--methods", method] + levels) == 4
    # out/ holds what `report` rebuilds from the failed run's records.
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", "--records", str(out / "fits.jsonl"), "--out", str(rebuilt)] + levels) == 0
    for name in TABLE_FILES + ("medians.txt", "classes.txt"):
        assert (out / name).read_bytes() == (rebuilt / name).read_bytes(), name
    n_levels = len(levels[1].split(",")) if levels else 7
    assert (out / "medians.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        method + "," * (n_levels + 1) + "1"]
    run = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert [(m, t["fits"], t["failed_fits"]) for m, t in run["methods"].items()] == [(method, 1, 1)]


def test_benchmark_one_value_site_is_error_records_and_the_other_site_fits(tmp_path, capsys):
    # With --min-wet 1 a site of one wet day reaches the fits; it has no
    # empirical quantiles, so each of its fits is an error record.
    (tmp_path / "one.csv").write_text(f"{CSV_HEADER}\n2000-01-01,3.5\n2000-01-02,0\n", encoding="utf-8")
    write_site(tmp_path, "two")
    write_manifest(tmp_path / "m.json", seed=1, sites=["one.csv", "two.csv"])
    out = tmp_path / "run"
    methods = ("naveau-pwm", "gamma-mixture-2")
    rc = main(["benchmark", "--manifest", str(tmp_path / "m.json"), "--out", str(out),
               "--methods", ",".join(methods), "--min-wet", "1",
               "--egpd-restarts", "0", "--mixture-restarts", "0"])
    assert rc == 0
    records = [json.loads(line) for line in (out / "fits.jsonl").read_text(encoding="utf-8").splitlines()]
    by_site = {(r["site_id"], r["method"]): r for r in records}
    assert sorted(by_site) == sorted((s, m) for s in ("one", "two") for m in methods)
    for m in methods:
        assert "need at least two observations" in by_site["one", m]["error"]
        assert by_site["one", m]["converged"] is False
        assert by_site["two", m]["error"] is None and by_site["two", m]["converged"] is True
    assert all((out / name).is_file() for name in TABLE_FILES)
    capsys.readouterr()
    assert main(["fit", str(tmp_path / "one.csv"), "--method", "naveau-mle"]) == 4
    assert "fit failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, module, named",
    [("no_such_ufunc", "scipy.special._special_ufuncs", "_special_ufuncs has no no_such_ufunc"),
     ("psi", "scipy.special._no_such_ufuncs", "_no_such_ufuncs is not in")],
)
def test_benchmark_with_a_scipy_missing_a_fit_function_exits_2(
    tmp_path, capsys, monkeypatch, name, module, named
):
    from rainfit import numerics

    monkeypatch.setitem(numerics._SCIPY_FUNCTIONS, name, module)
    rc = main(["benchmark", "--manifest", str(small_manifest(tmp_path, n_sites=1)),
               "--out", str(tmp_path / "run"), "--methods", "naveau-pwm"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scipy's compiled module scipy.special.") and named in err
    assert not (tmp_path / "run" / "fits.jsonl").exists()


def test_benchmark_missing_manifest_is_io_error(tmp_path, capsys):
    rc = main(
        [
            "benchmark",
            "--manifest",
            str(tmp_path / "none.json"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 3


def test_benchmark_unknown_method_is_config_error(tmp_path, capsys):
    manifest = small_manifest(tmp_path)
    rc = main(
        [
            "benchmark",
            "--manifest",
            str(manifest),
            "--out",
            str(tmp_path / "o"),
            "--methods",
            "naveau-mle,bogus",
        ]
    )
    assert rc == 2


EGPD_ENTRY = {"family": "egpd", "n": 300, "params": {"kappa": 1.2, "sigma": 5.0, "xi": 0.1}}


@pytest.mark.parametrize(
    "manifest, named",
    [
        ({"seed": 1, "generators": [1]}, "bad generator entry 0"),
        (
            {"seed": 1, "generators": [EGPD_ENTRY, {**EGPD_ENTRY, "params": {"kappa": 1.2, "sigma": 5.0, "xi": 0.1, "mu": 0.0}}]},
            "bad generator entry 1",
        ),
        ({"seed": 1, "generators": [{**EGPD_ENTRY, "params": [1.2, 5.0, 0.1]}]}, "bad generator entry 0"),
        ({"seed": 1, "sites": "a.csv"}, "'sites'"),
        ({"seed": "x", "generators": [EGPD_ENTRY]}, "'seed'"),
        ({"seed": 1, "generators": [{**EGPD_ENTRY, "n": 150.7}]}, "bad generator entry 0: 'n'"),
        (
            {"seed": 1, "generators": [{**EGPD_ENTRY, "site_id": 7}, {**EGPD_ENTRY, "site_id": "b"}]},
            "bad generator entry 0: site_id",
        ),
        ({"seed": 1, "generators": [{**EGPD_ENTRY, "site_id": 7}]}, "bad generator entry 0: site_id"),
        (
            {"seed": 1, "generators": [EGPD_ENTRY, {**EGPD_ENTRY, "site_id": "../escaped"}]},
            "bad generator entry 1: site_id",
        ),
        (
            {"seed": 1, "generators": [{**EGPD_ENTRY, "site_id": "a"}, {**EGPD_ENTRY, "site_id": "a"}]},
            "duplicate site id 'a'",
        ),
        ({"seed": 1, "sites": ["a.csv", "sub/a.csv"]}, "duplicate site id 'a'"),
    ],
    ids=["entry-not-object", "unknown-param", "params-list", "sites-string", "seed-string", "n-float",
         "site-id-int-beside-string", "site-id-int", "site-id-path", "site-id-twice", "csv-stem-twice"],
)
def test_benchmark_hostile_manifest_exits_2_naming_file_and_entry(tmp_path, capsys, manifest, named):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    rc = main(["benchmark", "--manifest", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: ") and named in err


@pytest.mark.parametrize(
    "entry",
    [
        {**EGPD_ENTRY, "discretize_mm": True},
        {**EGPD_ENTRY, "params": {"kappa": 1.2, "sigma": True, "xi": 0.1}},
        {"family": "gamma-mixture", "n": 300,
         "params": {"weights": [True, False], "shapes": [0.8, 3.0], "scales": [2.0, 6.0]}},
    ],
    ids=["discretize-true", "param-true", "weights-true-false"],
)
@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_a_boolean_for_a_generator_number_exits_2_before_writing(tmp_path, capsys, command, entry):
    # JSON `true` would otherwise pass for 1: a 1 mm gauge, a parameter of
    # 1.0, weights (1, 0).
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 1, "generators": [EGPD_ENTRY, entry]}), encoding="utf-8")
    assert main([command, "--manifest", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad generator entry 1: ") and "a boolean, not a number" in err
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize(
    "entry",
    [
        {**EGPD_ENTRY, "params": {"kappa": "1.2", "sigma": 5.0, "xi": 0.1}},
        {**EGPD_ENTRY, "discretize_mm": "0.2"},
        {"family": "gamma-mixture", "n": 300,
         "params": {"weights": [0.4, 0.6], "shapes": [0.8, "3.0"], "scales": [2.0, 6.0]}},
    ],
    ids=["param-string", "discretize-string", "shape-string"],
)
@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_a_string_for_a_generator_number_exits_2_before_writing(tmp_path, capsys, command, entry):
    # The parameter records call float(), which would read "1.2" as 1.2 and
    # leave the string in truth.json.
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 1, "generators": [EGPD_ENTRY, entry]}), encoding="utf-8")
    assert main([command, "--manifest", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad generator entry 1: ") and "a str, not a number" in err
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize(
    "site_ids, named",
    [
        (["../escaped"], "bad generator entry 0: site_id"),
        (["a", ".."], "bad generator entry 1: site_id"),
        (["."], "bad generator entry 0: site_id"),
        ([""], "bad generator entry 0: site_id"),
        (["sub/a"], "bad generator entry 0: site_id"),
        (["sub\\a"], "bad generator entry 0: site_id"),
        ([7], "bad generator entry 0: site_id"),
        (["a", "b", "a"], "duplicate site id 'a'"),
    ],
    ids=["parent-path", "dot-dot", "dot", "empty", "slash", "backslash", "int", "twice"],
)
def test_simulate_bad_site_ids_exit_2_before_writing(tmp_path, capsys, site_ids, named):
    # A generator's site_id names the CSV `simulate` writes: it must stay a
    # file name inside --out, and name one site only.
    path = tmp_path / "manifest.json"
    generators = [{**EGPD_ENTRY, "site_id": site_id} for site_id in site_ids]
    path.write_text(json.dumps({"seed": 1, "generators": generators}), encoding="utf-8")
    rc = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "sim" / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: ") and named in err
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize(
    "entry, named",
    [
        ({**EGPD_ENTRY, "n": 3_000_000}, "generator n must be from 100 to 2921940"),
        ({**EGPD_ENTRY, "n": 10**12}, "generator n must be from 100 to 2921940"),
        ({**EGPD_ENTRY, "discretize_mm": math.inf}, "discretize_mm must be finite and > 0"),
    ],
    ids=["n-past-the-last-date", "n-past-memory", "discretize-infinite"],
)
@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_a_generator_simulate_cannot_write_exits_2_before_writing(tmp_path, capsys, command, entry, named):
    # save_site dates rows from 2000-01-01, so no site holds more rows than
    # there are days to 9999-12-31; an infinite increment rounds every draw
    # to nothing.
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 1, "generators": [EGPD_ENTRY, entry]}), encoding="utf-8")
    assert main([command, "--manifest", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad generator entry 1: ") and named in err
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("out", [".", "new/..", "link"])
def test_simulate_refuses_to_overwrite_its_input_manifest(tmp_path, capsys, out):
    # --out's manifest.json would replace the generator recipe with a
    # sites-only manifest, however --out spells the manifest's directory.
    path = tmp_path / "corpus" / "manifest.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"seed": 1, "generators": [EGPD_ENTRY]}), encoding="utf-8")
    (tmp_path / "link").symlink_to(path.parent)
    before = path.read_bytes()
    out_dir = tmp_path / "link" if out == "link" else path.parent / out
    assert main(["simulate", "--manifest", str(path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "overwrite" in err
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == ["manifest.json"]


# --- report -----------------------------------------------------------------------


@pytest.fixture()
def bench_run(tmp_path):
    manifest = small_manifest(tmp_path, n_sites=4)
    out = tmp_path / "bench"
    rc = main(
        [
            "benchmark",
            "--manifest",
            str(manifest),
            "--out",
            str(out),
            "--methods",
            "naveau-mle,naveau-pwm",
        ]
    )
    assert rc == 0
    return out


def test_report_reproduces_benchmark_tables(bench_run, tmp_path, capsys):
    out = tmp_path / "rerun"
    rc = main(
        ["report", "--records", str(bench_run / "fits.jsonl"), "--out", str(out)]
    )
    assert rc == 0
    for name in TABLE_FILES + ("medians.txt", "classes.txt"):
        assert (out / name).read_bytes() == (bench_run / name).read_bytes()


def test_report_warns_on_absent_canonical_methods(bench_run, tmp_path, capsys):
    out = tmp_path / "rerun"
    rc = main(
        ["report", "--records", str(bench_run / "fits.jsonl"), "--out", str(out)]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "gamma-mixture-4" in err
    medians = (out / "medians.csv").read_text(encoding="utf-8")
    assert "gamma-mixture-4" not in medians


def test_report_single_quantile_column(bench_run, tmp_path, capsys):
    out = tmp_path / "single"
    rc = main(
        [
            "report",
            "--records",
            str(bench_run / "fits.jsonl"),
            "--out",
            str(out),
            "--quantiles",
            "0.5",
            "--svg",
        ]
    )
    assert rc == 0
    header = (out / "medians.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "method,0.5,failed_fits"
    assert (out / "boxplot-0.5.svg").exists()
    svg = (out / "boxplot-0.5.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")


def test_report_unrecorded_quantile_exits_2_naming_the_missing_levels(bench_run, tmp_path, capsys):
    # --quantiles takes a subset of the recorded levels: a level no record
    # carries would leave every cell of its column empty.
    out = tmp_path / "x"
    rc = main(
        [
            "report",
            "--records",
            str(bench_run / "fits.jsonl"),
            "--out",
            str(out),
            "--quantiles",
            "0.5,0.33,0.999",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "0.33, 0.999 are not recorded" in err
    assert not out.exists()


GOOD_RECORD = {
    "site_id": "s0",
    "method": "naveau-mle",
    "estimated_quantiles": {"0.25": 1.0, "0.5": 2.0, "0.75": 3.0},
    "converged": True,
    "fit_seconds": 0.0,
    "params": {},
    "diagnostics": {},
    "n_wet": None,
    "empirical_quantiles": {"0.25": 1.1, "0.5": 2.1, "0.75": 3.1},
    "error": None,
}
# Another site, so that only what a case changes can make it hostile.
OTHER_SITE = {**GOOD_RECORD, "site_id": "s1"}
NON_INCREASING = {**OTHER_SITE, "estimated_quantiles": {"0.25": 1.0, "0.5": 3.0, "0.75": 2.0}}


def without(record, key):
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize(
    "hostile, reason",
    [
        ([1, 2], "expected a JSON object"),
        ({**OTHER_SITE, "estimated_quantiles": {"0.25": 1.0, "0.5": "abc", "0.75": 3.0}}, "not a number"),
        ({**OTHER_SITE, "estimated_quantiles": {"0.25": 1.0, "x": 2.0, "0.75": 3.0}}, "could not convert"),
        ({**OTHER_SITE, "method": "bogus"}, "unknown method"),
        ({**OTHER_SITE, "empirical_quantiles": {"0.25": 1.1, "nan": 2.1, "0.75": 3.1}}, "outside (0, 1)"),
        ({**OTHER_SITE, "estimated_quantiles": {"0.25": 1.0, "0.5": 2.0, "1.5": 3.0}}, "outside (0, 1)"),
        ({**OTHER_SITE, "empirical_quantiles": {"0.25": 1.1, "0.5": 2.1, "0.50": 1.6, "0.75": 3.1}},
         "empirical_quantiles names one level twice: '0.5' and '0.50'"),
        (GOOD_RECORD, "a second record of site 's0', method 'naveau-mle'"),
        (NON_INCREASING, "converged fit has non-increasing quantiles"),
        (without(OTHER_SITE, "fit_seconds"), "fit_seconds"),
        (without(OTHER_SITE, "params"), "params"),
        ({**OTHER_SITE, "error": "RuntimeError: no mode"}, "a converged fit has an error"),
    ],
    ids=["not-an-object", "quantile-not-a-number", "level-not-a-number", "unknown-method",
         "level-nan", "level-above-1", "level-twice", "duplicate", "non-increasing", "no-fit-seconds", "no-params",
         "converged-with-error"],
)
def test_report_hostile_record_exits_2_naming_its_line(tmp_path, capsys, hostile, reason):
    records = tmp_path / "fits.jsonl"
    records.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(hostile) + "\n", encoding="utf-8")
    out = tmp_path / "tables"
    rc = main(["report", "--records", str(records), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}:2: bad record (")
    assert reason in err
    assert not out.exists()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"0.5": 2.1', '"0.5": 1.6, "0.5": 2.1', "0.5"),
        ('"converged": true', '"converged": false, "converged": true', "converged"),
        ('"diagnostics": {}', '"diagnostics": {"n_eval": 1, "n_eval": 2}', "n_eval"),
    ],
    ids=["level", "top-level", "diagnostics"],
)
def test_report_record_that_repeats_a_key_exits_2_naming_its_line(tmp_path, capsys, old, new, key):
    # json.loads alone keeps the last value of a repeated key: the report
    # would go on from a record the file does not state once.
    line = json.dumps(OTHER_SITE)
    assert line.count(old) == 1
    records = tmp_path / "fits.jsonl"
    records.write_text(json.dumps(GOOD_RECORD) + "\n" + line.replace(old, new) + "\n", encoding="utf-8")
    out = tmp_path / "tables"
    assert main(["report", "--records", str(records), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}:2: bad record (key {key!r} appears twice in one object)")
    assert not out.exists()


def test_report_counts_a_non_converged_non_increasing_record_as_failed(tmp_path, capsys):
    # Only a converged fit must have increasing quantiles.
    records = tmp_path / "fits.jsonl"
    lines = [GOOD_RECORD, {**NON_INCREASING, "converged": False}]
    records.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    rc = main(["report", "--records", str(records), "--out", str(tmp_path / "tables")])
    assert rc == 0
    medians = (tmp_path / "tables" / "medians.csv").read_text(encoding="utf-8").splitlines()
    assert medians[1].startswith("naveau-mle,") and medians[1].endswith(",1")



@pytest.mark.parametrize("estimated, empirical", [
    ({"0.5": 5e-324, "0.9": 1.0}, {"0.5": 3.0, "0.9": 4.0}),
    ({"0.5": 1e300, "0.9": 2e300}, {"0.5": 1e-10, "0.9": 2e-10}),
], ids=["underflow", "overflow"])
def test_report_scores_a_quotient_that_under_or_overflows(tmp_path, capsys, estimated, empirical):
    # q_model / q_empirical is 0 or inf on one of four sites: D is still
    # finite, and every cell is written.
    base = {**GOOD_RECORD, "estimated_quantiles": {"0.5": 2.0, "0.9": 5.0},
            "empirical_quantiles": {"0.5": 2.1, "0.9": 5.2}}
    lines = [{**base, "site_id": f"s{i}"} for i in range(1, 4)]
    lines.append({**base, "estimated_quantiles": estimated, "empirical_quantiles": empirical})
    records = tmp_path / "fits.jsonl"
    records.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    out = tmp_path / "tables"
    assert main(["report", "--records", str(records), "--out", str(out)]) == 0, capsys.readouterr().err
    rows = [line.split(",") for line in (out / "boxplots.csv").read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "naveau-mle" and all(math.isfinite(float(v)) for v in row[2:])

@pytest.mark.parametrize("key", ["error", "diagnostics", "n_wet", "empirical_quantiles"])
def test_report_loads_a_record_without_an_optional_key(tmp_path, capsys, key):
    records = tmp_path / "fits.jsonl"
    lines = [GOOD_RECORD, without(OTHER_SITE, key)]
    records.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    assert main(["report", "--records", str(records), "--out", str(tmp_path / "tables")]) == 0


def put_a_non_utf8_byte(path: Path, line_no: int) -> None:
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] = b"\xff" + lines[line_no - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("kind", ["site", "manifest", "records"])
def test_a_byte_that_is_not_utf8_exits_2_naming_file_and_line(tmp_path, capsys, kind):
    # The site and records files are longer than the text decoder's 8 KB
    # chunk, and their bad byte lies past it.
    site = write_site(tmp_path, n=400)
    manifest = tmp_path / "m.json"
    write_manifest(manifest, seed=1, sites=[site.name])
    records = tmp_path / "fits.jsonl"
    records.write_text("".join(json.dumps({**GOOD_RECORD, "site_id": f"s{i}"}) + "\n" for i in range(100)),
                       encoding="utf-8")
    path, line_no, argv = {
        "site": (site, 300, ["fit", str(site), "--method", "naveau-mle"]),
        "manifest": (manifest, 3, ["benchmark", "--manifest", str(manifest), "--out", str(tmp_path / "o")]),
        "records": (records, 80, ["report", "--records", str(records), "--out", str(tmp_path / "o")]),
    }[kind]
    put_a_non_utf8_byte(path, line_no)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{line_no}: not UTF-8 text (")
    assert not (tmp_path / "o").exists()


def record_lines() -> list[str]:
    """Four sites by three methods, one failed fit, and a site (s2) whose
    three records carry different empirical quantiles."""
    lines = []
    for i in range(4):
        for j, method in enumerate(("naveau-mle", "naveau-pwm", "gamma-mixture-2")):
            emp = {"0.25": 1.0 + i, "0.5": 2.0 + i, "0.75": 4.0 + i}
            if i == 2:
                emp = {p: q * (1.0 + 0.1 * j) for p, q in emp.items()}
            est = {p: q * (1.0 + 0.05 * (i - j)) for p, q in emp.items()}
            lines.append(json.dumps({
                **GOOD_RECORD, "site_id": f"s{i}", "method": method, "estimated_quantiles": est,
                "empirical_quantiles": emp, "converged": (i, j) != (3, 1),
            }))
    return lines


def report_tables(out_dir: Path, lines: list[str]) -> dict[str, bytes]:
    out_dir.mkdir()
    records = out_dir / "fits.jsonl"
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["report", "--records", str(records), "--out", str(out_dir / "tables")]) == 0
    return {name: (out_dir / "tables" / name).read_bytes() for name in TABLE_FILES}


@settings(max_examples=20, deadline=None)
@given(lines=st.permutations(record_lines()))
def test_report_tables_do_not_depend_on_record_order(tmp_path_factory, lines):
    # ROADMAP item 6: any order of a records file's lines gives the same tables.
    tmp = tmp_path_factory.mktemp("order")
    assert report_tables(tmp / "permuted", lines) == report_tables(tmp / "given", record_lines())


# --- report: exact bytes ----------------------------------------------------

# Three methods by four sites, levels 0.1, 0.5, 0.9.  gamma-mixture-2 fails
# at s3, and naveau-pwm's estimated quantile at p = 0.1 is 0 at s2, so that
# site is excluded there.
GOLDEN_EMPIRICAL = {"s0": (1.0, 4.0, 10.0), "s1": (2.0, 5.0, 12.0), "s2": (0.5, 3.0, 8.0), "s3": (1.5, 6.0, 15.0)}
GOLDEN_ESTIMATED = {
    "naveau-mle": {"s0": (1.1, 4.2, 9.0), "s1": (1.8, 5.5, 13.0), "s2": (0.6, 2.9, 8.4), "s3": (1.2, 6.3, 16.5)},
    "naveau-pwm": {"s0": (0.9, 3.6, 11.0), "s1": (2.4, 4.5, 12.5), "s2": (0.0, 3.3, 7.2), "s3": (1.4, 5.4, 14.0)},
    "gamma-mixture-2": {"s0": (1.3, 4.4, 10.5), "s1": (2.2, 5.6, 12.9), "s2": (0.55, 3.4, 8.8), "s3": None},
}

GOLDEN_TABLES = {
    "medians.csv": """\
method,0.1,0.5,0.9,failed_fits
naveau-mle,-0.005025167926750673,0.04879016416943205,0.0644164359214842,0
naveau-pwm,-0.06899287148695156,-0.10536051565782628,-0.014085438483348117,0
gamma-mixture-2,0.09531017980432493,0.11332868530700307,0.07232066157962608,1
""",
    "classes.csv": """\
method,0.1,0.5,0.9,failed_fits
naveau-mle,N,O,O,0
naveau-pwm,N,U,N,0
gamma-mixture-2,O,O,O,1
""",
    "boxplots.csv": """\
method,p,n_sites,min,q1,median,q3,max,whisker_lo,whisker_hi
naveau-mle,0.1,4,-0.22314355131420985,-0.13480627457192218,-0.005025167926750673,0.11706302405173236,0.1823215567939546,-0.22314355131420985,0.1823215567939546
naveau-mle,0.5,4,-0.03390155167568134,0.028117235208153707,0.04879016416943205,0.06042016807815527,0.09531017980432493,0.04879016416943205,0.09531017980432493
naveau-mle,0.9,4,-0.10536051565782628,0.010252494212617466,0.0644164359214842,0.08385957570623351,0.09531017980432493,0.04879016416943205,0.09531017980432493
naveau-pwm,0.1,3,-0.10536051565782628,-0.08717669357238891,-0.06899287148695156,0.05666434265350152,0.1823215567939546,-0.10536051565782628,0.1823215567939546
naveau-pwm,0.5,4,-0.10536051565782628,-0.10536051565782628,-0.10536051565782628,-0.055192841792288526,0.09531017980432474,-0.10536051565782628,-0.10536051565782628
naveau-pwm,0.9,4,-0.10536051565782628,-0.07808478252967015,-0.014085438483348117,0.054444040841272634,0.09531017980432493,-0.10536051565782628,0.09531017980432493
gamma-mixture-2,0.1,3,0.09531017980432493,0.09531017980432493,0.09531017980432493,0.178837222135908,0.26236426446749106,0.09531017980432493,0.26236426446749106
gamma-mixture-2,0.5,3,0.09531017980432493,0.104319432555664,0.11332868530700307,0.11924591413050453,0.125163142954006,0.09531017980432493,0.125163142954006
gamma-mixture-2,0.9,3,0.04879016416943205,0.06055541287452906,0.07232066157962608,0.0838154206919755,0.09531017980432493,0.04879016416943205,0.09531017980432493
""",
    "medians.txt": """\
median D by quantile level (values x 10^-3; * = smallest magnitude)
method               0.1      0.5      0.9  failed
naveau-mle         -5.0*    48.8*     64.4       0
naveau-pwm         -69.0   -105.4   -14.1*       0
gamma-mixture-2     95.3    113.3     72.3       1
""",
    "classes.txt": """\
class by quantile level (U under / O over / N nominal)
method             0.1    0.5    0.9
naveau-mle           N      O      O
naveau-pwm           N      U      N
gamma-mixture-2      O      O      O
""",
    "boxplot-0.5.svg": """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="166" viewBox="0 0 640 166" font-family="sans-serif" font-size="11">
<text x="150" y="16" font-size="13">distribution of D at p = 0.5 (axis: asinh(8x))</text>
<line x1="197.29" y1="40" x2="197.29" y2="136" stroke="#dddddd" stroke-width="1"/>
<text x="197.29" y="148" text-anchor="middle">-0.1</text>
<line x1="385.00" y1="40" x2="385.00" y2="136" stroke="#dddddd" stroke-width="1"/>
<text x="385.00" y="148" text-anchor="middle">0</text>
<line x1="572.71" y1="40" x2="572.71" y2="136" stroke="#dddddd" stroke-width="1"/>
<text x="572.71" y="148" text-anchor="middle">0.1</text>
<line x1="385.00" y1="40" x2="385.00" y2="136" stroke="#888888" stroke-width="1" stroke-dasharray="4,3"/>
<text x="142" y="65.00" text-anchor="end">naveau-mle</text>
<line x1="482.62" y1="61.00" x2="565.14" y2="61.00" stroke="#333333"/>
<line x1="482.62" y1="56.00" x2="482.62" y2="66.00" stroke="#333333"/>
<line x1="565.14" y1="56.00" x2="565.14" y2="66.00" stroke="#333333"/>
<rect x="442.15" y="53.00" width="62.31" height="16" fill="#9ecae1" stroke="#333333"/>
<line x1="482.62" y1="53.00" x2="482.62" y2="69.00" stroke="#08519c" stroke-width="2"/>
<circle cx="316.34" cy="61.00" r="2.5" fill="none" stroke="#333333"/>
<text x="142" y="95.00" text-anchor="end">naveau-pwm</text>
<line x1="188.80" y1="91.00" x2="188.80" y2="91.00" stroke="#333333"/>
<line x1="188.80" y1="86.00" x2="188.80" y2="96.00" stroke="#333333"/>
<line x1="188.80" y1="86.00" x2="188.80" y2="96.00" stroke="#333333"/>
<rect x="188.80" y="83.00" width="86.46" height="16" fill="#9ecae1" stroke="#333333"/>
<line x1="188.80" y1="83.00" x2="188.80" y2="99.00" stroke="#08519c" stroke-width="2"/>
<circle cx="565.14" cy="91.00" r="2.5" fill="none" stroke="#333333"/>
<text x="142" y="125.00" text-anchor="end">gamma-mixture-2</text>
<line x1="565.14" y1="121.00" x2="611.05" y2="121.00" stroke="#333333"/>
<line x1="565.14" y1="116.00" x2="565.14" y2="126.00" stroke="#333333"/>
<line x1="611.05" y1="116.00" x2="611.05" y2="126.00" stroke="#333333"/>
<rect x="579.57" y="113.00" width="22.81" height="16" fill="#9ecae1" stroke="#333333"/>
<line x1="593.50" y1="113.00" x2="593.50" y2="129.00" stroke="#08519c" stroke-width="2"/>
</svg>
""",
}


def golden_records() -> list[dict]:
    levels = ("0.1", "0.5", "0.9")
    records = []
    for site, emp in GOLDEN_EMPIRICAL.items():
        for method, by_site in GOLDEN_ESTIMATED.items():
            est = by_site[site]
            records.append({
                **GOOD_RECORD, "site_id": site, "method": method, "n_wet": 200,
                "empirical_quantiles": dict(zip(levels, emp)),
                "estimated_quantiles": dict(zip(levels, est or ())),
                "converged": est is not None, "error": None if est else "RuntimeError: no mode",
            })
    return records


def test_report_writes_the_exact_bytes_of_every_table(tmp_path, capsys):
    records = tmp_path / "fits.jsonl"
    records.write_text("".join(json.dumps(r) + "\n" for r in golden_records()), encoding="utf-8")
    out = tmp_path / "tables"
    assert main(["report", "--records", str(records), "--out", str(out), "--svg"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        list(GOLDEN_TABLES) + ["boxplot-0.1.svg", "boxplot-0.9.svg"])
    for name, text in GOLDEN_TABLES.items():
        assert (out / name).read_bytes() == text.encode("utf-8"), name
    assert capsys.readouterr().err.endswith(
        "warning: naveau-pwm at p=0.1: 1 site(s) excluded"
        " (missing, non-positive or non-finite quantile): s2\n")


@pytest.mark.parametrize("second, svgs", [
    ([], []),
    (["--svg"], ["boxplot-0.5.svg"]),
])
def test_report_leaves_no_svg_of_an_earlier_run(tmp_path, second, svgs):
    records = tmp_path / "fits.jsonl"
    records.write_text("".join(json.dumps(r) + "\n" for r in golden_records()), encoding="utf-8")
    out = tmp_path / "tables"
    assert main(["report", "--records", str(records), "--out", str(out), "--svg"]) == 0
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    assert main(["report", "--records", str(records), "--out", str(out),
                 "--quantiles", "0.5", *second]) == 0
    assert sorted(p.name for p in out.glob("*.svg")) == svgs
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"
    assert (out / "medians.csv").read_text(encoding="utf-8").startswith("method,0.5,failed_fits\n")


@pytest.mark.parametrize("command, levels", [("report", ""), ("report", " , "), ("benchmark", "")],
                         ids=["report-empty", "report-commas", "benchmark-empty"])
def test_quantiles_that_list_no_level_exit_2(tmp_path, capsys, command, levels):
    # An empty list is not the default: report would otherwise score every
    # recorded level.
    records = tmp_path / "fits.jsonl"
    records.write_text("".join(json.dumps(r) + "\n" for r in golden_records()), encoding="utf-8")
    where = ["--records", str(records)] if command == "report" else ["--manifest", str(tmp_path / "m.json")]
    out = tmp_path / "tables"
    assert main([command, *where, "--out", str(out), "--quantiles", levels]) == 2
    assert capsys.readouterr().err == "error: --quantiles lists no levels\n"
    assert not out.exists()


def test_report_stopped_by_a_bad_line_keeps_the_tables_of_an_earlier_run(tmp_path, capsys):
    # The records stream from the file into the summary: line 2,001 is
    # read after 2,000 records were scored, and no table is written before
    # the last line is read.
    out = tmp_path / "tables"
    golden = tmp_path / "golden.jsonl"
    golden.write_text("".join(json.dumps(r) + "\n" for r in golden_records()), encoding="utf-8")
    assert main(["report", "--records", str(golden), "--out", str(out), "--svg"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    lines = [json.dumps({**GOOD_RECORD, "site_id": f"s{i}"}) for i in range(2003)]
    lines[2000] = lines[2000][:-1]
    records = tmp_path / "fits.jsonl"
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--records", str(records), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {records}:2001: bad record (")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank-lines"])
def test_report_of_a_file_with_no_record_exits_2_naming_it(tmp_path, capsys, text):
    records = tmp_path / "fits.jsonl"
    records.write_text(text, encoding="utf-8")
    out = tmp_path / "tables"
    assert main(["report", "--records", str(records), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {records}: no records\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_report_drops_a_non_finite_quantile_naming_its_site(tmp_path, capsys, value):
    # json writes and reads NaN and Infinity; a converged record with one
    # is dropped at that level like a non-positive quantile, not an exit 2.
    other = {**GOOD_RECORD, "site_id": "s1"}
    hostile = json.dumps(GOOD_RECORD).replace('"0.75": 3.0', f'"0.75": {value}', 1)
    records = tmp_path / "fits.jsonl"
    records.write_text(json.dumps(other) + "\n" + hostile + "\n", encoding="utf-8")
    rc = main(["report", "--records", str(records), "--out", str(tmp_path / "tables")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "naveau-mle at p=0.75: 1 site(s) excluded (missing, non-positive or non-finite quantile): s0" in err
    medians = (tmp_path / "tables" / "medians.csv").read_text(encoding="utf-8")
    assert "inf" not in medians and "nan" not in medians


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert "rainfit" in capsys.readouterr().out


# --- the process entry: python -m rainfit.cli ------------------------------------


def run_cli(*args) -> subprocess.CompletedProcess:
    """`python -m rainfit.cli args` in a child process.  Its stdout and
    stderr are pipes, and the child buffers them by blocks, not lines."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rainfit.cli", *map(str, args)], env=env,
                          capture_output=True, timeout=120)


def test_process_benchmark_with_two_jobs_writes_what_main_writes(tmp_path, capsys):
    flags = ["--manifest", str(small_manifest(tmp_path)), "--methods", "naveau-mle,gamma-mixture-2",
             "--egpd-restarts", "0", "--mixture-restarts", "0", "--jobs", "2"]
    proc = run_cli("benchmark", "--out", tmp_path / "process", *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith((tmp_path / "process" / "medians.txt").read_bytes())
    assert main(["benchmark", "--out", str(tmp_path / "in-process"), *flags]) == 0
    outputs = []
    for run in ("process", "in-process"):
        out = tmp_path / run
        tables = {name: (out / name).read_bytes() for name in TABLE_FILES + ("medians.txt", "classes.txt")}
        records = [json.loads(line) for line in (out / "fits.jsonl").read_text(encoding="utf-8").splitlines()]
        for record in records:
            del record["fit_seconds"]
        outputs.append((tables, records))
    assert len(outputs[0][1]) == 4
    assert outputs[0] == outputs[1]


def test_mixtures_at_the_float_limits_give_a_named_error_and_no_warning(tmp_path):
    # The sliced start's moments underflow on values near 1e-300 (and the
    # variance floor on ties at 1e-158), and overflow on values near 1e300
    # (their square) and 1e308 (their sum): each mixture record names
    # that, and numpy prints no RuntimeWarning.
    sites = {"tiny": [1e-300, 2e-300], "tied": [1e-158, 1e-158], "huge": [1e300, 3e300],
             "max": [1e308, 1.5e308]}
    for name, pair in sites.items():
        save_site(tmp_path / f"{name}.csv", SiteSeries(name, np.array(pair * 100)))
    write_manifest(tmp_path / "m.json", seed=1, sites=[f"{name}.csv" for name in sites])
    mixtures = [m for m in METHODS if METHODS[m].family == "gamma_mixture"]
    proc = run_cli("benchmark", "--manifest", tmp_path / "m.json", "--out", tmp_path / "run",
                   "--methods", ",".join(mixtures), "--mixture-restarts", "0")
    assert proc.returncode == 4 and b"RuntimeWarning" not in proc.stderr, proc.stderr
    lines = (tmp_path / "run" / "fits.jsonl").read_text(encoding="utf-8").splitlines()
    errors = {(r["site_id"], r["method"]): r["error"] for r in map(json.loads, lines)}
    assert errors == {(site, m): "ValueError: the sample's moments are out of float range"
                      for site in sites for m in mixtures}


@pytest.mark.parametrize("values", [
    [2.5] * 200,  # all tied
    [0.2] * 150 + [5.0] * 50,  # two values
    [0.5] * 80 + [2.0] * 20,  # fewer than 30 at or above the 1 mm threshold
    [1e-300, 2e-300] * 100,  # moments underflow
    [1e308, 1.5e308] * 100,  # the sum overflows
    [5e-324] * 100 + [1.0] * 100,  # H(y) underflows to 0 or a subnormal
], ids=["ties", "two-values", "few-above-threshold", "tiny", "float-max", "subnormal"])
def test_a_hostile_site_gives_a_record_per_method_and_no_warning(tmp_path, values):
    save_site(tmp_path / "s.csv", SiteSeries("s", np.array(values)))
    write_manifest(tmp_path / "m.json", seed=1, sites=["s.csv"])
    proc = run_cli("benchmark", "--manifest", tmp_path / "m.json", "--out", tmp_path / "run",
                   "--min-wet", "1", "--egpd-restarts", "1", "--mixture-restarts", "1")
    assert proc.returncode in (0, 4), proc.stderr
    assert b"Traceback" not in proc.stderr and b"Warning" not in proc.stderr, proc.stderr
    lines = (tmp_path / "run" / "fits.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert sorted(r["method"] for r in records) == sorted(METHODS)
    for r in records:
        if r["error"] is not None or not math.isfinite(r["diagnostics"]["objective"]):
            assert r["converged"] is False, r


@pytest.mark.parametrize("case, code", [
    ("unknown-method", 2), ("missing-records", 3), ("all-failed", 4), ("all-too-small", 4),
])
def test_process_exit_code(tmp_path, case, code):
    manifest = thirty_value_manifest(tmp_path)
    # A site of one wet day has no empirical quantiles, so its records carry no level.
    (tmp_path / "one.csv").write_text(f"{CSV_HEADER}\n2000-01-01,3.5\n", encoding="utf-8")
    write_manifest(tmp_path / "m1.json", seed=1, sites=["one.csv"])
    argv = {
        "unknown-method": ["benchmark", "--manifest", manifest, "--out", tmp_path / "o",
                           "--methods", "naveau-mle,bogus"],
        "missing-records": ["report", "--records", tmp_path / "none.jsonl", "--out", tmp_path / "o"],
        "all-failed": ["benchmark", "--manifest", manifest, "--out", tmp_path / "o",
                       "--methods", "gamma-mixture-4", "--min-wet", "1"],
        "all-too-small": ["benchmark", "--manifest", tmp_path / "m1.json", "--out", tmp_path / "o",
                          "--methods", "naveau-pwm", "--min-wet", "1"],
    }[case]
    proc = run_cli(*argv)
    assert proc.returncode == code
    assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"rainfit": "rainfit.cli:run"}


@pytest.mark.parametrize("argv, broken_pipe, code", [
    (["--version"], False, 0),
    (["--no-such-flag"], False, 2),
    (["--version"], True, 120),
])
def test_run_flushes_then_exits_with_the_code_of_main(monkeypatch, argv, broken_pipe, code):
    class Stdout(io.StringIO):
        def flush(self):
            if broken_pipe:
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    stderr = io.StringIO()
    exits = []
    monkeypatch.setattr(sys, "argv", ["rainfit", *argv])
    monkeypatch.setattr(sys, "stdout", Stdout())
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(os, "_exit", exits.append)
    cli.run()
    assert exits == [code]
    assert "Traceback" not in stderr.getvalue()


def test_every_command_closes_the_files_it_opens(tmp_path, capsys):
    # `run` skips the teardown that would flush and close a file object
    # left open, so each command must close what it writes before `main`
    # returns.  A file object found open warns when it is freed.
    manifest = small_manifest(tmp_path)
    bench = tmp_path / "bench"
    commands = [
        ["fit", str(write_site(tmp_path)), "--method", "naveau-pwm"],
        ["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "sim")],
        ["benchmark", "--manifest", str(manifest), "--out", str(bench), "--jobs", "2",
         "--methods", "naveau-mle,naveau-pwm"],
        ["report", "--records", str(bench / "fits.jsonl"), "--out", str(tmp_path / "rep"), "--svg"],
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for argv in commands:
            assert main(argv) == 0, argv
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
