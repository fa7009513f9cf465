"""`scripts/report_scale.py`: grow a records file, then time `rainfit report` on it."""

import importlib.util
import json
from pathlib import Path

from rainfit.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_scale.py"


def load_script():
    spec = importlib.util.spec_from_file_location("report_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_copies_the_records_under_new_site_ids_and_reports_on_them(tmp_path, capsys):
    levels = {"0.25": 1.0, "0.5": 2.0, "0.75": 3.0}
    source = tmp_path / "fits.jsonl"
    source.write_text("".join(json.dumps({
        "site_id": f"s{i}", "method": method, "estimated_quantiles": levels, "empirical_quantiles": levels,
        "converged": True, "fit_seconds": 0.0, "params": {},
    }) + "\n" for i in range(2) for method in ("naveau-mle", "naveau-pwm")), encoding="utf-8")
    out = tmp_path / "scale"
    assert load_script().main([str(source), "--records", "10", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0].startswith("10 records, ")
    assert stdout[-1].startswith("report exit 0: wall ") and "peak RSS" in stdout[-1]
    copy = [json.loads(line) for line in (out / "fits.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(r["site_id"], r["method"]) for r in copy[3:6]] == [
        ("c0-s1", "naveau-pwm"), ("c1-s0", "naveau-mle"), ("c1-s0", "naveau-pwm")]
    assert len({(r["site_id"], r["method"]) for r in copy}) == 10
    # The child's tables are the tables of the copy.
    assert main(["report", "--records", str(out / "fits.jsonl"), "--out", str(tmp_path / "direct")]) == 0
    for name in ("medians.csv", "classes.csv", "boxplots.csv"):
        assert (out / "tables" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()


def test_times_a_stubbed_benchmark_whose_tables_report_rebuilds(tmp_path, capsys):
    # Each fit is a copy of the first record of its method; a mixture's
    # record carries what run.json sums.
    levels = {"0.25": 1.0, "0.5": 2.0, "0.75": 3.0}
    diagnostics = {"converged": True, "n_eval": 5, "restarts_at_best": 1}
    records = [
        {"site_id": "s0", "method": "naveau-pwm", "params": {}, "diagnostics": diagnostics},
        {"site_id": "s0", "method": "gamma-mixture-2", "params": {"weights": [0.5, 0.5]},
         "diagnostics": {**diagnostics, "effective_k": 1}},
        {"site_id": "s1", "method": "naveau-pwm", "params": {}, "diagnostics": {}},
    ]
    source = tmp_path / "fits.jsonl"
    source.write_text("".join(json.dumps({
        **r, "n_wet": 300, "estimated_quantiles": {p: 1.5 * q for p, q in levels.items()},
        "empirical_quantiles": levels, "converged": True, "error": None, "fit_seconds": 0.25,
    }) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "scale"
    assert load_script().main([str(source), "--sites", "5", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0].startswith("5 sites, 10 records: benchmark exit 0: wall ")
    assert "peak RSS" in stdout[0] and "run.json seconds load " in stdout[0]
    assert stdout[-1].startswith("report exit 0: wall ")
    fits = [json.loads(line) for line in (out / "run" / "fits.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(r["site_id"], r["method"]) for r in fits[:3]] == [
        ("site-00000", "naveau-pwm"), ("site-00000", "gamma-mixture-2"), ("site-00001", "naveau-pwm")]
    assert {r["n_wet"] for r in fits} == {120}
    run = json.loads((out / "run" / "run.json").read_text(encoding="utf-8"))
    assert run["config"]["quantiles"] == [0.25, 0.5, 0.75]
    assert run["methods"] == {
        "naveau-pwm": dict(fits=5, failed_fits=0, n_eval=25, restarts_at_best=5, fit_seconds=1.25),
        "gamma-mixture-2": dict(fits=5, failed_fits=0, n_eval=25, restarts_at_best=5, fit_seconds=1.25,
                                collapsed_fits=5),
    }
    # The benchmark's tables are report's rebuild from its fits.jsonl.
    for name in ("medians.csv", "classes.csv", "boxplots.csv", "medians.txt", "classes.txt"):
        assert (out / "run" / name).read_bytes() == (out / "tables" / name).read_bytes()
    assert (out / "run" / "medians.csv").read_text(encoding="utf-8").startswith("method,0.25,0.5,0.75,")
