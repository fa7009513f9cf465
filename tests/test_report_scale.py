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
