"""`scripts/same_outputs.py`: run one corpus from two source trees and compare the outputs."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_matches_itself_and_not_a_copy_with_another_prior(tmp_path, capsys):
    manifest = tmp_path / "one-site.json"
    manifest.write_text(json.dumps({"seed": 3, "generators": [{
        "site_id": "s0", "family": "egpd", "params": {"kappa": 0.8, "sigma": 6.0, "xi": 0.15}, "n": 400,
    }]}), encoding="utf-8")
    args = ["--benchmark-args", "--egpd-restarts 0 --mixture-restarts 0", f"manifest:{manifest}"]
    script = load_script()

    work = tmp_path / "same"
    assert script.main(["--base", str(ROOT), "--change", str(ROOT), "--work", str(work), *args]) == 0
    assert capsys.readouterr().out == ""
    written = {p.relative_to(work / "0-base") for p in (work / "0-base").rglob("*") if p.is_file()}
    assert {Path("corpus/s0.csv"), Path("jobs-1/bench/fits.jsonl"), Path("jobs-1/bench/run.json"),
            Path("jobs-1/report/medians.csv"), Path("jobs-1/report/boxplot-0.5.svg")} <= written

    # Another prior moves the mixture fits; the corpus stays the same.
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src")
    module = changed / "src" / "rainfit" / "gamma_mixture.py"
    source = module.read_text(encoding="utf-8")
    assert "\n_PRIOR_V = 2.0\n" in source
    module.write_text(source.replace("\n_PRIOR_V = 2.0\n", "\n_PRIOR_V = 2.5\n"), encoding="utf-8")
    assert script.main(["--base", str(ROOT), "--change", str(changed), *args]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"manifest:{manifest}: jobs-1/bench/fits.jsonl differs" in lines
    assert f"manifest:{manifest}: jobs-1/report/medians.csv differs" in lines
    assert not any("corpus/" in line for line in lines)


def test_numeric_differences_name_each_cell_beyond_the_tolerance():
    script = load_script()
    golden = {p.name: p.read_bytes() for p in (ROOT / "tests" / "golden" / "benchmark" / "default").iterdir()}
    assert script.numeric_differences(golden, golden) == []

    inside, beyond = 1.0 + 0.5 * script.LN_Q_TOLERANCE, 1.0 + 2.0 * script.LN_Q_TOLERANCE
    records = [json.loads(line) for line in golden["fits.jsonl"].decode().splitlines()]
    first, q = records[0], dict(records[0]["estimated_quantiles"])
    n_eval = sum(r["diagnostics"].get("n_eval", 0) for r in records if r["method"] == "naveau-mle")
    first["estimated_quantiles"]["0.5"] *= inside
    first["estimated_quantiles"]["0.9"] *= beyond
    first["diagnostics"]["n_eval"] += 1
    medians = [line.split(",") for line in golden["medians.csv"].decode().splitlines()]
    d = medians[1][2]
    medians[1][1] = repr(float(medians[1][1]) + 0.5 * script.LN_Q_TOLERANCE)
    medians[1][2] = repr(float(d) + 2.0 * script.LN_Q_TOLERANCE)
    run = {**golden, "fits.jsonl": "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode(),
           "medians.csv": "".join(",".join(row) + "\n" for row in medians).encode(),
           "classes.csv": golden["classes.csv"].replace(b"naveau-mle,N", b"naveau-mle,O", 1)}
    assert script.numeric_differences(golden, run) == [
        f"fits.jsonl site-000 naveau-mle estimated_quantiles p=0.9: {q['0.9']!r}"
        f" against {first['estimated_quantiles']['0.9']!r}",
        f"fits.jsonl naveau-mle: n_eval total {n_eval} against {n_eval + 1}",
        "classes.csv naveau-mle 0.01: N against O",
        f"medians.csv naveau-mle 0.1: {d} against {medians[1][2]}",
    ]
