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
