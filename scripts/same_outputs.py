#!/usr/bin/env python3
"""Check that two source trees of rainfit write the same outputs.

    python3 scripts/same_outputs.py --base ../parent --change . --jobs 1,2 \\
        preset:paper-like-50:1 workload:paper-mixed:2 manifest:corpus/few.json

Each corpus is built and run from each tree with that tree's `src` on
PYTHONPATH and PYTHONDONTWRITEBYTECODE=1:

- `preset:NAME:SEED` runs `rainfit simulate --preset NAME --seed SEED`,
  then `benchmark` at each --jobs value, with --benchmark-args added;
- `manifest:PATH` does the same from a generator manifest
  (`simulate --manifest PATH`);
- `workload:NAME:SEED` writes the corpus with `rainbench/workloads.py
  NAME SEED OUT` and runs `benchmark` once, with the flags of that
  workload's `Workload` entry, its job count included.

`report --svg` then rebuilds the tables from each run's `fits.jsonl`.
Every file the three commands write is compared byte for byte, except
that `fits.jsonl` is compared without each record's `fit_seconds`, and
`run.json` without its `seconds`, `environment`, `config.jobs` and each
method's `fit_seconds`.  One line is printed per file that differs.  Exit
code 0 means no file differs, 1 that one does, 2 that a command failed.

`golden_files` is what the golden runs keep of a `benchmark` run
(`scripts/golden.py`, `tests/test_golden.py`).  `numeric_differences`
names each cell in which two such runs differ by more than the
AVX-512/AVX2 difference in ln q: it is the golden test's failure
message, and the check of a run on another SIMD target.  Standard
library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

TREES = ("base", "change")


class CommandFailed(Exception):
    pass


def run(tree: Path, args: list, cwd: Path) -> str:
    """Run Python with args from the tree's sources; its stdout, or CommandFailed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise CommandFailed(f"{tree}: {shlex.join(map(str, args))} exited {done.returncode}:\n"
                            f"{done.stderr.strip()}")
    return done.stdout


def workload_flags(tree: Path, name: str, cwd: Path) -> list[str]:
    """The `rainfit benchmark` flags of the tree's rainbench workload NAME."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]);"
            " from workloads import WORKLOADS;"
            " print(json.dumps(WORKLOADS[sys.argv[2]].benchmark_flags()))")
    return json.loads(run(tree, ["-c", code, tree / "rainbench", name], cwd))


def build_and_run(tree: Path, corpus: str, jobs: list[int], extra: list[str], out: Path) -> None:
    """Write the corpus under out/corpus, and each run under out/<run>/{bench,report}."""
    kind, _, rest = corpus.partition(":")
    cli = ["-m", "rainfit.cli"]
    out.mkdir(parents=True)
    if kind == "workload":
        name, seed = rest.split(":")
        run(tree, [tree / "rainbench" / "workloads.py", name, seed, out / "corpus"], out)
        runs = {"workload": workload_flags(tree, name, out)}
    else:
        if kind == "preset":
            name, seed = rest.split(":")
            source = ["--preset", name, "--seed", seed]
        else:
            source = ["--manifest", Path(rest).resolve()]
        run(tree, [*cli, "simulate", *source, "--out", out / "corpus"], out)
        runs = {f"jobs-{j}": ["--jobs", str(j), *extra] for j in jobs}
    for label, flags in runs.items():
        bench, report = out / label / "bench", out / label / "report"
        run(tree, [*cli, "benchmark", "--manifest", out / "corpus" / "manifest.json",
                   "--out", bench, *flags], out)
        run(tree, [*cli, "report", "--records", bench / "fits.jsonl", "--out", report, "--svg"], out)


def comparable(path: Path):
    """The file's contents, less what may differ between two runs of one tree."""
    if path.name == "fits.jsonl":
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for record in records:
            record.pop("fit_seconds", None)
        return records
    if path.name == "run.json":
        run_info = json.loads(path.read_text(encoding="utf-8"))
        run_info.pop("seconds", None)
        run_info.pop("environment", None)
        run_info.get("config", {}).pop("jobs", None)
        for method in run_info.get("methods", {}).values():
            method.pop("fit_seconds", None)
        return run_info
    return path.read_bytes()


def differences(base: Path, change: Path) -> list[str]:
    """One line for each file that differs, or that one side lacks."""
    files = {p.relative_to(root) for root in (base, change) for p in root.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        a, b = base / rel, change / rel
        if not (a.is_file() and b.is_file()):
            out.append(f"{rel} is only in {'base' if a.is_file() else 'change'}")
        elif comparable(a) != comparable(b):
            out.append(f"{rel} differs")
    return out


# The tables `benchmark` writes beside `fits.jsonl` and `run.json`.
TABLES = ("boxplots.csv", "classes.csv", "classes.txt", "medians.csv", "medians.txt")

# The largest |Δ ln q| between numpy's AVX-512 (X86_V4) and AVX2 (X86_V2)
# paths, over the 350 records of `paper-like-50` seed 1 on one host.  A
# D, a median, a quartile or a whisker is a ln q less an empirical ln q
# that no dispatch target moves, or a convex combination of such values,
# so it moves by no more than the ln q it comes from.
LN_Q_TOLERANCE = 5.4e-6


def golden_files(bench: Path) -> dict[str, bytes]:
    """What a golden run keeps of a `benchmark` output directory.

    `fits.jsonl` without each record's `fit_seconds`, the five tables, and
    `environment.json`, what of `run.json`'s `environment` decides the
    bits: the numpy and scipy versions, numpy's baseline, and the dispatch
    targets of `numpy_cpu` that the CPU has and that are not disabled.
    """
    records = [json.loads(line) for line in (bench / "fits.jsonl").read_text(encoding="utf-8").splitlines()]
    for record in records:
        record.pop("fit_seconds", None)
    files = {"fits.jsonl": "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()}
    files.update((name, (bench / name).read_bytes()) for name in TABLES)
    env = json.loads((bench / "run.json").read_text(encoding="utf-8"))["environment"]
    cpu = env["numpy_cpu"]
    kept = {"numpy": env["numpy"], "scipy": env["scipy"], "numpy_baseline": cpu["baseline"],
            "numpy_dispatch": [target for target in cpu["dispatch"] if target in cpu["enabled"]]}
    files["environment.json"] = (json.dumps(kept, indent=2, sort_keys=True) + "\n").encode()
    return files


def _table(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _records(data: bytes) -> dict[tuple[str, str], dict]:
    return {(r["site_id"], r["method"]): r for r in map(json.loads, data.decode("utf-8").splitlines())}


def numeric_differences(golden: dict[str, bytes], run: dict[str, bytes]) -> list[str]:
    """Each way a run's `golden_files` fall outside the golden ones' tolerance.

    Exact: the (site, method) records in order, which converged and
    failed, each method's `n_eval` total, the quantile levels, and every
    cell of `classes.csv` and `classes.txt` and every count (`n_sites`,
    `failed_fits`).  Within `LN_Q_TOLERANCE`: each record's ln q, estimated
    and empirical, and each D cell of `medians.csv` and `boxplots.csv`.
    `medians.txt` is `medians.csv` rounded, so it is not compared, nor is
    `environment.json`.  One line per difference, naming the file and the
    cell.
    """
    out = []
    want, got = _records(golden["fits.jsonl"]), _records(run["fits.jsonl"])
    if list(want) != list(got):
        return [f"fits.jsonl: the (site, method) records differ: {list(want)} against {list(got)}"]
    n_eval: dict[str, list[int]] = {}
    for (site, method), a in want.items():
        b = got[(site, method)]
        if a["converged"] != b["converged"]:
            out.append(f"fits.jsonl {site} {method}: converged {a['converged']} against {b['converged']}")
        totals = n_eval.setdefault(method, [0, 0])
        totals[0] += a["diagnostics"].get("n_eval", 0)
        totals[1] += b["diagnostics"].get("n_eval", 0)
        for key in ("empirical_quantiles", "estimated_quantiles"):
            qa, qb = a.get(key) or {}, b.get(key) or {}
            if qa.keys() != qb.keys():
                out.append(f"fits.jsonl {site} {method} {key}: levels {sorted(qa)} against {sorted(qb)}")
                continue
            for p in qa:
                if qa[p] != qb[p] and not (qa[p] > 0.0 and qb[p] > 0.0
                                           and abs(math.log(qa[p] / qb[p])) <= LN_Q_TOLERANCE):
                    out.append(f"fits.jsonl {site} {method} {key} p={p}: {qa[p]!r} against {qb[p]!r}")
    out += [f"fits.jsonl {method}: n_eval total {a} against {b}" for method, (a, b) in n_eval.items() if a != b]
    if golden["classes.txt"] != run["classes.txt"]:
        out.append("classes.txt differs")
    for name in ("classes.csv", "medians.csv", "boxplots.csv"):
        want_rows, got_rows = _table(golden[name]), _table(run[name])
        if [len(row) for row in want_rows] != [len(row) for row in got_rows]:
            out.append(f"{name}: the rows differ in shape")
            continue
        header = want_rows[0]
        for row_a, row_b in zip(want_rows, got_rows):
            row = " p=".join(row_a[:2] if name == "boxplots.csv" else row_a[:1])
            for column, a, b in zip(header, row_a, row_b):
                exact = name == "classes.csv" or column in ("method", "p", "n_sites", "failed_fits")
                if a != b and (exact or not _close(a, b)):
                    out.append(f"{name} {row} {column}: {a} against {b}")
    return out


def _close(a: str, b: str) -> bool:
    """Whether two table cells are numbers within LN_Q_TOLERANCE of each other."""
    try:
        return abs(float(a) - float(b)) <= LN_Q_TOLERANCE
    except ValueError:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpora", nargs="+", metavar="CORPUS",
                        help="preset:NAME:SEED, manifest:PATH or workload:NAME:SEED")
    parser.add_argument("--base", type=Path, required=True, help="source tree to compare against")
    parser.add_argument("--change", type=Path, required=True, help="source tree under test")
    parser.add_argument("--jobs", default="1",
                        help="comma-separated --jobs values for preset and manifest corpora (default 1)")
    parser.add_argument("--benchmark-args", default="",
                        help="extra `benchmark` flags for preset and manifest corpora, one string")
    parser.add_argument("--work", type=Path,
                        help="directory to keep the outputs in (default: a temporary one, removed)")
    args = parser.parse_args(argv)
    jobs = [int(j) for j in args.jobs.split(",")]
    extra = shlex.split(args.benchmark_args)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = args.work.resolve() if args.work else Path(tmp)
        differ = False
        for i, corpus in enumerate(args.corpora):
            outs = {side: work / f"{i}-{side}" for side in TREES}
            try:
                for side in TREES:
                    build_and_run(trees[side], corpus, jobs, extra, outs[side])
            except CommandFailed as exc:
                print(f"{corpus}: {exc}", file=sys.stderr)
                return 2
            found = differences(outs["base"], outs["change"])
            for line in found:
                print(f"{corpus}: {line}")
            print(f"{corpus}: {'DIFFERENT' if found else 'same'}", file=sys.stderr)
            differ = differ or bool(found)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
