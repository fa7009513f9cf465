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
Standard library only.
"""

from __future__ import annotations

import argparse
import json
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
