#!/usr/bin/env python3
"""Time `rainfit report`, or `benchmark` and then `report`, at the paper's scale.

    python3 scripts/report_scale.py run/fits.jsonl --out scale      # 118,776 records
    python3 scripts/report_scale.py run/fits.jsonl --out scale --records 20000
    python3 scripts/report_scale.py run/fits.jsonl --out scale --sites 16968

With --records (the default), the records of the given `fits.jsonl` are
copied, round after round, under new site ids (`c<round>-<site id>`) until
there are --records of them; the paper scores seven methods at 16,968
sites, 118,776 records.  The copy is written to --out/fits.jsonl, one
sorted-key JSON line per record as `rainfit benchmark` writes them.

With --sites N, N site CSVs of 120 wet days and their manifest are
written to --out/corpus, and `rainfit benchmark --jobs 1` runs on them
into --out/run, its stdout to --out/benchmark-stdout.txt.  Every fit is
replaced by a copy of one real record: the first record of its method in
the given `fits.jsonl`, under the site's id and wet-day count.  It runs
the methods that file has records of, at the levels its first record
carries.  So the run does all that `benchmark` does but fit: load the
sites, write `fits.jsonl`, read it back into the tables and `run.json`.

Then `report` runs on the records file (--out/fits.jsonl, or the
benchmark's --out/run/fits.jsonl) and writes its tables to --out/tables.
Each command runs in a child process, with PYTHONDONTWRITEBYTECODE=1 and
the `src/` of this checkout first on PYTHONPATH.

One line on stdout per command gives its exit code, its wall time, its
CPU time (user + system) and its peak resident set size, the last two
from `os.wait4`; the benchmark's line also gives `run.json`'s `seconds`.
The exit code is the benchmark's when it failed, else the report's.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import date, timedelta
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PAPER_SITES = 16_968
PAPER_RECORDS = 7 * PAPER_SITES
SITE_ROWS = 120

# The child of --sites: argv[1] is a JSON file mapping each method to one
# record line; the rest is the `rainfit` command line.
STUBBED_BENCHMARK = """\
import json, sys
from rainfit import cli, pipeline

with open(sys.argv.pop(1), encoding="utf-8") as fh:
    copies = json.load(fh)

def run_single_fit(series, method, config, rng):
    return {**json.loads(copies[method]), "site_id": series.site_id, "n_wet": series.n_wet}

pipeline.run_single_fit = run_single_fit
cli.run()
"""


def read_records(source: Path) -> list[dict]:
    with open(source, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records:
        raise SystemExit(f"{source}: no records")
    return records


def grow(source: Path, target: Path, n: int) -> None:
    """Write n records to target: the records of source, copied under new site ids."""
    records = read_records(source)
    with open(target, "w", encoding="utf-8", newline="") as fh:
        for i in range(n):
            copy, k = divmod(i, len(records))
            record = records[k]
            fh.write(json.dumps({**record, "site_id": f"c{copy}-{record['site_id']}"}, sort_keys=True) + "\n")


def write_corpus(corpus: Path, n_sites: int) -> Path:
    """Write n_sites site CSVs of SITE_ROWS wet days and their manifest; its path."""
    corpus.mkdir(parents=True, exist_ok=True)
    days = [(date(2000, 1, 1) + timedelta(days=k)).isoformat() for k in range(SITE_ROWS)]
    names = []
    for i in range(n_sites):
        names.append(f"site-{i:05d}.csv")
        rows = "".join(f"{day},{0.1 * (1 + (7 * i + k) % 97):.1f}\n" for k, day in enumerate(days))
        (corpus / names[-1]).write_text("date,rainfall_mm\n" + rows, encoding="utf-8")
    manifest = corpus / "manifest.json"
    manifest.write_text(json.dumps({"seed": 1, "sites": names}) + "\n", encoding="utf-8")
    return manifest


def run_child(args: list[str], stdout: Path | None = None) -> tuple[int, float, float, float]:
    """Run Python with args on this checkout's src, its stdout to a file if given;
    (exit code, wall s, CPU s, peak RSS MB)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    to_file = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)] if stdout else []
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=to_file)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    # ru_maxrss is in kilobytes on Linux.
    return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_benchmark(source: Path, out: Path, n_sites: int) -> int:
    """Run the stubbed `rainfit benchmark` at n_sites; print its line and return its exit code."""
    copies: dict[str, str] = {}
    records = read_records(source)
    for record in records:
        copies.setdefault(record["method"], json.dumps(record, sort_keys=True))
    levels = sorted(records[0]["empirical_quantiles"], key=float)
    (out / "copies.json").write_text(json.dumps(copies), encoding="utf-8")
    manifest = write_corpus(out / "corpus", n_sites)
    code, wall, cpu, rss = run_child(["-c", STUBBED_BENCHMARK, str(out / "copies.json"), "benchmark",
                                      "--manifest", str(manifest), "--out", str(out / "run"), "--jobs", "1",
                                      "--methods", ",".join(copies), "--quantiles", ",".join(levels)],
                                     stdout=out / "benchmark-stdout.txt")
    seconds = "no run.json"
    if code in (0, 4):  # the exit codes of a benchmark that wrote run.json
        phases = json.loads((out / "run" / "run.json").read_text(encoding="utf-8"))["seconds"]
        seconds = "run.json seconds " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items())
    print(f"{n_sites} sites, {n_sites * len(copies)} records: benchmark exit {code}: wall {wall:.2f} s, "
          f"cpu {cpu:.2f} s, peak RSS {rss:.1f} MB; {seconds}", flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fits", type=Path, help="a fits.jsonl whose records are copied")
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--records", dest="n", type=int, default=PAPER_RECORDS,
                      help=f"records in the copy that report reads (default {PAPER_RECORDS:,})")
    size.add_argument("--sites", type=int,
                      help=f"time benchmark at this many sites instead (the paper's: {PAPER_SITES:,})")
    parser.add_argument("--out", type=Path, required=True, help="directory of the copy and its tables")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--records must be >= 1")
    if args.sites is not None and args.sites < 1:
        parser.error("--sites must be >= 1")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    if args.sites is not None:
        code = run_benchmark(args.fits, out, args.sites)
        if code != 0:
            return code
        records = out / "run" / "fits.jsonl"
    else:
        records = out / "fits.jsonl"
        grow(args.fits, records, args.n)
        size_mb = records.stat().st_size / 1e6
        print(f"{args.n} records, {size_mb:.1f} MB, in {records}", flush=True)
    code, wall, cpu, rss = run_child(["-m", "rainfit.cli", "report", "--records", str(records),
                                      "--out", str(out / "tables")])
    print(f"report exit {code}: wall {wall:.2f} s, cpu {cpu:.2f} s, peak RSS {rss:.1f} MB")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
