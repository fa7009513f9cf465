#!/usr/bin/env python3
"""Time `rainfit report` on a records file grown to a given number of records.

    python3 scripts/report_scale.py run/fits.jsonl --out scale      # 118,776 records
    python3 scripts/report_scale.py run/fits.jsonl --out scale --records 20000

The records of the given `fits.jsonl` are copied, round after round, under
new site ids (`c<round>-<site id>`) until there are --records of them; the
paper scores seven methods at 16,968 sites, 118,776 records.  The copy is
written to --out/fits.jsonl, one sorted-key JSON line per record as
`rainfit benchmark` writes them.  Then `python -m rainfit.cli report` runs
on it in a child process, with PYTHONDONTWRITEBYTECODE=1 and the `src/` of
this checkout first on PYTHONPATH, and writes its tables to --out/tables.

The last line on stdout gives the report's exit code, its wall time, its
CPU time (user + system) and its peak resident set size, the last two
from `os.wait4`.  The exit code is the report's.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PAPER_RECORDS = 7 * 16_968


def grow(source: Path, target: Path, n: int) -> None:
    """Write n records to target: the records of source, copied under new site ids."""
    with open(source, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records:
        raise SystemExit(f"{source}: no records")
    with open(target, "w", encoding="utf-8", newline="") as fh:
        for i in range(n):
            copy, k = divmod(i, len(records))
            record = records[k]
            fh.write(json.dumps({**record, "site_id": f"c{copy}-{record['site_id']}"}, sort_keys=True) + "\n")


def run_report(records: Path, out: Path) -> tuple[int, float, float, float]:
    """Run `rainfit report` on records; (exit code, wall s, CPU s, peak RSS MB)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "rainfit.cli", "report", "--records", str(records), "--out", str(out)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    # ru_maxrss is in kilobytes on Linux.
    return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fits", type=Path, help="a fits.jsonl whose records are copied")
    parser.add_argument("--records", dest="n", type=int, default=PAPER_RECORDS,
                        help=f"records in the copy (default {PAPER_RECORDS:,})")
    parser.add_argument("--out", type=Path, required=True, help="directory of the copy and its tables")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--records must be >= 1")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    grow(args.fits, out / "fits.jsonl", args.n)
    size_mb = (out / "fits.jsonl").stat().st_size / 1e6
    print(f"{args.n} records, {size_mb:.1f} MB, in {out / 'fits.jsonl'}", flush=True)
    code, wall, cpu, rss = run_report(out / "fits.jsonl", out / "tables")
    print(f"report exit {code}: wall {wall:.2f} s, cpu {cpu:.2f} s, peak RSS {rss:.1f} MB")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
