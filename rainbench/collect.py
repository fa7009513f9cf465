#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarize it; writes the baseline file.

    python3 rainbench/collect.py --seeds 1-10 --trace-seeds 1,2 --out rainbench/baseline.json

Runs `run.py --trace 0` once per (seed, workload), the workloads interleaved
and their order rotated from seed to seed, then `run.py --trace 1` once per
(trace seed, workload).  For every end-to-end metric it reports the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, against the metric's bound in BENCHMARK.json.  It also checks
that runs of the same (workload, seed) wrote byte-identical tables.
Exit code 1 if any run failed its checks or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    results_path = ROOT / ".rainbench-out" / f"{workload}-seed{seed}-trace{trace}" / "results.json"
    results = json.loads(results_path.read_text())
    outcome = results["outcomes"][workload]
    values = outcome["metrics"]
    print(f"{workload:<17} seed {seed:>3} trace {trace}: exit {proc.returncode}, "
          f"{summary['failed']}/{summary['attempted']} failed; "
          + ", ".join(f"{k} {v:.4g}" for k, v in list(values.items())[:3]), flush=True)
    return {"seed": seed, "exit": proc.returncode, "values": values,
            "environment": results["environment"], "detail": outcome["detail"],
            "problems": outcome["problems"]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def table_digests(run: dict, trace: int) -> dict | None:
    detail = run["detail"]
    if trace:
        return detail.get("tables_sha256")
    runs = detail.get("runs") or []
    return runs[0]["tables_sha256"] if runs else None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs, e.g. 1,2")
    parser.add_argument("--workloads", default=",".join(workloads))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    trace_seeds = parse_seeds(args.trace_seeds) if args.trace_seeds else []

    untraced = {w: [] for w in chosen}
    for i, seed in enumerate(seeds):
        for w in chosen[i % len(chosen):] + chosen[:i % len(chosen)]:
            untraced[w].append(run_once(w, seed, args.seconds, 0))
    traced = {w: [run_once(w, seed, args.seconds, 1) for seed in trace_seeds] for w in chosen}

    ok = True
    summary = {"environment": None, "seeds": seeds, "trace_seeds": trace_seeds,
               "run_seconds": args.seconds, "workloads": {}}
    for w in chosen:
        runs = untraced[w] + traced[w]
        failed = [f"seed {r['seed']}: {p}" for r in runs for p in r["problems"]]
        failed += [f"seed {r['seed']}: exit {r['exit']}" for r in runs if r["exit"] != 0]
        by_seed: dict[int, set] = {}
        for trace, group in ((0, untraced[w]), (1, traced[w])):
            for r in group:
                digests = table_digests(r, trace)
                by_seed.setdefault(r["seed"], set()).add(json.dumps(digests, sort_keys=True))
        failed += [f"seed {s}: tables differ between runs" for s, d in by_seed.items() if len(d) > 1]
        metrics = {}
        print(f"\n{w}: {len(untraced[w])} untraced runs")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for name in untraced[w][0]["values"] if untraced[w] else []:
            values = [r["values"][name] for r in untraced[w]]
            entry = {"bound": bounds.get(name), "values": values}
            if len(values) >= 2:
                entry.update(spread(values))
                within = name not in bounds or entry["spread"] <= bounds[name]
                ok &= within
                print(f"  {name:<16} median {entry['median']:<12.6g} IQR/median {entry['spread']:.3f} "
                      f"{'(bound ' + str(bounds[name]) + ')' if name in bounds else '(not in BENCHMARK.json)'}"
                      f"{'' if within else '  EXCEEDS BOUND'}")
            metrics[name] = entry
        layers = {}
        for r in traced[w]:
            layers[str(r["seed"])] = {"metrics": r["values"], "counts": r["detail"]["counts"]}
        for problem in failed:
            print(f"  FAILED: {problem}")
        ok &= not failed
        summary["workloads"][w] = {"end_to_end": metrics, "per_layer_by_seed": layers,
                                   "problems": failed}
        if runs:
            summary["environment"] = {k: v for k, v in runs[0]["environment"].items() if k != "seed"}

    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
