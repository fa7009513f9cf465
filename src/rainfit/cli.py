"""Command line interface.

Subcommands: `fit` (one site, one method, JSON record on stdout),
`simulate` (materialize a synthetic corpus to CSV files), `benchmark`
(manifest in, records, report tables and `run.json` out), `report`
(rebuild tables from an existing records file).  README.md states their
flags, exit codes and import rule; `tests/test_readme.py` holds it to this
parser.  Each subcommand imports what it uses when it runs, so `report`,
on the standard library alone, took 0.14 s wall where it had taken 0.32 s
with numpy loaded (medians of 14 alternating pairs, 2-core host).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__
from .evaluation import QuantileSet, summarize
from .pipeline import (
    BLAS_THREAD_VARS,
    METHODS,
    AllFitsFailedError,
    ConfigError,
    RunConfig,
    load_records,
    run_benchmark,
    run_fits,
    write_report_files,
)

# One BLAS/OpenMP thread unless the user chose otherwise.  The fits are
# small-matrix work that extra threads only slow down: a 3-site benchmark
# with two worker processes took about twice the wall time on 2 cores.
# This runs before any module imports numpy: none of the above does.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")


def _parse_methods(text: str | None) -> tuple[str, ...]:
    if text is None or text.strip().lower() == "all":
        return tuple(METHODS)
    methods = tuple(part.strip() for part in text.split(",") if part.strip())
    if not methods:
        raise ConfigError("--methods lists no method names")
    return methods


def _parse_quantiles(text: str | None) -> QuantileSet:
    if text is None:
        return QuantileSet()
    try:
        levels = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--quantiles must be comma-separated numbers, got {text!r}") from None
    if not levels:
        raise ConfigError("--quantiles lists no levels")
    return QuantileSet(tuple(sorted(dict.fromkeys(levels))))


# Each flag's default is RunConfig's.
_DEFAULTS = RunConfig()


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    d = _DEFAULTS
    sub.add_argument("--quantiles", metavar="P1,P2,...", help="quantile levels in (0,1); default the seven benchmark levels")
    sub.add_argument("--threshold-mm", type=float, default=d.threshold_mm, help=f"left-censoring threshold for the -c methods (default {d.threshold_mm})")
    sub.add_argument("--seed", type=int, default=d.seed, help=f"base seed for all fit-stage randomness (default {d.seed})")
    sub.add_argument("--egpd-restarts", type=int, default=d.egpd_restarts, help=f"jittered extra starts for the EGPD fits (default {d.egpd_restarts})")
    sub.add_argument("--mixture-restarts", type=int, default=d.mixture_restarts, help=f"jittered extra starts for the mixture fits (default {d.mixture_restarts})")


# The RunConfig fields that are flags; `fit` has neither --jobs nor --min-wet.
_CONFIG_FLAGS = ("threshold_mm", "seed", "jobs", "egpd_restarts", "mixture_restarts", "min_wet")


def _config_from_args(args, methods: tuple[str, ...]) -> RunConfig:
    flags = {name: getattr(args, name) for name in _CONFIG_FLAGS if hasattr(args, name)}
    return RunConfig(methods=methods, quantiles=_parse_quantiles(args.quantiles), **flags)


def cmd_fit(args) -> int:
    from .corpus import load_site

    series = load_site(args.site)
    config = _config_from_args(args, (args.method,))
    (record,) = run_fits([series], config)
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not record["converged"]:
        label = record["error"] or "did not converge"
        print(f"fit failed: {label}", file=sys.stderr)
        return 4
    return 0


def cmd_simulate(args) -> int:
    from .corpus import build_preset, load_manifest, save_site, simulate_corpus, write_manifest

    if args.preset is not None:
        specs = build_preset(args.preset, args.seed)
        seed = args.seed
    else:
        manifest = load_manifest(args.manifest)
        if not manifest.generators:
            raise ConfigError(f"{args.manifest}: manifest has no generators to simulate")
        if Path(args.out, "manifest.json").resolve() == Path(args.manifest).resolve():
            raise ConfigError(f"{args.manifest}: --out would overwrite this input manifest")
        specs = list(manifest.generators)
        seed = manifest.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sites = simulate_corpus(specs)
    names = []
    for site in sites:
        name = f"{site.site_id}.csv"
        save_site(out_dir / name, site)
        names.append(name)
    write_manifest(out_dir / "manifest.json", seed, sites=sorted(names))
    truth = {spec.site_id: spec.to_dict() for spec in specs}
    (out_dir / "truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(sites)} sites, manifest.json and truth.json to {out_dir}")
    return 0


def cmd_benchmark(args) -> int:
    methods = _parse_methods(args.methods)
    config = _config_from_args(args, methods)
    summary = run_benchmark(args.manifest, args.out, config)
    for line in summary.warnings:
        print(f"warning: {line}", file=sys.stderr)
    out_dir = Path(args.out)
    print(f"fits and tables written to {out_dir}")
    print((out_dir / "medians.txt").read_text(encoding="utf-8"), end="")
    return 0


def cmd_report(args) -> int:
    qset = None if args.quantiles is None else _parse_quantiles(args.quantiles)
    # One pass: the records go straight from the file into the summary,
    # and no table is written before the last line is read.
    summary = summarize(load_records(args.records), qset, order=tuple(METHODS))
    for m in METHODS:
        if m not in summary.methods:
            print(f"warning: no records for method {m}", file=sys.stderr)
    for line in summary.warnings:
        print(f"warning: {line}", file=sys.stderr)
    write_report_files(args.out, summary, svg=args.svg)
    print(f"tables written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainfit",
        description="Fit and compare parametric models of wet-day rainfall distributions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one method to one site CSV and print the record")
    p_fit.add_argument("site", help="site CSV (header 'date,rainfall_mm')")
    p_fit.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    _add_run_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="write a synthetic corpus (CSVs, manifest, truth)")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named corpus recipe; an unknown name lists the known ones")
    group.add_argument("--manifest", help="manifest JSON with generator entries")
    p_sim.add_argument("--seed", type=int, default=1, help="corpus seed for --preset (default 1)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="fit all methods over a corpus and write report files")
    p_bench.add_argument("--manifest", required=True, help="corpus manifest JSON")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--methods", metavar="M1,M2,...", help="methods to run (default: all seven)")
    p_bench.add_argument("--jobs", type=int, default=_DEFAULTS.jobs, help=f"worker processes (default {_DEFAULTS.jobs}); outputs do not depend on it")
    p_bench.add_argument("--min-wet", type=int, default=_DEFAULTS.min_wet, help=f"drop sites with fewer wet days (default {_DEFAULTS.min_wet})")
    _add_run_flags(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    p_rep = sub.add_parser("report", help="rebuild report tables from an existing fits.jsonl")
    p_rep.add_argument("--records", required=True, help="records file from a benchmark run")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--quantiles", metavar="P1,P2,...", help="subset of recorded levels (default: all recorded)")
    p_rep.add_argument("--svg", action="store_true", help="also write one boxplot SVG per quantile level")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except AllFitsFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> NoReturn:
    """The process entry: `main`, then flush and exit without teardown.

    `os._exit` skips the module clearing and collector passes over numpy
    and scipy, which took 11-14 ms of a `report` and 27-29 ms of a
    `mixture-large-n` benchmark run (median paired differences over two
    sets of 15 alternating pairs, 2-core host).  Nothing is lost: every
    file a command writes is closed before `main` returns, `run_fits`
    reaps every worker it forked, and rainfit registers no `atexit`
    handler.  A failed flush is status 120, as CPython's own exit gives.
    """
    try:
        code = main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when the process started with the fd closed
                stream.flush()
        except OSError:
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
