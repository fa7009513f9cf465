"""Command line interface.

Subcommands: `fit` (one site, one method, JSON record on stdout),
`simulate` (materialize a synthetic corpus to CSV files), `benchmark`
(manifest in, records + report tables out), `report` (rebuild tables from
an existing records file).

Exit codes: 0 success, 2 configuration or data problems, 3 filesystem
problems, 4 "ran but failed" (a non-converged single fit, or a benchmark
where every fit failed).
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread unless the user chose otherwise.  The fits are
# small-matrix work that extra threads only slow down: a 3-site benchmark
# with two worker processes took about twice the wall time on 2 cores.
# This runs before any module here imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import (
    CorpusError,
    PRESETS,
    build_preset,
    load_manifest,
    load_site,
    save_site,
    simulate_corpus,
    write_manifest,
)
from .evaluation import PAPER_METHOD_ORDER, QuantileSet
from .pipeline import (
    AllFitsFailedError,
    ConfigError,
    RunConfig,
    known_methods,
    load_records,
    run_benchmark,
    run_fits,
    summarize_results,
    write_report_files,
)


def _parse_methods(text: str | None) -> tuple[str, ...]:
    if text is None or text.strip().lower() == "all":
        return PAPER_METHOD_ORDER
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


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--quantiles", metavar="P1,P2,...", help="quantile levels in (0,1); default the seven benchmark levels")
    sub.add_argument("--threshold-mm", type=float, default=1.0, help="left-censoring threshold for the -c methods (default 1.0)")
    sub.add_argument("--seed", type=int, default=1, help="base seed for all fit-stage randomness (default 1)")
    sub.add_argument("--egpd-restarts", type=int, default=4, help="jittered extra starts for the EGPD fits (default 4)")
    sub.add_argument("--mixture-restarts", type=int, default=7, help="jittered extra starts for the mixture fits (default 7)")
    sub.add_argument("--timeout-s", type=float, default=60.0, help="per-fit wall-clock budget; slower fits are flagged (default 60)")


def _config_from_args(args, methods: tuple[str, ...]) -> RunConfig:
    return RunConfig(
        methods=methods,
        quantiles=_parse_quantiles(args.quantiles),
        threshold_mm=args.threshold_mm,
        seed=args.seed,
        jobs=getattr(args, "jobs", 1),
        egpd_restarts=args.egpd_restarts,
        mixture_restarts=args.mixture_restarts,
        timeout_s=args.timeout_s,
        min_wet=getattr(args, "min_wet", 100),
        svg=getattr(args, "svg", False),
    )


def cmd_fit(args) -> int:
    series = load_site(args.site)
    config = _config_from_args(args, (args.method,))
    result = run_fits([series], config)[0]
    json.dump(result.to_record(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if result.error is not None or not result.converged:
        label = result.error if result.error is not None else "did not converge"
        print(f"fit failed: {label}", file=sys.stderr)
        return 4
    return 0


def cmd_simulate(args) -> int:
    if (args.preset is None) == (args.manifest is None):
        raise ConfigError("exactly one of --preset and --manifest is required")
    if args.preset is not None:
        specs = build_preset(args.preset, args.seed)
        seed = args.seed
    else:
        manifest = load_manifest(args.manifest)
        if not manifest.generators:
            raise ConfigError(f"{args.manifest}: manifest has no generators to simulate")
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
    results = load_records(args.records)
    if not results:
        raise ConfigError(f"{args.records}: no records")
    qset = _parse_quantiles(args.quantiles) if args.quantiles else None
    summary = summarize_results(results, qset)
    present = {r.method for r in results}
    for m in PAPER_METHOD_ORDER:
        if m not in present:
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
    p_fit.add_argument("--method", required=True, help=f"one of {', '.join(known_methods())}")
    _add_run_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="write a synthetic corpus (CSVs, manifest, truth)")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESETS, help="named corpus recipe")
    group.add_argument("--manifest", help="manifest JSON with generator entries")
    p_sim.add_argument("--seed", type=int, default=1, help="corpus seed for --preset (default 1)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="fit all methods over a corpus and write report files")
    p_bench.add_argument("--manifest", required=True, help="corpus manifest JSON")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--methods", metavar="M1,M2,...", help="methods to run (default: all seven)")
    p_bench.add_argument("--jobs", type=int, default=1, help="worker processes (default 1); outputs do not depend on it")
    p_bench.add_argument("--min-wet", type=int, default=100, help="drop sites with fewer wet days (default 100)")
    p_bench.add_argument("--svg", action="store_true", help="also write one boxplot SVG per quantile level")
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
    except (ConfigError, CorpusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
