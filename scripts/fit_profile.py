#!/usr/bin/env python3
"""Fit chosen methods to a corpus and print what each fit cost, as JSON.

    python3 scripts/fit_profile.py --preset paper-like-50 --seed 1 --sites 0,1,25
    python3 scripts/fit_profile.py --manifest corpus/manifest.json --methods naveau-pwm-c

The corpus is a preset draw (optionally a subset of its site indices) or a
manifest.  Sites below --min-wet are dropped, and the rest go to
`run_fits` with one job, as `rainfit benchmark` sends them, so a fit here
is the benchmark's fit of the same corpus and flags.  The fits run in this
process, after `pipeline.preload_fits` (which `run_fits` itself calls)
has loaded what they call, and after one untimed warm-up fit.  One BLAS
thread is used unless the environment already sets the thread count.

The JSON has one record per fit (evaluations, seconds, objective, residual,
converged, restarts at the best objective) and, per method, the totals and
medians of evaluations and seconds, and the microseconds per evaluation
(total seconds over total evaluations: the objective plus the optimizer's
own work around it).  A fit's seconds are its record's `fit_seconds`: the
fit and its fitted quantiles, not the site's empirical quantiles.  An
`environment` block records the CPU seconds `preload_fits` took
(`preload_s`, before any site is drawn), the Python, numpy and scipy
versions, the CPU count, the three BLAS thread variables, and the scipy
modules in `sys.modules` and whether numpy.random is among them
(`numpy_random_loaded`) when the fits were done.  No fit loads
numpy.random, but drawing a preset or a manifest's generator sites in this
process does, so it reads false only for a corpus of site files.
Evaluation counts repeat exactly for a given corpus and code; seconds do
not.  Run it with PYTHONPATH pointing at the `src/` of the checkout to
measure.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import statistics
import sys
import time


def _sites(args):
    from rainfit.corpus import build_preset, filter_corpus, load_manifest, simulate_corpus
    from rainfit.pipeline import materialize_corpus

    if args.manifest:
        sites = materialize_corpus(load_manifest(args.manifest))
    else:
        specs = build_preset(args.preset, args.seed)
        if args.sites:
            specs = [specs[int(i)] for i in args.sites.split(",")]
        sites = simulate_corpus(specs)
    kept, _ = filter_corpus(sites, args.min_wet)
    return kept


def _environment(preload_s: float) -> dict:
    from importlib.metadata import version

    return {
        "preload_s": preload_s,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),  # from its metadata: importing the package would load it
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "scipy_modules": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
        "numpy_random_loaded": "numpy.random" in sys.modules,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="corpus preset, e.g. paper-like-50")
    source.add_argument("--manifest", help="corpus manifest JSON")
    parser.add_argument("--seed", type=int, default=1, help="preset draw and fit seed (default 1)")
    parser.add_argument("--sites", help="comma-separated preset site indices (default all)")
    parser.add_argument("--methods", help="comma-separated methods (default all seven)")
    # Restart defaults are the paper-mixed benchmark workload's.
    parser.add_argument("--egpd-restarts", type=int, default=2)
    parser.add_argument("--mixture-restarts", type=int, default=1)
    parser.add_argument("--threshold-mm", type=float, default=1.0)
    parser.add_argument("--min-wet", type=int, default=100)
    args = parser.parse_args(argv)

    from rainfit.numerics import RngState
    from rainfit.pipeline import METHODS, RunConfig, preload_fits, run_fits, run_single_fit

    config = RunConfig(
        methods=tuple(args.methods.split(",")) if args.methods else tuple(METHODS),
        seed=args.seed,
        threshold_mm=args.threshold_mm,
        egpd_restarts=args.egpd_restarts,
        mixture_restarts=args.mixture_restarts,
        min_wet=args.min_wet,
        jobs=1,
    )
    t0 = time.process_time()
    preload_fits(config)  # before any fit is timed, as run_fits does
    preload_s = time.process_time() - t0
    sites = _sites(args)
    run_single_fit(sites[0], config.methods[0], config, RngState(config.seed))  # warm-up

    fits = []
    for record in run_fits(sites, config):
        diag = record["diagnostics"]
        fits.append({
            "site": record["site_id"],
            "method": record["method"],
            "n": record["n_wet"],
            "n_eval": diag.get("n_eval"),
            "seconds": record["fit_seconds"],
            "objective": diag.get("objective"),
            "residual": diag.get("residual"),
            "converged": record["converged"],
            "restarts_at_best": diag.get("restarts_at_best"),
            "error": record["error"],
        })

    per_method = {}
    for method in config.methods:
        rows = [f for f in fits if f["method"] == method]
        evals = [f["n_eval"] or 0 for f in rows]
        secs = [f["seconds"] for f in rows]
        per_method[method] = {
            "fits": len(rows),
            "failed": sum(not f["converged"] for f in rows),
            "n_eval_total": sum(evals),
            "n_eval_median": statistics.median(evals),
            "seconds_total": sum(secs),
            "seconds_median": statistics.median(secs),
            "us_per_eval": 1e6 * sum(secs) / sum(evals) if sum(evals) else None,
        }
    json.dump({"environment": _environment(preload_s), "methods": per_method, "fits": fits}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
