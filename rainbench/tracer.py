"""In-process tracing of one `run_benchmark` call, from outside the package.

`Tracer.installed()` replaces public functions in the rainfit modules'
globals with wrappers that record spans (coarse boundaries: phases, fits,
simplex runs) and counters with summed time (fine boundaries: kernels
called thousands of times per fit).  Every module looks these names up in
its own globals at call time, so nothing under `src/` needs to change.  The
originals are put back when the context exits.

Counts (calls, objective evaluations, simplex runs) are deterministic for a
given corpus and config; times are not.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_NOW = time.perf_counter

# (module, global name, counter key): kernels timed and counted per call.
_COUNTED = (
    ("gamma_mixture", "log_posterior", "gamma_mixture.log_posterior"),
    ("gamma_mixture", "mixture_log_pdf", "gamma_mixture.mixture_log_pdf"),
    ("egpd", "egpd_log_pdf", "egpd.log_pdf"),
    ("egpd", "conditional_pwms", "egpd.conditional_pwms"),
    # Site-level sample quantiles: the pipeline's empirical columns and the
    # mixtures' quantile-sliced start.  Each call sorts the whole site.
    ("pipeline", "empirical_quantile", "empirical.quantile"),
    ("gamma_mixture", "empirical_quantile", "empirical.quantile"),
    # Fitted-model quantiles, looked up by the pipeline's method runners.
    ("pipeline", "egpd_quantile", "egpd.quantile"),
    ("pipeline", "mixture_quantile", "gamma_mixture.quantile"),
)

# pipeline globals that get a span each.
_SPANNED = ("load_site", "run_fits", "summarize", "write_records", "write_report_files")

# A start "reached the best mode" when its final objective is within this
# relative distance of the fit's best; the absolute floor covers moment fits
# whose best residual is zero.
BEST_RTOL = 1e-6
BEST_ATOL = 1e-12


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.rows = 0
        self._fit: dict | None = None
        self.fits: list[dict] = []

    # --- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start": _NOW(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = _NOW()
            self._stack.pop()

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    # --- wrappers ------------------------------------------------------------

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            t0 = _NOW()
            try:
                return fn(*args, **kwargs)
            finally:
                self.secs[key] += _NOW() - t0
                self.calls[key] += 1

        return wrapper

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(f"pipeline.{name}"):
                result = fn(*args, **kwargs)
            if name == "load_site":
                self.rows += result.n_wet
            return result

        return wrapper

    def _single_fit(self, fn):
        def wrapper(series, method, config, rng):
            self._fit = {"method": method, "evals": 0, "values": []}
            with self.span("pipeline.run_single_fit", method=method, site=series.site_id) as sp:
                result = fn(series, method, config, rng)
            self._fit["seconds"] = sp["end"] - sp["start"]
            self.fits.append(self._fit)
            self._fit = None
            return result

        return wrapper

    def _nelder_mead(self, family: str, fn):
        def wrapper(f, x0, **kwargs):
            obj_secs = 0.0
            evals = 0

            def objective(x):
                nonlocal obj_secs, evals
                t0 = _NOW()
                try:
                    return f(x)
                finally:
                    obj_secs += _NOW() - t0
                    evals += 1

            lp_before = self.secs["gamma_mixture.log_posterior"]
            with self.span("numerics.nelder_mead", family=family) as sp:
                result = fn(objective, x0, **kwargs)
            total = sp["end"] - sp["start"]
            self.calls["numerics.nm_runs"] += 1
            self.calls["numerics.nm_unconverged"] += int(not result.converged)
            self.calls["numerics.nm_iters"] += result.n_iter
            self.calls["numerics.obj_evals"] += evals
            self.calls[f"numerics.obj_evals.{family}"] += evals
            self.secs["numerics.nm_self"] += total - obj_secs
            self.secs[f"numerics.objective.{family}"] += obj_secs
            self.secs["numerics.objective_log_posterior"] += (
                self.secs["gamma_mixture.log_posterior"] - lp_before
            )
            if self._fit is not None:
                self._fit["evals"] += evals
                self._fit["values"].append(result.value)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the rainfit module globals for the duration of the block."""
        import rainfit.egpd
        import rainfit.gamma_mixture
        import rainfit.pipeline

        modules = {"egpd": rainfit.egpd, "gamma_mixture": rainfit.gamma_mixture,
                   "pipeline": rainfit.pipeline}
        patches = [(modules[m], name, self._counted(key, getattr(modules[m], name)))
                   for m, name, key in _COUNTED]
        pipeline = rainfit.pipeline
        patches += [(pipeline, name, self._spanned(name, getattr(pipeline, name)))
                    for name in _SPANNED]
        patches.append((pipeline, "run_single_fit", self._single_fit(pipeline.run_single_fit)))
        patches.append((rainfit.egpd, "nelder_mead",
                        self._nelder_mead("egpd", rainfit.egpd.nelder_mead)))
        patches.append((rainfit.gamma_mixture, "nelder_mead",
                        self._nelder_mead("mixture", rainfit.gamma_mixture.nelder_mead)))
        originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    # --- derived figures -----------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every deterministic count, for comparing two traced runs."""
        out = {k: v for k, v in self.calls.items()}
        out["corpus.rows"] = self.rows
        for fit in self.fits:
            key = f"fit_evals.{fit['method']}"
            out[key] = out.get(key, 0) + fit["evals"]
        return dict(sorted(out.items()))

    def per_fit_evals(self, method: str) -> float:
        evals = [f["evals"] for f in self.fits if f["method"] == method]
        return sum(evals) / len(evals) if evals else 0.0

    def median_fit_seconds(self, method: str) -> float:
        secs = [f["seconds"] for f in self.fits if f["method"] == method]
        return statistics.median(secs) if secs else 0.0

    def restarts_at_best(self, prefix: str) -> float:
        """Share of simplex starts that ended at their fit's best objective."""
        hit = total = 0
        for fit in self.fits:
            if not fit["method"].startswith(prefix) or not fit["values"]:
                continue
            best = min(fit["values"])
            total += len(fit["values"])
            hit += sum(abs(v - best) <= BEST_RTOL * abs(best) + BEST_ATOL for v in fit["values"])
        return hit / total if total else 0.0

    def per_call_us(self, key: str) -> float:
        n = self.calls.get(key, 0)
        return 1e6 * self.secs[key] / n if n else 0.0
