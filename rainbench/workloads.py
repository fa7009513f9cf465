"""The benchmark's workloads: each turns a seed into a corpus and a command line.

Each workload is a fixed set of sites: truth parameters and sample sizes
come from a fixed preset draw, so every seed asks for the same kind and
amount of work, as a real corpus would.  The seed draws the samples.  The
program only sees the generated CSV files and manifest, exactly as a
user's corpus would reach it.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EGPD_METHODS = ("naveau-mle", "naveau-pwm", "naveau-mle-c", "naveau-pwm-c")
MIXTURE_METHODS = ("gamma-mixture-2", "gamma-mixture-3", "gamma-mixture-4")

# The K=3 truth of acceptance criterion C6 (weights, shapes, scales).
C6_TRUTH = {"weights": [0.3, 0.5, 0.2], "shapes": [0.5, 2.0, 8.0], "scales": [0.5, 2.0, 5.0]}


@dataclass(frozen=True)
class Workload:
    """One corpus recipe plus the `rainfit benchmark` flags it runs with.

    `egpd_restarts` / `mixture_restarts` of None keep the CLI defaults.  Why
    each workload exists is recorded in BENCHMARK.json.
    """

    name: str
    methods: tuple[str, ...]
    jobs: int
    egpd_restarts: int | None
    mixture_restarts: int | None
    specs: Callable[[int], list]

    def benchmark_flags(self) -> list[str]:
        flags = ["--methods", ",".join(self.methods), "--jobs", str(self.jobs)]
        if self.egpd_restarts is not None:
            flags += ["--egpd-restarts", str(self.egpd_restarts)]
        if self.mixture_restarts is not None:
            flags += ["--mixture-restarts", str(self.mixture_restarts)]
        return flags

    def run_config(self, jobs: int):
        """In-process RunConfig equal to `benchmark_flags`, with its own job count."""
        from rainfit.pipeline import RunConfig

        extra = {}
        if self.egpd_restarts is not None:
            extra["egpd_restarts"] = self.egpd_restarts
        if self.mixture_restarts is not None:
            extra["mixture_restarts"] = self.mixture_restarts
        return RunConfig(methods=self.methods, jobs=jobs, **extra)


def _resampled(specs: list, seed: int) -> list:
    """The same sites with sample seeds drawn from `seed`."""
    return [dataclasses.replace(spec, seed=_site_seed(seed, 0x5A4D, i)) for i, spec in enumerate(specs)]


def _site_seed(seed: int, *path: int) -> int:
    # derive() mixes only the stream id, so the seed goes into the index path.
    from rainfit.numerics import RngState

    return RngState(0).derive(seed, *path).stream


def _paper_mixed(seed: int) -> list:
    # The first two EGPD-truth sites and the first mixture-truth site of
    # the paper-like-50 draw of acceptance criterion C9.
    from rainfit.corpus import build_preset

    specs = build_preset("paper-like-50", 1)
    return _resampled([specs[i] for i in PAPER_MIXED_SITES], seed)


def _mixture_large_n(seed: int) -> list:
    from rainfit.corpus import GeneratorSpec

    return [
        GeneratorSpec(
            site_id=f"c6-{i:03d}",
            family="gamma-mixture",
            params=C6_TRUTH,
            n=20000,
            seed=_site_seed(seed, 0xC6, i),
        )
        for i in range(MIXTURE_LARGE_N_SITES)
    ]


# Each workload is sized so that one `rainfit benchmark` run takes 9-17 s
# on a two-vCPU host: a run of the benchmark repeats it three times, and a
# comparison of two commits (48 runs over both workloads) must end within
# an hour.
PAPER_MIXED_SITES = (0, 1, 25)
MIXTURE_LARGE_N_SITES = 1

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-mixed",
            methods=EGPD_METHODS + MIXTURE_METHODS,
            jobs=2,
            egpd_restarts=2,
            # One restart, not the paper's two, so that three sites fit in
            # the time: the K=4 fits are most of it.
            mixture_restarts=1,
            specs=_paper_mixed,
        ),
        Workload(
            name="mixture-large-n",
            # One start per fit: at n=20,000 a start costs 3-5 s for K=2
            # and 6-10 s for K=3.  Multistart is measured on paper-mixed.
            methods=MIXTURE_METHODS[:2],
            jobs=1,
            egpd_restarts=None,
            mixture_restarts=0,
            specs=_mixture_large_n,
        ),
    )
}


def write_corpus(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Materialize the workload's corpus as site CSVs plus a manifest; return the manifest."""
    from rainfit.corpus import save_site, simulate_corpus, write_manifest

    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for site in simulate_corpus(workload.specs(seed)):
        name = f"{site.site_id}.csv"
        save_site(out_dir / name, site)
        names.append(name)
    manifest = out_dir / "manifest.json"
    write_manifest(manifest, seed, sites=sorted(names))
    return manifest


if __name__ == "__main__":
    # python3 rainbench/workloads.py NAME SEED OUT_DIR, with rainfit importable.
    name, seed, out_dir = sys.argv[1:]
    write_corpus(WORKLOADS[name], int(seed), Path(out_dir))
