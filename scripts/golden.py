#!/usr/bin/env python3
"""Regenerate the golden runs that `tests/test_golden.py` checks.

    python3 scripts/golden.py

Runs a default `rainfit benchmark` from this checkout's `src` on the
six-site corpus in `tests/golden/corpus` (the first three EGPD-truth and
the first three mixture-truth sites of `paper-like-50` seed 1) once per
SIMD target in `TARGETS`, side by side, then replaces the files in
`tests/golden/benchmark/<target>` with what `same_outputs.golden_files`
keeps of each run: `fits.jsonl` without `fit_seconds`, the five tables,
and `environment.json`, the numpy and scipy versions and numpy's
dispatch targets it ran on.

Run it on a CPU with AVX-512, the only kind that makes both sets.  A
change that moves a fit runs this and lists each changed cell in
CHANGES.md; the golden files' diff shows what moved.  Standard library
only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_outputs import CommandFailed, golden_files  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# Each golden set, and the environment its run gets.  numpy picks its SIMD
# code from the CPU, and `no-avx512` is the AVX2 path a CPU without
# AVX-512 takes.  OpenBLAS picks its kernels from the CPU too (SkylakeX on
# an AVX-512 Xeon, Zen on AMD), and they move fit bits, so both sets hold
# it to its Haswell kernels, which every CPU with AVX2 runs.
TARGETS = {
    "default": {"OPENBLAS_CORETYPE": "Haswell"},
    "no-avx512": {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


def golden_runs(work: Path) -> dict[str, dict[str, bytes]]:
    """`golden_files` of a default `benchmark` of the golden corpus under each of `TARGETS`."""
    procs = {}
    for name, env in TARGETS.items():
        argv = [sys.executable, "-m", "rainfit.cli", "benchmark",
                "--manifest", str(GOLDEN / "corpus" / "manifest.json"), "--out", str(work / name)]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"), **env)
        procs[name] = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    stderr = {name: proc.communicate()[1] for name, proc in procs.items()}
    for name, proc in procs.items():
        if proc.returncode != 0:
            raise CommandFailed(f"the {name} golden run exited {proc.returncode}:\n{stderr[name].strip()}")
    return {name: golden_files(work / name) for name in TARGETS}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        runs = golden_runs(Path(tmp))
    if len({files["environment.json"] for files in runs.values()}) < len(runs):
        print("two targets ran the same SIMD code: run this on a CPU with AVX-512", file=sys.stderr)
        return 1
    for name, files in runs.items():
        target = GOLDEN / "benchmark" / name
        target.mkdir(parents=True, exist_ok=True)
        for path in target.iterdir():
            path.unlink()
        for file, data in files.items():
            (target / file).write_bytes(data)
        print(f"wrote {len(files)} files to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
