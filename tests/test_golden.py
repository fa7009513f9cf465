"""The golden runs: a default `benchmark` of a six-site corpus, pinned.

`tests/golden/corpus` holds the first three EGPD-truth and the first
three mixture-truth sites of `paper-like-50` seed 1 (`site-000` to
`site-002`, `site-025` to `site-027`), chosen by that rule alone, as
files: `simulate` writes other EGPD-truth values on another SIMD target.
`tests/golden/benchmark/<target>` holds what `scripts/golden.py` kept of
a run on them under each of its `TARGETS`: numpy's default dispatch and
its AVX2 path, both with OpenBLAS's Haswell kernels.  Each run whose
numpy, scipy and dispatch targets (`environment.json`) are its golden
set's must give that set's bytes; a CPU without AVX-512 checks only the
AVX2 set.  A change that moves a fit fails here, listing the cells that
moved beyond the AVX-512/AVX2 difference, until the golden sets are
regenerated.  Another numpy, scipy or CPU family has no golden set: it
would differ in `n_eval` totals (CHANGES.md), so it is skipped.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from golden import GOLDEN, golden_runs  # noqa: E402
from same_outputs import numeric_differences  # noqa: E402


def test_a_default_benchmark_of_the_golden_corpus_gives_each_golden_set_made_on_its_target(tmp_path):
    compared = []
    for name, run in golden_runs(tmp_path).items():
        golden = {file: (GOLDEN / "benchmark" / name / file).read_bytes() for file in run}
        if run["environment.json"] != golden["environment.json"]:
            continue
        compared.append(name)
        assert [file for file in run if run[file] != golden[file]] == [], numeric_differences(golden, run)
    if not compared:
        pytest.skip("no golden set was made on this numpy, scipy and SIMD target")
