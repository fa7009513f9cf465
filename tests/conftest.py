"""Test-session set-up shared by every test module.

No bytecode is written, by this process or by any process a test starts,
so a test run leaves no `__pycache__` under `src/`.  One BLAS/OpenMP
thread, as the `rainfit` command line uses, unless the environment
already sets the count: pytest imports this file before any test module
imports numpy, and `rainfit.pipeline` loads no numpy.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from rainfit.pipeline import BLAS_THREAD_VARS  # noqa: E402 - after the bytecode setting

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
