"""Test-session set-up shared by every test module.

One BLAS/OpenMP thread, as the `rainfit` command line uses, unless the
environment already sets the count: pytest imports this file before any
test module imports numpy, and `rainfit.pipeline` loads no numpy.
"""

import os

from rainfit.pipeline import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
