"""Test-session set-up shared by every test module.

One BLAS/OpenMP thread, as the `rainfit` command line uses, unless the
environment already sets the count: pytest imports this file before any
test module imports numpy.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
