"""Test-session setup, loaded before any test module imports numpy.

Training is single-threaded by contract, so the suite pins every BLAS
library numpy may load to one thread. The variables are read when the
library loads, so they must be set before the first ``import numpy``;
pytest and its hypothesis plugin import none. Subprocesses started by
tests inherit them.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
