"""Slot-level simulator of XR traffic over a 5G-Advanced NR cell."""

import os

# xrsim uses numpy for random draws only and never calls BLAS, whose worker
# threads, one per extra core, spin after numpy starts them; this runs
# before any submodule imports numpy, and a value already set is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
