"""Importing xrsim starts no BLAS worker thread, since xrsim never calls
BLAS, and keeps an OPENBLAS_NUM_THREADS that the user has set. Each case
starts one interpreter, one at a time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
STATUS = Path("/proc/self/status")

_REPORT = """\
import os
import xrsim.cellsim
threads = [line.split()[1] for line in open("/proc/self/status")
           if line.startswith("Threads:")]
print(threads[0], os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def _after_import(blas_threads=None):
    """(threads, OPENBLAS_NUM_THREADS) of a fresh interpreter that imported
    xrsim, with the variable unset or set to blas_threads beforehand."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = subprocess.run([sys.executable, "-c", _REPORT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    threads, value = out.stdout.split()
    return int(threads), value


@pytest.mark.skipif(not STATUS.exists(), reason="no /proc/self/status")
def test_import_starts_no_blas_worker():
    assert _after_import() == (1, "1")


@pytest.mark.skipif(not STATUS.exists(), reason="no /proc/self/status")
def test_a_set_blas_thread_count_is_kept():
    assert _after_import("2")[1] == "2"
