import subprocess
import sys
import textwrap

import pytest


def _run_at_blas_threads(script, threads):
    script = textwrap.dedent(f"""
        import os
        os.environ["OPENBLAS_NUM_THREADS"] = "{threads}"
        import numpy as np
        assert len(os.listdir("/proc/self/task")) == {threads}
        """) + textwrap.dedent(script)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture()
def one_blas_thread():
    """Run a script in a fresh interpreter whose BLAS has one thread (Linux:
    the script checks that the process has one thread).  ``np`` is imported."""
    return lambda script: _run_at_blas_threads(script, 1)


@pytest.fixture()
def blas_threads():
    """Like ``one_blas_thread``, at a given BLAS thread count:
    ``blas_threads(script, threads)``."""
    return _run_at_blas_threads
