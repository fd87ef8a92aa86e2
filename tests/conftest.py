import subprocess
import sys
import textwrap

import pytest


@pytest.fixture()
def one_blas_thread():
    """Run a script in a fresh interpreter whose BLAS has one thread (Linux:
    the script checks that the process has one thread).  ``np`` is imported."""
    def run(script):
        script = textwrap.dedent("""
            import os
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            import numpy as np
            assert len(os.listdir("/proc/self/task")) == 1
            """) + textwrap.dedent(script)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    return run
