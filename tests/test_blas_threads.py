"""The BLAS thread policy: every qmemsim process, a --jobs worker too, runs
its BLAS on one thread unless OPENBLAS_NUM_THREADS says otherwise.  The
largest products are stacks of 45 x 45 blocks, too small for a second
thread to help; under default threading its worker spins through every
RK4 stretch.  Each check runs in a fresh interpreter, since the setting
only counts before numpy loads."""

import os
import subprocess
import sys

import pytest


def run_python(code, **env):
    """stdout of `python -c code` with OPENBLAS_NUM_THREADS removed from the
    environment, plus the given variables."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**base, **env})
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_sets_one_blas_thread_unless_the_user_set_one():
    code = "import os, qmemsim; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code) == "1"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the threads in /proc/self/task")
def test_a_blas_product_starts_no_second_thread():
    code = ("import os, qmemsim, numpy as np\n"
            "x = np.ones((300, 300))\n"
            "x @ x\n"
            "print(len(os.listdir('/proc/self/task')))")
    assert run_python(code) == "1"


def test_jobs_workers_inherit_one_blas_thread():
    code = ("import os\n"
            "from qmemsim import cli\n"
            "print(cli._pmap(os.getenv, ['OPENBLAS_NUM_THREADS'] * 2, 2))")
    assert run_python(code) == "['1', '1']"
