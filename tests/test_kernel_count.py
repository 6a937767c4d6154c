"""One ``demo`` process generates a fixed number of staged kernels.

Every kernel shape is generated and compiled once per process, at about
0.3 ms apiece, and no cache outlives the process, so a change that adds
words or shapes to the pipeline adds to the cost of every run.  The count
is taken in a fresh interpreter, whose kernel cache starts empty: the
pipeline compiles 29 kernels whatever the group, 13 of them for the
Hopf-law words of ``check_axioms``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polysimplex

PROBE = (
    "import contextlib, io, sys\n"
    "from polysimplex import cli, tensor\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(['demo', '--group', sys.argv[1]])\n"
    "print(code, tensor._staged_kernel.cache_info().misses)\n"
)


@pytest.mark.parametrize("group", ["z2", "z3"])
def test_demo_generates_29_kernels(group):
    src = Path(polysimplex.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("POLYSIMPLEX_SCALAR", None)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, group], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.split() == ["0", "29"]
