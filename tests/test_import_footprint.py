"""Importing the CLI pulls in none of the slow standard-library modules.

``dataclasses`` imports ``inspect``, which imports ``ast``, ``dis`` and
``tokenize``; with ``typing`` they are most of the package's import time,
paid by every ``polysimplex`` process.  The check runs in a fresh
interpreter without ``site``, which may preload some of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import polysimplex

SLOW = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
PROBE = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import polysimplex.cli\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)


def test_cli_import_adds_no_slow_module():
    src = Path(polysimplex.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    added = json.loads(out)
    assert "polysimplex.cli" in added
    assert not [name for name in SLOW if name in added]
