"""The package parses under the oldest Python that pyproject.toml promises.

The tests run on a newer interpreter, which accepts syntax the promised
one rejects; ``ast.parse`` with ``feature_version`` checks each module's
grammar against the promised version instead.
"""

import ast
import re
from pathlib import Path

import polysimplex

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_module_parses_at_the_promised_version():
    promise = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(encoding="utf-8"), re.M)
    assert promise
    version = tuple(map(int, promise.groups()))
    modules = sorted(Path(polysimplex.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
