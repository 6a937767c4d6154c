"""The runtime needs nothing beyond the standard library, as the README promises.

Other packages may be installed where the tests run, so importing the
package proves nothing; every import statement of its modules is checked.
"""

import ast
import sys
from pathlib import Path

import polysimplex


def test_every_import_is_relative_or_standard_library():
    modules = sorted(Path(polysimplex.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"
