"""Every module of the package uses each name it imports.

``__init__.py`` imports to re-export and is left out; elsewhere a
deliberate re-export is written ``from .m import NAME as NAME``.
"""

import ast
from pathlib import Path

import polysimplex


def test_every_imported_name_is_used():
    modules = sorted(p for p in Path(polysimplex.__file__).parent.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname is not None and alias.asname == alias.name:
                        continue
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"imported but unused: {unused}"
