"""Every module-level function and class of the package is used.

A definition counts as used when some module of the package reads its
name (as a name, an attribute or an import) anywhere but in its own
definition line, or when ``__init__.py`` re-exports it.  The allowed
names are bound by name from outside the package: the benchmark tracer
(``perfbench/tracing.py``) wraps them, as ``test_trace_hooks.py`` checks.
"""

import ast
from pathlib import Path

import polysimplex

ALLOWED = {("tensor", "_place_entries"), ("setmaps", "apply_staged")}


def test_every_definition_is_referenced():
    paths = sorted(Path(polysimplex.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        if module != "__init__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in referenced
        and (module, node.name) not in ALLOWED
    ]
    assert not dead, f"defined but never referenced in the package: {dead}"
