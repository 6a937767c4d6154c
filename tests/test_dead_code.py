"""Every module-level function and class of the package is used, and
every method but the dunders.

A definition counts as used when some module of the package other than
``__init__.py`` reads its name (as a name or an attribute) or holds it
as a string constant, the way ``construct.RECIPES`` names its builders.
A re-export from ``__init__.py`` is no use.  The allowed names are bound
by name from outside the package: the benchmark tracer
(``perfbench/tracing.py``) wraps the first two, as
``test_trace_hooks.py`` checks, and the rest, the allowed methods too,
are documented API with no caller in the package.
"""

import ast
from pathlib import Path

import polysimplex

ALLOWED = {
    ("tensor", "_place_entries"),
    ("setmaps", "apply_staged"),
    ("verify", "check_polygon"),
    ("verify", "check_simplex"),
    ("hopf", "settheoretic_lift"),
    ("hopf", "dual_group_algebra"),
}
ALLOWED_METHODS = {
    ("Tensor", "entry"),
    ("Tensor", "to_json"),
    ("Tensor", "from_json"),
    ("GroupTable", "is_abelian"),
}


def test_every_definition_is_referenced():
    paths = sorted(Path(polysimplex.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    referenced = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    definitions = [(module, node) for module, tree in trees.items() if module != "__init__" for node in tree.body]
    dead = [
        f"{module}.{node.name}"
        for module, node in definitions
        if isinstance(node, (*functions, ast.ClassDef))
        and node.name not in referenced
        and (module, node.name) not in ALLOWED
    ]
    dead += [
        f"{module}.{node.name}.{method.name}"
        for module, node in definitions
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, functions)
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and method.name not in referenced
        and (node.name, method.name) not in ALLOWED_METHODS
    ]
    assert not dead, f"defined but never referenced in the package: {dead}"
