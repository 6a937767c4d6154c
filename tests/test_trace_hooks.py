"""Entry points the benchmark tracer (perfbench/tracing.py) binds by name.

The tracer wraps these from outside the package; a refactor that renames
or removes one would break ``--trace 1`` without failing any other test.
"""

from polysimplex import setmaps, tensor
from polysimplex.setmaps import FiniteMap
from polysimplex.tensor import Tensor


def test_traced_functions_exist():
    assert callable(setmaps.apply_staged)
    assert callable(tensor._place_entries)


def test_traced_methods_exist():
    assert "__post_init__" in vars(Tensor)
    for owner in (Tensor, FiniteMap):
        assert isinstance(vars(owner)["from_json_dict"], staticmethod)
        assert callable(vars(owner)["to_json_dict"])
