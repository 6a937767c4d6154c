"""Entry points the benchmark tracer (perfbench/tracing.py) binds by name.

The tracer wraps these from outside the package; a refactor that renames
or removes one would break ``--trace 1``, or silently zero the metric it
feeds, without failing any other test.  The names are listed here as the
tracer lists them, not imported from it.
"""

import pytest

from polysimplex import construct, setmaps, simplicial, tensor
from polysimplex.setmaps import FiniteMap
from polysimplex.tensor import Tensor

# The tracer's RECIPES: each call counts one construct.recipes.
RECIPE_BUILDERS = (
    "hopf_pentagon_pair", "bialgebra_tower", "multi_bialgebra_tower", "hopf_mixed_pair_antipode",
    "higher_mixed_pair", "invert_to_dual", "conjugate", "bar_sigma_conjugate", "trace_descend",
    "trace_descend_mixed", "stack", "simplex_from_mixed", "yang_baxter_from_pair",
)
# The tracer's COMPILE: their spans make up simplicial.compile_s.
COMPILERS = ("compile_polygon", "compile_simplex", "compile_mixed")


def test_traced_functions_exist():
    assert callable(setmaps.apply_staged)
    assert callable(tensor._place_entries)
    # Its _set_checked hook counts setmaps.candidates and setmaps.solutions.
    assert callable(setmaps.check_polygon_set)


@pytest.mark.parametrize("name", RECIPE_BUILDERS)
def test_recipe_builders_exist(name):
    assert callable(getattr(construct, name))


@pytest.mark.parametrize("name", COMPILERS)
def test_compilers_exist(name):
    assert callable(getattr(simplicial, name))


def test_traced_methods_exist():
    assert "__post_init__" in vars(Tensor)
    for owner in (Tensor, FiniteMap):
        assert isinstance(vars(owner)["from_json_dict"], staticmethod)
        assert callable(vars(owner)["to_json_dict"])
