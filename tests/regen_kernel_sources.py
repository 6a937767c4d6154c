"""Write tests/kernel_sources.json, the golden kernel sources.

The golden file holds, for the (dual) n-gon with n <= 9 as the set checks
shape it, the source of both generator modes: table and push mode of each
side (push mode as floats run it, settling after every step, and as the
exact rings run it, settling once per column), and table mode of both
sides, which the tensor check, the set check and the search of an
equation share;
``test_contract_and_compare_sources_unchanged`` compares the generator
against it.  Regenerate it on purpose, after a change to the generator,
and review the diff:

    PYTHONPATH=src python tests/regen_kernel_sources.py

Stdlib only; pytest does not collect this file.
"""

import json
from pathlib import Path

from polysimplex.simplicial import compile_polygon
from polysimplex.tensor import _kernel_source
from polysimplex.verify import polygon_signature

GOLDEN = Path(__file__).parent / "kernel_sources.json"


def polygon_kernel_sources() -> dict:
    sources = {}
    for n in range(3, 10):
        for dual in (False, True):
            out_arity = polygon_signature(n, dual)[1]
            lhs, rhs = compile_polygon(n, dual)
            sides = tuple(tuple((p, out_arity) for _, p in side.gather_positions()) for side in (lhs, rhs))
            legs = len(lhs.free_inputs)
            tag = f"{'dual ' if dual else ''}{n}-gon"
            for name, side in (("lhs", sides[:1]), ("rhs", sides[1:])):
                sources[f"{tag} {name} contract"] = _kernel_source(legs, side, (None,))
                sources[f"{tag} {name} push"] = _kernel_source(legs, side, (None,), push=True)
                sources[f"{tag} {name} push exact"] = _kernel_source(legs, side, (None,), push=True, exact=True)
            sources[f"{tag} compare"] = _kernel_source(legs, sides, (None, None))
    return sources


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(polygon_kernel_sources(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
