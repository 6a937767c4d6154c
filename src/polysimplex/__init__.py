"""Polygon, dual polygon, simplex and mixed tensor equations.

Generate the equations for arbitrary order, verify candidate solutions by
exact tensor contraction, and run every solution-producing construction:
inverses and conjugations, partial-trace descent, stacking of commuting
solutions, bialgebra towers, Hopf pentagon pairs and the mixed-pair
routes to simplex solutions.
"""

from .construct import (
    SolutionDescriptor,
    bar_sigma_conjugate,
    bialgebra_tower,
    conjugate,
    higher_mixed_pair,
    hopf_mixed_pair_antipode,
    hopf_pentagon_pair,
    invert_to_dual,
    multi_bialgebra_tower,
    simplex_from_mixed,
    stack,
    trace_descend,
    trace_descend_mixed,
    verify_descriptor,
    yang_baxter_from_pair,
)
from .hopf import (
    GroupTable,
    HopfInstance,
    check_axioms,
    cyclic_group,
    direct_product,
    dual_group_algebra,
    group_algebra,
    settheoretic_lift,
    symmetric_group,
)
from .indices import (
    mixed_equation,
    mixed_indices,
    polygon_equation,
    polygon_indices,
    simplex_equation,
    simplex_indices,
)
from .rings import F64, RATIONAL, prime_field, ring_from_tag
from .setmaps import FiniteMap, check_polygon_set, enumerate_set_solutions
from .simplicial import (
    ContractionProgram,
    compile_mixed,
    compile_polygon,
    compile_simplex,
    flatten,
)
from .tensor import (
    NotInvertible,
    ShapeError,
    Tensor,
    compose,
    contract_staged,
    identity_tensor,
    partial_compose_left,
    partial_compose_right,
    partial_trace_left,
    partial_trace_right,
    tensor_product,
)
from .verify import (
    PreconditionFailed,
    VerificationReport,
    check_commutes,
    check_equation,
    check_mixed,
    check_polygon,
    check_relations_1_6,
    check_simplex,
)

__version__ = "0.1.0"
