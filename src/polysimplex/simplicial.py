"""Equation generation from the face combinatorics of the standard simplex.

Every equation family is compiled to a :class:`ContractionProgram` by the
same three-step recipe: attach a map to each facet of a simplex, wire
matching face labels between maps in a fixed stacking order, and arrange
the free legs.  Free inputs are sorted in reverse lexicographic order of
their vertex tuples, implemented as descending tuple order (this is the
ordering that lists the (n-2)-faces of the n-simplex equation as
d(0,1), d(0,2), ..., d(n-1,n)).  Free outputs keep the order the staged
placements produce; both sides of an equation always agree on it.

The compiled programs are what the checks in :mod:`polysimplex.verify`
evaluate: :func:`evaluate_program` hands their gather positions to
:func:`polysimplex.tensor.contract_staged`, and the set-theoretic checks
run the same gathers through the evaluator's compiled plan.  The closed-form index
matrices are tied to these programs by the cross-generator tests.  This
module is the only generator of the even-gon mixed relation, which has no
closed-form index recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .rings import RATIONAL, ScalarRing
from .tensor import (
    LegPermutation,
    ShapeError,
    Tensor,
    compose,
    contract_staged,
    partial_trace_left,
    permutation_tensor,
    replace_slots,
    tensor_product,
)

Face = tuple[int, ...]


class ProgramError(ValueError):
    """Malformed wiring: dangling label, bad order, or side mismatch."""


def standard_simplex(n: int) -> Face:
    return tuple(range(n + 1))


def face_delete(face: Face, t: int) -> Face:
    """The t-th boundary face: drop the vertex at position t (0-based)."""
    return face[:t] + face[t + 1 :]


def facets(face: Face) -> list[Face]:
    return [face_delete(face, t) for t in range(len(face))]


def even_faces(p: Face) -> list[Face]:
    return [face_delete(p, t) for t in range(0, len(p), 2)]


def odd_faces(p: Face) -> list[Face]:
    return [face_delete(p, t) for t in range(1, len(p), 2)]


def reverse_lex_sorted(labels) -> list[Face]:
    return sorted(labels, reverse=True)


def pachner_split(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Even/odd vertex split of {0..n+1} driving the two sides."""
    if n < 1:
        raise ShapeError("pachner_split needs n >= 1")
    evens = tuple(range(0, 2 * ((n + 1) // 2) + 1, 2))
    odds = tuple(range(1, 2 * ((n + 2) // 2), 2))
    return evens, odds


@dataclass(frozen=True)
class Step:
    """One map placement: which map, on which simplex, reading/writing what."""

    tag: str
    face: Face
    inputs: tuple[Face, ...]
    outputs: tuple[Face, ...]


@dataclass(frozen=True)
class ContractionProgram:
    """One side of an equation; steps are stored in application order."""

    steps: tuple[Step, ...]
    free_inputs: tuple[Face, ...]
    free_outputs: tuple[Face, ...]

    def validate(self) -> None:
        free_in, free_out = _wire(self.steps)
        if free_in != self.free_inputs or free_out != self.free_outputs:
            raise ProgramError("stored free legs disagree with the wiring")

    def gather_positions(self) -> list[tuple[str, tuple[int, ...]]]:
        """Per step, the 1-based state positions its inputs are read from."""
        state = list(self.free_inputs)
        result = []
        for step in self.steps:
            positions = []
            for label in step.inputs:
                if label not in state:
                    raise ProgramError(f"step {step.tag}{step.face} needs {label}")
                positions.append(state.index(label) + 1)
            result.append((step.tag, tuple(positions)))
            state = replace_slots(state, positions, list(step.outputs))
        if tuple(state) != self.free_outputs:
            raise ProgramError("program does not terminate in its free outputs")
        return result


def _wire(steps: tuple[Step, ...]) -> tuple[tuple[Face, ...], tuple[Face, ...]]:
    """Compute free legs by replaying the staged placements."""
    produced = set()
    free_inputs = []
    for step in steps:
        for label in step.inputs:
            if label not in produced:
                free_inputs.append(label)
        produced.update(step.outputs)
    free_inputs = tuple(reverse_lex_sorted(free_inputs))
    state = list(free_inputs)
    for step in steps:
        positions = [state.index(label) + 1 for label in step.inputs]
        state = replace_slots(state, positions, list(step.outputs))
    return free_inputs, tuple(state)


def _program(steps: list[Step]) -> ContractionProgram:
    free_in, free_out = _wire(tuple(steps))
    return ContractionProgram(tuple(steps), free_in, free_out)


def flatten(program: ContractionProgram) -> list[tuple[str, tuple[int, ...]]]:
    """(tag, input positions) per factor, in written (top-to-bottom) order.

    For the polygon, simplex and odd mixed families the emitted positions
    are exactly the recursion matrices' rows, completed to full gathers
    where a map reads one leg more than its row names; the even mixed
    relation may interleave legs out of sorted order.
    """
    program.validate()
    return list(reversed(program.gather_positions()))


@cache
def compile_polygon(n: int, dual: bool = False) -> tuple[ContractionProgram, ContractionProgram]:
    """Both sides of the (dual) n-gon equation from the facets of the
    (n-1)-simplex, split by vertex parity."""
    if n < 3:
        raise ShapeError(f"no {n}-gon equation; n must be >= 3")
    simplex = standard_simplex(n - 1)
    evens, odds = pachner_split(n - 2)
    tag = "S" if dual else "T"

    def step_for(i: int) -> Step:
        p = face_delete(simplex, i)
        if dual:
            return Step(tag, p, tuple(even_faces(p)), tuple(odd_faces(p)))
        return Step(tag, p, tuple(odd_faces(p)), tuple(even_faces(p)))

    # Within one side, the map on the larger facet index feeds the smaller
    # for T, and conversely for S; the stacking order is forced.
    lhs_order = sorted(evens) if dual else sorted(evens, reverse=True)
    rhs_order = sorted(odds, reverse=True) if dual else sorted(odds)
    lhs = _program([step_for(i) for i in lhs_order])
    rhs = _program([step_for(i) for i in rhs_order])
    if lhs.free_inputs != rhs.free_inputs or lhs.free_outputs != rhs.free_outputs:
        raise ProgramError(f"sides of the {n}-gon do not share their free legs")
    return lhs, rhs


@cache
def compile_simplex(n: int) -> tuple[ContractionProgram, ContractionProgram]:
    """Both sides of the n-simplex equation on the faces of the n-simplex."""
    if n < 1:
        raise ShapeError(f"no {n}-simplex equation; n must be >= 1")
    simplex = standard_simplex(n)

    def step_for(i: int) -> Step:
        p = face_delete(simplex, i)
        legs = tuple(facets(p))
        return Step("R", p, legs, legs)

    lhs = _program([step_for(i) for i in range(n, -1, -1)])
    rhs = _program([step_for(i) for i in range(n + 1)])
    if lhs.free_inputs != rhs.free_inputs or lhs.free_outputs != rhs.free_outputs:
        raise ProgramError(f"sides of the {n}-simplex equation disagree")
    return lhs, rhs


@cache
def compile_mixed(n: int) -> tuple[ContractionProgram, ContractionProgram]:
    """Both sides of the mixed relation between an n-gon solution T and a
    dual n-gon solution S.

    One side stacks T(d_0), S(d_1), T(d_2), ... bottom to top; the other
    stacks S(d_0), T(d_1), ... top to bottom.  Matching labels are wired
    only forward in stacking order; the remaining pairs become the ambient
    legs, which both sides traverse identically.
    """
    if n < 3:
        raise ShapeError(f"no mixed relation below the 3-gon, got {n}")
    simplex = standard_simplex(n - 1)

    def step_for(i: int, tag: str) -> Step:
        p = face_delete(simplex, i)
        if tag == "T":
            return Step(tag, p, tuple(odd_faces(p)), tuple(even_faces(p)))
        return Step(tag, p, tuple(even_faces(p)), tuple(odd_faces(p)))

    t_first = [step_for(i, "T" if i % 2 == 0 else "S") for i in range(n)]
    s_first = [step_for(i, "S" if i % 2 == 0 else "T") for i in range(n - 1, -1, -1)]
    lhs = _program(t_first)
    rhs = _program(s_first)
    if lhs.free_inputs != rhs.free_inputs or lhs.free_outputs != rhs.free_outputs:
        raise ProgramError(f"sides of the {n}-gon mixed relation disagree")
    return lhs, rhs


# -- non-constant solution families (simplex solutions from mixed pairs) ------


def interleave_split(count: int) -> tuple[list[int], list[int]]:
    """0-based leg indices split into (even-labeled, odd-labeled)."""
    return list(range(0, count, 2)), list(range(1, count, 2))


def pair_to_simplex_map(t: Tensor, s: Tensor) -> Tensor:
    """sigma o (S (x) T) o tau on the legs of one simplex face.

    tau routes the even-position legs to S and the odd-position legs to T;
    sigma interleaves S's outputs back onto even positions and T's outputs
    onto odd positions (positions 1-based, labels 0-based).
    """
    if t.dim != s.dim or t.ring != s.ring:
        raise ShapeError("mixed pair must share dimension and ring")
    n_in = s.in_legs + t.in_legs
    n_out = s.out_legs + t.out_legs
    evens_in, odds_in = interleave_split(n_in)
    if len(evens_in) != s.in_legs or len(odds_in) != t.in_legs:
        raise ShapeError(
            f"signatures {s.shape} and {t.shape} do not interleave on {n_in} legs"
        )
    # tau: leg at interleaved position -> block position (S block then T block)
    tau_image = [0] * n_in
    for block_pos, leg in enumerate(evens_in + odds_in):
        tau_image[leg] = block_pos + 1
    tau = permutation_tensor(t.dim, LegPermutation(tuple(tau_image)), t.ring)
    evens_out, odds_out = interleave_split(n_out)
    sigma_image = [0] * n_out
    for block_pos, leg in enumerate(odds_out + evens_out):
        sigma_image[block_pos] = leg + 1
    sigma = permutation_tensor(t.dim, LegPermutation(tuple(sigma_image)), t.ring)
    return compose(sigma, compose(tensor_product(s, t), tau))


def simplex_family_from_pair(n: int, t_family, s_family) -> dict[Face, Tensor]:
    """Family of n-simplex maps from (n+1)-gon and dual (n+1)-gon families.

    The (n+1)-gon equation lives on the facets of Delta^n, and so does the
    n-simplex family built from it: ``t_family``/``s_family`` assign a
    tensor to each facet (plain tensors build the constant family).
    """
    if n < 2:
        raise ShapeError("simplex families start at order 2")
    simplex = standard_simplex(n)
    result: dict[Face, Tensor] = {}
    for i in range(n + 1):
        p = face_delete(simplex, i)
        t = t_family[p] if isinstance(t_family, dict) else t_family
        s = s_family[p] if isinstance(s_family, dict) else s_family
        result[p] = pair_to_simplex_map(t, s)
    return result


def traced_family(n: int, r_family: dict[Face, Tensor]) -> dict[Face, Tensor]:
    """Descend an (n+1)-simplex family to an n-simplex family by closing
    the loop on the face that drops vertex 0.

    For the facet q of Delta^n, the parent map lives on [0] + (q+1); its
    first leg (the face deleting vertex 0) is traced out and the remaining
    legs reindex onto the facets of q in order.
    """
    if n < 1:
        raise ShapeError("traced families need n >= 1")
    result: dict[Face, Tensor] = {}
    for q in facets(standard_simplex(n)):
        parent = (0,) + tuple(v + 1 for v in q)
        if parent not in r_family:
            raise ProgramError(f"family is missing the map on {parent}")
        result[q] = partial_trace_left(r_family[parent])
    return result


def program_to_dot(program: ContractionProgram, name: str = "side") -> str:
    """Graphviz rendering of the wiring, for documentation."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    producers: dict[Face, str] = {}
    for idx, label in enumerate(program.free_inputs):
        node = f"in{idx}"
        lines.append(f'  {node} [shape=plaintext, label="{"".join(map(str, label))}"];')
        producers[label] = node
    for idx, step in enumerate(program.steps):
        node = f"s{idx}"
        face = "".join(map(str, step.face))
        lines.append(f'  {node} [shape=box, label="{step.tag}({face})"];')
        for label in step.inputs:
            text = "".join(map(str, label))
            lines.append(f'  {producers[label]} -> {node} [label="{text}"];')
        for label in step.outputs:
            producers[label] = node
    for idx, label in enumerate(program.free_outputs):
        node = f"out{idx}"
        lines.append(f'  {node} [shape=plaintext, label="{"".join(map(str, label))}"];')
        lines.append(f'  {producers[label]} -> {node};')
    lines.append("}")
    return "\n".join(lines)


def evaluate_program(
    program: ContractionProgram,
    maps,
    d: int,
    ring: ScalarRing = RATIONAL,
) -> Tensor:
    """Contract one side into a single tensor.

    ``maps`` is either a dict keyed by tag ('T', 'S', 'R'; constant
    solutions) or a callable ``(tag, face) -> Tensor`` for non-constant
    families.
    """
    program.validate()
    steps = []
    for step, (_, positions) in zip(program.steps, program.gather_positions()):
        f = maps(step.tag, step.face) if callable(maps) else maps[step.tag]
        if (f.in_legs, f.out_legs) != (len(step.inputs), len(step.outputs)):
            raise ShapeError(
                f"map for {step.tag}{step.face} has signature "
                f"{f.in_legs}->{f.out_legs}, expected "
                f"{len(step.inputs)}->{len(step.outputs)}"
            )
        steps.append((f, positions))
    return contract_staged(steps, len(program.free_inputs), d, ring)
