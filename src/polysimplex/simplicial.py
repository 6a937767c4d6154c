"""Equation generation from the face combinatorics of the standard simplex.

Every equation family is compiled to a :class:`ContractionProgram` by one
compiler, :func:`_compile`: attach a map to each facet of a simplex, wire
matching face labels between maps in a fixed stacking order, and arrange
the free legs.  One face rule serves every family: T maps read the odd
faces of their facet and write the even ones, S maps the reverse, and R
maps read and write all of them; a public compiler only lists its facets
in stacking order.  A program is its steps: constructing it stages them
once, and its free legs and gather positions come from that replay.  Free
inputs are sorted in reverse lexicographic order of their vertex tuples,
implemented as descending tuple order (this is the ordering that lists
the (n-2)-faces of the n-simplex equation as d(0,1), d(0,2), ...,
d(n-1,n)).  Free outputs keep the order the staged placements produce;
both sides of an equation always agree on it.

Solutions are constant: one map per tag, placed on every facet that
carries the tag.  The compiled programs are what the checks in
:mod:`polysimplex.verify` evaluate: their gather positions are the staged
words the checks run through the two-sided table kernel, and the
set-theoretic check and search of an equation run the same compiled
kernel.  The closed-form index matrices are tied to these programs by the
cross-generator tests.  This module is the only generator of the even-gon
mixed relation, which has no closed-form index recursion.
"""

from __future__ import annotations

from functools import cache

from ._record import record
from .indices import mixed_sequences
from .tensor import ShapeError, Tensor, contract_staged, replace_slots

Face = tuple[int, ...]


class ProgramError(ValueError):
    """Malformed wiring: dangling label, double read, or side mismatch."""


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


@record
class Step:
    """One map placement: which map, on which simplex, reading/writing what."""

    tag: str
    face: Face
    inputs: tuple[Face, ...]
    outputs: tuple[Face, ...]


@record
class ContractionProgram:
    """One side of an equation: its steps, in application order.

    Construction replays the wiring once.  The free inputs are the labels
    read before any step writes them, in reverse lexicographic order; the
    free outputs are the labels the staged placements end in, and the
    gather positions (:meth:`gather_positions`) those the replay reads.
    All three are derived from the steps, so equality, hash and repr read
    the steps alone.  A label that no leg carries, or a placement reading
    one leg twice, is a :class:`ProgramError`.
    """

    steps: tuple[Step, ...]

    def __post_init__(self):
        produced, free_inputs = set(), []
        for step in self.steps:
            free_inputs.extend(label for label in step.inputs if label not in produced)
            produced.update(step.outputs)
        free_inputs = tuple(reverse_lex_sorted(free_inputs))
        positions, state = _replay(free_inputs, [(step.inputs, step.outputs) for step in self.steps])
        vars(self).update(free_inputs=free_inputs, free_outputs=tuple(state), _positions=tuple(positions))

    def gather_positions(self) -> list[tuple[str, tuple[int, ...]]]:
        """Per step, the 1-based state positions its inputs are read from."""
        return [(step.tag, positions) for step, positions in zip(self.steps, self._positions)]


def _replay(state, placements) -> tuple[list[tuple[int, ...]], list]:
    """Stage ``(input labels, output labels)`` placements on a list of leg
    labels by the slot rule of :func:`replace_slots`.

    Returns the 1-based positions each placement reads (the first leg with
    that label) and the final state; a label missing from the state, or a
    placement reading one leg twice, is a :class:`ProgramError`.
    """
    state = list(state)
    reads = []
    for inputs, outputs in placements:
        where = dict(zip(reversed(state), range(len(state), 0, -1)))
        try:
            positions = tuple(where[label] for label in inputs)
        except KeyError as exc:
            raise ProgramError(f"no leg labelled {exc.args[0]} to read") from None
        if len(set(positions)) < len(positions):
            raise ProgramError(f"a placement reads one leg twice: positions {positions}")
        reads.append(positions)
        state = replace_slots(state, positions, outputs)
    return reads, state


def flatten(program: ContractionProgram) -> list[tuple[str, tuple[int, ...]]]:
    """(tag, input positions) per factor, in written (top-to-bottom) order.

    For the polygon, simplex and odd mixed families the emitted positions
    are exactly the recursion matrices' rows, completed to full gathers
    where a map reads one leg more than its row names; the even mixed
    relation may interleave legs out of sorted order.
    """
    return list(reversed(program.gather_positions()))


# The faces each tag's map reads and writes on its facet p.
_FACES = {"T": (odd_faces, even_faces), "S": (even_faces, odd_faces), "R": (facets, facets)}


def _compile(dim: int, lhs, rhs, what: str) -> tuple[ContractionProgram, ContractionProgram]:
    """Both sides of an equation on the facets of the dim-simplex; each side
    lists its ``(facet index, tag)`` placements in application order."""
    simplex = standard_simplex(dim)
    programs = []
    for side in (lhs, rhs):
        steps = []
        for i, tag in side:
            p = face_delete(simplex, i)
            reads, writes = _FACES[tag]
            steps.append(Step(tag, p, tuple(reads(p)), tuple(writes(p))))
        programs.append(ContractionProgram(tuple(steps)))
    lhs, rhs = programs
    if lhs.free_inputs != rhs.free_inputs or lhs.free_outputs != rhs.free_outputs:
        raise ProgramError(f"sides of the {what} do not share their free legs")
    return lhs, rhs


@cache
def compile_polygon(n: int, dual: bool = False) -> tuple[ContractionProgram, ContractionProgram]:
    """Both sides of the (dual) n-gon equation from the facets of the
    (n-1)-simplex, split by vertex parity."""
    if n < 3:
        raise ShapeError(f"no {n}-gon equation; n must be >= 3")
    tag = "S" if dual else "T"
    # Within one side, the map on the larger facet index feeds the smaller
    # for T, and conversely for S; the stacking order is forced.
    lhs = sorted(range(0, n, 2), reverse=not dual)
    rhs = sorted(range(1, n, 2), reverse=dual)
    return _compile(n - 1, [(i, tag) for i in lhs], [(i, tag) for i in rhs], f"{n}-gon")


@cache
def compile_simplex(n: int) -> tuple[ContractionProgram, ContractionProgram]:
    """Both sides of the n-simplex equation on the faces of the n-simplex."""
    if n < 1:
        raise ShapeError(f"no {n}-simplex equation; n must be >= 1")
    return _compile(n, [(i, "R") for i in range(n, -1, -1)], [(i, "R") for i in range(n + 1)], f"{n}-simplex equation")


@cache
def compile_mixed(n: int) -> tuple[ContractionProgram, ContractionProgram]:
    """Both sides of the mixed relation between an n-gon solution T and a
    dual n-gon solution S.

    One side stacks T(d_0), S(d_1), T(d_2), ... bottom to top; the other
    stacks S(d_0), T(d_1), ... top to bottom.  Matching labels are wired
    only forward in stacking order; the remaining pairs become the ambient
    legs, which both sides traverse identically.  For odd n the placements
    must coincide with the closed-form index matrices, else
    :class:`ShapeError`; even n only exists through the compiled program.
    """
    if n < 3:
        raise ShapeError(f"no mixed relation below the 3-gon, got {n}")
    programs = _compile(
        n - 1,
        [(i, "TS"[i % 2]) for i in range(n)],
        [(i, "ST"[i % 2]) for i in range(n - 1, -1, -1)],
        f"{n}-gon mixed relation",
    )
    if n % 2 and [flatten(side) for side in programs] != list(mixed_sequences(n)):
        raise ShapeError(
            "internal disagreement between index-matrix and compiled "
            f"placements of the {n}-gon mixed relation"
        )
    return programs


# -- simplex solutions from mixed pairs ---------------------------------------


def pair_to_simplex_map(t: Tensor, s: Tensor) -> Tensor:
    """The (n-1)-simplex map of an n-gon map t and a dual n-gon map s.

    n = t.in_legs + t.out_legs + 1, and the map acts on the legs of one
    simplex face, s.in_legs + t.in_legs of them.  S reads the odd
    positions and T the even ones (1-based), each writing back by the slot
    rule: for odd n both keep their leg counts; for even n S closes the
    last odd slot and T opens it again.  The output order then swaps the
    legs in pairs (1, 2), (3, 4), ..., one pair per input of T.
    """
    if t.dim != s.dim or t.ring != s.ring:
        raise ShapeError("mixed pair must share dimension and ring")
    if (s.in_legs, s.out_legs) != (t.out_legs, t.in_legs) or t.out_legs - t.in_legs not in (0, 1):
        raise ShapeError(f"signatures {t.shape} and {s.shape} are not an n-gon and a dual n-gon map")
    legs = s.in_legs + t.in_legs
    swaps = 2 * t.in_legs
    order = tuple((m ^ 1 if m < swaps else m) + 1 for m in range(legs))
    steps = [(s, tuple(range(1, legs + 1, 2))), (t, tuple(range(2, legs + 1, 2)))]
    return contract_staged(steps, legs, t.dim, t.ring, order)


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

