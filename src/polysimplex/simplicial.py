"""Equation generation from the face combinatorics of the standard simplex.

Every equation family is compiled to a :class:`ContractionProgram` by one
compiler, :func:`_compile`: attach a map to each facet of a simplex, wire
matching face labels between maps in a fixed stacking order, and arrange
the free legs.  One face rule serves every family: T maps read the odd
faces of their facet and write the even ones, S maps the reverse, and R
maps read and write all of them; a public compiler only lists its facets
in stacking order.  Each compiled side is staged once, and the program is
filled from that replay.  Free inputs are sorted in reverse lexicographic order of
their vertex tuples, implemented as descending tuple order (this is the
ordering that lists the (n-2)-faces of the n-simplex equation as
d(0,1), d(0,2), ..., d(n-1,n)).  Free outputs keep the order the staged
placements produce; both sides of an equation always agree on it.

The compiled programs are what the checks in :mod:`polysimplex.verify`
evaluate: their gather positions are the staged words the checks run
through the two-sided table kernel, :func:`evaluate_program` contracts
one side with :func:`polysimplex.tensor.contract_staged`, and the
set-theoretic check and search of an equation run the same compiled
kernel.  The closed-form index
matrices are tied to these programs by the cross-generator tests.  This
module is the only generator of the even-gon mixed relation, which has no
closed-form index recursion.
"""

from __future__ import annotations

from functools import cache

from ._record import field, record
from .indices import mixed_sequences
from .rings import RATIONAL, ScalarRing
from .tensor import ShapeError, Tensor, contract_staged, partial_trace_left, replace_slots

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


@record
class Step:
    """One map placement: which map, on which simplex, reading/writing what."""

    tag: str
    face: Face
    inputs: tuple[Face, ...]
    outputs: tuple[Face, ...]


@record
class ContractionProgram:
    """One side of an equation; steps are stored in application order.

    Construction from outside replays the wiring: the stored free inputs
    must be the labels read before any step writes them, in reverse
    lexicographic order, and the staged placements must end in the stored
    free outputs, else :class:`ProgramError`.  The gather positions of the
    replay are kept for :meth:`gather_positions`.  The compilers fill a
    program from their own replay instead (:func:`_program`).
    """

    steps: tuple[Step, ...]
    free_inputs: tuple[Face, ...]
    free_outputs: tuple[Face, ...]
    _positions: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if _free_inputs(self.steps) != self.free_inputs:
            raise ProgramError("stored free inputs disagree with the wiring")
        positions, state = _replay(self.free_inputs, [(step.inputs, step.outputs) for step in self.steps])
        if tuple(state) != self.free_outputs:
            raise ProgramError("program does not terminate in its free outputs")
        object.__setattr__(self, "_positions", tuple(positions))

    def gather_positions(self) -> list[tuple[str, tuple[int, ...]]]:
        """Per step, the 1-based state positions its inputs are read from."""
        return [(step.tag, positions) for step, positions in zip(self.steps, self._positions)]


def _free_inputs(steps) -> tuple[Face, ...]:
    """Labels read before any step writes them, in reverse lexicographic order."""
    produced = set()
    free_inputs = []
    for step in steps:
        free_inputs.extend(label for label in step.inputs if label not in produced)
        produced.update(step.outputs)
    return tuple(reverse_lex_sorted(free_inputs))


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


def _program(steps: list[Step]) -> ContractionProgram:
    """The program of compiled steps, filled from its one replay."""
    steps = tuple(steps)
    free_inputs = _free_inputs(steps)
    positions, state = _replay(free_inputs, [(step.inputs, step.outputs) for step in steps])
    program = object.__new__(ContractionProgram)
    vars(program).update(steps=steps, free_inputs=free_inputs, free_outputs=tuple(state), _positions=tuple(positions))
    return program


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
        programs.append(_program(steps))
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
    evens, odds = pachner_split(n - 2)
    tag = "S" if dual else "T"
    # Within one side, the map on the larger facet index feeds the smaller
    # for T, and conversely for S; the stacking order is forced.
    lhs = sorted(evens, reverse=not dual)
    rhs = sorted(odds, reverse=dual)
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


# -- non-constant solution families (simplex solutions from mixed pairs) ------


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
    families; each map must have the signature of its step.
    """
    steps = []
    for step, positions in zip(program.steps, program._positions):
        f = maps(step.tag, step.face) if callable(maps) else maps[step.tag]
        if (f.in_legs, f.out_legs) != (len(step.inputs), len(step.outputs)):
            raise ShapeError(
                f"map for {step.tag}{step.face} has signature "
                f"{f.in_legs}->{f.out_legs}, expected "
                f"{len(step.inputs)}->{len(step.outputs)}"
            )
        steps.append((f, positions))
    return contract_staged(steps, len(program.free_inputs), d, ring)
