"""Decision procedures for every equation family.

One table, :data:`EQUATIONS`, states each family once: the tags and
signatures of its maps, its compiler, its index matrices and rendering,
and its names; the commands and the solution descriptors look families
up there.  :func:`check_equation` checks every family (``check_polygon``,
``check_simplex`` and ``check_mixed`` are its wrappers): it refuses a map
of the wrong signature before anything is compiled, then takes both
sides from the simplicial compiler as staged ``(map, gather positions)``
steps.  The relations (1)-(6) are fixed placement words, and the
commutation that licenses stacking places its maps on the rows and
columns of a grid of legs, read out row by row in an output order.  When every map is a
total basis function, both sides run in one table-mode loop-nest kernel
(:func:`polysimplex.tensor._staged_kernel`), on tables indexed by the
rank of the input digits, and a holding equation is decided without
building either side; the set-theoretic check and search of the same
equation run the same compiled kernel.  Every table check runs it through
:func:`polysimplex.tensor._differing_columns`, once per
dependency cone: each final leg of either side reads only some column
legs, so the legs outside a cone are pinned to 0 and the columns that vary
them are never run.  On a difference it yields every differing column.
Other maps, in every ring, push both sides one column at a time on native numbers
(:func:`polysimplex.tensor._push_columns`).  One comparator
(:func:`polysimplex.tensor._stream_sides`) reads either stream, so no side
is built, and reports the largest deviation at the lexicographically
first key as a witness; :func:`compare_sides` feeds it the entries of two
built tensors.  Exact rings decide equality exactly; the float ring
compares within its global absolute tolerance.
"""

from __future__ import annotations

from ._record import field, record
from .indices import mixed_equation, mixed_indices, polygon_equation, polygon_indices, simplex_equation, simplex_indices
from .rings import exact_str
from .simplicial import _program_steps, _replay, compile_mixed, compile_polygon, compile_simplex
from .tensor import (
    ShapeError,
    Tensor,
    _check_steps,
    _differing_columns,
    _paired_columns,
    _push_columns,
    _stream_sides,
)


# Columns (tensor basis columns, or value tuples of a set map) a check may
# run through both sides of its equation: the base-2 13-gon (2^21) takes
# about 5 s, and every order of magnitude more is minutes to years.
MAX_COLUMNS = 2**22


# Numbers of at most this many bits are written out in decimal: about 3000
# digits, under the interpreter's int-to-str limit of 4300.
_PRINTABLE_BITS = 10_000


def require_columns(dim: int, legs: int, subject: str = "the check runs") -> None:
    """Refuse a check (or what ``subject`` names) on ``dim ** legs`` columns
    above the cap.  Since 2^23 is over the cap, a power of a larger
    exponent is never computed; the message writes the count out only when
    it is short enough to print."""
    if (dim < 2 or legs < 23) and dim**legs <= MAX_COLUMNS:
        return
    base = str(dim) if dim.bit_length() <= _PRINTABLE_BITS else f"(a {dim.bit_length()}-bit number)"
    count = f" = {dim**legs}" if legs * dim.bit_length() <= _PRINTABLE_BITS else ""
    raise ShapeError(f"{subject} {base}^{legs}{count} columns, over the cap of {MAX_COLUMNS}")


class PreconditionFailed(ValueError):
    """A construction was fed inputs that fail its required hypotheses."""


class SelfCheckFailed(RuntimeError):
    """A constructed solution failed its own verifier (internal error)."""


@record(frozen=False)
class VerificationReport:
    """Outcome of one equation check."""

    equation: str
    holds: bool
    max_deviation: object
    lhs_dims: tuple[int, int, int]
    rhs_dims: tuple[int, int, int]
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        data = {
            "equation": self.equation,
            "holds": self.holds,
            "max_deviation": exact_str(self.max_deviation),
            "lhs_dims": list(self.lhs_dims),
            "rhs_dims": list(self.rhs_dims),
        }
        if self.witness is not None:
            data["witness"] = self.witness
        if self.details:
            data["details"] = {k: bool(v) for k, v in self.details.items()}
        return data


def compare_sides(equation: str, lhs: Tensor, rhs: Tensor) -> VerificationReport:
    """Compare two built tensors entry by entry, in the comparator of the checks."""
    if lhs.shape != rhs.shape or lhs.ring != rhs.ring:
        raise ShapeError(f"cannot compare shapes {lhs.shape} and {rhs.shape}")
    mag, witness = _stream_sides(_paired_columns(lhs, rhs), (1, 1), lhs.ring)
    return VerificationReport(equation, witness is None, mag, lhs.shape, rhs.shape, witness)


def _check_sides(equation: str, sides, legs: int, d: int, ring, orders=(None, None)) -> VerificationReport:
    """Compare two staged sides on V^(x)legs, each a list of ``(map, positions)``
    steps read out in its output order (see :func:`tensor.contract_staged`).

    The maps alone pick the route, and no route builds a side.  When every
    map is a total basis function (``d**in_legs`` columns, each one entry
    equal to one, and one is not a zero of the ring), the compare driver
    (:func:`_differing_columns`) decides a holding equation in one kernel
    pass per dependency cone; on a difference it runs every column and
    yields the differing ones, each side one entry equal to one, to
    :func:`_stream_sides`.  Other maps push both sides column by column
    (:func:`_push_columns`) into the same comparator.  The witness is the largest deviation at the
    lexicographically first key, which the first differing column in
    product order need not be.  Checks over more than ``MAX_COLUMNS``
    columns are refused.
    """
    (lhs_maps, lhs_shape, n), (rhs_maps, rhs_shape, rhs_n) = (
        _check_steps(steps, legs, d, ring, order) for steps, order in zip(sides, orders)
    )
    require_columns(d, legs)
    if n != rhs_n:
        raise ShapeError(f"cannot compare shapes {(d, legs, n)} and {(d, legs, rhs_n)}")
    shape = (d, legs, n)
    maps = lhs_maps + rhs_maps
    masks = tuple(f._masks for f in maps)
    if not ring.is_zero(ring.one) and None not in masks:
        tables = [f._table for f in maps]
        differing = _differing_columns(legs, (lhs_shape, rhs_shape), orders, tables, masks, d)
        if differing is None:
            return VerificationReport(equation, True, 0, shape, shape)
        columns, scales = ((col, {lhs: 1}, {rhs: 1}) for col, lhs, rhs in differing), (1, 1)
    else:
        (lhs_scale, lhs_columns), (rhs_scale, rhs_columns) = (
            _push_columns(side_maps, side_shape, legs, d, ring, order)
            for side_maps, side_shape, order in zip((lhs_maps, rhs_maps), (lhs_shape, rhs_shape), orders)
        )
        columns = ((col, lv, rv) for (col, lv), (_, rv) in zip(lhs_columns, rhs_columns))
        scales = (lhs_scale, rhs_scale)
    mag, witness = _stream_sides(columns, scales, ring)
    return VerificationReport(equation, witness is None, mag, shape, shape, witness)


def polygon_signature(n: int, dual: bool) -> tuple[int, int]:
    """(in_legs, out_legs) demanded of a (dual) n-gon solution."""
    if n < 3:
        raise ShapeError(f"no {n}-gon equation; n must be >= 3")
    if n % 2:
        k = (n - 1) // 2
        return (k, k)
    k = n // 2
    return (k, k - 1) if dual else (k - 1, k)


def _simplex_signature(n: int) -> tuple[int, int]:
    if n < 1:
        raise ShapeError(f"no {n}-simplex equation; n must be >= 1")
    return (n, n)


@record
class Equation:
    """One equation family.  Each callable takes the order n (``catalog``
    the largest order m a catalog lists); ``name`` (in a report) and
    ``label`` (in a catalog) are formatted with n."""

    tags: str  # one per map the equation places, in argument order
    name: str
    label: str
    first: int  # the lowest order
    signatures: object  # (in_legs, out_legs) per map; ShapeError when no equation has order n
    compile: object  # both sides, compiled
    written: object  # ({name: index matrix}, the rendered equation)
    catalog: object  # the orders listed


def _polygon(dual: bool) -> Equation:
    name = "dual {}-gon" if dual else "{}-gon"
    return Equation(
        "S" if dual else "T", name, name, 3,
        lambda n: (polygon_signature(n, dual),),
        lambda n: compile_polygon(n, dual),
        lambda n: (dict(zip("AB", polygon_indices(n))), polygon_equation(n, dual)),
        lambda m: range(3, m + 1),
    )


# The equation families, in the order a catalog lists them.
EQUATIONS = {
    "polygon": _polygon(False),
    "dual-polygon": _polygon(True),
    "simplex": Equation(
        "R", "{}-simplex", "{}-simplex", 1,
        lambda n: (_simplex_signature(n),),
        lambda n: compile_simplex(n),
        lambda n: ({"A": simplex_indices(n)}, simplex_equation(n)),
        lambda m: range(1, (m + 1) // 2),  # the n-simplex equation is indexed by A_(2n+1)
    ),
    "mixed": Equation(
        "TS", "{}-gon mixed relation", "mixed {}-gon", 3,
        lambda n: (polygon_signature(n, False), polygon_signature(n, True)),
        lambda n: compile_mixed(n),
        lambda n: (dict(zip("DEFG", mixed_indices(n))), mixed_equation(n)),
        lambda m: range(3, m + 1, 2),  # only odd orders have closed-form index matrices
    ),
}


def signature(family: str, n: int) -> dict[str, tuple[int, int]]:
    """(in_legs, out_legs) of each map of the family's equation at order n, by tag."""
    equation = EQUATIONS[family]
    return dict(zip(equation.tags, equation.signatures(n)))


def require_signatures(family: str, n: int, maps) -> dict[str, Tensor]:
    """``maps`` by tag, refused with :class:`ShapeError` unless each has its
    signature in the family's equation at order n and all share dimension
    and ring."""
    name, want = EQUATIONS[family].name.format(n), signature(family, n)
    maps = dict(zip(want, maps))
    for tag, f in maps.items():
        if (f.in_legs, f.out_legs) != want[tag]:
            k, l = want[tag]
            raise ShapeError(f"{name} needs {tag}:{k}->{l}, got {tag}:{f.in_legs}->{f.out_legs}")
    if len({(f.dim, f.ring) for f in maps.values()}) > 1:
        raise ShapeError(f"the maps of the {name} must share dimension and ring")
    return maps


def check_equation(family: str, n: int, t: Tensor, s: Tensor | None = None) -> VerificationReport:
    """Does t (with s, the dual map of the mixed relation) satisfy the
    family's equation at order n?  The maps are refused by
    :func:`require_signatures` before the equation is compiled."""
    maps, equation = require_signatures(family, n, (t, s)), EQUATIONS[family]
    programs = equation.compile(n)
    sides = [_program_steps(side, maps) for side in programs]
    return _check_sides(equation.name.format(n), sides, len(programs[0].free_inputs), t.dim, t.ring)


def check_polygon(t: Tensor, n: int, dual: bool = False) -> VerificationReport:
    """Does t satisfy the (dual) n-gon equation?"""
    return check_equation("dual-polygon" if dual else "polygon", n, t)


def check_simplex(r: Tensor, n: int) -> VerificationReport:
    """Does r satisfy the n-simplex equation?"""
    return check_equation("simplex", n, r)


def check_mixed(t: Tensor, s: Tensor, n: int) -> VerificationReport:
    """Do an n-gon map t and a dual n-gon map s satisfy the mixed relation?"""
    return check_equation("mixed", n, t, s)


def check_commutes(f: Tensor, g: Tensor) -> VerificationReport:
    """The interchange-style commutation that licenses stacking.

    With f: V^k -> V^l on rows and g: V^i -> V^j on columns, the legs of
    V^(ki) form i rows of k.  One side applies f to every row then g to
    every column, the other applies g to every column then f to every
    row; both end on the j x l grid read row by row, maps V^(ki) -> V^(lj).
    Maps whose leg counts differ by more than one are refused.
    """
    if f.dim != g.dim or f.ring != g.ring:
        raise ShapeError("commutation check needs matching dimension and ring")
    k, l = f.in_legs, f.out_legs
    i, j = g.in_legs, g.out_legs
    if min(k, l, i, j) < 1:
        raise ShapeError("commutation check needs at least one leg per side")
    if abs(l - k) > 1 or abs(j - i) > 1:
        raise ShapeError(
            f"commutation check needs leg counts that differ by at most one, got {k}->{l} and {i}->{j}"
        )

    def on_rows(rows):
        return [(f, ([(r, c) for c in range(k)], [(r, c) for c in range(l)])) for r in range(rows)]

    def on_columns(columns):
        return [(g, ([(r, c) for r in range(i)], [(r, c) for r in range(j)])) for c in range(columns)]

    def side(placements):
        """Steps and output order of ``(map, (input labels, output labels))``
        placements on the legs, labelled ``(row, column)`` row by row."""
        maps, wiring = zip(*placements)
        reads, state = _replay([(r, c) for r in range(i) for c in range(k)], wiring)
        # Row by row is the sorted order of the final labels.
        return list(zip(maps, reads)), tuple(sorted(range(1, len(state) + 1), key=lambda m: state[m - 1]))

    (lhs, lhs_order), (rhs, rhs_order) = side(on_rows(i) + on_columns(l)), side(on_columns(k) + on_rows(j))
    return _check_sides("commutation", (lhs, rhs), k * i, f.dim, f.ring, (lhs_order, rhs_order))


RELATIONS_1_6 = {
    # name: (ambient legs, [(tag, row), ...] per side, application order is
    # right-to-left as written)
    "1": (3, [("T", (1, 3)), ("S", (2, 3))], [("S", (2, 3)), ("T", (1, 3))]),
    "2": (3, [("T", (2, 3)), ("T", (1, 3)), ("S", (1, 2))], [("S", (1, 2)), ("T", (2, 3))]),
    "3": (3, [("T", (1, 2)), ("S", (1, 3)), ("S", (2, 3))], [("S", (2, 3)), ("T", (1, 2))]),
    "4": (4, [("T", (1, 2)), ("S", (1, 3))], [("S", (1, 3)), ("T", (1, 2))]),
    "5": (
        4,
        [("T", (2, 3)), ("S", (3, 4)), ("T", (1, 3)), ("S", (1, 2))],
        [("S", (3, 4)), ("T", (2, 4)), ("S", (1, 2)), ("T", (2, 3))],
    ),
    "6": (
        4,
        [("T", (1, 2)), ("S", (1, 3)), ("T", (3, 4)), ("S", (2, 3))],
        [("S", (2, 3)), ("T", (1, 2)), ("S", (2, 4)), ("T", (3, 4))],
    ),
}


def check_relations_1_6(t: Tensor, s: Tensor) -> VerificationReport:
    """The six compatibility relations sufficient for the mixed relation.

    Relations 1-3 suffice for pentagon pairs; 4-6 are additionally needed
    when stacking the pair to higher odd-gon mixed pairs.
    """
    if (t.in_legs, t.out_legs) != (2, 2) or (s.in_legs, s.out_legs) != (2, 2):
        raise ShapeError("relations (1)-(6) are stated for maps V^2 -> V^2")
    if t.dim != s.dim or t.ring != s.ring:
        raise ShapeError("pair must share dimension and ring")
    maps = {"T": t, "S": s}
    details = {}
    first_failure = None
    worst = 0
    for name, (legs, lhs_seq, rhs_seq) in RELATIONS_1_6.items():
        sides = [[(maps[tag], row) for tag, row in reversed(seq)] for seq in (lhs_seq, rhs_seq)]
        report = _check_sides(f"relation ({name})", sides, legs, t.dim, t.ring)
        details[name] = report.holds
        if not report.holds and first_failure is None:
            first_failure = report
            worst = report.max_deviation
    holds = all(details.values())
    return VerificationReport(
        "relations (1)-(6)",
        holds,
        0 if holds else worst,
        t.shape,
        s.shape,
        witness=None if holds else first_failure.witness,
        details=details,
    )
