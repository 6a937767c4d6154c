"""Decision procedures for every equation family.

The polygon, simplex and mixed checks take both sides of their equation
from the simplicial compiler as staged ``(map, gather positions)`` steps;
the relations (1)-(6) are fixed placement words, and the commutation that
licenses stacking places its maps on the rows and columns of a grid of
legs, read out row by row in an output order.  When every map is a
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


def require_columns(dim: int, legs: int, subject: str = "the check runs") -> None:
    """Refuse a check (or what ``subject`` names) on ``dim ** legs`` columns
    above the cap."""
    columns = dim**legs
    if columns > MAX_COLUMNS:
        raise ShapeError(f"{subject} {dim}^{legs} = {columns} columns, over the cap of {MAX_COLUMNS}")


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


def _check_programs(equation: str, programs, maps, d: int, ring) -> VerificationReport:
    """:func:`_check_sides` on the two compiled sides of an equation."""
    sides = [_program_steps(side, maps) for side in programs]
    return _check_sides(equation, sides, len(programs[0].free_inputs), d, ring)


def polygon_signature(n: int, dual: bool) -> tuple[int, int]:
    """(in_legs, out_legs) demanded of a (dual) n-gon solution."""
    if n < 3:
        raise ShapeError(f"no {n}-gon equation; n must be >= 3")
    if n % 2:
        k = (n - 1) // 2
        return (k, k)
    k = n // 2
    return (k, k - 1) if dual else (k - 1, k)


def check_polygon(t: Tensor, n: int, dual: bool = False) -> VerificationReport:
    """Does t satisfy the (dual) n-gon equation?"""
    want = polygon_signature(n, dual)
    if (t.in_legs, t.out_legs) != want:
        raise ShapeError(
            f"{'dual ' if dual else ''}{n}-gon needs signature {want[0]}->{want[1]}, "
            f"got {t.in_legs}->{t.out_legs}"
        )
    name = f"dual {n}-gon" if dual else f"{n}-gon"
    return _check_programs(name, compile_polygon(n, dual), {"S" if dual else "T": t}, t.dim, t.ring)


def check_simplex(r: Tensor, n: int) -> VerificationReport:
    """Does r satisfy the n-simplex equation?"""
    programs = compile_simplex(n)
    if (r.in_legs, r.out_legs) != (n, n):
        raise ShapeError(
            f"{n}-simplex needs signature {n}->{n}, got {r.in_legs}->{r.out_legs}"
        )
    return _check_programs(f"{n}-simplex", programs, {"R": r}, r.dim, r.ring)


def check_mixed(t: Tensor, s: Tensor, n: int) -> VerificationReport:
    """Do (t, s) satisfy the mixed relation at order n?

    t must solve-shape the n-gon and s the dual n-gon.  The sides are
    those of :func:`compile_mixed`, which ties odd n to the closed-form
    index matrices.
    """
    want_t = polygon_signature(n, dual=False)
    want_s = polygon_signature(n, dual=True)
    if (t.in_legs, t.out_legs) != want_t or (s.in_legs, s.out_legs) != want_s:
        raise ShapeError(
            f"mixed relation at n={n} needs T:{want_t[0]}->{want_t[1]} and "
            f"S:{want_s[0]}->{want_s[1]}, got T:{t.in_legs}->{t.out_legs}, "
            f"S:{s.in_legs}->{s.out_legs}"
        )
    if t.dim != s.dim or t.ring != s.ring:
        raise ShapeError("mixed pair must share dimension and ring")
    return _check_programs(f"{n}-gon mixed relation", compile_mixed(n), {"T": t, "S": s}, t.dim, t.ring)


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
