"""Decision procedures for every staged check.

One table, :data:`EQUATIONS`, states each check once: the tags and
signatures of its maps, its staged words and its names, and for a family
compiled from simplex faces its compiler, index matrices and rendering.
Relations (1)-(6) are one record of fixed words, its order the relation
number; the commutation that licenses stacking is another, its order the
legs of its two maps.  :func:`check_equation` checks every record, and
the other ``check_*`` functions are its wrappers: it refuses maps of the
wrong signature before anything is staged, then puts the maps in for the
tags of both sides' ``(tag, gather positions)`` words and hands them to
:func:`_check_sides`, which builds neither side.  Total basis functions
run both sides in one table-mode kernel per dependency cone, the kernel
the set-theoretic check and search of the same equation share; other
maps push both sides column by column on native numbers.  Exact rings
decide equality exactly; the float ring compares within its global
absolute tolerance.
"""

from __future__ import annotations

from ._record import field, record
from .indices import mixed_equation, mixed_indices, polygon_equation, polygon_indices, simplex_equation, simplex_indices
from .rings import exact_str
from .simplicial import _replay, compile_mixed, compile_polygon, compile_simplex
from .tensor import (
    ShapeError,
    Tensor,
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


class OverTheCap(ShapeError):
    """Work over a cap, refused before it starts: a well-formed input, not a malformed one."""


def require_columns(dim: int, legs: int, subject: str = "the check runs") -> None:
    """Refuse a check (or what ``subject`` names) on ``dim ** legs`` columns
    above the cap, with :class:`OverTheCap`.  Since 2^23 is over the cap, a
    power of a larger exponent is never computed; the message writes the
    count out only when it is short enough to print."""
    if (dim < 2 or legs < 23) and dim**legs <= MAX_COLUMNS:
        return
    base = str(dim) if dim.bit_length() <= _PRINTABLE_BITS else f"(a {dim.bit_length()}-bit number)"
    count = f" = {dim**legs}" if legs * dim.bit_length() <= _PRINTABLE_BITS else ""
    raise OverTheCap(f"{subject} {base}^{legs}{count} columns, over the cap of {MAX_COLUMNS}")


class PreconditionFailed(ValueError):
    """A construction was fed inputs that fail its required hypotheses."""


class SelfCheckFailed(RuntimeError):
    """A constructed solution failed its own verifier (internal error)."""


@record
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
    columns are refused; nothing else is checked.  The steps are trusted:
    their maps come from :func:`require_signatures` (exact signatures, one
    dimension and one ring) or from a ``HopfInstance``, and their words
    from compiled programs or fixed records, so the shapes are read off
    them directly and the final leg count off the lhs maps.
    """
    require_columns(d, legs)
    lhs_maps, rhs_maps = ([f for f, _ in steps] for steps in sides)
    lhs_shape, rhs_shape = (tuple((positions, f.out_legs) for f, positions in steps) for steps in sides)
    shape = (d, legs, legs + sum(f.out_legs - f.in_legs for f in lhs_maps))
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
    """One equation: a family compiled from simplex faces, or fixed staged
    words.  Each callable takes the order n (``catalog`` the largest order
    m a catalog lists); ``name`` (in a report) and ``label`` (in a catalog,
    or of one report over several orders) are formatted with n."""

    tags: str  # one per map the equation places, in argument order
    name: str
    label: str
    signatures: object  # (in_legs, out_legs) per map; ShapeError when no equation has order n
    orders: object = lambda n, *maps: (n,)  # the orders ``verify --family`` checks, from --n and the maps
    width: object = lambda n: (n, f"equation order {n} is over the cap")  # what the order cap bounds, and its refusal
    words: object = None  # fixed words: the staged sides, as :meth:`staged` gives them
    compile: object = None  # both sides, compiled, for a family compiled from simplex faces
    written: object = None  # ({name: index matrix}, the rendered equation); None without index matrices
    catalog: object = None  # the orders listed

    def staged(self, n) -> tuple:
        """The leg count, both sides as ``(tag, gather positions)`` words in
        application order, and their output orders, at order n."""
        if self.words:
            return self.words(n)
        lhs, rhs = self.compile(n)
        return len(lhs.free_inputs), (lhs.gather_positions(), rhs.gather_positions()), (None, None)


def _polygon(dual: bool) -> Equation:
    name = "dual {}-gon" if dual else "{}-gon"
    return Equation(
        "S" if dual else "T", name, name, lambda n: (polygon_signature(n, dual),),
        compile=lambda n: compile_polygon(n, dual),
        written=lambda n: (dict(zip("AB", polygon_indices(n))), polygon_equation(n, dual)),
        catalog=lambda m: range(3, m + 1),
    )


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


def _relation_signatures(n) -> tuple:
    if str(n) not in RELATIONS_1_6:
        raise ShapeError(f"no relation ({n}); the relations are numbered 1 to 6")
    return (2, 2), (2, 2)


def _relation(n) -> tuple:
    legs, *sides = RELATIONS_1_6[str(n)]
    return legs, [side[::-1] for side in sides], (None, None)


def _commutation_signatures(legs: tuple) -> tuple:
    k, l, i, j = legs
    if min(legs) < 1:
        raise ShapeError("commutation check needs at least one leg per side")
    if abs(l - k) > 1 or abs(j - i) > 1:
        raise ShapeError(f"commutation check needs leg counts that differ by at most one, got {k}->{l} and {i}->{j}")
    return (k, l), (i, j)


def _commutation(legs: tuple) -> tuple:
    """Both sides of the interchange commutation of f: V^k -> V^l and g:
    V^i -> V^j, its order ``legs`` = (k, l, i, j).  The legs of V^(ki) form
    i rows of k.  One side applies f to every row then g to every column,
    the other applies g to every column then f to every row; both end on
    the j x l grid read row by row, maps V^(ki) -> V^(lj)."""
    k, l, i, j = legs

    def on_rows(rows):
        return [("f", ([(r, c) for c in range(k)], [(r, c) for c in range(l)])) for r in range(rows)]

    def on_columns(columns):
        return [("g", ([(r, c) for r in range(i)], [(r, c) for r in range(j)])) for c in range(columns)]

    def side(placements):
        """Words and output order of ``(tag, (input labels, output labels))``
        placements on the legs, labelled ``(row, column)`` row by row."""
        tags, wiring = zip(*placements)
        reads, state = _replay([(r, c) for r in range(i) for c in range(k)], wiring)
        # Row by row is the sorted order of the final labels.
        return list(zip(tags, reads)), tuple(sorted(range(1, len(state) + 1), key=lambda m: state[m - 1]))

    (lhs, lhs_order), (rhs, rhs_order) = side(on_rows(i) + on_columns(l)), side(on_columns(k) + on_rows(j))
    return k * i, (lhs, rhs), (lhs_order, rhs_order)


# Every staged check: the equation families, in the order a catalog lists
# them, then the fixed words.
EQUATIONS = {
    "polygon": _polygon(False),
    "dual-polygon": _polygon(True),
    "simplex": Equation(
        "R", "{}-simplex", "{}-simplex", lambda n: (_simplex_signature(n),),
        compile=compile_simplex,
        written=lambda n: ({"A": simplex_indices(n)}, simplex_equation(n)),
        catalog=lambda m: range(1, (m + 1) // 2),  # the n-simplex equation is indexed by A_(2n+1)
    ),
    "mixed": Equation(
        "TS", "{}-gon mixed relation", "mixed {}-gon",
        lambda n: (polygon_signature(n, False), polygon_signature(n, True)),
        compile=compile_mixed,
        written=lambda n: (dict(zip("DEFG", mixed_indices(n))), mixed_equation(n)),
        catalog=lambda m: range(3, m + 1, 2),  # only odd orders have closed-form index matrices
    ),
    # The commutation that licenses stacking, its order the legs (k, l, i, j)
    # of its two maps.
    "commutes": Equation(
        "fg", "commutation", "commutation", _commutation_signatures,
        words=_commutation,
        orders=lambda n, f, g: ((f.in_legs, f.out_legs, g.in_legs, g.out_legs),),
        width=lambda legs: (max(legs), f"commutation maps have up to {max(legs)} legs on a side, over the cap"),
    ),
    # The compatibility relations (1)-(6) of an n-gon map T and a dual n-gon
    # map S, each one order; verify checks all six in one report.
    "relations": Equation(
        "TS", "relation ({})", "relations (1)-(6)", _relation_signatures,
        words=_relation,
        orders=lambda n, t, s: range(1, 7),
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


def check_equation(family: str, n: int | tuple, t: Tensor, s: Tensor | None = None) -> VerificationReport:
    """Does t (with s, the second map of a two-map equation) satisfy the
    equation of the table at order n?  The maps are refused by
    :func:`require_signatures` before the equation is staged."""
    maps, equation = require_signatures(family, n, (t, s)), EQUATIONS[family]
    legs, words, orders = equation.staged(n)
    sides = [[(maps[tag], positions) for tag, positions in word] for word in words]
    return _check_sides(equation.name.format(n), sides, legs, t.dim, t.ring, orders)


def check_orders(family: str, orders, t: Tensor, s: Tensor | None = None) -> VerificationReport:
    """One order's report, or one of several under the label, with
    ``details`` by order and the first failing order's deviation and witness."""
    reports = {str(n): check_equation(family, n, t, s) for n in orders}
    if len(reports) == 1:
        return next(iter(reports.values()))
    first = next((report for report in reports.values() if not report.holds), None)
    return VerificationReport(
        EQUATIONS[family].label, first is None, first.max_deviation if first else 0, t.shape, s.shape,
        first.witness if first else None, {n: report.holds for n, report in reports.items()},
    )


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
    """The interchange-style commutation that licenses stacking, of f on the
    rows and g on the columns of a grid of legs (see :func:`_commutation`).
    Maps whose leg counts differ by more than one are refused."""
    return check_equation("commutes", (f.in_legs, f.out_legs, g.in_legs, g.out_legs), f, g)


def check_relations_1_6(t: Tensor, s: Tensor) -> VerificationReport:
    """The six compatibility relations sufficient for the mixed relation, in
    one report whose ``details`` tell which hold.

    Relations 1-3 suffice for pentagon pairs; 4-6 are additionally needed
    when stacking the pair to higher odd-gon mixed pairs.
    """
    return check_orders("relations", range(1, 7), t, s)
