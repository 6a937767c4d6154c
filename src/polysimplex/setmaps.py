"""Set-theoretic polygon equations over a finite base set.

Solutions here are plain functions X^k -> X^l evaluated pointwise, with no
linearization.  The checks run the table-mode kernel of both sides of the
equation, the one the tensor check of a basis function compiles, on
values instead of basis digits, with ``FiniteMap.table`` as it stands as
the lookup table, since it has the form of a tensor's rank table
(``Tensor._table``): both sides run in one nest over the tuples in
product order, each lookup in the outermost loop that binds its inputs.
Like the tensor checks, they run it through
:func:`polysimplex.tensor._differing_columns`, once per dependency cone
of the final legs, with the legs outside the cone pinned to 0; only on a
difference does that run every tuple, and the first tuple whose sides
differ is the witness.  Runs of
legs without a lookup share one loop and the depth is capped, so the 28
free legs of a 15-gon compile as well as the 10 of a 9-gon.  Enumeration
is a depth-first search over table rows, pruned by the same kernel run
on the partial table, a list indexed by row rank with None where
unassigned, whose misses skip the undecided tuples.
The six lifting constructions between neighbouring polygon orders are
one rule, with their fixed-point criteria checked in both directions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from ._record import record
from .tensor import ShapeError, _differing_columns, _is_count, _output_masks, _staged_kernel, digits_to_rank
from .verify import EQUATIONS, PreconditionFailed, VerificationReport, polygon_signature, require_columns


@record
class FiniteMap:
    """A total function X^in_arity -> X^out_arity on X = {0..base-1}."""

    base: int
    in_arity: int
    out_arity: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # Values index the rank-keyed tables of the checks, so a bool or
        # float must not pass for an int.
        if not all(map(_is_count, (self.base, self.in_arity, self.out_arity))):
            raise ShapeError("base and arities must be integers")
        if self.base < 1:
            raise ShapeError("base set must be non-empty")
        if len(self.table) != self.base**self.in_arity:
            raise ShapeError(
                f"table has {len(self.table)} rows, expected {self.base ** self.in_arity}"
            )
        for row in self.table:
            if len(row) != self.out_arity or not all(_is_count(x) and 0 <= x < self.base for x in row):
                raise ShapeError(f"table row {row} invalid for arity/base")

    @classmethod
    def _trusted(cls, base: int, in_arity: int, out_arity: int, table: tuple) -> "FiniteMap":
        """Wrap a table already known to be valid: ``base**in_arity`` rows
        of ``out_arity`` values in range.  Internal results only; every
        outside input goes through ``__init__``."""
        fmap = object.__new__(cls)
        vars(fmap).update(base=base, in_arity=in_arity, out_arity=out_arity, table=table)
        return fmap

    @staticmethod
    def from_callable(base: int, in_arity: int, out_arity: int, fn) -> "FiniteMap":
        table = tuple(
            tuple(fn(args)) for args in product(range(base), repeat=in_arity)
        )
        return FiniteMap(base, in_arity, out_arity, table)

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """The output masks of ``table``, derived once and kept on the instance."""
        return _output_masks(self.table, self.base, self.in_arity, self.out_arity)

    def __call__(self, args) -> tuple[int, ...]:
        args = tuple(args)
        if len(args) != self.in_arity:
            raise ShapeError(f"expected {self.in_arity} arguments, got {args}")
        return self.table[digits_to_rank(args, self.base)]

    def to_json_dict(self) -> dict:
        table = {}
        for args in product(range(self.base), repeat=self.in_arity):
            table[",".join(map(str, args))] = list(self(args))
        return {
            "base": self.base,
            "in": self.in_arity,
            "out": self.out_arity,
            "table": table,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "FiniteMap":
        base, k, l = data["base"], data["in"], data["out"]
        # Also checked by __init__, but a float arity must not reach base**k,
        # nor a table of more rows than the cap.
        if not all(map(_is_count, (base, k, l))):
            raise ShapeError("base and arities must be integers")
        require_columns(base, k, "the finite map has")
        entries = {}
        for key, value in data["table"].items():
            args = tuple(int(p) for p in key.split(",") if p.isdecimal()) if key else ()
            # Only the spelling to_json_dict writes, so no two keys name one input.
            if key != ",".join(map(str, args)) or len(args) != k or not all(0 <= x < base for x in args):
                raise ShapeError(f"table key {key!r} is not an input of arity {k} over base {base}")
            entries[args] = tuple(value)
        # The keys are distinct inputs, so the table is total when there are
        # base**k of them, and a missing input is among the first len + 1.
        if len(entries) != base**k:
            missing = next(args for args in product(range(base), repeat=k) if args not in entries)
            raise ShapeError(f"table is missing input {missing}")
        return FiniteMap.from_callable(base, k, l, entries.__getitem__)


def apply_staged(fmap: FiniteMap, gathers, values) -> tuple[int, ...]:
    """Run staged placements of fmap, reading the legs at each gather."""
    values = tuple(values)
    gathers = tuple(tuple(gather) for gather in gathers)
    if any(len(gather) != fmap.in_arity for gather in gathers):
        raise ShapeError(f"every gather must name {fmap.in_arity} legs, got {gathers}")
    if not all(_is_count(v) and 0 <= v < fmap.base for v in values):
        raise ShapeError(f"values {values} must be integers in 0..{fmap.base - 1}")
    kernel = _staged_kernel(len(values), (tuple((gather, fmap.out_arity) for gather in gathers),), (None,))
    state, _ = next(kernel(tuple((v,) for v in values), fmap.base, *(fmap.table,) * len(gathers)))
    return state


def _polygon_sides(n: int, dual: bool) -> tuple[int, tuple]:
    """Free-input count and the two kernel shapes (``(gather positions,
    output count)`` per step) of the (dual) n-gon's staged words."""
    out_arity = polygon_signature(n, dual)[1]
    legs, words, _ = EQUATIONS["dual-polygon" if dual else "polygon"].staged(n)
    return legs, tuple(tuple((positions, out_arity) for _, positions in word) for word in words)


def check_polygon_set(fmap: FiniteMap, n: int, dual: bool = False) -> VerificationReport:
    """Exhaustive pointwise check of the (dual) n-gon equation.

    Tuples run in product order, over each dependency cone and, when a
    cone finds a difference, over all of them; the witness is the first
    failing one.
    """
    want = polygon_signature(n, dual)
    equation = EQUATIONS["dual-polygon" if dual else "polygon"].name.format(n)
    if (fmap.in_arity, fmap.out_arity) != want:
        raise ShapeError(f"{equation} needs arity {want[0]}->{want[1]}, got {fmap.in_arity}->{fmap.out_arity}")
    legs, sides = _polygon_sides(n, dual)
    require_columns(fmap.base, legs)
    name = f"set-theoretic {equation}"
    shape = (fmap.base, fmap.in_arity, fmap.out_arity)
    steps = sum(map(len, sides))
    differing = _differing_columns(legs, sides, (None, None), (fmap.table,) * steps, (fmap._masks,) * steps, fmap.base)
    if differing is None:
        return VerificationReport(name, True, 0, shape, shape)
    values, lhs, rhs = next(differing)
    witness = {"in": list(values), "lhs": list(lhs), "rhs": list(rhs)}
    return VerificationReport(name, False, 1, shape, shape, witness)


@record
class LiftOutcome:
    """A lifted map together with the verification of its target equation."""

    result: FiniteMap
    report: VerificationReport
    fixed_point_ok: bool = True


def _require(source: FiniteMap, n: int, dual: bool) -> None:
    report = check_polygon_set(source, n, dual)
    if not report.holds:
        raise PreconditionFailed(f"source map fails the {report.equation}")


def _lift(source: FiniteMap, n: int, dual: bool, extend, u=None) -> LiftOutcome:
    """The lift a -> extend(a, source(a)) of a solution of the (dual) n-gon
    equation, checked on the (n+1)-gon equation; pinned at ``u``, with
    whether u is a diagonal fixed point of the source."""
    _require(source, n, dual)
    k, l = source.in_arity, source.out_arity
    lifted = FiniteMap.from_callable(source.base, k, l + 1, lambda a: extend(a, source(a)))
    fixed = u is None or source((u,) * k) == (u,) * l
    return LiftOutcome(lifted, check_polygon_set(lifted, n + 1), fixed)


def lift_dual_even_to_odd(s: FiniteMap, k: int) -> LiftOutcome:
    """a -> (a_1, S(a)) turns a dual 2k-gon solution into a (2k+1)-gon one."""
    return _lift(s, 2 * k, True, lambda a, image: (a[0],) + image)


def lift_dual_even_to_odd_pinned(s: FiniteMap, u: int, k: int) -> LiftOutcome:
    """a -> (u, S(a)); a solution exactly when u is a diagonal fixed point."""
    return _lift(s, 2 * k, True, lambda a, image: (u,) + image, u)


def lift_odd_to_even(t: FiniteMap, k: int) -> LiftOutcome:
    """a -> (T(a), a_k) turns a (2k+1)-gon solution into a (2k+2)-gon one."""
    return _lift(t, 2 * k + 1, False, lambda a, image: image + (a[-1],))


def lift_odd_to_even_pinned(t: FiniteMap, u: int, k: int) -> LiftOutcome:
    """a -> (T(a), u); a solution exactly when u is a diagonal fixed point."""
    return _lift(t, 2 * k + 1, False, lambda a, image: image + (u,), u)


def lift_dual_odd_to_even(s: FiniteMap, k: int) -> LiftOutcome:
    """a -> (a_1, S(a)) turns a dual (2k+1)-gon solution into a (2k+2)-gon one."""
    return _lift(s, 2 * k + 1, True, lambda a, image: (a[0],) + image)


def lift_dual_odd_to_even_pinned(s: FiniteMap, u: int, k: int) -> LiftOutcome:
    """a -> (u, S(a)); a solution exactly when u is a diagonal fixed point."""
    return _lift(s, 2 * k + 1, True, lambda a, image: (u,) + image, u)


ENUMERATION_CAP = {"base": 3, "k": 2}


def enumerate_set_solutions(n: int, base: int, dual: bool = False) -> list[FiniteMap]:
    """All solutions of the (dual) n-gon equation over {0..base-1}.

    A depth-first search assigns the table rows in order, trying outputs in
    lexicographic order, and drops a partial table as soon as some tuple
    has both sides determined and different.  The partial check after the
    last row has every side of every tuple determined, so a complete table
    that reaches the end is a solution.  Deterministic: solutions come out
    in lexicographic table order.  Capped at base <= 3 and k <= 2; larger
    instances must be user supplied.
    """
    in_arity, out_arity = polygon_signature(n, dual)
    k = max(in_arity, out_arity)
    if base < 1:
        raise ShapeError("base set must be non-empty")
    if base > ENUMERATION_CAP["base"] or k > ENUMERATION_CAP["k"]:
        raise ShapeError(
            f"enumeration capped at base <= {ENUMERATION_CAP['base']}, "
            f"k <= {ENUMERATION_CAP['k']}"
        )
    rows = base**in_arity
    outputs = list(product(range(base), repeat=out_arity))
    legs, sides = _polygon_sides(n, dual)
    steps = sum(map(len, sides))
    kernel = _staged_kernel(legs, sides, (None, None))
    domains = (range(base),) * legs
    table = [None] * rows  # indexed by row rank; None where unassigned
    found = []

    def extend(row: int) -> None:
        if row == rows:
            # Rows drawn from product(range(base), ...) are valid by construction.
            found.append(FiniteMap._trusted(base, in_arity, out_arity, tuple(table)))
            return
        for out in outputs:
            table[row] = out
            if next(kernel(domains, base, *(table,) * steps), None) is None:
                extend(row + 1)
        table[row] = None

    extend(0)
    return found
