"""Set-theoretic instances of the equations of ``verify.EQUATIONS``.

Solutions here are plain functions X^k -> X^l on a finite base set X,
evaluated pointwise, with no linearization.  :func:`check_set` checks any
equation of the table with finite maps put in for its tags.  It runs the
table-mode kernel the tensor check of a basis function compiles, on
values instead of basis digits, with ``FiniteMap.table`` as the lookup
table, through :func:`polysimplex.tensor._differing_columns`: once per
dependency cone of the final legs, and only on a difference over every
tuple in product order, the first differing tuple being the witness.  A
group's Cayley table runs the same driver on the Hopf laws' words.
Enumeration of (dual) polygon solutions is a depth-first search over
table rows, pruned by the same kernel run on the partial table, a list
indexed by row rank with None where unassigned, whose misses skip the
undecided tuples.  The six lifting constructions between neighbouring
polygon orders are one rule, with their fixed-point criteria checked in
both directions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from ._record import record
from .tensor import ShapeError, _differing_columns, _is_count, _output_masks, _staged_kernel, digits_to_rank
from .verify import EQUATIONS, PreconditionFailed, VerificationReport, require_columns


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
        of ``out_arity`` values in range, or the search's partial table
        (None where unassigned; its masks are never read).  Internal
        tables only; every outside input goes through ``__init__``."""
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
        inputs = product(range(self.base), repeat=self.in_arity)
        table = {",".join(map(str, args)): list(row) for args, row in zip(inputs, self.table)}
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


def _kernel_steps(words, maps: dict) -> tuple[tuple, tuple]:
    """The kernel shapes of both sides' ``(tag, gather positions)`` words
    and the map of every step, lhs steps first, ``maps[tag]`` put in for each tag."""
    sides = tuple(tuple((positions, maps[tag].out_arity) for tag, positions in word) for word in words)
    return sides, tuple(maps[tag] for word in words for tag, _ in word)


def _differing_tuples(legs: int, words, orders, maps: dict):
    """The compare driver on the words with ``maps`` put in: None when the sides
    agree on every tuple, else ``(tuple, lhs, rhs)`` where they differ, in product order."""
    sides, steps = _kernel_steps(words, maps)
    tables, masks = [f.table for f in steps], tuple(f._masks for f in steps)
    return _differing_columns(legs, sides, orders, tables, masks, next(iter(maps.values())).base)


def check_set(family: str, n, *maps: FiniteMap) -> VerificationReport:
    """Exhaustive pointwise check of ``EQUATIONS[family]`` at order n, the
    finite maps put in for its tags in order; the witness is the first
    tuple in product order whose sides differ."""
    equation = EQUATIONS[family]
    name = equation.name.format(n)
    want, got = equation.signatures(n), tuple((f.in_arity, f.out_arity) for f in maps)
    if got != want:
        want, got = (", ".join(f"{k}->{l}" for k, l in arities) for arities in (want, got))
        raise ShapeError(f"{name} needs arity {want}, got {got}")
    if len({f.base for f in maps}) > 1:
        raise ShapeError(f"the maps of the {name} must share their base set")
    legs, words, orders = equation.staged(n)
    require_columns(maps[0].base, legs)
    differing = _differing_tuples(legs, words, orders, dict(zip(equation.tags, maps)))
    shapes = [(f.base, f.in_arity, f.out_arity) for f in (maps[0], maps[-1])]
    first = None if differing is None else next(differing)
    witness = None if first is None else dict(zip(("in", "lhs", "rhs"), map(list, first)))
    return VerificationReport(f"set-theoretic {name}", first is None, 0 if first is None else 1, *shapes, witness)


def check_polygon_set(fmap: FiniteMap, n: int, dual: bool = False) -> VerificationReport:
    """Exhaustive pointwise check of the (dual) n-gon equation (see :func:`check_set`)."""
    return check_set("dual-polygon" if dual else "polygon", n, fmap)


@record
class LiftOutcome:
    """A lifted map together with the verification of its target equation."""

    result: FiniteMap
    report: VerificationReport
    fixed_point_ok: bool = True


def _lift(source: FiniteMap, n: int, dual: bool, extend, u=None) -> LiftOutcome:
    """The lift a -> extend(a, source(a)) of a solution of the (dual) n-gon
    equation, checked on the (n+1)-gon equation; pinned at ``u``, with
    whether u is a diagonal fixed point of the source."""
    if not (report := check_polygon_set(source, n, dual)).holds:
        raise PreconditionFailed(f"source map fails the {report.equation}")
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
    equation = EQUATIONS["dual-polygon" if dual else "polygon"]
    [(in_arity, out_arity)] = equation.signatures(n)
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
    legs, words, orders = equation.staged(n)
    partial = FiniteMap._trusted(base, in_arity, out_arity, [None] * rows)
    sides, steps = _kernel_steps(words, dict.fromkeys(equation.tags, partial))
    kernel = _staged_kernel(legs, sides, orders)
    domains = (range(base),) * legs
    table, tables = partial.table, [f.table for f in steps]
    found = []

    def extend(row: int) -> None:
        if row == rows:
            # Rows drawn from product(range(base), ...) are valid by construction.
            found.append(FiniteMap._trusted(base, in_arity, out_arity, tuple(table)))
            return
        for out in outputs:
            table[row] = out
            if next(kernel(domains, base, *tables), None) is None:
                extend(row + 1)
        table[row] = None

    extend(0)
    return found
