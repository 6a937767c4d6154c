"""Set-theoretic polygon equations over a finite base set.

Solutions here are plain functions X^k -> X^l evaluated pointwise, with no
linearization.  The checks run the same compiled plan as the function
path of :func:`polysimplex.tensor.contract_staged`, on value tuples
instead of basis digits, with the map's table keyed by argument tuples:
no scalar arithmetic and no per-tuple slot bookkeeping.  The six
lifting constructions between neighbouring polygon orders are implemented
with their fixed-point criteria checked in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .simplicial import compile_polygon
from .tensor import ShapeError, _push, _staged_plan
from .verify import PreconditionFailed, VerificationReport, polygon_signature


@dataclass(frozen=True)
class FiniteMap:
    """A total function X^in_arity -> X^out_arity on X = {0..base-1}."""

    base: int
    in_arity: int
    out_arity: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.base < 1:
            raise ShapeError("base set must be non-empty")
        if len(self.table) != self.base**self.in_arity:
            raise ShapeError(
                f"table has {len(self.table)} rows, expected {self.base ** self.in_arity}"
            )
        for row in self.table:
            if len(row) != self.out_arity or any(x < 0 or x >= self.base for x in row):
                raise ShapeError(f"table row {row} invalid for arity/base")

    @staticmethod
    def from_callable(base: int, in_arity: int, out_arity: int, fn) -> "FiniteMap":
        table = tuple(
            tuple(fn(args)) for args in product(range(base), repeat=in_arity)
        )
        return FiniteMap(base, in_arity, out_arity, table)

    def _rank(self, args: tuple[int, ...]) -> int:
        r = 0
        for x in args:
            r = r * self.base + x
        return r

    def __call__(self, args) -> tuple[int, ...]:
        args = tuple(args)
        if len(args) != self.in_arity:
            raise ShapeError(f"expected {self.in_arity} arguments, got {args}")
        return self.table[self._rank(args)]

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
        entries = {
            tuple(int(p) for p in key.split(",") if p != ""): tuple(value)
            for key, value in data["table"].items()
        }

        def fn(args):
            if args not in entries:
                raise ShapeError(f"table is missing input {args}")
            return entries[args]

        return FiniteMap.from_callable(base, k, l, fn)


def _lookup(fmap: FiniteMap) -> dict:
    """The table of fmap keyed by argument tuples."""
    return dict(zip(product(range(fmap.base), repeat=fmap.in_arity), fmap.table))


def apply_staged(fmap: FiniteMap, gathers, values) -> tuple[int, ...]:
    """Run staged placements of fmap, reading the legs at each gather."""
    values = tuple(values)
    gathers = tuple(tuple(gather) for gather in gathers)
    if any(len(gather) != fmap.in_arity for gather in gathers):
        raise ShapeError(f"every gather must name {fmap.in_arity} legs, got {gathers}")
    plan, _ = _staged_plan(len(values), tuple((gather, fmap.out_arity) for gather in gathers))
    return _push(plan, (_lookup(fmap),) * len(plan), values)


@cache
def _polygon_plans(n: int, dual: bool) -> tuple[int, tuple, tuple]:
    """Free-input count and per-side plans of the compiled (dual) n-gon."""
    out_arity = polygon_signature(n, dual)[1]
    lhs, rhs = compile_polygon(n, dual)
    legs = len(lhs.free_inputs)
    lhs_plan, rhs_plan = (
        _staged_plan(legs, tuple((positions, out_arity) for _, positions in side.gather_positions()))[0]
        for side in (lhs, rhs)
    )
    return legs, lhs_plan, rhs_plan


def check_polygon_set(fmap: FiniteMap, n: int, dual: bool = False) -> VerificationReport:
    """Exhaustive pointwise check of the (dual) n-gon equation.

    Tuples run in product order; the witness is the first failing one.
    """
    want = polygon_signature(n, dual)
    if (fmap.in_arity, fmap.out_arity) != want:
        raise ShapeError(
            f"{'dual ' if dual else ''}{n}-gon needs arity {want[0]}->{want[1]}, "
            f"got {fmap.in_arity}->{fmap.out_arity}"
        )
    legs, lhs_plan, rhs_plan = _polygon_plans(n, dual)
    table = _lookup(fmap)
    lhs_tables, rhs_tables = (table,) * len(lhs_plan), (table,) * len(rhs_plan)
    name = f"set-theoretic {'dual ' if dual else ''}{n}-gon"
    shape = (fmap.base, fmap.in_arity, fmap.out_arity)
    for values in product(range(fmap.base), repeat=legs):
        lhs = _push(lhs_plan, lhs_tables, values)
        rhs = _push(rhs_plan, rhs_tables, values)
        if lhs != rhs:
            witness = {"in": list(values), "lhs": list(lhs), "rhs": list(rhs)}
            return VerificationReport(name, False, 1, shape, shape, witness)
    return VerificationReport(name, True, 0, shape, shape)


@dataclass(frozen=True)
class LiftOutcome:
    """A lifted map together with the verification of its target equation."""

    result: FiniteMap
    report: VerificationReport
    fixed_point_ok: bool = True


def _require(source: FiniteMap, n: int, dual: bool) -> None:
    report = check_polygon_set(source, n, dual)
    if not report.holds:
        raise PreconditionFailed(f"source map fails the {report.equation}")


def lift_dual_even_to_odd(s: FiniteMap, k: int) -> LiftOutcome:
    """a -> (a_1, S(a)) turns a dual 2k-gon solution into a (2k+1)-gon one."""
    _require(s, 2 * k, dual=True)
    lifted = FiniteMap.from_callable(s.base, k, k, lambda a: (a[0],) + s(a))
    return LiftOutcome(lifted, check_polygon_set(lifted, 2 * k + 1))


def lift_dual_even_to_odd_pinned(s: FiniteMap, u: int, k: int) -> LiftOutcome:
    """a -> (u, S(a)); a solution exactly when u is a diagonal fixed point."""
    _require(s, 2 * k, dual=True)
    lifted = FiniteMap.from_callable(s.base, k, k, lambda a: (u,) + s(a))
    fixed = s((u,) * k) == (u,) * (k - 1)
    return LiftOutcome(lifted, check_polygon_set(lifted, 2 * k + 1), fixed)


def lift_odd_to_even(t: FiniteMap, k: int) -> LiftOutcome:
    """a -> (T(a), a_k) turns a (2k+1)-gon solution into a (2k+2)-gon one."""
    _require(t, 2 * k + 1, dual=False)
    lifted = FiniteMap.from_callable(t.base, k, k + 1, lambda a: t(a) + (a[-1],))
    return LiftOutcome(lifted, check_polygon_set(lifted, 2 * k + 2))


def lift_odd_to_even_pinned(t: FiniteMap, u: int, k: int) -> LiftOutcome:
    """a -> (T(a), u); a solution exactly when u is a diagonal fixed point."""
    _require(t, 2 * k + 1, dual=False)
    lifted = FiniteMap.from_callable(t.base, k, k + 1, lambda a: t(a) + (u,))
    fixed = t((u,) * k) == (u,) * k
    return LiftOutcome(lifted, check_polygon_set(lifted, 2 * k + 2), fixed)


def lift_dual_odd_to_even(s: FiniteMap, k: int) -> LiftOutcome:
    """a -> (a_1, S(a)) turns a dual (2k+1)-gon solution into a (2k+2)-gon one."""
    _require(s, 2 * k + 1, dual=True)
    lifted = FiniteMap.from_callable(s.base, k, k + 1, lambda a: (a[0],) + s(a))
    return LiftOutcome(lifted, check_polygon_set(lifted, 2 * k + 2))


def lift_dual_odd_to_even_pinned(s: FiniteMap, u: int, k: int) -> LiftOutcome:
    """a -> (u, S(a)); a solution exactly when u is a diagonal fixed point."""
    _require(s, 2 * k + 1, dual=True)
    lifted = FiniteMap.from_callable(s.base, k, k + 1, lambda a: (u,) + s(a))
    fixed = s((u,) * k) == (u,) * k
    return LiftOutcome(lifted, check_polygon_set(lifted, 2 * k + 2), fixed)


LIFTS = {
    "dual-even-to-odd": lift_dual_even_to_odd,
    "dual-even-to-odd-pinned": lift_dual_even_to_odd_pinned,
    "odd-to-even": lift_odd_to_even,
    "odd-to-even-pinned": lift_odd_to_even_pinned,
    "dual-odd-to-even": lift_dual_odd_to_even,
    "dual-odd-to-even-pinned": lift_dual_odd_to_even_pinned,
}

ENUMERATION_CAP = {"base": 3, "k": 2}


def enumerate_set_solutions(n: int, base: int, dual: bool = False) -> list[FiniteMap]:
    """All solutions of the (dual) n-gon equation over {0..base-1}.

    Deterministic: candidates are generated and returned in lexicographic
    table order.  Capped at base <= 3 and k <= 2; larger instances must be
    user supplied.
    """
    in_arity, out_arity = polygon_signature(n, dual)
    k = (n - 1) // 2 if n % 2 else n // 2
    if base > ENUMERATION_CAP["base"] or k > ENUMERATION_CAP["k"]:
        raise ShapeError(
            f"enumeration capped at base <= {ENUMERATION_CAP['base']}, "
            f"k <= {ENUMERATION_CAP['k']}"
        )
    rows = base**in_arity
    outputs = list(product(range(base), repeat=out_arity))
    found = []
    for choice in product(outputs, repeat=rows):
        candidate = FiniteMap(base, in_arity, out_arity, tuple(choice))
        if check_polygon_set(candidate, n, dual).holds:
            found.append(candidate)
    return found
