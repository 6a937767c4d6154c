"""Concrete (co)algebra and Hopf-algebra instances realized as tensors.

Only group-derived instances ship built in: the group algebra k[G] and its
function-algebra dual.  Arbitrary user bialgebras enter through the tensor
JSON format and are gated by :func:`check_axioms`, which decides every
law of :data:`LAWS` by the tensor checks.  Each law is written there once,
as staged words of tags for the structure maps; the flip is a swapped
pair of gather positions or an output order.  A group's Cayley table,
as a finite map for m, runs the same words through the set check's driver.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations

from ._record import record
from .rings import RATIONAL, ScalarRing
from .setmaps import FiniteMap, _differing_tuples
from .tensor import NotInvertible, ShapeError, Tensor, _is_count, from_function, invert, is_invertible
from .verify import VerificationReport, _check_sides, require_columns


class InvalidGroup(ValueError):
    """The supplied Cayley table is not a group."""


@record
class GroupTable:
    """A finite group given by its Cayley table; identity is element 0."""

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.order
        if not n:
            raise InvalidGroup("Cayley table is empty; a group has at least its identity")
        if any(len(row) != n for row in self.table):
            raise InvalidGroup("Cayley table is not square")
        if not all(_is_count(x) for row in self.table for x in row):
            raise InvalidGroup("Cayley table entries must be integers")
        if any(x < 0 or x >= n for row in self.table for x in row):
            raise InvalidGroup("Cayley table entry out of range")
        if any(self.table[0][g] != g or self.table[g][0] != g for g in range(n)):
            raise InvalidGroup("element 0 is not the identity")
        for g in range(n):
            if sorted(self.table[g]) != list(range(n)) or sorted(
                row[g] for row in self.table
            ) != list(range(n)):
                raise InvalidGroup("Cayley table rows/columns are not permutations")
        if not _table_holds(self.table, "associative"):
            raise InvalidGroup("Cayley table is not associative")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.table[a].index(0)  # every row is a permutation

    def is_abelian(self) -> bool:
        return _table_holds(self.table, "commutative")

    def to_json_dict(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}

    @staticmethod
    def from_json_dict(data: dict) -> "GroupTable":
        table = tuple(tuple(row) for row in data["table"])
        order = data.get("order", len(table))
        if not _is_count(order):
            raise InvalidGroup(f"order {order!r} must be an integer")
        if len(table) != order:
            raise InvalidGroup("declared order disagrees with the table")
        require_columns(len(table), 3, "the associativity check of the group runs")
        return GroupTable(table)


def cyclic_group(n: int) -> GroupTable:
    return GroupTable(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def symmetric_group(n: int) -> GroupTable:
    """S_n with elements ordered so the identity permutation is element 0."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in elems) for p in elems
    )
    return GroupTable(table)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    index = {p: i for i, p in enumerate(pairs)}
    table = tuple(
        tuple(index[(g.mul(a1, a2), h.mul(b1, b2))] for (a2, b2) in pairs)
        for (a1, b1) in pairs
    )
    return GroupTable(table)


@record
class HopfInstance:
    """Structure tensors of a finite-dimensional (Hopf) bialgebra."""

    dim: int
    unit: Tensor
    counit: Tensor
    product: Tensor
    coproduct: Tensor
    antipode: Tensor | None = None
    name: str = ""

    def __post_init__(self):
        expect = {
            "unit": (0, 1),
            "counit": (1, 0),
            "product": (2, 1),
            "coproduct": (1, 2),
        }
        for field_name, (k, l) in expect.items():
            t = getattr(self, field_name)
            if (t.in_legs, t.out_legs) != (k, l) or t.dim != self.dim:
                raise ShapeError(f"{field_name} must be a {k}->{l} tensor of dim {self.dim}")
        if self.antipode is not None and (
            self.antipode.in_legs,
            self.antipode.out_legs,
        ) != (1, 1):
            raise ShapeError("antipode must be a 1->1 tensor")

    @property
    def ring(self) -> ScalarRing:
        return self.product.ring

    @cached_property
    def _axioms(self) -> VerificationReport:
        """The report of :func:`check_axioms`."""
        return _axioms_report(self)

    def antipode_inverse(self) -> Tensor:
        if self.antipode is None:
            raise NotInvertible(f"{self.name or 'instance'} has no antipode")
        return invert(self.antipode)


def group_algebra(group: GroupTable, ring: ScalarRing = RATIONAL) -> HopfInstance:
    """k[G]: basis g, product from the table, grouplike coproduct."""
    d = group.order
    return HopfInstance(
        dim=d,
        unit=Tensor(d, 0, 1, {((0,), ()): ring.one}, ring),
        counit=Tensor(d, 1, 0, {((), (g,)): ring.one for g in range(d)}, ring),
        product=from_function(d, 2, 1, lambda x: (group.mul(x[0], x[1]),), ring),
        coproduct=from_function(d, 1, 2, lambda x: (x[0], x[0]), ring),
        antipode=from_function(d, 1, 1, lambda x: (group.inverse(x[0]),), ring),
        name=f"k[G{d}]",
    )


def dual_group_algebra(group: GroupTable, ring: ScalarRing = RATIONAL) -> HopfInstance:
    """Functions on G: pointwise product, convolution-style coproduct."""
    d = group.order
    unit = Tensor(d, 0, 1, {((g,), ()): ring.one for g in range(d)}, ring)
    counit = Tensor(d, 1, 0, {((), (0,)): ring.one}, ring)
    prod_entries = {((g,), (g, g)): ring.one for g in range(d)}
    cop_entries = {}
    for h in range(d):
        for k in range(d):
            cop_entries[((h, k), (group.mul(h, k),))] = ring.one
    return HopfInstance(
        dim=d,
        unit=unit,
        counit=counit,
        product=Tensor(d, 2, 1, prod_entries, ring),
        coproduct=Tensor(d, 1, 2, cop_entries, ring),
        antipode=from_function(d, 1, 1, lambda x: (group.inverse(x[0]),), ring),
        name=f"Fun(G{d})",
    )


def check_axioms(h: HopfInstance) -> VerificationReport:
    """Report on every (co)algebra, bialgebra and antipode identity.

    The instance is immutable, so the report is computed once, as its
    cached ``_axioms``; every later call returns that same report.
    """
    return h._axioms


# Each law is one or more staged words (legs, lhs, rhs[, output orders])
# over m, c, u, e and S (product, coproduct, unit, counit, antipode); u
# opens its leg after the last one, and e closes the leg it reads.
LAWS = {
    "associative": [(3, [("m", (1, 2)), ("m", (1, 2))], [("m", (2, 3)), ("m", (1, 2))])],
    "unit": [(1, [("u", ()), ("m", (2, 1))], []), (1, [("u", ()), ("m", (1, 2))], [])],
    "coassociative": [(1, [("c", (1,)), ("c", (1,))], [("c", (1,)), ("c", (2,))])],
    "counit": [(1, [("c", (1,)), ("e", (1,))], []), (1, [("c", (1,)), ("e", (2,))], [])],
    "bialgebra_product": [
        (2, [("m", (1, 2)), ("c", (1,))], [("c", (1,)), ("c", (3,)), ("m", (1, 3)), ("m", (2, 3))])
    ],
    "bialgebra_unit": [(0, [("u", ()), ("c", (1,))], [("u", ()), ("u", ())])],
    "bialgebra_counit": [(2, [("m", (1, 2)), ("e", (1,))], [("e", (1,)), ("e", (1,))])],
    "bialgebra_scalar": [(0, [("u", ()), ("e", (1,))], [])],
    # m = m o flip: the product reading its inputs swapped.
    "commutative": [(2, [("m", (2, 1))], [("m", (1, 2))])],
    # flip o Delta = Delta: the coproduct read out in swapped order.
    "cocommutative": [(1, [("c", (1,))], [("c", (1,))], ((2, 1), None))],
    "antipode_left": [(1, [("c", (1,)), ("S", (1,)), ("m", (1, 2))], [("e", (1,)), ("u", ())])],
    "antipode_right": [(1, [("c", (1,)), ("S", (2,)), ("m", (1, 2))], [("e", (1,)), ("u", ())])],
}


def _table_holds(table, law: str) -> bool:
    """Does the Cayley ``table``, as m, satisfy the law's one word?  Its
    finite map runs the set check's compare driver."""
    [(legs, *words)] = LAWS[law]
    cayley = FiniteMap._trusted(len(table), 2, 1, tuple((c,) for row in table for c in row))
    return _differing_tuples(legs, words, (None, None), {"m": cayley}) is None


def _holds(h: HopfInstance, law: str, legs: int, lhs, rhs, orders=(None, None)) -> bool:
    """Does the law's word on ``legs`` legs hold for ``h``, its maps put in for the tags?"""
    maps = {"m": h.product, "c": h.coproduct, "u": h.unit, "e": h.counit, "S": h.antipode}
    sides = [[(maps[tag], positions) for tag, positions in word] for word in (lhs, rhs)]
    return _check_sides(law, sides, legs, h.dim, h.ring, orders).holds


def _axioms_report(h: HopfInstance) -> VerificationReport:
    laws = [law for law in LAWS if h.antipode is not None or not law.startswith("antipode")]
    details = {law: all(_holds(h, law, *word) for word in LAWS[law]) for law in laws}
    # Commutativity and cocommutativity are reported, not required.
    failing = [law for law, holds in details.items() if not (holds or law in ("commutative", "cocommutative"))]
    if h.antipode is not None:
        details["antipode_invertible"] = is_invertible(h.antipode)
    return VerificationReport(
        f"bialgebra axioms for {h.name or 'instance'}",
        not failing,
        1 if failing else 0,
        h.product.shape,
        h.coproduct.shape,
        witness={"failing": failing} if failing else None,
        details=details,
    )


def settheoretic_lift(fmap, ring: ScalarRing = RATIONAL) -> Tensor:
    """Realize a finite map X^k -> X^l as a 0/1 tensor on V = k^X."""
    return from_function(fmap.base, fmap.in_arity, fmap.out_arity, fmap, ring)
