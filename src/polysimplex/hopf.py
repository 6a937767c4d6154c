"""Concrete (co)algebra and Hopf-algebra instances realized as tensors.

Only group-derived instances ship built in: the group algebra k[G] and its
function-algebra dual.  Arbitrary user bialgebras enter through the tensor
JSON format and are gated by :func:`check_axioms`, which decides every
law, commutativity and cocommutativity included, as two staged words of
the structure maps compared by the tensor checks; the flip is a swapped
pair of gather positions or an output order.
"""

from __future__ import annotations

from itertools import permutations

from ._record import record
from .rings import RATIONAL, ScalarRing
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
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        raise InvalidGroup("Cayley table is not associative")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        for b in range(self.order):
            if self.mul(a, b) == 0:
                return b
        raise InvalidGroup(f"element {a} has no inverse")

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.mul(a, b) == self.mul(b, a) for a in range(n) for b in range(n))

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

    def antipode_inverse(self) -> Tensor:
        if self.antipode is None:
            raise NotInvertible(f"{self.name or 'instance'} has no antipode")
        return invert(self.antipode)

    def is_commutative(self) -> bool:
        """m = m o flip: the product reading its inputs swapped."""
        return _holds(self, "commutative", 2, [(self.product, (2, 1))], [(self.product, (1, 2))])

    def is_cocommutative(self) -> bool:
        """flip o Delta = Delta: the coproduct read out in swapped order."""
        coproduct = [(self.coproduct, (1,))]
        return _holds(self, "cocommutative", 1, coproduct, coproduct, ((2, 1), None))


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

    The instance is immutable, so the report is computed once and kept in
    its ``__dict__``; every later call returns that same report.
    """
    report = vars(h).get("_axioms")
    if report is None:
        report = vars(h)["_axioms"] = _axioms_report(h)
    return report


def _holds(h: HopfInstance, law: str, legs: int, lhs, rhs, orders=(None, None)) -> bool:
    """Does the law, two staged words on ``legs`` legs, hold for ``h``?"""
    return _check_sides(law, (lhs, rhs), legs, h.dim, h.ring, orders).holds


def _axioms_report(h: HopfInstance) -> VerificationReport:
    m, cop, eta, eps = h.product, h.coproduct, h.unit, h.counit
    # Each law is one or more staged words (legs, lhs, rhs); eta opens its
    # leg after the last one, and eps closes the leg it reads.
    laws = {
        "associative": [(3, [(m, (1, 2)), (m, (1, 2))], [(m, (2, 3)), (m, (1, 2))])],
        "unit": [(1, [(eta, ()), (m, (2, 1))], []), (1, [(eta, ()), (m, (1, 2))], [])],
        "coassociative": [(1, [(cop, (1,)), (cop, (1,))], [(cop, (1,)), (cop, (2,))])],
        "counit": [(1, [(cop, (1,)), (eps, (1,))], []), (1, [(cop, (1,)), (eps, (2,))], [])],
        "bialgebra_product": [
            (2, [(m, (1, 2)), (cop, (1,))], [(cop, (1,)), (cop, (3,)), (m, (1, 3)), (m, (2, 3))])
        ],
        "bialgebra_unit": [(0, [(eta, ()), (cop, (1,))], [(eta, ()), (eta, ())])],
        "bialgebra_counit": [(2, [(m, (1, 2)), (eps, (1,))], [(eps, (1,)), (eps, (1,))])],
        "bialgebra_scalar": [(0, [(eta, ()), (eps, (1,))], [])],
    }
    details = {law: all(_holds(h, law, *word) for word in words) for law, words in laws.items()}
    details["commutative"] = h.is_commutative()
    details["cocommutative"] = h.is_cocommutative()
    axioms = list(laws)
    if h.antipode is not None:
        s, unit_counit = h.antipode, [(eps, (1,)), (eta, ())]
        details["antipode_left"] = _holds(h, "antipode_left", 1, [(cop, (1,)), (s, (1,)), (m, (1, 2))], unit_counit)
        details["antipode_right"] = _holds(h, "antipode_right", 1, [(cop, (1,)), (s, (2,)), (m, (1, 2))], unit_counit)
        details["antipode_invertible"] = is_invertible(s)
        axioms += ["antipode_left", "antipode_right"]
    failing = [name for name in axioms if not details[name]]
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
