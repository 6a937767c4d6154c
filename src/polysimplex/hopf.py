"""Concrete (co)algebra and Hopf-algebra instances realized as tensors.

Only group-derived instances ship built in: the group algebra k[G] and its
function-algebra dual.  Arbitrary user bialgebras enter through the tensor
JSON format and are gated by :func:`check_axioms`.
"""

from __future__ import annotations

from itertools import permutations

from ._record import record
from .rings import RATIONAL, ScalarRing
from .tensor import (
    NotInvertible,
    ShapeError,
    Tensor,
    compose,
    flip,
    from_function,
    identity_tensor,
    invert,
    tensor_product,
)
from .verify import VerificationReport, _check_sides, require_columns


class InvalidGroup(ValueError):
    """The supplied Cayley table is not a group."""


@record
class GroupTable:
    """A finite group given by its Cayley table; identity is element 0."""

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.order
        if any(len(row) != n for row in self.table):
            raise InvalidGroup("Cayley table is not square")
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
        if len(table) != data.get("order", len(table)):
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
        return compose(self.product, flip(self.dim, self.ring)) == self.product

    def is_cocommutative(self) -> bool:
        return compose(flip(self.dim, self.ring), self.coproduct) == self.coproduct


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


def _axioms_report(h: HopfInstance) -> VerificationReport:
    d, ring = h.dim, h.ring
    one = identity_tensor(d, 1, ring)
    m, cop, eta, eps = h.product, h.coproduct, h.unit, h.counit

    details = {}
    # Staged words: the placed factors of these two laws hold d^3 and d^4 entries.
    associative = ([(m, (1, 2)), (m, (1, 2))], [(m, (2, 3)), (m, (1, 2))])
    details["associative"] = _check_sides("associative", associative, 3, d, ring).holds
    details["unit"] = (
        compose(m, tensor_product(eta, one)) == one
        and compose(m, tensor_product(one, eta)) == one
    )
    details["coassociative"] = compose(tensor_product(cop, one), cop) == compose(
        tensor_product(one, cop), cop
    )
    details["counit"] = (
        compose(tensor_product(eps, one), cop) == one
        and compose(tensor_product(one, eps), cop) == one
    )
    bialgebra = ([(m, (1, 2)), (cop, (1,))], [(cop, (1,)), (cop, (3,)), (m, (1, 3)), (m, (2, 3))])
    details["bialgebra_product"] = _check_sides("bialgebra product", bialgebra, 2, d, ring).holds
    details["bialgebra_unit"] = compose(cop, eta) == tensor_product(eta, eta)
    details["bialgebra_counit"] = compose(eps, m) == tensor_product(eps, eps)
    details["bialgebra_scalar"] = compose(eps, eta) == identity_tensor(d, 0, ring)
    details["commutative"] = h.is_commutative()
    details["cocommutative"] = h.is_cocommutative()
    axioms = [
        "associative",
        "unit",
        "coassociative",
        "counit",
        "bialgebra_product",
        "bialgebra_unit",
        "bialgebra_counit",
        "bialgebra_scalar",
    ]
    if h.antipode is not None:
        s = h.antipode
        eta_eps = compose(eta, eps)
        details["antipode_left"] = compose(m, compose(tensor_product(s, one), cop)) == eta_eps
        details["antipode_right"] = compose(m, compose(tensor_product(one, s), cop)) == eta_eps
        try:
            invert(s)
            details["antipode_invertible"] = True
        except NotInvertible:
            details["antipode_invertible"] = False
        axioms += ["antipode_left", "antipode_right"]
    holds = all(details[name] for name in axioms)
    witness = None
    if not holds:
        failing = [name for name in axioms if not details[name]]
        witness = {"failing": failing}
    return VerificationReport(
        f"bialgebra axioms for {h.name or 'instance'}",
        holds,
        0 if holds else 1,
        h.product.shape,
        h.coproduct.shape,
        witness=witness,
        details=details,
    )


def settheoretic_lift(fmap, ring: ScalarRing = RATIONAL) -> Tensor:
    """Realize a finite map X^k -> X^l as a 0/1 tensor on V = k^X."""
    return from_function(fmap.base, fmap.in_arity, fmap.out_arity, fmap, ring)
