"""Every solution-producing procedure: transforms, trace descent, stacking,
bialgebra towers, mixed pairs, and the polygon-to-simplex constructions.

Constructors are fail-closed: each one verifies its own output with the
matching checker before returning, unless ``verify=False`` is passed for
performance experiments.  Inputs failing a precondition raise
:class:`PreconditionFailed`; a constructed solution failing its verifier
raises :class:`SelfCheckFailed` (which would indicate a bug, not bad data).

The towers and stacked mixed pairs are chains of maps joined by partial
composition: :func:`_tower_tensor` lays out every alternating chain and
:func:`_fold_chain` folds every chain, pair by pair, left to right.  A
chain is not evaluated as one staged word, since that would reassociate
the products and sums of its entries and so change ``f64`` results.
"""

from __future__ import annotations

from itertools import product
from math import prod

from ._record import record
from .hopf import HopfInstance, check_axioms
from .simplicial import pair_to_simplex_map
from .tensor import (
    NotInvertible,
    ShapeError,
    Tensor,
    _is_count,
    compose,
    contract_staged,
    identity_tensor,
    invert,
    is_invertible,
    partial_compose_left,
    partial_compose_right,
    partial_trace_left,
    partial_trace_right,
    regroup,
    tensor_product,
)
from .verify import (
    PreconditionFailed,
    SelfCheckFailed,
    VerificationReport,
    check_commutes,
    check_equation,
    check_mixed,
    check_relations_1_6,
    require_signatures,
)

FAMILIES = ("polygon", "dual-polygon", "simplex")


@record
class SolutionDescriptor:
    """A tensor tagged with the equation it solves and how it was built."""

    family: str
    order: int
    tensor: Tensor
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ShapeError(f"unknown family {self.family!r}")
        if not _is_count(self.order):
            raise ShapeError(f"order {self.order!r} must be an integer")
        require_signatures(self.family, self.order, (self.tensor,))

    def derived(self, family: str, order: int, tensor: Tensor, note: str) -> "SolutionDescriptor":
        return SolutionDescriptor(family, order, tensor, self.provenance + (note,))

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "order": self.order,
            "provenance": list(self.provenance),
            "tensor": self.tensor.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "SolutionDescriptor":
        provenance = data.get("provenance", [])
        if not isinstance(provenance, list) or not all(isinstance(note, str) for note in provenance):
            raise ShapeError(f"provenance {provenance!r} must be a list of strings")
        return SolutionDescriptor(
            data["family"], data["order"], Tensor.from_json_dict(data["tensor"]), tuple(provenance)
        )


def verify_descriptor(desc: SolutionDescriptor) -> VerificationReport:
    return check_equation(desc.family, desc.order, desc.tensor)


def _self_check(desc: SolutionDescriptor, verify: bool) -> SolutionDescriptor:
    if verify:
        report = verify_descriptor(desc)
        if not report.holds:
            raise SelfCheckFailed(
                f"constructed {desc.family} order {desc.order} fails its equation "
                f"(witness {report.witness})"
            )
    return desc


# -- transforms of single solutions -------------------------------------------


def invert_to_dual(desc: SolutionDescriptor, verify: bool = True) -> SolutionDescriptor:
    """T -> T^-1 swaps an odd-gon solution with a dual odd-gon solution."""
    if desc.family not in ("polygon", "dual-polygon") or desc.order % 2 == 0:
        raise PreconditionFailed("inverse transform applies to odd-gon solutions")
    try:
        inverse = invert(desc.tensor)
    except NotInvertible as exc:
        raise PreconditionFailed(f"tensor is singular: {exc}") from exc
    family = "dual-polygon" if desc.family == "polygon" else "polygon"
    return _self_check(desc.derived(family, desc.order, inverse, "invert"), verify)


def conjugate(desc: SolutionDescriptor, phi: Tensor, verify: bool = True) -> SolutionDescriptor:
    """Conjugation by an automorphism of V, applied legwise."""
    if desc.family == "simplex":
        raise PreconditionFailed("conjugation transform is stated for polygon families")
    if (phi.in_legs, phi.out_legs) != (1, 1):
        raise ShapeError("phi must be a 1->1 map")
    try:
        phi_inv = invert(phi)
    except NotInvertible as exc:
        raise PreconditionFailed(f"phi is singular: {exc}") from exc
    t = desc.tensor
    steps = [(phi, (i,)) for i in range(1, t.in_legs + 1)]
    steps.append((t, range(1, t.in_legs + 1)))
    steps += [(phi_inv, (j,)) for j in range(1, t.out_legs + 1)]
    conj = contract_staged(steps, t.in_legs, t.dim, t.ring)
    return _self_check(desc.derived(desc.family, desc.order, conj, "conjugate"), verify)


def bar_sigma_conjugate(desc: SolutionDescriptor, verify: bool = True) -> SolutionDescriptor:
    """Order-reversal conjugation: reverse the legs on both sides of T.

    Odd orders swap polygon <-> dual-polygon; even orders stay in their
    family (with the reversal sized per side).  One staged step reads the
    inputs in reverse and the output order reverses the outputs.
    """
    if desc.family == "simplex":
        raise PreconditionFailed("reversal transform is stated for polygon families")
    t = desc.tensor
    k, l = t.in_legs, t.out_legs
    reversed_in, reversed_out = tuple(range(k, 0, -1)), tuple(range(l, 0, -1))
    transformed = contract_staged([(t, reversed_in)], k, t.dim, t.ring, reversed_out)
    if desc.order % 2:
        family = "dual-polygon" if desc.family == "polygon" else "polygon"
    else:
        family = desc.family
    return _self_check(desc.derived(family, desc.order, transformed, "bar-sigma"), verify)


def trace_descend(
    desc: SolutionDescriptor, side: str = "left", verify: bool = True
) -> SolutionDescriptor:
    """Partial trace descent: polygon order n -> n-2 (normalized by 1/dim),
    simplex order n -> n-1 (no normalization)."""
    if side not in ("left", "right"):
        raise ShapeError(f"side must be 'left' or 'right', got {side!r}")
    t = desc.tensor
    if not is_invertible(t):
        raise PreconditionFailed("trace descent is stated for invertible solutions")
    traced = partial_trace_left(t) if side == "left" else partial_trace_right(t)
    if desc.family == "simplex":
        if desc.order < 2:
            raise PreconditionFailed("no simplex equation below order 1")
        out = desc.derived("simplex", desc.order - 1, traced, f"trace-{side}")
        return _self_check(out, verify)
    if desc.order % 2 == 0 or desc.order < 5:
        raise PreconditionFailed("polygon trace descent needs an odd order >= 5")
    normalized = traced.scale(t.ring.invert(t.ring.coerce(t.dim)))
    out = desc.derived(desc.family, desc.order - 2, normalized, f"trace-{side}/dim")
    return _self_check(out, verify)


def trace_descend_mixed(
    t_desc: SolutionDescriptor,
    s_desc: SolutionDescriptor,
    side: str = "left",
    verify: bool = True,
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """Descend a verified mixed pair two polygon orders at once."""
    _require_mixed_pair(t_desc, s_desc)
    if t_desc.order % 2 == 0 or t_desc.order < 5:
        raise PreconditionFailed("mixed trace descent needs an odd order >= 5")
    if not (is_invertible(t_desc.tensor) and is_invertible(s_desc.tensor)):
        raise PreconditionFailed("mixed trace descent needs invertible solutions")
    new_t = trace_descend(t_desc, side, verify)
    new_s = trace_descend(s_desc, side, verify)
    if verify:
        report = check_mixed(new_t.tensor, new_s.tensor, t_desc.order - 2)
        if not report.holds:
            raise SelfCheckFailed("traced pair fails the mixed relation")
    return new_t, new_s


# -- stacking ------------------------------------------------------------------

_STACK_CASES = {
    # (x.family, x.order parity, y.family) -> (mode->family, order offsets)
    ("polygon", 1, "polygon"): ("polygon", {"compose_left": -2, "tensor": 0}),
    ("dual-polygon", 1, "dual-polygon"): ("dual-polygon", {"compose_right": -2, "tensor": 0}),
    ("dual-polygon", 0, "polygon"): ("dual-polygon", {"compose_left": -3, "tensor": -1}),
    ("polygon", 0, "dual-polygon"): ("polygon", {"compose_right": -3, "tensor": -1}),
}


def stack_arithmetic(
    x_family: str, x_order: int, y_family: str, y_order: int, mode: str
) -> tuple[str, int]:
    """(family, order) of the stack result, or raise on inadmissible input."""
    key = (x_family, x_order % 2, y_family)
    if key not in _STACK_CASES:
        raise PreconditionFailed(
            f"no stacking case for {x_family} order {x_order} with {y_family}"
        )
    family, offsets = _STACK_CASES[key]
    if mode not in offsets:
        raise PreconditionFailed(
            f"mode {mode!r} inadmissible for {x_family} order {x_order} with {y_family}"
        )
    return family, y_order + (x_order - 1 if x_order % 2 else x_order) + offsets[mode]


def stack(
    x: SolutionDescriptor,
    y: SolutionDescriptor,
    mode: str,
    verify: bool = True,
) -> SolutionDescriptor:
    """Partial composition or tensor product of commuting solutions.

    The first argument is the fixed-order factor from the case table; the
    pair must satisfy the interchange commutation, checked here.
    """
    family, order = stack_arithmetic(x.family, x.order, y.family, y.order, mode)
    commutes = check_commutes(x.tensor, y.tensor)
    if not commutes.holds:
        raise PreconditionFailed(
            f"stack inputs do not commute (witness {commutes.witness})"
        )
    if mode == "compose_left":
        tensor = partial_compose_left(x.tensor, y.tensor)
    elif mode == "compose_right":
        tensor = partial_compose_right(x.tensor, y.tensor)
    else:  # "tensor"; stack_arithmetic refuses every other mode
        tensor = tensor_product(x.tensor, y.tensor)
    out = SolutionDescriptor(
        family, order, tensor, x.provenance + y.provenance + (f"stack-{mode}",)
    )
    return _self_check(out, verify)


# -- bialgebra towers ----------------------------------------------------------


def _require_axioms(h: HopfInstance, commutative: bool, antipode: bool) -> None:
    report = check_axioms(h)
    if not report.holds:
        raise PreconditionFailed(
            f"instance fails bialgebra axioms: {report.witness['failing']}"
        )
    if commutative and not (report.details["commutative"] and report.details["cocommutative"]):
        raise PreconditionFailed("instance must be commutative and cocommutative")
    if antipode and (h.antipode is None or not report.details.get("antipode_invertible")):
        raise PreconditionFailed("instance needs an invertible antipode")


def _fold_chain(maps, connectors) -> Tensor:
    """Fold ``maps`` left to right, pair by pair: connector ``r`` joins the
    next map by ``partial_compose_right``, ``l`` by ``partial_compose_left``."""
    result = maps[0]
    for conn, nxt in zip(connectors, maps[1:]):
        if conn == "r":
            result = partial_compose_right(result, nxt)
        else:
            result = partial_compose_left(result, nxt)
    return result


def _tower_tensor(n: int, blocks, dual: bool) -> Tensor:
    """The alternating chain solving the (dual) n-gon, from one (coproduct,
    product) pair per block: map i is ``blocks[i // 2][(i + dual) % 2]``,
    joined by ``r`` and ``l`` in turn (``l`` and ``r`` when dual)."""
    if n == 3:
        delta = blocks[0][0]
        return identity_tensor(delta.dim, 1, delta.ring)
    count = n - 3  # 2k-2 maps for n=2k+1, 2k-3 maps for n=2k
    maps = [blocks[i // 2][(i + dual) % 2] for i in range(count)]
    return _fold_chain(maps, ("lr" if dual else "rl") * count)


def bialgebra_tower(
    n: int, h: HopfInstance, dual: bool = False, verify: bool = True
) -> SolutionDescriptor:
    """The n-gon (or dual n-gon) solution over a commutative and
    cocommutative bialgebra, alternating coproduct and product blocks."""
    if n < 3:
        raise PreconditionFailed(f"no {n}-gon equation")
    _require_axioms(h, commutative=True, antipode=False)
    tensor = _tower_tensor(n, [(h.coproduct, h.product)] * n, dual)
    family = "dual-polygon" if dual else "polygon"
    out = SolutionDescriptor(family, n, tensor, (f"tower({h.name or 'H'},{n})",))
    return _self_check(out, verify)


def _mixed_radix_encode(digits, dims) -> int:
    value = 0
    for x, d in zip(digits, dims):
        value = value * d + x
    return value


def _componentwise(maps: list[Tensor]) -> Tensor:
    """The map acting as ``maps[m]`` on tensor factor m of (x)H_i.

    The maps share their leg counts; each leg of the result packs one digit
    per factor in mixed radix, the first factor slowest.
    """
    dims = [f.dim for f in maps]
    ring, in_legs, out_legs = maps[0].ring, maps[0].in_legs, maps[0].out_legs
    entries = {}
    for combo in product(*(f.entries.items() for f in maps)):
        value = ring.one
        for _, v in combo:
            value = ring.mul(value, v)
        out = tuple(_mixed_radix_encode([o[j] for (o, _), _ in combo], dims) for j in range(out_legs))
        inp = tuple(_mixed_radix_encode([i[j] for (_, i), _ in combo], dims) for j in range(in_legs))
        entries[(out, inp)] = value
    return Tensor(prod(dims), in_legs, out_legs, entries, ring)


def _hat_structure(instances: list[HopfInstance], index: int) -> tuple[Tensor, Tensor]:
    """(coproduct, product) number ``index`` on the tensor product algebra.

    Both are componentwise: (Delta, m) on every factor at index 0; for
    index >= 1, (id (x) eta, id (x) eps) on the factors before ``index`` and
    (eta (x) id, eps (x) id) on the rest.
    """
    pairs = []
    for m, h in enumerate(instances):
        one = identity_tensor(h.dim, 1, h.ring)
        if index == 0:
            pairs.append((h.coproduct, h.product))
        elif m < index:
            pairs.append((tensor_product(one, h.unit), tensor_product(one, h.counit)))
        else:
            pairs.append((tensor_product(h.unit, one), tensor_product(h.counit, one)))
    coproducts, products = zip(*pairs)
    return _componentwise(coproducts), _componentwise(products)


def multi_bialgebra_tower(
    k: int,
    instances: list[HopfInstance],
    even: bool = False,
    verify: bool = True,
) -> SolutionDescriptor:
    """Tower over a tensor product of bialgebras, using the block-splitting
    product/coproduct pairs on (x)H_i.

    Builds the (2k+1)-gon solution, or with ``even`` the 2k-gon one: the
    same chain without its last product, as the plain towers build even
    orders.  With enough factors the blocks used are 1..k-1 as in the two-factor
    worked example; a list of exactly k-1 factors shifts to blocks 0..k-2,
    whose 0 block is the componentwise structure.
    """
    if k < 2:
        raise PreconditionFailed("towers start at k = 2 (the pentagon)")
    if len(instances) < k - 1:
        raise PreconditionFailed(f"need at least {k - 1} factors, got {len(instances)}")
    ring = instances[0].ring
    if any(h.ring != ring for h in instances):
        raise PreconditionFailed("all factors must share a scalar ring")
    for h in instances:
        _require_axioms(h, commutative=False, antipode=False)
    start = 1 if len(instances) >= k else 0
    if start == 0:
        _require_axioms(instances[0], commutative=True, antipode=False)
    order = 2 * k if even else 2 * k + 1
    blocks = [_hat_structure(instances, i) for i in range(start, start + k - 1)]
    tensor = _tower_tensor(order, blocks, False)
    out = SolutionDescriptor(
        "polygon", order, tensor, (f"multi-tower(k={k},factors={len(instances)})",)
    )
    return _self_check(out, verify)


# -- Hopf pairs and mixed machinery --------------------------------------------


def _require_mixed_pair(t_desc: SolutionDescriptor, s_desc: SolutionDescriptor) -> None:
    if t_desc.family != "polygon" or s_desc.family != "dual-polygon":
        raise PreconditionFailed("mixed pair must be (polygon, dual-polygon)")
    if t_desc.order != s_desc.order:
        raise PreconditionFailed("mixed pair must share its order")
    report = check_mixed(t_desc.tensor, s_desc.tensor, t_desc.order)
    if not report.holds:
        raise PreconditionFailed(f"pair fails the mixed relation ({report.witness})")


def _self_check_pair(
    n: int, t: Tensor, s: Tensor, notes: tuple[str, str], verify: bool, failure: str
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """The mixed n-gon pair (t, s) with provenance ``notes``, checked: each
    map its own equation, then the pair the mixed relation, raising
    ``SelfCheckFailed(failure)`` on that."""
    t_desc = SolutionDescriptor("polygon", n, t, (notes[0],))
    s_desc = SolutionDescriptor("dual-polygon", n, s, (notes[1],))
    if verify:
        _self_check(t_desc, True)
        _self_check(s_desc, True)
        if not check_mixed(t, s, n).holds:
            raise SelfCheckFailed(failure)
    return t_desc, s_desc


def hopf_pentagon_pair(
    h: HopfInstance, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """The canonical pentagon / dual-pentagon pair on H (x) H.

    T multiplies the coproduct's second output into the second slot;
    S multiplies the inverse antipode of it from the right.
    """
    _require_axioms(h, commutative=False, antipode=True)
    t_tensor = partial_compose_right(h.coproduct, h.product)
    steps = [(h.coproduct, (1,)), (h.antipode_inverse(), (2,)), (h.product, (3, 2))]
    s_tensor = contract_staged(steps, 2, h.dim, h.ring)
    notes = (f"hopf-T({h.name or 'H'})", f"hopf-S({h.name or 'H'})")
    return _self_check_pair(5, t_tensor, s_tensor, notes, verify, "hopf pair fails the mixed relation")


def higher_mixed_pair(
    k: int, t: Tensor, s: Tensor, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """Stack k copies of a compatible pentagon pair into a mixed
    (2k+3)-gon pair; k = 1 returns the pair itself.

    Relations (1)-(3) gate a single copy; stacking more also needs (4)-(6).
    """
    if k < 1:
        raise PreconditionFailed("k must be >= 1")
    report = check_relations_1_6(t, s)
    needed = ("1", "2", "3") if k == 1 else ("1", "2", "3", "4", "5", "6")
    failing = [name for name in needed if not report.details[name]]
    if failing:
        raise PreconditionFailed(f"pair fails relations {failing}")
    t_tower = _fold_chain([t] * k, "l" * (k - 1))
    s_tower = _fold_chain([s] * k, "r" * (k - 1))
    n = 2 * k + 3
    notes = (f"mixed-tower-T(k={k})", f"mixed-tower-S(k={k})")
    return _self_check_pair(n, t_tower, s_tower, notes, verify, f"stacked pair fails the {n}-gon mixed relation")


def hopf_mixed_pair_antipode(
    k: int, h: HopfInstance, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """Mixed (2k+1)-gon pair over a commutative cocommutative Hopf algebra,
    with the dual tower built from the antipode-twisted product."""
    if k < 1:
        raise PreconditionFailed("k must be >= 1")
    _require_axioms(h, commutative=True, antipode=True)
    one = identity_tensor(h.dim, 1, h.ring)
    if k == 1:
        t_desc = SolutionDescriptor("polygon", 3, one, ("identity",))
        s_desc = SolutionDescriptor("dual-polygon", 3, one, ("identity",))
        return t_desc, s_desc
    m_twisted = contract_staged([(h.antipode, (1,)), (h.product, (1, 2))], 2, h.dim, h.ring)
    t_block = partial_compose_right(h.coproduct, h.product)
    s_block = partial_compose_right(h.coproduct, m_twisted)
    if verify:
        rel = check_relations_1_6(t_block, s_block)
        if not rel.holds:
            raise PreconditionFailed(f"twisted pair fails relations ({rel.details})")
    t_tower = _fold_chain([t_block] * (k - 1), "l" * (k - 2))
    s_tower = _fold_chain([s_block] * (k - 1), "r" * (k - 2))
    n = 2 * k + 1
    notes = (f"tower({h.name or 'H'},{n})", f"antipode-tower({h.name or 'H'},{n})")
    return _self_check_pair(n, t_tower, s_tower, notes, verify, f"antipode pair fails the {n}-gon mixed relation")


# -- simplex solutions from mixed pairs ----------------------------------------


def simplex_from_mixed(
    t_desc: SolutionDescriptor,
    s_desc: SolutionDescriptor,
    drop: str = "one",
    verify: bool = True,
) -> SolutionDescriptor:
    """Simplex solutions out of a verified mixed n-gon pair.

    drop='one' builds the (n-1)-simplex solution; drop='two' its left
    partial trace (an (n-2)-simplex solution); drop='two_right' the right
    partial trace.
    """
    if drop not in ("one", "two", "two_right"):
        raise ShapeError(f"drop must be one|two|two_right, got {drop!r}")
    _require_mixed_pair(t_desc, s_desc)
    n = t_desc.order
    if drop != "one" and n < 3:
        raise PreconditionFailed(f"cannot drop two orders from an {n}-gon pair")
    r = pair_to_simplex_map(t_desc.tensor, s_desc.tensor)
    provenance = t_desc.provenance + s_desc.provenance
    if drop == "one":
        out = SolutionDescriptor("simplex", n - 1, r, provenance + ("pair-to-simplex",))
        return _self_check(out, verify)
    traced = partial_trace_left(r) if drop == "two" else partial_trace_right(r)
    note = "pair-to-simplex/trace-left" if drop == "two" else "pair-to-simplex/trace-right"
    out = SolutionDescriptor("simplex", n - 2, traced, provenance + (note,))
    return _self_check(out, verify)


def yang_baxter_from_pair(
    t: Tensor, s: Tensor, mode: str = "compose", verify: bool = True
) -> SolutionDescriptor:
    """Yang-Baxter solutions from a pentagon / dual-pentagon mixed pair."""
    if mode not in ("compose", "four_factor"):
        raise ShapeError(f"mode must be compose|four_factor, got {mode!r}")
    t_desc = SolutionDescriptor("polygon", 5, t)
    s_desc = SolutionDescriptor("dual-polygon", 5, s)
    if verify:
        if not verify_descriptor(t_desc).holds or not verify_descriptor(s_desc).holds:
            raise PreconditionFailed("inputs are not a pentagon/dual-pentagon pair")
    _require_mixed_pair(t_desc, s_desc)
    if mode == "compose":
        out = SolutionDescriptor("simplex", 2, compose(s, t), ("yang-baxter-compose",))
        return _self_check(out, verify)
    word = contract_staged([(t, (2, 3)), (s, (2, 4)), (t, (1, 3)), (s, (1, 4))], 4, t.dim, t.ring)
    packed = regroup(word, 2)
    out = SolutionDescriptor("simplex", 2, packed, ("yang-baxter-four-factor",))
    return _self_check(out, verify)
