"""Every solution-producing procedure: transforms, trace descent, stacking,
bialgebra towers, mixed pairs, and the polygon-to-simplex constructions.

Constructors are fail-closed: each one verifies its own output with the
matching checker before returning, unless ``verify=False`` is passed for
performance experiments.  Inputs failing a precondition raise
:class:`PreconditionFailed`; a constructed solution failing its verifier
raises :class:`SelfCheckFailed` (which would indicate a bug, not bad data).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .hopf import HopfInstance, check_axioms
from .indices import bar_sigma
from .tensor import (
    LegPermutation,
    NotInvertible,
    ShapeError,
    Tensor,
    compose,
    contract_staged,
    flip,
    identity_tensor,
    invert,
    is_invertible,
    partial_compose_left,
    partial_compose_right,
    partial_trace_left,
    partial_trace_right,
    permutation_tensor,
    regroup,
    tensor_product,
)
from .verify import (
    PreconditionFailed,
    SelfCheckFailed,
    VerificationReport,
    check_commutes,
    check_mixed,
    check_polygon,
    check_relations_1_6,
    check_simplex,
    polygon_signature,
)

FAMILIES = ("polygon", "dual-polygon", "simplex")


@dataclass(frozen=True)
class SolutionDescriptor:
    """A tensor tagged with the equation it solves and how it was built."""

    family: str
    order: int
    tensor: Tensor
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ShapeError(f"unknown family {self.family!r}")
        if self.family == "simplex":
            want = (self.order, self.order)
        else:
            want = polygon_signature(self.order, self.family == "dual-polygon")
        if (self.tensor.in_legs, self.tensor.out_legs) != want:
            raise ShapeError(
                f"{self.family} order {self.order} needs signature "
                f"{want[0]}->{want[1]}, got {self.tensor.in_legs}->{self.tensor.out_legs}"
            )

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
        return SolutionDescriptor(
            data["family"],
            data["order"],
            Tensor.from_json_dict(data["tensor"]),
            tuple(data.get("provenance", ())),
        )


def verify_descriptor(desc: SolutionDescriptor) -> VerificationReport:
    if desc.family == "simplex":
        return check_simplex(desc.tensor, desc.order)
    return check_polygon(desc.tensor, desc.order, dual=desc.family == "dual-polygon")


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
    outs = identity_tensor(t.dim, 0, t.ring)
    ins = identity_tensor(t.dim, 0, t.ring)
    for _ in range(t.out_legs):
        outs = tensor_product(outs, phi_inv)
    for _ in range(t.in_legs):
        ins = tensor_product(ins, phi)
    conj = compose(outs, compose(t, ins))
    return _self_check(desc.derived(desc.family, desc.order, conj, "conjugate"), verify)


def bar_sigma_conjugate(desc: SolutionDescriptor, verify: bool = True) -> SolutionDescriptor:
    """Order-reversal conjugation.

    Odd orders swap polygon <-> dual-polygon; even orders stay in their
    family (with the reversal sized per side).
    """
    if desc.family == "simplex":
        raise PreconditionFailed("reversal transform is stated for polygon families")
    t = desc.tensor
    left = bar_sigma(t.out_legs, t.dim, t.ring) if t.out_legs else identity_tensor(t.dim, 0, t.ring)
    right = bar_sigma(t.in_legs, t.dim, t.ring) if t.in_legs else identity_tensor(t.dim, 0, t.ring)
    transformed = compose(left, compose(t, right))
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
    elif mode == "tensor":
        tensor = tensor_product(x.tensor, y.tensor)
    else:
        raise ShapeError(f"unknown stacking mode {mode!r}")
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
    result = maps[0]
    for conn, nxt in zip(connectors, maps[1:]):
        if conn == "r":
            result = partial_compose_right(result, nxt)
        else:
            result = partial_compose_left(result, nxt)
    return result


def _tower_tensor(n: int, delta: Tensor, mult: Tensor, dual: bool) -> Tensor:
    """The alternating coproduct/product chain solving the (dual) n-gon."""
    if n == 3:
        return identity_tensor(delta.dim, 1, delta.ring)
    count = n - 3  # 2k-2 maps for n=2k+1, 2k-3 maps for n=2k
    if dual:
        maps = [mult if i % 2 == 0 else delta for i in range(count)]
        connectors = ["l" if i % 2 == 0 else "r" for i in range(count - 1)]
    else:
        maps = [delta if i % 2 == 0 else mult for i in range(count)]
        connectors = ["r" if i % 2 == 0 else "l" for i in range(count - 1)]
    return _fold_chain(maps, connectors)


def bialgebra_tower(
    n: int, h: HopfInstance, dual: bool = False, verify: bool = True
) -> SolutionDescriptor:
    """The n-gon (or dual n-gon) solution over a commutative and
    cocommutative bialgebra, alternating coproduct and product blocks."""
    if n < 3:
        raise PreconditionFailed(f"no {n}-gon equation")
    _require_axioms(h, commutative=True, antipode=False)
    tensor = _tower_tensor(n, h.coproduct, h.product, dual)
    family = "dual-polygon" if dual else "polygon"
    out = SolutionDescriptor(family, n, tensor, (f"tower({h.name or 'H'},{n})",))
    return _self_check(out, verify)


def _mixed_radix_encode(digits, dims) -> int:
    value = 0
    for x, d in zip(digits, dims):
        value = value * d + x
    return value


def _hat_structure(instances: list[HopfInstance], index: int) -> tuple[Tensor, Tensor]:
    """(coproduct, product) number ``index`` on the tensor product algebra."""
    dims = [h.dim for h in instances]
    big = 1
    for d in dims:
        big *= d
    ring = instances[0].ring
    count = len(instances)
    if index == 0:
        # componentwise structure
        cop_entries: dict = {}
        for digits in product(*[range(d) for d in dims]):
            x = _mixed_radix_encode(digits, dims)
            choices = []
            for m in range(count):
                options = [
                    (key[0], v)
                    for key, v in instances[m].coproduct.entries.items()
                    if key[1] == (digits[m],)
                ]
                choices.append(options)
            for combo in product(*choices):
                left = tuple(out[0] for out, _ in combo)
                right = tuple(out[1] for out, _ in combo)
                v = ring.one
                for _, val in combo:
                    v = ring.mul(v, val)
                key = (
                    (_mixed_radix_encode(left, dims), _mixed_radix_encode(right, dims)),
                    (x,),
                )
                cop_entries[key] = ring.add(cop_entries.get(key, ring.zero), v)
        prod_entries: dict = {}
        for xd in product(*[range(d) for d in dims]):
            for yd in product(*[range(d) for d in dims]):
                choices = []
                for m in range(count):
                    options = [
                        (key[0][0], v)
                        for key, v in instances[m].product.entries.items()
                        if key[1] == (xd[m], yd[m])
                    ]
                    choices.append(options)
                for combo in product(*choices):
                    z = tuple(out for out, _ in combo)
                    v = ring.one
                    for _, val in combo:
                        v = ring.mul(v, val)
                    key = (
                        (_mixed_radix_encode(z, dims),),
                        (_mixed_radix_encode(xd, dims), _mixed_radix_encode(yd, dims)),
                    )
                    prod_entries[key] = ring.add(prod_entries.get(key, ring.zero), v)
        return (
            Tensor(big, 1, 2, cop_entries, ring),
            Tensor(big, 2, 1, prod_entries, ring),
        )
    # index >= 1: counit-weighted projection product and unit-insertion coproduct
    unit_vectors = []
    counit_covers = []
    for h in instances:
        unit_vectors.append({key[0][0]: v for key, v in h.unit.entries.items()})
        counit_covers.append({key[1][0]: v for key, v in h.counit.entries.items()})
    cop_entries = {}
    for digits in product(*[range(d) for d in dims]):
        x = _mixed_radix_encode(digits, dims)
        tail_units = [list(unit_vectors[m].items()) for m in range(index, count)]
        head_units = [list(unit_vectors[m].items()) for m in range(index)]
        for tail in product(*tail_units):
            for head in product(*head_units):
                left = tuple(digits[:index]) + tuple(u for u, _ in tail)
                right = tuple(u for u, _ in head) + tuple(digits[index:])
                v = ring.one
                for _, val in tail:
                    v = ring.mul(v, val)
                for _, val in head:
                    v = ring.mul(v, val)
                key = (
                    (_mixed_radix_encode(left, dims), _mixed_radix_encode(right, dims)),
                    (x,),
                )
                cop_entries[key] = ring.add(cop_entries.get(key, ring.zero), v)
    prod_entries = {}
    for xd in product(*[range(d) for d in dims]):
        for yd in product(*[range(d) for d in dims]):
            v = ring.one
            dead = False
            for m in range(index):
                w = counit_covers[m].get(yd[m])
                if w is None:
                    dead = True
                    break
                v = ring.mul(v, w)
            if dead:
                continue
            for m in range(index, count):
                w = counit_covers[m].get(xd[m])
                if w is None:
                    dead = True
                    break
                v = ring.mul(v, w)
            if dead:
                continue
            z = tuple(xd[:index]) + tuple(yd[index:])
            key = (
                (_mixed_radix_encode(z, dims),),
                (_mixed_radix_encode(xd, dims), _mixed_radix_encode(yd, dims)),
            )
            prod_entries[key] = ring.add(prod_entries.get(key, ring.zero), v)
    return Tensor(big, 1, 2, cop_entries, ring), Tensor(big, 2, 1, prod_entries, ring)


def multi_bialgebra_tower(
    k: int,
    instances: list[HopfInstance],
    even: bool = False,
    verify: bool = True,
) -> SolutionDescriptor:
    """Tower over a tensor product of bialgebras, using the block-splitting
    product/coproduct pairs on (x)H_i.

    Builds the (2k+1)-gon solution (or the (2k+2)-gon one with ``even``).
    With enough factors the blocks used are 1..k-1 as in the two-factor
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
    indices = list(range(start, start + k - 1))
    pairs = [_hat_structure(instances, i) for i in indices]
    maps: list[Tensor] = []
    connectors: list[str] = []
    for m, (cop, mult) in enumerate(pairs):
        last = m == len(pairs) - 1
        maps.append(cop)
        if not (even and last):
            connectors.append("r")
            maps.append(mult)
        if not last:
            connectors.append("l")
    tensor = _fold_chain(maps, connectors)
    order = 2 * k + 2 if even else 2 * k + 1
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


def hopf_pentagon_pair(
    h: HopfInstance, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """The canonical pentagon / dual-pentagon pair on H (x) H.

    T multiplies the coproduct's second output into the second slot;
    S multiplies the inverse antipode of it from the right.
    """
    _require_axioms(h, commutative=False, antipode=True)
    one = identity_tensor(h.dim, 1, h.ring)
    s_inv = h.antipode_inverse()
    t_tensor = compose(tensor_product(one, h.product), tensor_product(h.coproduct, one))
    s_tensor = compose(
        tensor_product(one, h.product),
        compose(
            tensor_product(one, tensor_product(one, s_inv)),
            compose(tensor_product(one, flip(h.dim, h.ring)), tensor_product(h.coproduct, one)),
        ),
    )
    t_desc = SolutionDescriptor("polygon", 5, t_tensor, (f"hopf-T({h.name or 'H'})",))
    s_desc = SolutionDescriptor("dual-polygon", 5, s_tensor, (f"hopf-S({h.name or 'H'})",))
    if verify:
        _self_check(t_desc, True)
        _self_check(s_desc, True)
        report = check_mixed(t_tensor, s_tensor, 5)
        if not report.holds:
            raise SelfCheckFailed("hopf pair fails the mixed relation")
    return t_desc, s_desc


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
    t_tower, s_tower = t, s
    for _ in range(k - 1):
        t_tower = partial_compose_left(t_tower, t)
        s_tower = partial_compose_right(s_tower, s)
    n = 2 * k + 3
    t_desc = SolutionDescriptor("polygon", n, t_tower, (f"mixed-tower-T(k={k})",))
    s_desc = SolutionDescriptor("dual-polygon", n, s_tower, (f"mixed-tower-S(k={k})",))
    if verify:
        _self_check(t_desc, True)
        _self_check(s_desc, True)
        mixed = check_mixed(t_tower, s_tower, n)
        if not mixed.holds:
            raise SelfCheckFailed(f"stacked pair fails the {n}-gon mixed relation")
    return t_desc, s_desc


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
    m_twisted = compose(h.product, tensor_product(h.antipode, one))
    t_block = partial_compose_right(h.coproduct, h.product)
    s_block = partial_compose_right(h.coproduct, m_twisted)
    if verify:
        rel = check_relations_1_6(t_block, s_block)
        if not rel.holds:
            raise PreconditionFailed(f"twisted pair fails relations ({rel.details})")
    t_tower = t_block
    s_tower = s_block
    for _ in range(k - 2):
        t_tower = partial_compose_left(t_tower, t_block)
        s_tower = partial_compose_right(s_tower, s_block)
    n = 2 * k + 1
    t_desc = SolutionDescriptor("polygon", n, t_tower, (f"tower({h.name or 'H'},{n})",))
    s_desc = SolutionDescriptor(
        "dual-polygon", n, s_tower, (f"antipode-tower({h.name or 'H'},{n})",)
    )
    if verify:
        _self_check(t_desc, True)
        _self_check(s_desc, True)
        mixed = check_mixed(t_tower, s_tower, n)
        if not mixed.holds:
            raise SelfCheckFailed(f"antipode pair fails the {n}-gon mixed relation")
    return t_desc, s_desc


# -- simplex solutions from mixed pairs ----------------------------------------


def adjacent_pair_swaps(pairs: int, legs: int, d: int, ring) -> Tensor:
    """sigma_(1,2) sigma_(3,4) ... on the first 2*pairs of ``legs`` legs."""
    image = list(range(1, legs + 1))
    for m in range(pairs):
        image[2 * m], image[2 * m + 1] = image[2 * m + 1], image[2 * m]
    return permutation_tensor(d, LegPermutation(tuple(image)), ring)


def simplex_map_from_pair_formula(t: Tensor, s: Tensor, n: int) -> Tensor:
    """Closed form of the (n-1)-simplex map built from an n-gon pair.

    Odd n = 2k+1 on 2k legs: pair swaps after T on the even positions and S
    on the odd positions.  Even n = 2k on 2k-1 legs: swaps stop short of the
    last leg, S reads all odd positions and writes back to all but the last
    of them, T grows the even positions by one.
    """
    d, ring = t.dim, t.ring
    if n % 2:
        k = (n - 1) // 2
        legs = 2 * k
        odd_positions = tuple(range(1, 2 * k, 2))
        even_positions = tuple(range(2, 2 * k + 1, 2))
        composite = contract_staged([(s, odd_positions), (t, even_positions)], legs, d, ring)
        return compose(adjacent_pair_swaps(k, legs, d, ring), composite)
    k = n // 2
    legs = 2 * k - 1
    odd_positions = tuple(range(1, 2 * k, 2))
    even_positions = tuple(range(2, 2 * k - 1, 2))
    composite = contract_staged([(s, odd_positions), (t, even_positions)], legs, d, ring)
    return compose(adjacent_pair_swaps(k - 1, legs, d, ring), composite)


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
    r = simplex_map_from_pair_formula(t_desc.tensor, s_desc.tensor, n)
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
