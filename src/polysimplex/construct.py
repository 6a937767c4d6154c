"""Every solution-producing procedure: transforms, trace descent, stacking,
bialgebra towers, mixed pairs, and the polygon-to-simplex constructions.

One table, :data:`RECIPES`, states each ``construct`` recipe once: its
builder, inputs, parameters, and every equation it checks, which each
builder runs through :func:`_run_checks`.  An equation on inputs only is
a precondition: inputs failing it raise :class:`PreconditionFailed`, also
with ``verify=False``.  The others are the self-check, skipped with
``verify=False``; output failing it raises :class:`SelfCheckFailed` (a
bug, not bad data).  Hypotheses that are no equation (families, orders,
``k``, modes, invertibility, the Hopf laws) stay in the builders.

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
    EQUATIONS,
    PreconditionFailed,
    SelfCheckFailed,
    VerificationReport,
    check_equation,
    polygon_signature,
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


# What a recipe's checks take of each kind of input (see :class:`Recipe`).
_HEADERS = {
    "group": lambda h: h.dim,
    "groups": lambda instances: prod(h.dim for h in instances),
    "tensor": lambda t: t.dim,
    "descriptor": lambda desc: (desc.family, desc.order, desc.tensor.dim),
}


def _run_checks(recipe: str, **arguments):
    """Run the preconditions of ``RECIPES[recipe]`` on the builder's
    ``arguments`` (its inputs and parameters by name), and return its
    self-check: a function of ``verify`` and the maps built, by name, that
    runs every other entry with ``verify`` on and returns T, or (T, S).
    The record is evaluated once, on the inputs' headers.  A refusal names
    the recipe, every failing check and the first one's witness."""
    spec = RECIPES[recipe]
    headers = [_HEADERS[kind](arguments[name]) for name, kind in spec.inputs.items()]
    params = {name: value for name, value in arguments.items() if name not in spec.inputs}
    checks = spec.checks(*headers, **params)

    def run(maps: dict, precondition: bool) -> None:
        failing = []
        for family, order, _, names in checks:
            if spec.precondition(names) == precondition:
                tensors = [m.tensor if isinstance(m, SolutionDescriptor) else m for m in map(maps.get, names)]
                report = check_equation(family, order, *tensors)
                if not report.holds:
                    failing.append((EQUATIONS[family].name.format(order), report.witness))
        if failing:
            failure, what = (PreconditionFailed, "the inputs") if precondition else (SelfCheckFailed, "the built maps")
            raise failure(f"{recipe}: {what} fail {[name for name, _ in failing]} (witness {failing[0][1]})")

    run(arguments, True)

    def self_check(verify: bool, **built):
        if verify:
            run({**arguments, **built}, False)
        return (built["T"], built["S"]) if "S" in built else built["T"]

    return self_check


# -- transforms of single solutions -------------------------------------------


def invert_to_dual(desc: SolutionDescriptor, verify: bool = True) -> SolutionDescriptor:
    """T -> T^-1 swaps an odd-gon solution with a dual odd-gon solution."""
    if desc.family not in ("polygon", "dual-polygon") or desc.order % 2 == 0:
        raise PreconditionFailed("inverse transform applies to odd-gon solutions")
    self_check = _run_checks("invert-to-dual", desc=desc)
    try:
        inverse = invert(desc.tensor)
    except NotInvertible as exc:
        raise PreconditionFailed(f"tensor is singular: {exc}") from exc
    family = "dual-polygon" if desc.family == "polygon" else "polygon"
    return self_check(verify, T=desc.derived(family, desc.order, inverse, "invert"))


def conjugate(desc: SolutionDescriptor, phi: Tensor, verify: bool = True) -> SolutionDescriptor:
    """Conjugation by an automorphism of V, applied legwise."""
    if desc.family == "simplex":
        raise PreconditionFailed("conjugation transform is stated for polygon families")
    if (phi.in_legs, phi.out_legs) != (1, 1):
        raise ShapeError("phi must be a 1->1 map")
    self_check = _run_checks("conjugate", desc=desc, phi=phi)
    try:
        phi_inv = invert(phi)
    except NotInvertible as exc:
        raise PreconditionFailed(f"phi is singular: {exc}") from exc
    t = desc.tensor
    steps = [(phi, (i,)) for i in range(1, t.in_legs + 1)]
    steps.append((t, range(1, t.in_legs + 1)))
    steps += [(phi_inv, (j,)) for j in range(1, t.out_legs + 1)]
    conj = contract_staged(steps, t.in_legs, t.dim, t.ring)
    return self_check(verify, T=desc.derived(desc.family, desc.order, conj, "conjugate"))


def bar_sigma_conjugate(desc: SolutionDescriptor, verify: bool = True) -> SolutionDescriptor:
    """Order-reversal conjugation: reverse the legs on both sides of T.

    Odd orders swap polygon <-> dual-polygon; even orders stay in their
    family (with the reversal sized per side).  One staged step reads the
    inputs in reverse and the output order reverses the outputs.
    """
    if desc.family == "simplex":
        raise PreconditionFailed("reversal transform is stated for polygon families")
    self_check = _run_checks("bar-sigma-conjugate", desc=desc)
    t = desc.tensor
    k, l = t.in_legs, t.out_legs
    reversed_in, reversed_out = tuple(range(k, 0, -1)), tuple(range(l, 0, -1))
    transformed = contract_staged([(t, reversed_in)], k, t.dim, t.ring, reversed_out)
    if desc.order % 2:
        family = "dual-polygon" if desc.family == "polygon" else "polygon"
    else:
        family = desc.family
    return self_check(verify, T=desc.derived(family, desc.order, transformed, "bar-sigma"))


def trace_descend(
    desc: SolutionDescriptor, side: str = "left", verify: bool = True
) -> SolutionDescriptor:
    """Partial trace descent: polygon order n -> n-2 (normalized by 1/dim),
    simplex order n -> n-1 (no normalization)."""
    if side not in ("left", "right"):
        raise ShapeError(f"side must be 'left' or 'right', got {side!r}")
    self_check = _run_checks("trace-descend", desc=desc, side=side)
    t = desc.tensor
    if not is_invertible(t):
        raise PreconditionFailed("trace descent is stated for invertible solutions")
    traced = partial_trace_left(t) if side == "left" else partial_trace_right(t)
    if desc.family == "simplex":
        if desc.order < 2:
            raise PreconditionFailed("no simplex equation below order 1")
        return self_check(verify, T=desc.derived("simplex", desc.order - 1, traced, f"trace-{side}"))
    if desc.order % 2 == 0 or desc.order < 5:
        raise PreconditionFailed("polygon trace descent needs an odd order >= 5")
    normalized = traced.scale(t.ring.invert(t.ring.coerce(t.dim)))
    return self_check(verify, T=desc.derived(desc.family, desc.order - 2, normalized, f"trace-{side}/dim"))


def trace_descend_mixed(
    t_desc: SolutionDescriptor,
    s_desc: SolutionDescriptor,
    side: str = "left",
    verify: bool = True,
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """Descend a verified mixed pair two polygon orders at once; each map's
    descent refuses a singular map or an order other than an odd one >= 5."""
    _require_mixed_pair(t_desc, s_desc)
    self_check = _run_checks("trace-descend-mixed", t_desc=t_desc, s_desc=s_desc, side=side)
    return self_check(verify, T=trace_descend(t_desc, side, False), S=trace_descend(s_desc, side, False))


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
    pair must satisfy the interchange commutation, a precondition.
    """
    family, order = stack_arithmetic(x.family, x.order, y.family, y.order, mode)
    self_check = _run_checks("stack", x=x, y=y, mode=mode)
    if mode == "compose_left":
        tensor = partial_compose_left(x.tensor, y.tensor)
    elif mode == "compose_right":
        tensor = partial_compose_right(x.tensor, y.tensor)
    else:  # "tensor"; stack_arithmetic refuses every other mode
        tensor = tensor_product(x.tensor, y.tensor)
    provenance = x.provenance + y.provenance + (f"stack-{mode}",)
    return self_check(verify, T=SolutionDescriptor(family, order, tensor, provenance))


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
    self_check = _run_checks("bialgebra-tower", h=h, n=n, dual=dual)
    tensor = _tower_tensor(n, [(h.coproduct, h.product)] * n, dual)
    family = "dual-polygon" if dual else "polygon"
    return self_check(verify, T=SolutionDescriptor(family, n, tensor, (f"tower({h.name or 'H'},{n})",)))


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
    self_check = _run_checks("multi-bialgebra-tower", instances=instances, k=k, even=even)
    order = 2 * k if even else 2 * k + 1
    blocks = [_hat_structure(instances, i) for i in range(start, start + k - 1)]
    tensor = _tower_tensor(order, blocks, False)
    note = f"multi-tower(k={k},factors={len(instances)})"
    return self_check(verify, T=SolutionDescriptor("polygon", order, tensor, (note,)))


# -- Hopf pairs and mixed machinery --------------------------------------------


def _require_mixed_pair(t_desc: SolutionDescriptor, s_desc: SolutionDescriptor) -> None:
    if t_desc.family != "polygon" or s_desc.family != "dual-polygon":
        raise PreconditionFailed("mixed pair must be (polygon, dual-polygon)")
    if t_desc.order != s_desc.order:
        raise PreconditionFailed("mixed pair must share its order")


def _mixed_descriptors(n: int, t: Tensor, s: Tensor, notes: tuple[str, str]) -> dict:
    """The mixed n-gon pair (t, s) with provenance ``notes``, as T and S."""
    return dict(T=SolutionDescriptor("polygon", n, t, notes[:1]), S=SolutionDescriptor("dual-polygon", n, s, notes[1:]))


def hopf_pentagon_pair(
    h: HopfInstance, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """The canonical pentagon / dual-pentagon pair on H (x) H.

    T multiplies the coproduct's second output into the second slot;
    S multiplies the inverse antipode of it from the right.
    """
    _require_axioms(h, commutative=False, antipode=True)
    self_check = _run_checks("hopf-pentagon-pair", h=h)
    t_tensor = partial_compose_right(h.coproduct, h.product)
    steps = [(h.coproduct, (1,)), (h.antipode_inverse(), (2,)), (h.product, (3, 2))]
    s_tensor = contract_staged(steps, 2, h.dim, h.ring)
    notes = (f"hopf-T({h.name or 'H'})", f"hopf-S({h.name or 'H'})")
    return self_check(verify, **_mixed_descriptors(5, t_tensor, s_tensor, notes))


def higher_mixed_pair(
    k: int, t: Tensor, s: Tensor, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """Stack k copies of a compatible pentagon pair into a mixed
    (2k+3)-gon pair; k = 1 returns the pair itself.

    Relations (1)-(3) gate a single copy; stacking more also needs (4)-(6).
    """
    if k < 1:
        raise PreconditionFailed("k must be >= 1")
    self_check = _run_checks("higher-mixed-pair", t=t, s=s, k=k)
    t_tower = _fold_chain([t] * k, "l" * (k - 1))
    s_tower = _fold_chain([s] * k, "r" * (k - 1))
    n = 2 * k + 3
    notes = (f"mixed-tower-T(k={k})", f"mixed-tower-S(k={k})")
    return self_check(verify, **_mixed_descriptors(n, t_tower, s_tower, notes))


def hopf_mixed_pair_antipode(
    k: int, h: HopfInstance, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """Mixed (2k+1)-gon pair over a commutative cocommutative Hopf algebra,
    with the dual tower built from the antipode-twisted product."""
    if k < 1:
        raise PreconditionFailed("k must be >= 1")
    _require_axioms(h, commutative=True, antipode=True)
    self_check = _run_checks("hopf-mixed-pair-antipode", h=h, k=k)
    if k == 1:
        one = identity_tensor(h.dim, 1, h.ring)
        return self_check(verify, **_mixed_descriptors(3, one, one, ("identity", "identity")))
    m_twisted = contract_staged([(h.antipode, (1,)), (h.product, (1, 2))], 2, h.dim, h.ring)
    t_block = partial_compose_right(h.coproduct, h.product)
    s_block = partial_compose_right(h.coproduct, m_twisted)
    t_tower = _fold_chain([t_block] * (k - 1), "l" * (k - 2))
    s_tower = _fold_chain([s_block] * (k - 1), "r" * (k - 2))
    n = 2 * k + 1
    notes = (f"tower({h.name or 'H'},{n})", f"antipode-tower({h.name or 'H'},{n})")
    built = _mixed_descriptors(n, t_tower, s_tower, notes)
    return self_check(verify, t_block=t_block, s_block=s_block, **built)


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
    self_check = _run_checks("simplex-from-mixed", t_desc=t_desc, s_desc=s_desc, drop=drop)
    n = t_desc.order
    r = pair_to_simplex_map(t_desc.tensor, s_desc.tensor)
    provenance = t_desc.provenance + s_desc.provenance
    if drop == "one":
        return self_check(verify, T=SolutionDescriptor("simplex", n - 1, r, provenance + ("pair-to-simplex",)))
    traced = partial_trace_left(r) if drop == "two" else partial_trace_right(r)
    note = "pair-to-simplex/trace-left" if drop == "two" else "pair-to-simplex/trace-right"
    return self_check(verify, T=SolutionDescriptor("simplex", n - 2, traced, provenance + (note,)))


def yang_baxter_from_pair(
    t: Tensor, s: Tensor, mode: str = "compose", verify: bool = True
) -> SolutionDescriptor:
    """Yang-Baxter solutions from a pentagon / dual-pentagon mixed pair."""
    if mode not in ("compose", "four_factor"):
        raise ShapeError(f"mode must be compose|four_factor, got {mode!r}")
    self_check = _run_checks("yang-baxter", t=t, s=s, mode=mode)
    if mode == "compose":
        return self_check(verify, T=SolutionDescriptor("simplex", 2, compose(s, t), ("yang-baxter-compose",)))
    word = contract_staged([(t, (2, 3)), (s, (2, 4)), (t, (1, 3)), (s, (1, 4))], 4, t.dim, t.ring)
    return self_check(verify, T=SolutionDescriptor("simplex", 2, regroup(word, 2), ("yang-baxter-four-factor",)))


# -- the recipe table ------------------------------------------------------------


@record
class Recipe:
    """One ``construct`` recipe.  ``checks`` takes the header of each input
    (a group's order, the product of the orders for ``groups``, a tensor's
    dim, a descriptor's ``(family, order, dim)``) and the parameters by
    name, and gives ``(family, order, dim, maps)`` for each equation of
    :data:`verify.EQUATIONS` the recipe checks, in the order it checks
    them.  ``maps`` names the maps it takes, in tag order: inputs by
    builder argument, T and S for what the builder returns, and the twisted
    blocks ``t_block`` and ``s_block`` of ``hopf-mixed-pair-antipode``.
    The last equation's first map is the built map."""

    builder: str  # the function of this module, looked up by name when it runs
    inputs: dict  # builder argument: "group", "groups" (params.groups), "tensor" or "descriptor" (--input, --input2)
    params: dict  # name: default, whose type a given value must have; None marks an input
    what: str  # the built map in a refusal: "the <what> maps ..."
    checks: object

    def precondition(self, maps) -> bool:
        """Is an equation on ``maps`` a precondition, which names inputs only?"""
        return set(maps) <= set(self.inputs)


def _pair(n: int, dim: int) -> list:
    """The self-check of a mixed n-gon pair: each map its own equation, then the mixed relation."""
    return [("polygon", n, dim, ("T",)), ("dual-polygon", n, dim, ("S",)), ("mixed", n, dim, ("T", "S"))]


def _mixed_pair(t: tuple, s: tuple) -> list:
    """The mixed relation of a pair of descriptors, a precondition; none
    when :func:`_require_mixed_pair` refuses the pair first, by its
    families or orders."""
    admitted = (t[0], s[0], t[1]) == ("polygon", "dual-polygon", s[1])
    return [("mixed", t[1], t[2], ("t_desc", "s_desc"))] if admitted else []


def _stacked(x: tuple, y: tuple, mode: str) -> list:
    """The commutation of the inputs, a precondition, then the result's
    equation; none below the 3-gon, which reading refuses."""
    family, order = stack_arithmetic(x[0], x[1], y[0], y[1], mode)
    if min(x[1], y[1]) < 3:
        return [(family, order, x[2], ("T",))]
    legs = (*polygon_signature(x[1], x[0] == "dual-polygon"), *polygon_signature(y[1], y[0] == "dual-polygon"))
    return [("commutes", legs, x[2], ("x", "y")), (family, order, x[2], ("T",))]


def _descended(family: str, order: int, dim: int, built: str = "T") -> tuple:
    """The equation of a solution's partial trace, the map ``built``."""
    return family, order - 1 if family == "simplex" else order - 2, dim, (built,)


_DUAL = {"polygon": "dual-polygon", "dual-polygon": "polygon"}

# In the order the README lists them.  A pair of descriptors gates both
# headers, which a valid pair shares (simplex-from-mixed lists its one
# simplex check once when they agree).  A precondition is listed only where
# the builder reaches it, past the checks of its mode or drop, and a check
# only for the k that runs it: k = 1 is the identity antipode pair, a
# single higher-mixed-pair copy needs relations (1)-(3) only, and
# higher-mixed-pair refuses k < 1 first.
RECIPES = {
    "hopf-pentagon-pair": Recipe("hopf_pentagon_pair", {"h": "group"}, {}, "pair", lambda h: _pair(5, h)),
    "bialgebra-tower": Recipe(
        "bialgebra_tower", {"h": "group"}, {"n": 5, "dual": False}, "tower",
        lambda h, n, dual: [("dual-polygon" if dual else "polygon", n, h, ("T",))]),
    "multi-bialgebra-tower": Recipe(
        "multi_bialgebra_tower", {"instances": "groups"}, {"groups": None, "k": 2, "even": False}, "tower",
        lambda instances, k, even: [("polygon", 2 * k if even else 2 * k + 1, instances, ("T",))]),
    "hopf-mixed-pair-antipode": Recipe(
        "hopf_mixed_pair_antipode", {"h": "group"}, {"k": 2}, "tower",
        lambda h, k: [
            *(("relations", n, h, ("t_block", "s_block")) for n in range(1, 7)), *_pair(2 * k + 1, h)
        ] if k > 1 else []),
    "higher-mixed-pair": Recipe(
        "higher_mixed_pair", {"t": "tensor", "s": "tensor"}, {"k": 2}, "tower",
        lambda t, s, k: [
            *(("relations", n, t, ("t", "s")) for n in range(1, 4 if k == 1 else 7)), *_pair(2 * k + 3, t)
        ] if k > 0 else []),
    "invert-to-dual": Recipe(
        "invert_to_dual", {"desc": "descriptor"}, {}, "recipe",
        lambda desc: [(_DUAL.get(desc[0], desc[0]), *desc[1:], ("T",))]),
    "conjugate": Recipe(
        "conjugate", {"desc": "descriptor", "phi": "tensor"}, {}, "recipe", lambda desc, phi: [(*desc, ("T",))]),
    "bar-sigma-conjugate": Recipe(
        "bar_sigma_conjugate", {"desc": "descriptor"}, {}, "recipe",
        lambda desc: [(_DUAL.get(desc[0], desc[0]) if desc[1] % 2 else desc[0], *desc[1:], ("T",))]),
    "trace-descend": Recipe(
        "trace_descend", {"desc": "descriptor"}, {"side": "left"}, "recipe", lambda desc, side: [_descended(*desc)]),
    "trace-descend-mixed": Recipe(
        "trace_descend_mixed", {"t_desc": "descriptor", "s_desc": "descriptor"}, {"side": "left"}, "recipe",
        lambda t, s, side: [
            *_mixed_pair(t, s), _descended(*t), _descended(*s, "S"), ("mixed", t[1] - 2, t[2], ("T", "S"))]),
    "stack": Recipe(
        "stack", {"x": "descriptor", "y": "descriptor"}, {"mode": "compose_left"}, "recipe", _stacked),
    "simplex-from-mixed": Recipe(
        "simplex_from_mixed", {"t_desc": "descriptor", "s_desc": "descriptor"}, {"drop": "one"}, "recipe",
        lambda t, s, drop: [
            *(_mixed_pair(t, s) if drop in ("one", "two", "two_right") else []),
            *dict.fromkeys(("simplex", order - (1 if drop == "one" else 2), d, ("T",)) for _, order, d in (t, s))]),
    "yang-baxter": Recipe(
        "yang_baxter_from_pair", {"t": "tensor", "s": "tensor"}, {"mode": "compose"}, "recipe",
        lambda t, s, mode: [  # the 2-simplex on V, or on V(x)V
            *([("polygon", 5, t, ("t",)), ("dual-polygon", 5, s, ("s",)), ("mixed", 5, t, ("t", "s"))]
              if mode in ("compose", "four_factor") else []),
            ("simplex", 2, t**2 if mode == "four_factor" else t, ("T",))]),
}
