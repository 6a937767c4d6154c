"""Every solution-producing procedure: transforms, trace descent, stacking,
bialgebra towers, mixed pairs, and the polygon-to-simplex constructions.

One table, :data:`RECIPES`, states each ``construct`` recipe once: its
builder, inputs, parameters, every hypothesis it puts on its inputs'
headers and its parameters (families, orders, parity, ``k``, the stacking
cases, ``side``, ``drop`` and ``mode``), every equation it checks, and the
family and order of each map it builds.  Each builder first runs its
record through :func:`_run_checks`, which refuses a failing hypothesis.
An equation on inputs only is a precondition: inputs failing it raise
:class:`PreconditionFailed`, also with ``verify=False``.  The others are
the self-check, skipped with ``verify=False``; output failing it raises
:class:`SelfCheckFailed` (a bug, not bad data), unless a descriptor input
fails its own equation, which is refused as a precondition after all.
Only the hypotheses that need built maps stay in the builders:
invertibility, the Hopf laws, ``phi``'s 1->1 shape, and the multi-tower's
factor count and shared ring.

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
    """Refuse the hypotheses and run the preconditions of ``RECIPES[recipe]``
    on the builder's ``arguments`` (its inputs and parameters by name), and
    return its self-check: a function of ``verify`` and the maps built, by
    name, T and S each as ``(tensor, provenance)``.  It makes T and S
    descriptors of the family and order of their own entries, runs every
    other entry with ``verify`` on, and returns T, or (T, S).  The record is
    evaluated once, on the inputs' headers.  A failing check's refusal names
    the recipe, every failing check and the first one's witness.  When the
    self-check fails, each descriptor input is first checked against its
    own equation, and the first that fails it is refused as a precondition,
    named with its witness."""
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
        made = {names[0]: (family, order) for family, order, _, names in checks if names in (("T",), ("S",))}
        built.update((name, SolutionDescriptor(*made[name], *built[name])) for name in made)
        if verify:
            try:
                run({**arguments, **built}, False)
            except SelfCheckFailed as exc:
                # A descriptor input that fails its own equation is bad data, not a bug.
                for name, kind in spec.inputs.items():
                    report = verify_descriptor(arguments[name]) if kind == "descriptor" else None
                    if report and not report.holds:
                        failure = f"the input {name} fails its own equation, the {report.equation}"
                        raise PreconditionFailed(f"{recipe}: {failure} (witness {report.witness})") from exc
                raise
        return (built["T"], built["S"]) if "S" in built else built["T"]

    return self_check


# -- transforms of single solutions -------------------------------------------


def invert_to_dual(desc: SolutionDescriptor, verify: bool = True) -> SolutionDescriptor:
    """T -> T^-1 swaps an odd-gon solution with a dual odd-gon solution."""
    self_check = _run_checks("invert-to-dual", desc=desc)
    try:
        inverse = invert(desc.tensor)
    except NotInvertible as exc:
        raise PreconditionFailed(f"tensor is singular: {exc}") from exc
    return self_check(verify, T=(inverse, desc.provenance + ("invert",)))


def conjugate(desc: SolutionDescriptor, phi: Tensor, verify: bool = True) -> SolutionDescriptor:
    """Conjugation by an automorphism of V, applied legwise."""
    self_check = _run_checks("conjugate", desc=desc, phi=phi)
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
    return self_check(verify, T=(conj, desc.provenance + ("conjugate",)))


def bar_sigma_conjugate(desc: SolutionDescriptor, verify: bool = True) -> SolutionDescriptor:
    """Order-reversal conjugation: reverse the legs on both sides of T.

    Odd orders swap polygon <-> dual-polygon; even orders stay in their
    family (with the reversal sized per side).  One staged step reads the
    inputs in reverse and the output order reverses the outputs.
    """
    self_check = _run_checks("bar-sigma-conjugate", desc=desc)
    t = desc.tensor
    k, l = t.in_legs, t.out_legs
    reversed_in, reversed_out = tuple(range(k, 0, -1)), tuple(range(l, 0, -1))
    transformed = contract_staged([(t, reversed_in)], k, t.dim, t.ring, reversed_out)
    return self_check(verify, T=(transformed, desc.provenance + ("bar-sigma",)))


def trace_descend(
    desc: SolutionDescriptor, side: str = "left", verify: bool = True
) -> SolutionDescriptor:
    """Partial trace descent: polygon order n -> n-2 (normalized by 1/dim),
    simplex order n -> n-1 (no normalization)."""
    self_check = _run_checks("trace-descend", desc=desc, side=side)
    t = desc.tensor
    if not is_invertible(t):
        raise PreconditionFailed("trace descent is stated for invertible solutions")
    traced = partial_trace_left(t) if side == "left" else partial_trace_right(t)
    if desc.family == "simplex":
        return self_check(verify, T=(traced, desc.provenance + (f"trace-{side}",)))
    normalized = traced.scale(t.ring.invert(t.ring.coerce(t.dim)))
    return self_check(verify, T=(normalized, desc.provenance + (f"trace-{side}/dim",)))


def trace_descend_mixed(
    t_desc: SolutionDescriptor,
    s_desc: SolutionDescriptor,
    side: str = "left",
    verify: bool = True,
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """Descend a verified mixed pair two polygon orders at once; each map's
    descent refuses a singular map."""
    self_check = _run_checks("trace-descend-mixed", t_desc=t_desc, s_desc=s_desc, side=side)
    t, s = trace_descend(t_desc, side, False), trace_descend(s_desc, side, False)
    return self_check(verify, T=(t.tensor, t.provenance), S=(s.tensor, s.provenance))


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
    self_check = _run_checks("stack", x=x, y=y, mode=mode)
    if mode == "compose_left":
        tensor = partial_compose_left(x.tensor, y.tensor)
    elif mode == "compose_right":
        tensor = partial_compose_right(x.tensor, y.tensor)
    else:  # "tensor"; the record refuses every other mode
        tensor = tensor_product(x.tensor, y.tensor)
    return self_check(verify, T=(tensor, x.provenance + y.provenance + (f"stack-{mode}",)))


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


def _tower_tensor(count: int, blocks, dual: bool) -> Tensor:
    """The alternating chain of ``count`` maps, which solves the (dual)
    (count + 3)-gon, from one (coproduct, product) pair per block: map i is
    ``blocks[i // 2][(i + dual) % 2]``, joined by ``r`` and ``l`` in turn
    (``l`` and ``r`` when dual).  No maps is the identity."""
    if count == 0:
        delta = blocks[0][0]
        return identity_tensor(delta.dim, 1, delta.ring)
    maps = [blocks[i // 2][(i + dual) % 2] for i in range(count)]
    return _fold_chain(maps, ("lr" if dual else "rl") * count)


def bialgebra_tower(
    n: int, h: HopfInstance, dual: bool = False, verify: bool = True
) -> SolutionDescriptor:
    """The n-gon (or dual n-gon) solution over a commutative and
    cocommutative bialgebra, alternating coproduct and product blocks."""
    self_check = _run_checks("bialgebra-tower", h=h, n=n, dual=dual)
    _require_axioms(h, commutative=True, antipode=False)
    tensor = _tower_tensor(n - 3, [(h.coproduct, h.product)] * n, dual)
    return self_check(verify, T=(tensor, (f"tower({h.name or 'H'},{n})",)))


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
    self_check = _run_checks("multi-bialgebra-tower", instances=instances, k=k, even=even)
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
    blocks = [_hat_structure(instances, i) for i in range(start, start + k - 1)]
    tensor = _tower_tensor(2 * len(blocks) - even, blocks, False)  # without the last product when even
    return self_check(verify, T=(tensor, (f"multi-tower(k={k},factors={len(instances)})",)))


# -- Hopf pairs and mixed machinery --------------------------------------------


def hopf_pentagon_pair(
    h: HopfInstance, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """The canonical pentagon / dual-pentagon pair on H (x) H.

    T multiplies the coproduct's second output into the second slot;
    S multiplies the inverse antipode of it from the right.
    """
    self_check = _run_checks("hopf-pentagon-pair", h=h)
    _require_axioms(h, commutative=False, antipode=True)
    t_tensor = partial_compose_right(h.coproduct, h.product)
    steps = [(h.coproduct, (1,)), (h.antipode_inverse(), (2,)), (h.product, (3, 2))]
    s_tensor = contract_staged(steps, 2, h.dim, h.ring)
    name = h.name or "H"
    return self_check(verify, T=(t_tensor, (f"hopf-T({name})",)), S=(s_tensor, (f"hopf-S({name})",)))


def higher_mixed_pair(
    k: int, t: Tensor, s: Tensor, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """Stack k copies of a compatible pentagon pair into a mixed
    (2k+3)-gon pair; k = 1 returns the pair itself.

    Relations (1)-(3) gate a single copy; stacking more also needs (4)-(6).
    """
    self_check = _run_checks("higher-mixed-pair", t=t, s=s, k=k)
    t_tower = _fold_chain([t] * k, "l" * (k - 1))
    s_tower = _fold_chain([s] * k, "r" * (k - 1))
    return self_check(verify, T=(t_tower, (f"mixed-tower-T(k={k})",)), S=(s_tower, (f"mixed-tower-S(k={k})",)))


def hopf_mixed_pair_antipode(
    k: int, h: HopfInstance, verify: bool = True
) -> tuple[SolutionDescriptor, SolutionDescriptor]:
    """Mixed (2k+1)-gon pair over a commutative cocommutative Hopf algebra,
    with the dual tower built from the antipode-twisted product."""
    self_check = _run_checks("hopf-mixed-pair-antipode", h=h, k=k)
    _require_axioms(h, commutative=True, antipode=True)
    if k == 1:
        one = identity_tensor(h.dim, 1, h.ring)
        return self_check(verify, T=(one, ("identity",)), S=(one, ("identity",)))
    m_twisted = contract_staged([(h.antipode, (1,)), (h.product, (1, 2))], 2, h.dim, h.ring)
    t_block = partial_compose_right(h.coproduct, h.product)
    s_block = partial_compose_right(h.coproduct, m_twisted)
    t_tower = _fold_chain([t_block] * (k - 1), "l" * (k - 2))
    s_tower = _fold_chain([s_block] * (k - 1), "r" * (k - 2))
    name, n = h.name or "H", 2 * k + 1  # the order in the provenance
    notes = (f"tower({name},{n})",), (f"antipode-tower({name},{n})",)
    return self_check(verify, t_block=t_block, s_block=s_block, T=(t_tower, notes[0]), S=(s_tower, notes[1]))


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
    self_check = _run_checks("simplex-from-mixed", t_desc=t_desc, s_desc=s_desc, drop=drop)
    r = pair_to_simplex_map(t_desc.tensor, s_desc.tensor)
    provenance = t_desc.provenance + s_desc.provenance
    if drop == "one":
        return self_check(verify, T=(r, provenance + ("pair-to-simplex",)))
    traced = partial_trace_left(r) if drop == "two" else partial_trace_right(r)
    note = "pair-to-simplex/trace-left" if drop == "two" else "pair-to-simplex/trace-right"
    return self_check(verify, T=(traced, provenance + (note,)))


def yang_baxter_from_pair(
    t: Tensor, s: Tensor, mode: str = "compose", verify: bool = True
) -> SolutionDescriptor:
    """Yang-Baxter solutions from a pentagon / dual-pentagon mixed pair."""
    self_check = _run_checks("yang-baxter", t=t, s=s, mode=mode)
    if mode == "compose":
        return self_check(verify, T=(compose(s, t), ("yang-baxter-compose",)))
    word = contract_staged([(t, (2, 3)), (s, (2, 4)), (t, (1, 3)), (s, (1, 4))], 4, t.dim, t.ring)
    return self_check(verify, T=(regroup(word, 2), ("yang-baxter-four-factor",)))


# -- the recipe table ------------------------------------------------------------


@record
class Recipe:
    """One ``construct`` recipe.  ``checks`` takes the header of each input
    (a group's order, the product of the orders for ``groups``, a tensor's
    dim, a descriptor's ``(family, order, dim)``) and the parameters by
    name.  It refuses what fails a hypothesis of the recipe on them, with
    :class:`PreconditionFailed` (families, orders, parity, ``k``, the
    stacking cases) or :class:`ShapeError` (``side``, ``drop``, ``mode``).
    Otherwise it gives ``(family, order, dim, maps)`` for each equation of
    :data:`verify.EQUATIONS` the recipe checks, in the order it checks
    them.  ``maps`` names the maps it takes, in tag order: inputs by
    builder argument, T and S for what the builder returns, and the twisted
    blocks ``t_block`` and ``s_block`` of ``hopf-mixed-pair-antipode``.
    The entry naming T (or S) alone gives that built map's family and
    order."""

    builder: str  # the function of this module, looked up by name when it runs
    inputs: dict  # builder argument: "group", "groups" (params.groups), "tensor" or "descriptor" (--input, --input2)
    params: dict  # name: default, whose type a given value must have; None marks an input
    what: str  # the built map in a refusal: "the <what> maps ..."
    checks: object

    def precondition(self, maps) -> bool:
        """Is an equation on ``maps`` a precondition, which names inputs only?"""
        return set(maps) <= set(self.inputs)


def _refuse(failure: type, message: str):
    """Refuse inputs or parameters that fail a hypothesis of a recipe."""
    raise failure(message)


def _pair(n: int, dim: int) -> list:
    """The self-check of a mixed n-gon pair: each map its own equation, then the mixed relation."""
    return [("polygon", n, dim, ("T",)), ("dual-polygon", n, dim, ("S",)), ("mixed", n, dim, ("T", "S"))]


def _mixed_pair(t: tuple, s: tuple) -> list:
    """The mixed relation of a (polygon, dual-polygon) pair of descriptors
    of one order and dimension, a precondition."""
    if (t[0], s[0]) != ("polygon", "dual-polygon"):
        raise PreconditionFailed("mixed pair must be (polygon, dual-polygon)")
    if t[1] != s[1]:
        raise PreconditionFailed("mixed pair must share its order")
    if t[2] != s[2]:
        raise PreconditionFailed("mixed pair must share its dimension")
    return [("mixed", t[1], t[2], ("t_desc", "s_desc"))]


def _stacked(x: tuple, y: tuple, mode: str) -> list:
    """The commutation of the inputs, a precondition, then the result's
    equation, for an admissible stacking case."""
    family, order = stack_arithmetic(x[0], x[1], y[0], y[1], mode)
    legs = (*polygon_signature(x[1], x[0] == "dual-polygon"), *polygon_signature(y[1], y[0] == "dual-polygon"))
    return [("commutes", legs, x[2], ("x", "y")), (family, order, x[2], ("T",))]


def _descended(family: str, order: int, dim: int, side: str, built: str = "T") -> tuple:
    """The equation of a solution's partial trace on ``side``, the map
    ``built``: a simplex descends one order, an odd polygon >= 5 two."""
    if side not in ("left", "right"):
        raise ShapeError(f"side must be 'left' or 'right', got {side!r}")
    if family == "simplex" and order < 2:
        raise PreconditionFailed("no simplex equation below order 1")
    if family != "simplex" and (order % 2 == 0 or order < 5):
        raise PreconditionFailed("polygon trace descent needs an odd order >= 5")
    return family, order - 1 if family == "simplex" else order - 2, dim, (built,)


_DUAL = {"polygon": "dual-polygon", "dual-polygon": "polygon"}

# In the order the README lists them.  A check is listed only for the k
# that runs it: k = 1 of hopf-mixed-pair-antipode is the identity pair,
# with no twisted blocks, and a single higher-mixed-pair copy needs
# relations (1)-(3) only.
RECIPES = {
    "hopf-pentagon-pair": Recipe("hopf_pentagon_pair", {"h": "group"}, {}, "pair", lambda h: _pair(5, h)),
    "bialgebra-tower": Recipe(
        "bialgebra_tower", {"h": "group"}, {"n": 5, "dual": False}, "tower",
        lambda h, n, dual: [("dual-polygon" if dual else "polygon", n, h, ("T",))]
        if n >= 3 else _refuse(PreconditionFailed, f"no {n}-gon equation")),
    "multi-bialgebra-tower": Recipe(
        "multi_bialgebra_tower", {"instances": "groups"}, {"groups": None, "k": 2, "even": False}, "tower",
        lambda instances, k, even: [("polygon", 2 * k if even else 2 * k + 1, instances, ("T",))]
        if k >= 2 else _refuse(PreconditionFailed, "towers start at k = 2 (the pentagon)")),
    "hopf-mixed-pair-antipode": Recipe(
        "hopf_mixed_pair_antipode", {"h": "group"}, {"k": 2}, "tower",
        lambda h, k: [
            *(("relations", n, h, ("t_block", "s_block")) for n in range(1, 7) if k > 1), *_pair(2 * k + 1, h)
        ] if k >= 1 else _refuse(PreconditionFailed, "k must be >= 1")),
    "higher-mixed-pair": Recipe(
        "higher_mixed_pair", {"t": "tensor", "s": "tensor"}, {"k": 2}, "tower",
        lambda t, s, k: [
            *(("relations", n, t, ("t", "s")) for n in range(1, 4 if k == 1 else 7)), *_pair(2 * k + 3, t)
        ] if k >= 1 else _refuse(PreconditionFailed, "k must be >= 1")),
    "invert-to-dual": Recipe(
        "invert_to_dual", {"desc": "descriptor"}, {}, "recipe",
        lambda desc: [(_DUAL[desc[0]], *desc[1:], ("T",))] if desc[0] in _DUAL and desc[1] % 2
        else _refuse(PreconditionFailed, "inverse transform applies to odd-gon solutions")),
    "conjugate": Recipe(
        "conjugate", {"desc": "descriptor", "phi": "tensor"}, {}, "recipe",
        lambda desc, phi: [(*desc, ("T",))] if desc[0] in _DUAL
        else _refuse(PreconditionFailed, "conjugation transform is stated for polygon families")),
    "bar-sigma-conjugate": Recipe(
        "bar_sigma_conjugate", {"desc": "descriptor"}, {}, "recipe",
        lambda desc: [(_DUAL[desc[0]] if desc[1] % 2 else desc[0], *desc[1:], ("T",))] if desc[0] in _DUAL
        else _refuse(PreconditionFailed, "reversal transform is stated for polygon families")),
    "trace-descend": Recipe(
        "trace_descend", {"desc": "descriptor"}, {"side": "left"}, "recipe",
        lambda desc, side: [_descended(*desc, side)]),
    "trace-descend-mixed": Recipe(
        "trace_descend_mixed", {"t_desc": "descriptor", "s_desc": "descriptor"}, {"side": "left"}, "recipe",
        lambda t, s, side: [
            *_mixed_pair(t, s), _descended(*t, side), _descended(*s, side, "S"),
            ("mixed", t[1] - 2, t[2], ("T", "S"))]),
    "stack": Recipe(
        "stack", {"x": "descriptor", "y": "descriptor"}, {"mode": "compose_left"}, "recipe", _stacked),
    "simplex-from-mixed": Recipe(
        "simplex_from_mixed", {"t_desc": "descriptor", "s_desc": "descriptor"}, {"drop": "one"}, "recipe",
        lambda t, s, drop: [*_mixed_pair(t, s), ("simplex", t[1] - (1 if drop == "one" else 2), t[2], ("T",))]
        if drop in ("one", "two", "two_right")
        else _refuse(ShapeError, f"drop must be one|two|two_right, got {drop!r}")),
    "yang-baxter": Recipe(
        "yang_baxter_from_pair", {"t": "tensor", "s": "tensor"}, {"mode": "compose"}, "recipe",
        lambda t, s, mode: [  # the 2-simplex on V, or on V(x)V
            ("polygon", 5, t, ("t",)), ("dual-polygon", 5, s, ("s",)), ("mixed", 5, t, ("t", "s")),
            ("simplex", 2, t**2 if mode == "four_factor" else t, ("T",))
        ] if mode in ("compose", "four_factor")
        else _refuse(ShapeError, f"mode must be compose|four_factor, got {mode!r}")),
}
