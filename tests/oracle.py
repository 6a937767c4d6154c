"""The materialized staged-placement evaluation, kept as a test oracle.

Every placed factor is built as a full operator on V^(x)n (``place`` after
``permute_legs``) and the factors are composed one by one.  The equation
sides are taken from the closed-form index matrices with the leg counts
of the published equations, independently of the simplicial compiler.
Random sparse tensors over each scalar ring feed the property tests.
"""

from itertools import product

from hypothesis import strategies as st

from polysimplex.indices import mixed_indices, polygon_recursion_rows, simplex_indices
from polysimplex.rings import F64, RATIONAL, prime_field
from polysimplex.simplicial import compile_mixed
from polysimplex.tensor import (
    LegPermutation,
    Tensor,
    compose,
    identity_tensor,
    permute_legs,
    place,
)
from polysimplex.verify import RELATIONS_1_6

RINGS = (RATIONAL, F64, prime_field(5))


def ring_value(ring):
    if ring is RATIONAL:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if ring is F64:
        return st.one_of(st.floats(-3, 3), st.sampled_from([1.0, -1.0, 1e-10]))
    return st.integers(0, ring.p - 1)


@st.composite
def sparse_tensor(draw, ring, d, in_legs, out_legs, max_entries=6):
    keys = list(product(product(range(d), repeat=out_legs), product(range(d), repeat=in_legs)))
    chosen = draw(st.lists(st.sampled_from(keys), max_size=max_entries, unique=True))
    values = draw(st.lists(ring_value(ring), min_size=len(chosen), max_size=len(chosen)))
    return Tensor(d, in_legs, out_legs, dict(zip(chosen, values)), ring)


@st.composite
def function_tensor(draw, ring, d, in_legs, out_legs):
    """0/1 tensor of a random basis function, so that equations can hold."""
    outs = st.tuples(*[st.integers(0, d - 1)] * out_legs)
    return Tensor(
        d, in_legs, out_legs,
        {(draw(outs), inp): ring.one for inp in product(range(d), repeat=in_legs)},
        ring,
    )


def place_gathered(f, positions, n):
    """Place f reading legs ``positions`` in its own leg order.

    Outputs fill the sorted consumed slots; one extra output opens a slot
    right after the last of them, one missing output closes it.
    """
    k, l = f.in_legs, f.out_legs
    positions = tuple(positions)
    slots = tuple(sorted(positions))
    order = {p: m for m, p in enumerate(positions)}
    # Pre-permute f so that gathering the sorted slots feeds each map leg its wire.
    perm = LegPermutation(tuple(order[p] + 1 for p in slots)).inverse()
    reordered = permute_legs(f, LegPermutation(tuple(range(1, l + 1))), perm)
    if l == k:
        outputs = slots
    elif l == k + 1:
        outputs = slots + (slots[-1] + 1,)
    else:
        outputs = slots[:-1]
    return place(reordered, slots, outputs, n)


def staged(steps, legs, d, ring):
    """Compose the placed factors of ``(map, positions)`` steps in order."""
    result = identity_tensor(d, legs, ring)
    for f, positions in steps:
        result = compose(place_gathered(f, positions, legs), result)
        legs += f.out_legs - f.in_legs
    return result


def start_legs(family, n):
    """Leg count of the equation's ambient space, from its index matrices."""
    if family == "simplex":
        return n * (n + 1) // 2
    if family == "mixed":
        return ((n - 1) // 2) ** 2
    if n % 2:
        k = (n - 1) // 2
        return k * (k + 1) // 2
    k = n // 2
    return k * (k + 1) // 2 if family == "dual-polygon" else k * (k - 1) // 2


def full_gather(row, in_legs):
    """Complete a shorthand row that names one leg fewer than the map reads."""
    row = tuple(row)
    return row if len(row) == in_legs else row + (row[-1] + 1,)


def polygon_sides(t, n, dual=False):
    a_rows, b_rows = polygon_recursion_rows(n)
    if dual:
        orders = (a_rows, list(reversed(b_rows)))
    else:
        orders = (list(reversed(a_rows)), b_rows)
    legs = start_legs("dual-polygon" if dual else "polygon", n)
    return tuple(
        staged([(t, full_gather(row, t.in_legs)) for row in rows], legs, t.dim, t.ring)
        for rows in orders
    )


def simplex_sides(r, n):
    rows = list(simplex_indices(n).rows)
    legs = start_legs("simplex", n)
    return tuple(
        staged([(r, row) for row in order], legs, r.dim, r.ring)
        for order in (list(reversed(rows)), rows)
    )


def mixed_sides(t, s, n):
    maps = {"T": t, "S": s}
    if n % 2 == 0:
        # The even-gon relation has no index matrices; stage the compiled gathers.
        return tuple(
            staged([(maps[tag], row) for tag, row in side.gather_positions()],
                   len(side.free_inputs), t.dim, t.ring)
            for side in compile_mixed(n)
        )
    k = (n - 1) // 2
    d_m, e_m, f_m, g_m = mixed_indices(n)
    lhs_seq, rhs_seq = [], []
    for i in range(k + 1):
        lhs_seq.append((t, d_m[i]))
        if i < k:
            lhs_seq.append((s, e_m[i]))
    for i in range(k, -1, -1):
        rhs_seq.append((s, f_m[i]))
        if i > 0:
            rhs_seq.append((t, g_m[i - 1]))
    legs = start_legs("mixed", n)
    return staged(lhs_seq, legs, t.dim, t.ring), staged(rhs_seq, legs, t.dim, t.ring)


def relation_sides(t, s, name):
    legs, lhs_seq, rhs_seq = RELATIONS_1_6[name]
    maps = {"T": t, "S": s}
    return tuple(
        staged([(maps[tag], row) for tag, row in reversed(seq)], legs, t.dim, t.ring)
        for seq in (lhs_seq, rhs_seq)
    )
