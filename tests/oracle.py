"""Reference evaluations kept as test oracles.

This is the materialized placement calculus that the package no longer
ships: ``place`` builds a placed factor as a full operator on V^(x)n (the
package's ``_place_entries``), ``sweep`` and ``sweep_inverse`` are the
factor moves of the sweep composite, leg permutations are relabelled
entries (``permute_legs``) or 0/1 operators (``permutation_tensor``), and
``bar_sigma`` reverses the order of the legs.  Every staged factor is
``place`` after ``permute_legs``, and the factors are composed one by one.
The equation sides are taken from the closed-form index matrices with the
leg counts of the published equations, independently of the simplicial
compiler.  ``replace_slots`` is the slot rule as the package once wrote
it, one leg at a time, and the set-theoretic check reruns it on every
value tuple; the brute-force enumerator tries
every table in lexicographic order, and ``deviation_scan`` compares
every key.  ``compose``, ``tensor_product`` and ``compare_sides`` are the
dense calculus the package replaced by staged words and one streaming
comparator: sums over shared legs, products of every pair of entries,
and a report built from ``deviation_scan``.  The group laws are loops
over every pair and triple of a Cayley table, fed random loops (Latin
squares with identity 0) and relabelled group tables.
The commutation sides and the simplex map of a polygon pair are composed from tensor powers and permutation tensors, and the partial
compositions, the Hopf pentagon pair, the legwise conjugation and the
antipode-twisted product from maps padded with identity tensors.  Random sparse
and function-like tensors over each scalar ring feed the property tests,
and two maps whose composite cancels two paths on one key test the
dropping of zeros, as do a few staged sides whose values rest on what is
dropped after each step.  The dataclass twins declare each value class
of the package again, as the ``dataclasses`` module would build it from
the same class body, for the record-semantics tests.
"""

from dataclasses import dataclass, field
from itertools import product

from hypothesis import strategies as st

from polysimplex import construct, hopf, indices, setmaps, simplicial, tensor, verify
from polysimplex.indices import mixed_indices, polygon_recursion_rows, simplex_indices
from polysimplex.rings import F64, RATIONAL, prime_field
from polysimplex.setmaps import FiniteMap, check_polygon_set
from polysimplex.simplicial import compile_mixed
from polysimplex.tensor import ShapeError, Tensor, _place_entries, from_function, identity_tensor
from polysimplex.verify import RELATIONS_1_6, VerificationReport, polygon_signature

RINGS = (RATIONAL, F64, prime_field(5))


def ring_value(ring):
    if ring is RATIONAL:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if ring is F64:
        return st.one_of(st.floats(-3, 3), st.sampled_from([1.0, -1.0, 1e-10]))
    return st.integers(0, ring.p - 1)


def dyadic_value(ring):
    """Like ``ring_value``, but floats with few binary digits, whose sums and
    products are exact in any order: a reference that associates its
    products differently then agrees to the last bit."""
    if ring is F64:
        return st.sampled_from([0.25, -0.5, 1.0, -1.0, 1.5, 2.0, -3.0])
    return ring_value(ring)


@st.composite
def sparse_tensor(draw, ring, d, in_legs, out_legs, max_entries=6, values=ring_value):
    keys = list(product(product(range(d), repeat=out_legs), product(range(d), repeat=in_legs)))
    chosen = draw(st.lists(st.sampled_from(keys), max_size=max_entries, unique=True))
    values = draw(st.lists(values(ring), min_size=len(chosen), max_size=len(chosen)))
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


@st.composite
def partial_function_tensor(draw, ring, d, in_legs, out_legs):
    """Basis function defined on a random subset of the input columns."""
    outs = st.tuples(*[st.integers(0, d - 1)] * out_legs)
    columns = draw(st.lists(st.sampled_from(list(product(range(d), repeat=in_legs))), unique=True))
    return Tensor(d, in_legs, out_legs, {(draw(outs), inp): ring.one for inp in columns}, ring)


def cancelling_maps(ring):
    """f: e0 -> e0 + e1, e1 -> e1, then g: e0 -> e0, e1 -> -e0 + e1.  The two
    paths from e0 to e0 cancel (in GF(5), 1 + 4 reaches p), and the composite
    is h: e0 -> e1, e1 -> -e0 + e1."""
    one, minus = ring.one, ring.neg(ring.one)
    f = Tensor(2, 1, 1, {((0,), (0,)): one, ((1,), (0,)): one, ((1,), (1,)): one}, ring)
    g = Tensor(2, 1, 1, {((0,), (0,)): one, ((0,), (1,)): minus, ((1,), (1,)): one}, ring)
    h = Tensor(2, 1, 1, {((1,), (0,)): one, ((0,), (1,)): minus, ((1,), (1,)): one}, ring)
    return f, g, h


def per_step_cases(ring):
    """Staged sides ``(steps, legs, d, output order)`` by name, whose values
    rest on what an evaluator does after each step: a float product
    within tolerance after two steps (so a third does not bring it back),
    paths that cancel mod 5 before another step, scalar steps on no legs,
    a 1 -> 0 step, a partial map, and an output order."""
    small, large = (1e-5, 1e10) if ring is F64 else (2, 3)

    def m(k, l, entries):
        return Tensor(2, k, l, {key: ring.coerce(v) for key, v in entries.items()}, ring)

    mixing = m(2, 2, {((1, 0), (0, 1)): 2, ((1, 1), (0, 1)): -1, ((0, 0), (1, 1)): 3, ((0, 1), (0, 0)): 1,
                      ((1, 1), (0, 0)): 1, ((0, 0), (1, 0)): -2})
    return {
        "within tolerance, then large": ([(m(1, 1, {((0,), (0,)): small}), (1,))] * 2
                                         + [(m(1, 1, {((0,), (0,)): large}), (1,))], 1, 2, None),
        "cancel mod 5, then a step": ([(m(1, 1, {((0,), (0,)): 1, ((1,), (0,)): 1, ((1,), (1,)): 1}), (1,)),
                                       (m(1, 1, {((0,), (0,)): 2, ((0,), (1,)): 3}), (1,)),
                                       (m(1, 1, {((1,), (0,)): 4}), (1,))], 1, 2, None),
        "scalars on no legs": ([(m(0, 0, {((), ()): 3}), ()), (m(0, 0, {((), ()): -2}), ())], 0, 2, None),
        "1 -> 0 step": ([(m(1, 0, {((), (0,)): 2, ((), (1,)): -1}), (2,)),
                         (m(1, 1, {((1,), (0,)): 3, ((0,), (0,)): 1, ((0,), (1,)): 1}), (1,))], 2, 2, None),
        "partial map": ([(m(2, 2, {((1, 0), (0, 1)): 2, ((1, 1), (0, 1)): -1, ((0, 0), (1, 1)): 3}), (2, 1))],
                        2, 2, None),
        "output order": ([(mixing, (3, 1)), (mixing, (2, 3))], 3, 2, (2, 3, 1)),
    }


def _move(image, digits):
    """Digit i goes to position image[i] (1-based)."""
    out = [0] * len(image)
    for i, x in enumerate(digits):
        out[image[i] - 1] = x
    return tuple(out)


def inverse(image):
    """The inverse of a leg permutation given by its images."""
    return _move(image, range(1, len(image) + 1))


def permutation_tensor(d, image, ring=RATIONAL):
    """The operator on V^(x)k moving leg i to position image[i-1]."""
    return from_function(d, len(image), len(image), lambda x: _move(image, x), ring)


def permute_legs(f, out_image, in_image):
    """Relabel legs: leg i moves to position image[i-1] on each side."""
    entries = {(_move(out_image, out), _move(in_image, inp)): v for (out, inp), v in f.entries.items()}
    return Tensor(f.dim, f.in_legs, f.out_legs, entries, f.ring)


def bar_sigma(k, d, ring=RATIONAL):
    """The order-reversing permutation on k legs (the translation twist)."""
    return from_function(d, k, k, lambda x: x[::-1], ring)


def compose(f, g):
    """f after g as the dense sum over the shared legs."""
    if f.dim != g.dim or f.in_legs != g.out_legs or f.ring != g.ring:
        raise ShapeError(f"cannot compose {f.shape} after {g.shape}")
    ring = f.ring
    by_in = {}
    for (out, inp), v in f.entries.items():
        by_in.setdefault(inp, []).append((out, v))
    entries = {}
    for (mid, inp), gv in g.entries.items():
        for out, fv in by_in.get(mid, ()):
            key = (out, inp)
            acc = entries.get(key)
            term = ring.mul(fv, gv)
            entries[key] = term if acc is None else ring.add(acc, term)
    return Tensor(f.dim, g.in_legs, f.out_legs, entries, ring)


def tensor_product(f, g):
    """Every product of an entry of f and an entry of g; f's legs first."""
    if f.dim != g.dim or f.ring != g.ring:
        raise ShapeError(f"cannot multiply {f.shape} and {g.shape}")
    entries = {}
    for (fo, fi), fv in f.entries.items():
        for (go, gi), gv in g.entries.items():
            entries[(fo + go, fi + gi)] = f.ring.mul(fv, gv)
    return Tensor(f.dim, f.in_legs + g.in_legs, f.out_legs + g.out_legs, entries, f.ring)


def flip(d, ring=RATIONAL):
    """The transposition x(x)y -> y(x)x on two legs."""
    return from_function(d, 2, 2, lambda x: (x[1], x[0]), ring)


def sweep(i, j, n, d, ring=RATIONAL):
    """Move factor j to position i, shifting factors i..j-1 right by one."""
    return from_function(d, n, n, lambda x: x[: i - 1] + (x[j - 1],) + x[i - 1 : j - 1] + x[j:], ring)


def sweep_inverse(i, j, n, d, ring=RATIONAL):
    """Move factor i to position j, shifting factors i+1..j left by one."""
    return from_function(d, n, n, lambda x: x[: i - 1] + x[i:j] + (x[i - 1],) + x[j:], ring)


def place(f, a, b, n):
    """Embed f into V^(x)n, reading the sorted legs ``a`` and writing the
    sorted legs ``b``; equals the sweep composite
    tau_(1,b1)^-1 ... tau_(l,bl)^-1 (f (x) id^(n-k)) tau_(k,ak) ... tau_(1,a1).
    """
    return _place_entries(f, tuple(a), tuple(b), n)


def place_gathered(f, positions, n):
    """Place f reading legs ``positions`` in its own leg order.

    The first min(k, l) outputs fill the sorted consumed slots; the
    outputs beyond them open slots right after the last of them (after
    leg n when f reads none), and the slots beyond them close.
    """
    k, l = f.in_legs, f.out_legs
    positions = tuple(positions)
    slots = tuple(sorted(positions))
    order = {p: m for m, p in enumerate(positions)}
    # Pre-permute f so that gathering the sorted slots feeds each map leg its wire.
    perm = inverse(tuple(order[p] + 1 for p in slots))
    reordered = permute_legs(f, tuple(range(1, l + 1)), perm)
    last = slots[-1] if slots else n
    outputs = slots[:l] + tuple(range(last + 1, last + 1 + l - k))
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


def tensor_power(f, n):
    result = identity_tensor(f.dim, 0, f.ring)
    for _ in range(n):
        result = tensor_product(result, f)
    return result


def blocks_transpose(d, blocks, width, ring):
    """Permutation of V^(blocks*width) regrouping row-major blocks into columns."""
    image = [0] * (blocks * width)
    for r in range(blocks):
        for c in range(width):
            image[r * width + c] = c * blocks + r + 1
    return permutation_tensor(d, tuple(image), ring)


def commutation_sides(f, g):
    """f on every row then g on every column, and g then f, as operators
    V^(ki) -> V^(lj) on the grid of i rows of k legs."""
    d, ring = f.dim, f.ring
    k, l, i, j = f.in_legs, f.out_legs, g.in_legs, g.out_legs
    lhs = compose(
        blocks_transpose(d, l, j, ring),
        compose(tensor_power(g, l), compose(blocks_transpose(d, i, l, ring), tensor_power(f, i))),
    )
    rhs = compose(
        tensor_power(f, j),
        compose(blocks_transpose(d, k, j, ring), compose(tensor_power(g, k), blocks_transpose(d, i, k, ring))),
    )
    return lhs, rhs


def interleave_split(count):
    """0-based leg indices split into (even-labeled, odd-labeled)."""
    return list(range(0, count, 2)), list(range(1, count, 2))


def pair_to_simplex_map(t, s):
    """sigma o (S (x) T) o tau on the legs of one simplex face.

    tau routes the even-position legs to S and the odd-position legs to T;
    sigma interleaves S's outputs back onto even positions and T's outputs
    onto odd positions (positions 1-based, labels 0-based).
    """
    n_in = s.in_legs + t.in_legs
    n_out = s.out_legs + t.out_legs
    evens_in, odds_in = interleave_split(n_in)
    tau_image = [0] * n_in
    for block_pos, leg in enumerate(evens_in + odds_in):
        tau_image[leg] = block_pos + 1
    tau = permutation_tensor(t.dim, tuple(tau_image), t.ring)
    evens_out, odds_out = interleave_split(n_out)
    sigma_image = [0] * n_out
    for block_pos, leg in enumerate(odds_out + evens_out):
        sigma_image[block_pos] = leg + 1
    sigma = permutation_tensor(t.dim, tuple(sigma_image), t.ring)
    return compose(sigma, compose(tensor_product(s, t), tau))


def adjacent_pair_swaps(pairs, legs, d, ring):
    """sigma_(1,2) sigma_(3,4) ... on the first 2*pairs of ``legs`` legs."""
    image = list(range(1, legs + 1))
    for m in range(pairs):
        image[2 * m], image[2 * m + 1] = image[2 * m + 1], image[2 * m]
    return permutation_tensor(d, tuple(image), ring)


def pair_swap_formula(t, s):
    """The same map in closed form: S staged on the odd positions and T on
    the even ones, then the adjacent pair swaps, one per input of T."""
    legs = s.in_legs + t.in_legs
    steps = [(s, tuple(range(1, legs + 1, 2))), (t, tuple(range(2, legs + 1, 2)))]
    return compose(adjacent_pair_swaps(t.in_legs, legs, t.dim, t.ring), staged(steps, legs, t.dim, t.ring))


def deviation_scan(f, g):
    """Largest entrywise |f - g| over every key, lexicographically first."""
    ring = f.ring
    worst = None
    for key in sorted(set(f.entries) | set(g.entries)):
        diff = ring.add(f.entry(*key), ring.neg(g.entry(*key)))
        if not ring.is_zero(diff):
            mag = ring.magnitude(diff)
            if worst is None or mag > worst[0]:
                worst = (mag, key)
    return worst


def compare_sides(equation, lhs, rhs):
    """The report of two built sides by :func:`deviation_scan`, with the
    witness entries read off the tensors."""
    if lhs.shape != rhs.shape or lhs.ring != rhs.ring:
        raise ShapeError(f"cannot compare shapes {lhs.shape} and {rhs.shape}")
    worst = deviation_scan(lhs, rhs)
    if worst is None:
        return VerificationReport(equation, True, 0, lhs.shape, rhs.shape)
    mag, (out, inp) = worst
    witness = {
        "out": list(out),
        "in": list(inp),
        "lhs": lhs.ring.format(lhs.entry(out, inp)),
        "rhs": rhs.ring.format(rhs.entry(out, inp)),
    }
    return VerificationReport(equation, False, mag, lhs.shape, rhs.shape, witness)


def replace_slots(seq: list, positions, new_items) -> list:
    """The slot rule, leg by leg: the first min(k, l) items fill the first
    sorted slots, the items beyond the slot count open right after the last
    slot (after the last leg when there is none), and the slots beyond the
    item count close."""
    k, l = len(positions), len(new_items)
    slots = {}
    for i, p in enumerate(sorted(positions)):
        slots.setdefault(p, i)
    out = []
    for p, item in enumerate(seq, start=1):
        i = slots.get(p)
        if i is None:
            out.append(item)
            continue
        if i < l:
            out.append(new_items[i])
        if i == k - 1:
            out.extend(new_items[k:])
    if not k:
        out.extend(new_items)
    return out


def apply_gathers(fmap, gathers, values):
    """Stage fmap on a value tuple, one ``replace_slots`` per gather."""
    state = list(values)
    for gather in gathers:
        outs = list(fmap(tuple(state[p - 1] for p in gather)))
        state = replace_slots(state, gather, outs)
    return tuple(state)


def set_check(fmap, n, dual=False):
    """(holds, witness) of the (dual) n-gon on every tuple in product order,
    with the sides taken from the index matrices."""
    a_rows, b_rows = polygon_recursion_rows(n)
    orders = (a_rows, list(reversed(b_rows))) if dual else (list(reversed(a_rows)), b_rows)
    in_arity = polygon_signature(n, dual)[0]
    lhs_gathers, rhs_gathers = ([full_gather(row, in_arity) for row in rows] for rows in orders)
    legs = start_legs("dual-polygon" if dual else "polygon", n)
    for values in product(range(fmap.base), repeat=legs):
        lhs = apply_gathers(fmap, lhs_gathers, values)
        rhs = apply_gathers(fmap, rhs_gathers, values)
        if lhs != rhs:
            return False, {"in": list(values), "lhs": list(lhs), "rhs": list(rhs)}
    return True, None


def enumerate_set_solutions_brute(n, base, dual=False):
    """Every table over {0..base-1} in lexicographic order, kept when it
    passes the (dual) n-gon check."""
    in_arity, out_arity = polygon_signature(n, dual)
    outputs = list(product(range(base), repeat=out_arity))
    found = []
    for choice in product(outputs, repeat=base**in_arity):
        candidate = FiniteMap(base, in_arity, out_arity, choice)
        if check_polygon_set(candidate, n, dual).holds:
            found.append(candidate)
    return found


def is_associative(table):
    """(ab)c = a(bc) for every triple of the Cayley table."""
    n = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a in n for b in n for c in n)


def is_commutative(table):
    """ab = ba for every pair of the Cayley table."""
    n = range(len(table))
    return all(table[a][b] == table[b][a] for a in n for b in n)


@st.composite
def loops(draw, orders):
    """A loop of an order in ``orders``: a Latin square with identity 0,
    filled cell by cell in a drawn order of the free values, or a group
    table of that order relabelled by a drawn permutation that fixes 0."""
    n = draw(st.sampled_from(orders))
    groups = [hopf.cyclic_group(n)] + ([hopf.symmetric_group(3)] if n == 6 else [])
    if draw(st.booleans()):
        table = draw(st.sampled_from(groups)).table
        p = [0] + draw(st.permutations(range(1, n)))
        back = {x: i for i, x in enumerate(p)}
        return tuple(tuple(p[table[back[a]][back[b]]] for b in range(n)) for a in range(n))
    rng = draw(st.randoms(use_true_random=False))
    rows = [list(range(n))] + [[a] + [None] * (n - 1) for a in range(1, n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            return True
        a, b = cells[i]
        free = sorted(set(range(n)) - set(rows[a]) - {row[b] for row in rows})
        rng.shuffle(free)
        for x in free:
            rows[a][b] = x
            if fill(i + 1):
                return True
        rows[a][b] = None
        return False

    fill(0)
    return tuple(map(tuple, rows))


def partial_compose_left(x, y, overlap=1):
    """(x (x) id) o (id (x) y), each map padded with identity tensors."""
    top = tensor_product(x, identity_tensor(x.dim, y.out_legs - overlap, x.ring))
    bottom = tensor_product(identity_tensor(x.dim, x.in_legs - overlap, x.ring), y)
    return compose(top, bottom)


def partial_compose_right(x, y, overlap=1):
    """(id (x) y) o (x (x) id), each map padded with identity tensors."""
    top = tensor_product(identity_tensor(x.dim, x.out_legs - overlap, x.ring), y)
    bottom = tensor_product(x, identity_tensor(x.dim, y.in_legs - overlap, x.ring))
    return compose(top, bottom)


def hopf_pentagon_pair(h):
    """The pentagon pair of a Hopf algebra as nested compositions:
    T = (id (x) m)(Delta (x) id) and
    S = (id (x) m)(id (x) id (x) S^-1)(id (x) flip)(Delta (x) id)."""
    one = identity_tensor(h.dim, 1, h.ring)
    t = compose(tensor_product(one, h.product), tensor_product(h.coproduct, one))
    s = compose(
        tensor_product(one, h.product),
        compose(
            tensor_product(one, tensor_product(one, h.antipode_inverse())),
            compose(tensor_product(one, flip(h.dim, h.ring)), tensor_product(h.coproduct, one)),
        ),
    )
    return t, s


def conjugate(t, phi, phi_inv):
    """phi_inv^(x)l o t o phi^(x)k, the tensor powers built one factor at a time."""
    outs = identity_tensor(t.dim, 0, t.ring)
    ins = identity_tensor(t.dim, 0, t.ring)
    for _ in range(t.out_legs):
        outs = tensor_product(outs, phi_inv)
    for _ in range(t.in_legs):
        ins = tensor_product(ins, phi)
    return compose(outs, compose(t, ins))


def twisted_product(h):
    """m o (S (x) id), the antipode-twisted product."""
    return compose(h.product, tensor_product(h.antipode, identity_tensor(h.dim, 1, h.ring)))


# -- dataclass twins of the value classes ---------------------------------------
#
# Each twin subclasses its record so that it shares the class body (the
# ``__post_init__``, properties and other methods) and lets ``dataclass``
# generate the rest from the same field declarations.  Setting
# ``__qualname__`` makes the generated repr name the record's class.
# ``Tensor`` writes its own ``__eq__``, ``__hash__`` and ``__repr__``, which
# a dataclass keeps, so its twin turns those off to inherit them.


@dataclass(frozen=True, eq=False, repr=False)
class TensorTwin(tensor.Tensor):
    dim: int
    in_legs: int
    out_legs: int
    entries: dict = field(default_factory=dict)
    ring: object = RATIONAL


@dataclass(frozen=True)
class FiniteMapTwin(setmaps.FiniteMap):
    __qualname__ = "FiniteMap"
    base: int
    in_arity: int
    out_arity: int
    table: tuple


@dataclass(frozen=True)
class LiftOutcomeTwin(setmaps.LiftOutcome):
    __qualname__ = "LiftOutcome"
    result: object
    report: object
    fixed_point_ok: bool = True


@dataclass(frozen=True)
class StepTwin(simplicial.Step):
    __qualname__ = "Step"
    tag: str
    face: tuple
    inputs: tuple
    outputs: tuple


@dataclass(frozen=True)
class ContractionProgramTwin(simplicial.ContractionProgram):
    __qualname__ = "ContractionProgram"
    steps: tuple


@dataclass(frozen=True)
class MultiIndexMatrixTwin(indices.MultiIndexMatrix):
    __qualname__ = "MultiIndexMatrix"
    rows: tuple
    kind: str
    order: int


@dataclass(frozen=True)
class GroupTableTwin(hopf.GroupTable):
    __qualname__ = "GroupTable"
    table: tuple


@dataclass(frozen=True)
class HopfInstanceTwin(hopf.HopfInstance):
    __qualname__ = "HopfInstance"
    dim: int
    unit: object
    counit: object
    product: object
    coproduct: object
    antipode: object = None
    name: str = ""


@dataclass(frozen=True)
class SolutionDescriptorTwin(construct.SolutionDescriptor):
    __qualname__ = "SolutionDescriptor"
    family: str
    order: int
    tensor: object
    provenance: tuple = ()


@dataclass(frozen=True)
class VerificationReportTwin(verify.VerificationReport):
    __qualname__ = "VerificationReport"
    equation: str
    holds: bool
    max_deviation: object
    lhs_dims: tuple
    rhs_dims: tuple
    witness: object = None
    details: dict = field(default_factory=dict)
