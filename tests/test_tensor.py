"""Tensor core: every operation checked against an independent oracle.

The oracles here deliberately avoid the sparse code paths: composition is
re-done as dense matrix multiplication over Fraction lists, and placement
is re-done as the literal sweep composite
tau_(1,b1)^-1 ... (F (x) id) ... tau_(1,a1).
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import RINGS, place_gathered, sparse_tensor, staged
from polysimplex.rings import F64, RingError, prime_field
from polysimplex.tensor import (
    LegPermutation,
    NotInvertible,
    ShapeError,
    Tensor,
    compose,
    contract_staged,
    deviation,
    flip,
    from_function,
    identity_tensor,
    invert,
    partial_compose_left,
    partial_compose_right,
    partial_trace_left,
    partial_trace_right,
    permutation_tensor,
    permute_legs,
    place,
    regroup,
    replace_slots,
    sweep,
    sweep_inverse,
    tensor_product,
)


def dense_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    assert len(a[0]) == inner
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    if b[k][j]:
                        out[i][j] += a[i][k] * b[k][j]
    return out


def oracle_place_via_sweeps(f, a, b, n):
    """The placement as written: gather sweeps, f (x) id, inverse sweeps."""
    d, ring = f.dim, f.ring
    k, l = f.in_legs, f.out_legs
    result = identity_tensor(d, n, ring)
    for pos, target in enumerate(a, start=1):
        result = compose(sweep(pos, target, n, d, ring), result)
    result = compose(tensor_product(f, identity_tensor(d, n - k, ring)), result)
    for pos, target in reversed(list(enumerate(b, start=1))):
        result = compose(sweep_inverse(pos, target, n - k + l, d, ring), result)
    return result


def random_tensor(rng_entries, d, in_legs, out_legs):
    entries = {}
    for (out, inp), v in rng_entries:
        entries[(out, inp)] = v
    return Tensor(d, in_legs, out_legs, entries)


def tensor_strategy(d=2, max_legs=3):
    def build(draw_in, draw_out, values):
        entries = {}
        for (o, i), v in values:
            entries[(o, i)] = v
        return entries

    @st.composite
    def strat(draw):
        in_legs = draw(st.integers(0, max_legs))
        out_legs = draw(st.integers(0, max_legs))
        keys = list(
            product(product(range(d), repeat=out_legs), product(range(d), repeat=in_legs))
        )
        chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True)) if keys else []
        values = draw(
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=len(chosen),
                max_size=len(chosen),
            )
        )
        return Tensor(d, in_legs, out_legs, dict(zip(chosen, values)))

    return strat()


Z2_T = from_function(2, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 2))
Z2_S = from_function(2, 2, 2, lambda x: (x[0], (x[1] - x[0]) % 2))


class TestCompose:
    def test_identity_composes_to_identity(self):
        one = identity_tensor(2, 1)
        assert compose(one, one) == one

    def test_swap_is_involution(self):
        sigma = flip(2)
        assert compose(sigma, sigma) == identity_tensor(2, 2)

    def test_group_pair_against_dense_oracle(self):
        got = compose(Z2_T, Z2_S)
        expect = dense_matmul(Z2_T.to_dense(), Z2_S.to_dense())
        assert got.to_dense() == expect

    @settings(max_examples=60, deadline=None)
    @given(tensor_strategy(), tensor_strategy())
    def test_random_against_dense_oracle(self, f, g):
        if f.in_legs != g.out_legs:
            with pytest.raises(ShapeError):
                compose(f, g)
            return
        got = compose(f, g)
        assert got.to_dense() == dense_matmul(f.to_dense(), g.to_dense())

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            compose(identity_tensor(2, 1), identity_tensor(3, 1))


class TestTensorProduct:
    def test_identities_concatenate(self):
        assert tensor_product(identity_tensor(2, 1), identity_tensor(2, 1)) == identity_tensor(2, 2)

    def test_rank_one_outer_product(self):
        e0 = Tensor(2, 0, 1, {((0,), ()): 1})
        e1 = Tensor(2, 0, 1, {((1,), ()): 1})
        got = tensor_product(e0, e1)
        assert got.entries == {((0, 1), ()): Fraction(1)}

    def test_group_pair_entrywise(self):
        got = tensor_product(Z2_T, Z2_S)
        for go in product(range(2), repeat=4):
            for gi in product(range(2), repeat=4):
                expect = Z2_T.entry(go[:2], gi[:2]) * Z2_S.entry(go[2:], gi[2:])
                assert got.entry(go, gi) == expect

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            tensor_product(identity_tensor(2, 1), identity_tensor(3, 1))


class TestSweep:
    def test_identity_when_equal(self):
        assert sweep(1, 1, 3, 2) == identity_tensor(2, 3)

    def test_adjacent_transposition(self):
        assert sweep(1, 2, 2, 2) == flip(2)

    def test_rotation_on_basis(self):
        tau = sweep(1, 3, 3, 2)
        for a, b, c in product(range(2), repeat=3):
            assert tau.entry((c, a, b), (a, b, c)) == 1
        assert len(tau.entries) == 8

    def test_inverse_cancels(self):
        for n in range(1, 7):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    got = compose(sweep(i, j, n, 2), sweep_inverse(i, j, n, 2))
                    assert got == identity_tensor(2, n)

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            sweep(2, 1, 3, 2)
        with pytest.raises(ShapeError):
            sweep(1, 4, 3, 2)


class TestPlace:
    def test_identity_placement(self):
        got = place(identity_tensor(2, 1), [2], [2], 3)
        assert got == identity_tensor(2, 3)

    def test_contiguous_suffix(self):
        got = place(Z2_T, [2, 3], [2, 3], 3)
        assert got == tensor_product(identity_tensor(2, 1), Z2_T)

    def test_split_placement_on_basis(self):
        got = place(Z2_T, [1, 3], [1, 3], 3)
        for a, b, c in product(range(2), repeat=3):
            # T acts on legs 1 and 3: (a, b, c) -> (a, b, a+c)
            assert got.entry((a, b, (a + c) % 2), (a, b, c)) == 1
        assert len(got.entries) == 8

    def test_matches_sweep_composite_all_endo_indices(self):
        # Direct index bookkeeping must equal the sweep composite, l = k.
        for n in range(1, 6):
            for k in range(1, min(n, 3) + 1):
                f = from_function(2, k, k, lambda x: tuple(reversed(x)))
                for a in combinations(range(1, n + 1), k):
                    assert place(f, a, a, n) == oracle_place_via_sweeps(f, a, a, n)

    def test_matches_sweep_composite_leg_growing(self):
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        for n in range(2, 5):
            for a in combinations(range(1, n + 1), 1):
                b = (a[0], a[0] + 1)
                assert place(delta, a, b, n) == oracle_place_via_sweeps(delta, a, b, n)
            for a0 in range(1, n):
                a = (a0, a0 + 1)
                b = (a0,)
                assert place(mult, a, b, n) == oracle_place_via_sweeps(mult, a, b, n)

    def test_place_std_shorthands(self):
        # Sorted gathers in the regimes k->k, k->k+1 (a slot opens after the
        # last input) and k->k-1 (the last input slot closes).
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        for f, a, b in ((Z2_T, (1, 3), (1, 3)), (delta, (2,), (2, 3)), (mult, (2, 3), (2,))):
            expect = place(f, a, b, 3)
            assert place_gathered(f, a, 3) == expect
            assert contract_staged([(f, a)], 3, 2) == expect

    def test_gathered_matches_sorted(self):
        assert contract_staged([(Z2_T, (1, 3))], 4, 2) == place(Z2_T, (1, 3), (1, 3), 4)

    def test_gathered_unsorted_reorders_inputs(self):
        got = contract_staged([(Z2_T, (3, 1))], 3, 2)
        assert got == place_gathered(Z2_T, (3, 1), 3)
        # leg order (3, 1): T reads (c, a), so (a, b, c) -> (c+a at slot 3... )
        for a, b, c in product(range(2), repeat=3):
            out_first, out_second = c, (c + a) % 2
            # outputs fill sorted slots (1, 3)
            assert got.entry((out_first, b, out_second), (a, b, c)) == 1

    def test_bad_indices_rejected(self):
        with pytest.raises(ShapeError):
            place(Z2_T, [3, 1], [1, 3], 3)
        with pytest.raises(ShapeError):
            place(Z2_T, [1, 4], [1, 2], 3)


@st.composite
def staged_program(draw):
    """Random steps with unsorted gathers and signatures k->k, k->k+1, k->k-1."""
    ring = draw(st.sampled_from(RINGS))
    d = draw(st.integers(2, 3))
    start = legs = draw(st.integers(1, 4))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        if legs == 0:
            break
        k = draw(st.integers(1, min(legs, 2)))
        l = k + draw(st.sampled_from([-1, 0, 1]))
        positions = draw(st.permutations(range(1, legs + 1)))[:k]
        steps.append((draw(sparse_tensor(ring, d, k, l)), tuple(positions)))
        legs += l - k
    return steps, start, d, ring


class TestContractStaged:
    @settings(max_examples=150, deadline=None)
    @given(staged_program())
    def test_matches_materialized_oracle(self, program):
        steps, legs, d, ring = program
        got = contract_staged(steps, legs, d, ring)
        expect = staged(steps, legs, d, ring)
        assert got.to_json_dict() == expect.to_json_dict()

    def test_bad_gathers_rejected(self):
        for positions in ((1, 1), (0, 2), (1, 4), (1,)):
            with pytest.raises(ShapeError):
                contract_staged([(Z2_T, positions)], 3, 2)

    def test_map_from_other_ring_rejected(self):
        with pytest.raises(ShapeError):
            contract_staged([(Z2_T, (1, 2))], 2, 2, F64)


class TestTraces:
    def test_trace_identity_gives_dimension(self):
        got = partial_trace_left(identity_tensor(2, 1))
        assert got.entry((), ()) == 2

    def test_trace_swap_gives_identity(self):
        assert partial_trace_left(flip(2)) == identity_tensor(2, 1)
        assert partial_trace_right(flip(2)) == identity_tensor(2, 1)

    def test_trace_group_t_entrywise(self):
        got = partial_trace_left(Z2_T)
        for y, b in product(range(2), repeat=2):
            expect = sum(Z2_T.entry((g, y), (g, b)) for g in range(2))
            assert got.entry((y,), (b,)) == expect

    def test_trace_respects_tensor_factors(self):
        f, g = Z2_T, flip(2)
        lhs = partial_trace_left(tensor_product(f, g))
        rhs = tensor_product(partial_trace_left(f), g)
        assert lhs == rhs

    def test_no_legs_to_trace(self):
        scalar = Tensor(2, 0, 0, {((), ()): 5})
        with pytest.raises(ShapeError):
            partial_trace_left(scalar)


class TestPermuteLegs:
    def test_identity_permutations(self):
        n = LegPermutation((1, 2))
        assert permute_legs(Z2_T, n, n) == Z2_T

    def test_output_flip_is_postcomposition(self):
        got = permute_legs(Z2_T, LegPermutation((2, 1)), LegPermutation((1, 2)))
        assert got == compose(flip(2), Z2_T)

    def test_input_permutation_is_precomposition_with_inverse(self):
        perm = LegPermutation((2, 1))
        got = permute_legs(Z2_T, LegPermutation((1, 2)), perm)
        assert got == compose(Z2_T, permutation_tensor(2, perm.inverse()))

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            permute_legs(Z2_T, LegPermutation((1, 2, 3)), LegPermutation((1, 2)))


class TestAlgebraicLaws:
    @settings(max_examples=40, deadline=None)
    @given(tensor_strategy(max_legs=2), tensor_strategy(max_legs=2), tensor_strategy(max_legs=2))
    def test_compose_associative(self, f, g, h):
        if f.in_legs != g.out_legs or g.in_legs != h.out_legs:
            return
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @settings(max_examples=40, deadline=None)
    @given(tensor_strategy(max_legs=2), tensor_strategy(max_legs=2), tensor_strategy(max_legs=2))
    def test_tensor_product_associative(self, f, g, h):
        lhs = tensor_product(tensor_product(f, g), h)
        rhs = tensor_product(f, tensor_product(g, h))
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(
        tensor_strategy(max_legs=2),
        tensor_strategy(max_legs=2),
        tensor_strategy(max_legs=2),
        tensor_strategy(max_legs=2),
    )
    def test_interchange_law(self, f, g, h, k):
        if f.in_legs != h.out_legs or g.in_legs != k.out_legs:
            return
        lhs = compose(tensor_product(f, g), tensor_product(h, k))
        rhs = tensor_product(compose(f, h), compose(g, k))
        assert lhs == rhs


class TestPartialComposition:
    def test_pentagon_block_from_structure_maps(self):
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        assert partial_compose_right(delta, mult) == Z2_T
        s56 = partial_compose_left(mult, delta)
        assert s56 == from_function(2, 2, 2, lambda x: ((x[0] + x[1]) % 2, x[1]))

    def test_mixed_associativity_of_chains(self):
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        a = partial_compose_left(partial_compose_right(delta, mult), delta)
        b = partial_compose_right(delta, partial_compose_left(mult, delta))
        assert a == b

    def test_overlap_bounds(self):
        with pytest.raises(ShapeError):
            partial_compose_left(Z2_T, Z2_T, overlap=3)


class TestInverseAndRegroup:
    def test_invert_permutation_like(self):
        inv = invert(Z2_T)
        assert compose(inv, Z2_T) == identity_tensor(2, 2)
        assert compose(Z2_T, inv) == identity_tensor(2, 2)

    def test_invert_singular(self):
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        proj = compose(from_function(2, 2, 1, lambda x: (x[0],)), delta)
        rank_one = compose(delta, from_function(2, 2, 1, lambda x: (0,)))
        assert proj == identity_tensor(2, 1)
        with pytest.raises(NotInvertible):
            invert(rank_one)

    def test_regroup_pairs(self):
        u = tensor_product(Z2_T, Z2_T)
        packed = regroup(u, 2)
        assert packed.shape == (4, 2, 2)
        for (out, inp), v in u.entries.items():
            po = (out[0] * 2 + out[1], out[2] * 2 + out[3])
            pi = (inp[0] * 2 + inp[1], inp[2] * 2 + inp[3])
            assert packed.entry(po, pi) == v


class TestReplaceSlots:
    def test_endo(self):
        assert replace_slots(["a", "b", "c"], (1, 3), ["x", "y"]) == ["x", "b", "y"]

    def test_grow(self):
        assert replace_slots(["a", "b"], (1,), ["x", "y"]) == ["x", "y", "b"]
        assert replace_slots(["a", "b"], (2,), ["x", "y"]) == ["a", "x", "y"]

    def test_shrink(self):
        assert replace_slots(["a", "b", "c"], (1, 3), ["x"]) == ["x", "b"]

    def test_unsorted_positions_fill_sorted_slots(self):
        assert replace_slots(["a", "b", "c"], (3, 1), ["x", "y"]) == ["x", "b", "y"]


class TestRingsAndSerialization:
    def test_json_round_trip_rational(self):
        t = Tensor(2, 1, 1, {((0,), (1,)): Fraction(-3, 7), ((1,), (0,)): 2})
        assert Tensor.from_json(t.to_json()) == t

    def test_json_round_trip_gfp(self):
        gf5 = prime_field(5)
        t = Tensor(2, 1, 1, {((0,), (1,)): 3, ((1,), (0,)): 9}, ring=gf5)
        back = Tensor.from_json(t.to_json())
        assert back == t
        assert back.entry((1,), (0,)) == 4

    def test_json_round_trip_float(self):
        t = Tensor(2, 1, 1, {((0,), (1,)): 0.5}, ring=F64)
        assert Tensor.from_json(t.to_json()) == t

    def test_float_tolerance_comparison(self):
        a = Tensor(2, 1, 1, {((0,), (0,)): 1.0}, ring=F64)
        b = Tensor(2, 1, 1, {((0,), (0,)): 1.0 + 1e-12}, ring=F64)
        c = Tensor(2, 1, 1, {((0,), (0,)): 1.0 + 1e-6}, ring=F64)
        assert a == b
        assert a != c
        mag, key = deviation(a, c)
        assert key == ((0,), (0,))

    def test_prime_field_requires_prime(self):
        with pytest.raises(RingError):
            prime_field(6)

    def test_rational_refuses_floats(self):
        with pytest.raises(RingError):
            Tensor(2, 0, 0, {((), ()): 0.5})

    def test_zero_entries_pruned(self):
        t = Tensor(2, 1, 1, {((0,), (0,)): 0, ((1,), (1,)): 1})
        assert len(t.entries) == 1

    def test_dense_is_first_leg_slowest(self):
        t = Tensor(2, 2, 0, {((), (0, 1)): 7})
        # input (0,1) has rank 0*2+1 = 1 under first-leg-slowest
        assert t.to_dense() == [[0, 7, 0, 0]]
