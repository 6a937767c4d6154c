"""Tensor core: every operation checked against an independent oracle.

The oracles here deliberately avoid the sparse code paths: composition is
re-done as dense matrix multiplication over Fraction lists, and placement
is re-done as the literal sweep composite
tau_(1,b1)^-1 ... (F (x) id) ... tau_(1,a1).  The materialized calculus of
``oracle`` (sweeps, ``place``, leg permutations), which the package no
longer ships, is checked here as well, since every other oracle rests on
it.
"""

import json
import keyword
import math
import re
import tokenize
from fractions import Fraction
from io import StringIO
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import (
    RINGS,
    deviation_scan,
    dyadic_value,
    flip,
    function_tensor,
    inverse,
    partial_function_tensor,
    permutation_tensor,
    permute_legs,
    place,
    place_gathered,
    sparse_tensor,
    staged,
    sweep,
    sweep_inverse,
)
from polysimplex import tensor as tensor_module
from polysimplex.rings import F64, PRIME_CAP, RATIONAL, FloatRing, RingError, _is_prime, prime_field, ring_from_tag
from polysimplex.tensor import (
    NotInvertible,
    ShapeError,
    Tensor,
    compose,
    contract_staged,
    from_function,
    identity_tensor,
    invert,
    is_invertible,
    partial_compose_left,
    partial_compose_right,
    partial_trace_left,
    partial_trace_right,
    regroup,
    replace_slots,
    tensor_product,
)
from polysimplex.tensor import (
    _MAX_LOOPS,
    _cones,
    _invert_dense,
    _kernel_source,
    _staged_kernel,
)
from polysimplex.verify import compare_sides
from regen_kernel_sources import GOLDEN, polygon_kernel_sources


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
        result = oracle.compose(sweep(pos, target, n, d, ring), result)
    result = oracle.compose(oracle.tensor_product(f, identity_tensor(d, n - k, ring)), result)
    for pos, target in reversed(list(enumerate(b, start=1))):
        result = oracle.compose(sweep_inverse(pos, target, n - k + l, d, ring), result)
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

    @pytest.mark.parametrize("ring", RINGS, ids=["rational", "f64", "gfp5"])
    def test_scalar_unit_and_counit_match_oracle(self, ring):
        maps = scalar_unit_counit(ring)
        for f, g in product(maps, repeat=2):
            if f.in_legs == g.out_legs:
                assert compose(f, g).to_json_dict() == oracle.compose(f, g).to_json_dict()


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

    @pytest.mark.parametrize("ring", RINGS, ids=["rational", "f64", "gfp5"])
    def test_scalar_unit_and_counit_match_oracle(self, ring):
        for f, g in product(scalar_unit_counit(ring), repeat=2):
            assert tensor_product(f, g).to_json_dict() == oracle.tensor_product(f, g).to_json_dict()


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
                    got = oracle.compose(sweep(i, j, n, 2), sweep_inverse(i, j, n, 2))
                    assert got == identity_tensor(2, n)


class TestPlace:
    def test_identity_placement(self):
        got = place(identity_tensor(2, 1), [2], [2], 3)
        assert got == identity_tensor(2, 3)

    def test_contiguous_suffix(self):
        got = place(Z2_T, [2, 3], [2, 3], 3)
        assert got == oracle.tensor_product(identity_tensor(2, 1), Z2_T)

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


@st.composite
def staged_program(draw, maps=sparse_tensor, dims=(2, 3)):
    """Random steps with unsorted gathers and signatures k->k, k->k+1, k->k-1."""
    ring = draw(st.sampled_from(RINGS))
    d = draw(st.sampled_from(dims))
    start = legs = draw(st.integers(1, 4))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        if legs == 0:
            break
        k = draw(st.integers(1, min(legs, 2)))
        l = k + draw(st.sampled_from([-1, 0, 1]))
        positions = draw(st.permutations(range(1, legs + 1)))[:k]
        steps.append((draw(maps(ring, d, k, l)), tuple(positions)))
        legs += l - k
    return steps, start, d, ring


def function_program():
    return staged_program(maps=partial_function_tensor, dims=(1, 2, 3))


@st.composite
def any_leg_count_program(draw):
    """Random steps k -> l with k, l in 0..3 (at most 6 legs at any time),
    unsorted gathers and an output order."""
    ring = draw(st.sampled_from(RINGS))
    d = draw(st.sampled_from((1, 2)))
    start = legs = draw(st.integers(0, 3))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, min(legs, 3)))
        l = draw(st.integers(0, min(3, 6 - legs + k)))
        positions = tuple(draw(st.permutations(range(1, legs + 1)))[:k])
        f = draw(st.one_of(sparse_tensor(ring, d, k, l), function_tensor(ring, d, k, l)))
        steps.append((f, positions))
        legs += l - k
    return steps, start, d, ring, tuple(draw(st.permutations(range(1, legs + 1))))


def scalar_unit_counit(ring):
    """A scalar (0 -> 0), a unit (0 -> 1), a counit (1 -> 0) and a 1 -> 1
    map on two basis vectors."""
    def m(k, l, entries):
        return Tensor(2, k, l, {key: ring.coerce(v) for key, v in entries.items()}, ring)

    return [
        m(0, 0, {((), ()): 3}),
        m(0, 1, {((0,), ()): 1, ((1,), ()): 2}),
        m(1, 0, {((), (0,)): -1, ((), (1,)): 1}),
        m(1, 1, {((1,), (0,)): 2, ((0,), (1,)): 1, ((1,), (1,)): -1}),
    ]


class TestContractStaged:
    @settings(max_examples=150, deadline=None)
    @given(staged_program())
    def test_matches_materialized_oracle(self, program):
        steps, legs, d, ring = program
        got = contract_staged(steps, legs, d, ring)
        expect = staged(steps, legs, d, ring)
        assert got.to_json_dict() == expect.to_json_dict()

    @settings(max_examples=150, deadline=None)
    @given(any_leg_count_program())
    def test_any_leg_counts_match_oracle(self, program):
        """The total slot rule: outputs beyond the slot count open after the
        last slot (after the last leg for a 0-input map), slots beyond the
        output count close, whatever the difference."""
        steps, legs, d, ring, order = program
        expect = staged(steps, legs, d, ring)
        expect = permute_legs(expect, inverse(order), tuple(range(1, legs + 1)))
        assert contract_staged(steps, legs, d, ring, order).to_json_dict() == expect.to_json_dict()

    @settings(max_examples=150, deadline=None)
    @given(function_program())
    def test_function_path_matches_oracle_without_arithmetic(self, program):
        steps, legs, d, ring = program
        expect = staged(steps, legs, d, ring)
        with mock.patch.object(type(ring), "add", side_effect=AssertionError("add")), \
                mock.patch.object(type(ring), "mul", side_effect=AssertionError("mul")):
            got = contract_staged(steps, legs, d, ring)
        assert got.to_json_dict() == expect.to_json_dict()

    @settings(max_examples=60, deadline=None)
    @given(function_program())
    def test_scaled_function_takes_sparse_path(self, program):
        steps, legs, d, ring = program
        steps = [(f.scale(2), positions) for f, positions in steps]
        expect = staged(steps, legs, d, ring)
        kernel = tensor_module._staged_kernel
        with mock.patch.object(tensor_module, "_staged_kernel", side_effect=kernel) as spy:
            got = contract_staged(steps, legs, d, ring)
        assert got.to_json_dict() == expect.to_json_dict()
        # Only maps without entries are (empty) function tables; the others push.
        pushed = [call.kwargs.get("push", False) for call in spy.call_args_list]
        assert pushed == [any(f.entries for f, _ in steps)]

    @pytest.mark.parametrize("ring", RINGS, ids=["rational", "f64", "gfp5"])
    def test_cancelled_paths_leave_no_entry(self, ring):
        f, g, h = oracle.cancelling_maps(ring)
        steps = [(f, (1,)), (g, (1,))]
        got = contract_staged(steps, 1, 2, ring)
        assert got.entries == h.entries
        assert got.to_json_dict() == staged(steps, 1, 2, ring).to_json_dict()

    @pytest.mark.parametrize("ring", RINGS, ids=["rational", "f64", "gfp5"])
    @pytest.mark.parametrize("case", sorted(oracle.per_step_cases(F64)))
    def test_per_step_cases_match_oracle(self, ring, case):
        steps, legs, d, order = oracle.per_step_cases(ring)[case]
        expect = staged(steps, legs, d, ring)
        if order:
            expect = permute_legs(expect, inverse(order), tuple(range(1, legs + 1)))
        got = contract_staged(steps, legs, d, ring, order)
        assert got.to_json_dict() == expect.to_json_dict()
        # 1e-5 * 1e-5 is a float zero once its step ends; the exact rings keep 2 * 2 * 3.
        assert bool(got.entries) == (case != "within tolerance, then large" or ring is not F64)

    @pytest.mark.parametrize("ring", RINGS + (FloatRing(2.0),), ids=["rational", "f64", "gfp5", "f64-tol2"])
    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_identity_steps_match_oracle(self, ring, count):
        steps = [(identity_tensor(2, 1, ring), (2,))] * count
        expect = staged(steps, 2, 2, ring)
        assert contract_staged(steps, 2, 2, ring).to_json_dict() == expect.to_json_dict()

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(staged_program(), function_program()), st.data())
    def test_output_order_matches_oracle(self, program, data):
        """Final leg m+1 is leg order[m] of the staged result."""
        steps, legs, d, ring = program
        expect = staged(steps, legs, d, ring)
        order = tuple(data.draw(st.permutations(range(1, expect.out_legs + 1))))
        expect = permute_legs(expect, inverse(order), tuple(range(1, legs + 1)))
        assert contract_staged(steps, legs, d, ring, order).to_json_dict() == expect.to_json_dict()

    @pytest.mark.parametrize("ring", RINGS + (FloatRing(2.0),), ids=["rational", "f64", "gfp5", "f64-tol2"])
    def test_output_order_without_steps_is_a_permutation(self, ring):
        expect = permutation_tensor(2, (3, 1, 2), ring)
        assert contract_staged([], 3, 2, ring, (2, 3, 1)).to_json_dict() == expect.to_json_dict()

    @pytest.mark.parametrize("order", [(1, 1, 2), (0, 1, 2), (1, 2), (1, 2, 3, 4), ("1", 2, 3), (1.0, 2, 3),
                                       (True, 2, 3), [3, 2, 1], 3, "123"])
    def test_malformed_output_order_rejected(self, order):
        with pytest.raises(ShapeError):
            contract_staged([(Z2_T, (3, 1))], 3, 2, RATIONAL, order)
        with pytest.raises(ShapeError):
            contract_staged([(Z2_T.scale(2), (3, 1))], 3, 2, RATIONAL, order)

    def test_bad_gathers_rejected(self):
        for positions in ((1, 1), (0, 2), (1, 4), (1,)):
            with pytest.raises(ShapeError):
                contract_staged([(Z2_T, positions)], 3, 2)

    def test_map_from_other_ring_rejected(self):
        with pytest.raises(ShapeError):
            contract_staged([(Z2_T, (1, 2))], 2, 2, F64)


@st.composite
def hoisted_program(draw):
    """A program whose first map reads only leading legs and misses some of
    its input columns, so the kernel drops whole blocks of columns at an
    outer loop; random steps follow."""
    ring = draw(st.sampled_from(RINGS))
    d = draw(st.sampled_from((2, 3)))
    start = draw(st.integers(2, 5))
    k = draw(st.integers(1, min(start - 1, 2)))
    l = k + draw(st.sampled_from([-1, 0, 1]))
    columns = list(product(range(d), repeat=k))
    present = draw(st.lists(st.sampled_from(columns), max_size=len(columns) - 1, unique=True))
    outs = st.tuples(*[st.integers(0, d - 1)] * l)
    first = Tensor(d, k, l, {(draw(outs), inp): ring.one for inp in present}, ring)
    steps = [(first, tuple(draw(st.permutations(range(1, k + 1)))))]
    legs = start + l - k
    for _ in range(draw(st.integers(0, 2))):
        k2 = draw(st.integers(1, min(legs, 2)))
        l2 = k2 + draw(st.sampled_from([-1, 0, 1]))
        positions = draw(st.permutations(range(1, legs + 1)))[:k2]
        steps.append((draw(partial_function_tensor(ring, d, k2, l2)), tuple(positions)))
        legs += l2 - k2
        if legs == 0:
            break
    return steps, start, d, ring


def kernel_shape(steps):
    return tuple((positions, f.out_legs) for f, positions in steps)


@st.composite
def spanning_sides(draw, maps):
    """Two staged sides of one signature sequence over d in {1, 2, 3, 4}.
    1 -> 1 maps on legs 1 and 2 end the first two loops, so the 3-input map
    that follows reads inputs bound in three loops; a random k -> k step
    may come last."""
    ring = draw(st.sampled_from(RINGS))
    d = draw(st.sampled_from((1, 2, 3, 4)))
    legs = draw(st.integers(3, 4))
    l3 = draw(st.integers(2, 4))
    last = (draw(st.integers(1, 2)),) if draw(st.booleans()) else ()
    sides = []
    for _ in range(2):
        steps = [(draw(maps(ring, d, 1, 1)), (1,)), (draw(maps(ring, d, 1, 1)), (2,)),
                 (draw(maps(ring, d, 3, l3)), tuple(draw(st.permutations((1, 2, 3)))))]
        for k in last:
            width = legs - 3 + l3
            steps.append((draw(maps(ring, d, k, k)), tuple(draw(st.permutations(range(1, width + 1)))[:k])))
        sides.append(steps)
    return sides, legs, d, ring


def oracle_images(steps, legs, d, ring):
    """``{column: final legs}`` of staged basis functions, by the oracle."""
    return {inp: out for out, inp in staged(steps, legs, d, ring).entries}


class TestRankedKernel:
    """Tables keyed by mixed-radix rank, with keys summed across loops."""

    @staticmethod
    def run_compare(sides, legs, d):
        shapes = tuple(kernel_shape(steps) for steps in sides)
        source = _kernel_source(legs, shapes, (None, None))
        # Some key sums terms of two outer loops before its own loop adds the rest.
        assert any(line.lstrip().startswith("h") and line.count("+") for line in source.splitlines())
        tables = [f._table for steps in sides for f, _ in steps]
        return list(_staged_kernel(legs, shapes, (None, None))((range(d),) * legs, d, *tables))

    @staticmethod
    def differences(sides, legs, d, ring):
        """Every column, in product order, whose sides are both defined and differ."""
        lhs, rhs = (oracle_images(steps, legs, d, ring) for steps in sides)
        return [(col, lhs[col], rhs[col]) for col in product(range(d), repeat=legs)
                if col in lhs and col in rhs and lhs[col] != rhs[col]]

    @settings(max_examples=60, deadline=None)
    @given(spanning_sides(partial_function_tensor))
    def test_contract_matches_oracle(self, program):
        sides, legs, d, ring = program
        for steps in sides:
            expect = staged(steps, legs, d, ring)
            assert contract_staged(steps, legs, d, ring).to_json_dict() == expect.to_json_dict()

    @settings(max_examples=60, deadline=None)
    @given(spanning_sides(function_tensor))
    def test_compare_matches_oracle(self, program):
        sides, legs, d, ring = program
        assert self.run_compare(sides, legs, d) == self.differences(sides, legs, d, ring)

    @settings(max_examples=60, deadline=None)
    @given(spanning_sides(partial_function_tensor))
    def test_partial_compare_matches_oracle(self, program):
        sides, legs, d, ring = program
        assert self.run_compare(sides, legs, d) == self.differences(sides, legs, d, ring)


class TestStagedKernel:
    """The generated loop nest of the function path."""

    @settings(max_examples=150, deadline=None)
    @given(hoisted_program())
    def test_miss_at_hoisted_lookup_matches_oracle(self, program):
        steps, legs, d, ring = program
        source = _kernel_source(legs, (kernel_shape(steps),), (None,)).splitlines()
        loops = [i for i, line in enumerate(source) if line.lstrip().startswith("for ")]
        first_lookup = next(i for i, line in enumerate(source) if "T0[" in line)
        assert first_lookup < loops[-1]
        got = contract_staged(steps, legs, d, ring)
        assert got.to_json_dict() == staged(steps, legs, d, ring).to_json_dict()

    @pytest.mark.parametrize("present", [True, False])
    @pytest.mark.parametrize("legs", [0, 2])
    def test_lookup_without_inputs_matches_oracle(self, legs, present):
        # A 0 -> 0 map is looked up before any loop; a miss empties the result.
        f = Tensor(2, 0, 0, {((), ()): 1} if present else {})
        steps = [(f, ()), (Z2_T, (2, 1))] if legs else [(f, ())]
        expect = staged(steps, legs, 2, RATIONAL)
        assert contract_staged(steps, legs, 2, RATIONAL).to_json_dict() == expect.to_json_dict()

    @pytest.mark.parametrize("d, legs", [(1, 30), (2, 14)])
    def test_loop_depth_capped(self, d, legs):
        # Step j reads leg j alone, so every leg ends a lookup's inputs.
        f = from_function(d, 1, 1, lambda x: ((x[0] + 1) % d,))
        steps = [(f, (j,)) for j in range(1, legs + 1)]
        source = _kernel_source(legs, (kernel_shape(steps),), (None,))
        assert 1 < sum(line.lstrip().startswith("for ") for line in source.splitlines()) <= _MAX_LOOPS
        # Each leg is mapped once: the product map, in closed form.
        expect = from_function(d, legs, legs, lambda col: tuple((x + 1) % d for x in col))
        assert contract_staged(steps, legs, d, RATIONAL).to_json_dict() == expect.to_json_dict()

    @pytest.mark.parametrize("position", ["1", 1.0, True, None, (1,)])
    def test_non_integer_gather_rejected_before_generation(self, position):
        with pytest.raises(ShapeError):
            _kernel_source(3, ((((position, 2), 2),),), (None,))
        with mock.patch.object(tensor_module, "_kernel_source", side_effect=AssertionError("generated")):
            with pytest.raises(ShapeError):
                contract_staged([(Z2_T, (position, 2))], 3, 2)

    def test_non_integer_counts_rejected(self):
        for legs, out_count in (("3", 2), (3, "2"), (-1, 2)):
            with pytest.raises(ShapeError):
                _kernel_source(legs, ((((1, 2), out_count),),), (None,))

    @pytest.mark.parametrize("compare, push", [(False, False), (True, False), (False, True)],
                             ids=["False", "True", "push"])
    def test_source_holds_only_generated_names(self, compare, push):
        shape = (((2, 1), 3), ((1, 3, 4), 3), ((4,), 0))
        sides = (shape, (((3, 4), 2), ((1, 2, 3), 3))) if compare else (shape,)
        source = _kernel_source(5, sides, (None,) * len(sides), push=push)
        allowed = {"kernel", "domains", "d", "product", "o", "None"}
        kinds = {tokenize.NAME, tokenize.OP, tokenize.NEWLINE, tokenize.NL,
                 tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
        if push:
            # The push starts each column at 1 and sums from 0.
            allowed |= {"settle", "column", "vec", "nxt", "items", "k", "x", "y", "get", "0", "1"}
            kinds.add(tokenize.NUMBER)
        generated = re.compile(r"[cvRTDh][0-9]+")
        for token in tokenize.generate_tokens(StringIO(source).readline):
            assert token.type in kinds, token
            if token.type == tokenize.NUMBER:
                assert token.string in allowed, token.string
            if token.type == tokenize.NAME:
                assert (keyword.iskeyword(token.string) or token.string in allowed
                        or generated.fullmatch(token.string)), token.string


def masks_of(f):
    return f._masks


class TestDependencyCones:
    """Output masks of total tables and the cone domains they give a compare kernel."""

    def test_output_masks(self):
        z3_t = from_function(3, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 3))
        constant = from_function(3, 2, 2, lambda x: (1, 2))
        assert masks_of(identity_tensor(3, 2)) == (0b01, 0b10)
        assert masks_of(flip(3)) == (0b10, 0b01)
        assert masks_of(z3_t) == (0b01, 0b11)
        assert masks_of(constant) == (0, 0)

    def test_output_reading_one_row_depends_on_every_input(self):
        # The last output is 1 on the row (1, 1, 1) alone.
        f = from_function(2, 3, 2, lambda x: (x[2], int(all(x))))
        assert masks_of(f) == (0b100, 0b111)

    def test_full_dependence_yields_one_full_cone(self):
        mix = from_function(3, 2, 2, lambda x: ((x[0] + x[1]) % 3, (x[0] + 2 * x[1]) % 3))
        assert masks_of(mix) == (0b11, 0b11)
        sides = ((((1, 2), 2), ((2, 3), 2)), (((2, 3), 2), ((1, 2), 2)))
        assert _cones(3, sides, (None, None), (masks_of(mix),) * 4, 3) == ((range(3),) * 3,)

    def test_identity_legs_are_separate_cones(self):
        sides = ((((1, 2), 2), ((2, 3), 2)), (((2, 3), 2),))
        masks = masks_of(identity_tensor(2, 2))
        pinned, full = range(1), range(2)
        assert _cones(3, sides, (None, None), (masks,) * 3, 2) == (
            (full, pinned, pinned),
            (pinned, full, pinned),
            (pinned, pinned, full),
        )

    def test_cone_joins_what_both_sides_read(self):
        # The lhs flips legs 1 and 2, the rhs leaves them: final legs 1 and
        # 2 each compare both column legs.
        sides = ((((1, 2), 2),), ())
        pinned, full = range(1), range(2)
        assert _cones(3, sides, (None, None), (masks_of(flip(2)),), 2) == (
            (full, full, pinned),
            (pinned, pinned, full),
        )
        assert _cones(3, sides[::-1], (None, None), (masks_of(flip(2)),), 2) == (
            (full, full, pinned),
            (pinned, pinned, full),
        )

    def test_output_order_moves_the_cones(self):
        # Either side is the identity on three legs; the rhs reads them out
        # reversed, so final leg 1 compares column legs 1 and 3.
        sides = ((), ())
        pinned, full = range(1), range(2)
        assert _cones(3, sides, (None, (3, 2, 1)), (), 2) == (
            (pinned, full, pinned),
            (full, pinned, full),
        )

    def test_cones_covering_the_product_run_it_once(self):
        # Cones {1, 2}, {2, 3} and {1, 3} would run 3 * 4 of the 8 columns.
        sides = ((), ())
        assert _cones(3, sides, ((1, 2, 3), (2, 3, 1)), (), 2) == ((range(2),) * 3,)


def test_contract_and_compare_sources_unchanged():
    # kernel_sources.json holds the sources of both generator modes that the
    # tensor and set checks run; regen_kernel_sources.py rewrites it on purpose.
    golden = json.loads(GOLDEN.read_text())
    assert polygon_kernel_sources() == golden


class TestTrustedConstruction:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(RINGS).flatmap(
        lambda ring: sparse_tensor(ring, 2, 2, 1, max_entries=8)
    ))
    def test_equals_validated_construction(self, t):
        trusted = Tensor._trusted(t.dim, t.in_legs, t.out_legs, dict(t.entries), t.ring)
        assert trusted == t
        assert trusted.entries == t.entries
        assert trusted.to_json_dict() == t.to_json_dict()
        assert repr(trusted) == repr(t) and hash(trusted) == hash(t)


def nan_tensor(entries):
    return st.dictionaries(
        st.sampled_from([((o,), (i,)) for o in range(2) for i in range(2)]),
        st.one_of(st.floats(-2, 2), st.sampled_from([math.nan, math.inf, 1.0])),
        max_size=entries,
    ).map(lambda e: Tensor(2, 1, 1, e, F64))


def same_report(f, g):
    """``compare_sides`` of two built tensors, which streams their columns
    into the comparator of the checks, against the oracle's full scan.
    NaN is unequal to itself, so the serialized reports are compared."""
    got, expect = compare_sides("eq", f, g), oracle.compare_sides("eq", f, g)
    return json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())


class TestDeviationVerdicts:
    @settings(max_examples=150, deadline=None)
    @given(nan_tensor(4), nan_tensor(4))
    def test_float_nan_verdicts_match_full_scan(self, a, b):
        twin = Tensor(2, 1, 1, dict(a.entries), F64)
        for f, g in ((a, twin), (a, b), (b, a)):
            assert same_report(f, g)
            assert (f == g) == (deviation_scan(f, g) is None)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(sparse_tensor(ring, 2, 1, 1), sparse_tensor(ring, 2, 1, 1))
    ))
    def test_exact_shortcut_matches_full_scan(self, pair):
        a, b = pair
        for f, g in ((a, a), (a, b), (b, a)):
            assert same_report(f, g)
            assert (f == g) == (deviation_scan(f, g) is None)


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
        assert permute_legs(Z2_T, (1, 2), (1, 2)) == Z2_T

    def test_output_flip_is_postcomposition(self):
        got = permute_legs(Z2_T, (2, 1), (1, 2))
        assert got == oracle.compose(flip(2), Z2_T)

    def test_input_permutation_is_precomposition_with_inverse(self):
        perm = (2, 1)
        got = permute_legs(Z2_T, (1, 2), perm)
        assert got == oracle.compose(Z2_T, permutation_tensor(2, inverse(perm)))

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            permute_legs(Z2_T, (1, 2, 3), (1, 2))


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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_against_padded_compositions(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        d = data.draw(st.integers(1, 3))

        def placeable():
            k, l = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
            return data.draw(st.one_of(
                sparse_tensor(ring, d, k, l, values=dyadic_value), function_tensor(ring, d, k, l)
            ))

        x, y = placeable(), placeable()
        for overlap in range(min(x.in_legs, y.out_legs) + 1):
            want = oracle.partial_compose_left(x, y, overlap)
            assert partial_compose_left(x, y, overlap).to_json_dict() == want.to_json_dict()
        for overlap in range(min(x.out_legs, y.in_legs) + 1):
            want = oracle.partial_compose_right(x, y, overlap)
            assert partial_compose_right(x, y, overlap).to_json_dict() == want.to_json_dict()

    def test_maps_beyond_one_leg_difference_match_padded_compositions(self):
        """1 -> 3 and 0 -> 1 maps, which the slot rule once refused."""
        one = identity_tensor(2, 1)
        spread = from_function(2, 1, 3, lambda x: x * 3)
        unit = Tensor(2, 0, 1, {((0,), ()): 1, ((1,), ()): 2})
        for x, y in ((spread, one), (one, spread), (one, unit), (unit, one), (unit, spread), (spread, unit)):
            for overlap in range(min(x.in_legs, y.out_legs) + 1):
                want = oracle.partial_compose_left(x, y, overlap)
                assert partial_compose_left(x, y, overlap).to_json_dict() == want.to_json_dict()
            for overlap in range(min(x.out_legs, y.in_legs) + 1):
                want = oracle.partial_compose_right(x, y, overlap)
                assert partial_compose_right(x, y, overlap).to_json_dict() == want.to_json_dict()


class TestInverseAndRegroup:
    @pytest.mark.parametrize("call, exception", [
        (lambda: compose(identity_tensor(2, 1), identity_tensor(2, 1, F64)), ShapeError),
        (lambda: tensor_product(identity_tensor(2, 1), identity_tensor(2, 1, prime_field(3))), ShapeError),
        (lambda: regroup(identity_tensor(2, 3), 2), ShapeError),
        (lambda: invert(from_function(2, 1, 2, lambda x: (x[0], x[0]))), NotInvertible),
    ], ids=["compose-ring-mismatch", "tensor-product-ring-mismatch", "regroup-legs-not-divisible", "invert-non-square"])
    def test_refusals(self, call, exception):
        with pytest.raises(exception):
            call()

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

    @pytest.mark.parametrize("ring", RINGS, ids=lambda ring: ring.tag)
    @pytest.mark.parametrize("legs", [1, 2])
    def test_function_tables_invert_as_dense(self, ring, legs):
        def outcome(inverse_of, f):
            try:
                inv = inverse_of(f)
            except NotInvertible as exc:
                return str(exc)
            return list(inv.entries.items()), inv.to_json_dict()

        # Every basis function on d = 2, total or missing columns; none of
        # them takes the dense elimination.
        columns = list(product(range(2), repeat=legs))
        for images in product([None] + columns, repeat=len(columns)):
            entries = {(out, inp): ring.one for inp, out in zip(columns, images) if out is not None}
            f = Tensor(2, legs, legs, entries, ring)
            with mock.patch.object(tensor_module, "_invert_dense", side_effect=AssertionError("dense")):
                got = outcome(invert, f)
                assert is_invertible(f) == (not isinstance(got, str))
            assert got == outcome(_invert_dense, f), images

    @pytest.mark.parametrize("value", [1, 2])
    def test_fewer_entries_than_columns_singular_before_any_table(self, value):
        # One entry of 3^12 columns: neither a rank table nor a dense matrix is built.
        f = Tensor(3, 12, 12, {((0,) * 12, (0,) * 12): value})
        with mock.patch.object(tensor_module, "_invert_dense", side_effect=AssertionError("dense")):
            with pytest.raises(NotInvertible, match="singular"):
                invert(f)
            assert not is_invertible(f)
        assert "_table" not in vars(f)

    def test_dense_elimination_capped(self):
        at_cap = from_function(3, 5, 5, lambda x: x).scale(2)
        assert invert(at_cap) == from_function(3, 5, 5, lambda x: x).scale(Fraction(1, 2))
        over = from_function(3, 6, 6, lambda x: x).scale(2)
        with mock.patch.object(tensor_module, "_invert_dense", side_effect=AssertionError("dense")):
            with pytest.raises(ShapeError, match="729 columns, over the cap of 243"):
                invert(over)

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

    def test_no_slot_opens_after_the_last_leg(self):
        assert replace_slots(["a", "b"], (), ["x"]) == ["a", "b", "x"]
        assert replace_slots(["a", "b"], (), ["x", "y"]) == ["a", "b", "x", "y"]
        assert replace_slots([], (), ["x"]) == ["x"]
        assert replace_slots(["a"], (), []) == ["a"]

    def test_two_extra_outputs_open_after_the_last_slot(self):
        assert replace_slots(["a", "b"], (1,), ["x", "y", "z"]) == ["x", "y", "z", "b"]
        assert replace_slots(["a", "b", "c"], (3, 1), ["w", "x", "y", "z"]) == ["w", "b", "x", "y", "z"]

    def test_two_missing_outputs_close_the_last_slots(self):
        assert replace_slots(["a", "b", "c"], (1, 3), []) == ["b"]
        assert replace_slots(["a", "b", "c", "d"], (4, 2, 1), ["x"]) == ["x", "c"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_leg_by_leg_rule(self, data):
        k, l = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        seq = [f"a{i}" for i in range(data.draw(st.integers(k, k + 5)))]
        slots = data.draw(st.lists(st.integers(1, len(seq)), min_size=k, max_size=k, unique=True)) if k else []
        items = [f"x{i}" for i in range(l)]
        assert replace_slots(seq, tuple(slots), items) == oracle.replace_slots(seq, tuple(slots), items)


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
        # NaN is unequal to itself, so the texts are compared.
        special = Tensor(2, 1, 1, {((0,), (0,)): math.nan, ((0,), (1,)): math.inf, ((1,), (0,)): -math.inf}, F64)
        text = special.to_json()
        assert "NaN" in text and "-Infinity" in text and Tensor.from_json(text).to_json() == text

    def test_rational_past_the_digit_limit_written_in_full(self):
        """The interpreter's int-to-str digit limit (4300) guards parsing:
        a computed value is written in full, and refused on reading."""
        t = Tensor(2, 1, 1, {((0,), (0,)): Fraction(10**5000, 3)})
        assert t.to_json_dict()["entries"][0][2] == "1" + "0" * 5000 + "/3"
        with pytest.raises(ValueError):
            Tensor.from_json(t.to_json())

    @pytest.mark.parametrize("build", [
        lambda: Tensor(2, 1, 1, {((True,), (0,)): 1}),
        lambda: Tensor(2, 1, 1, {((0,), (1.0,)): 1}),
        lambda: Tensor(True, 1, 1),
        lambda: Tensor(2, 1.0, 1),
        lambda: from_function(2, 1, 1, lambda x: (x[0] == 1,)),
    ], ids=["bool-digit", "float-digit", "bool-dim", "float-legs", "from-function-bool"])
    def test_digits_and_shape_must_be_integers(self, build):
        """Digits index rank-keyed tables: no constructor takes a bool or
        float for an int, even where it equals one."""
        with pytest.raises(ShapeError, match="must (be|hold) integer"):
            build()

    def test_float_tolerance_comparison(self):
        a = Tensor(2, 1, 1, {((0,), (0,)): 1.0}, ring=F64)
        b = Tensor(2, 1, 1, {((0,), (0,)): 1.0 + 1e-12}, ring=F64)
        c = Tensor(2, 1, 1, {((0,), (0,)): 1.0 + 1e-6}, ring=F64)
        assert a == b
        assert a != c
        witness = compare_sides("eq", a, c).witness
        assert (witness["out"], witness["in"]) == ([0], [0])

    def test_prime_field_requires_prime(self):
        with pytest.raises(RingError):
            prime_field(6)

    def test_primality_exact_below_the_cap(self):
        """Trial division once hung on an 18-digit prime; a modulus Miller-Rabin
        on the first 13 prime bases cannot decide is refused."""
        trial = [p for p in range(3000) if p > 1 and all(p % f for f in range(2, math.isqrt(p) + 1))]
        assert [p for p in range(3000) if _is_prime(p)] == trial
        # Carmichael numbers and strong pseudoprimes to the first 1, 4, 9 and 12 prime bases.
        for composite in (561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461):
            assert not _is_prime(composite)
        assert prime_field(1000000000000000003).p == 1000000000000000003
        # PRIME_CAP itself is a strong pseudoprime to all 13 bases; 2^89 - 1 is prime.
        for modulus in (PRIME_CAP, 2**89 - 1):
            with pytest.raises(RingError, match="over the cap"):
                prime_field(modulus)

    def test_exact_rings_read_json_integers(self):
        """The README lets an exact ring's JSON scalar be an integer as well as a string."""
        data = {"dim": 2, "in_legs": 1, "out_legs": 1, "scalar": "rational", "entries": [[[0], [1], -3], [[1], [0], "2/3"]]}
        assert Tensor.from_json_dict(data) == Tensor(2, 1, 1, {((0,), (1,)): -3, ((1,), (0,)): Fraction(2, 3)})
        gf5 = Tensor.from_json_dict({**data, "scalar": "gfp:5", "entries": [[[0], [1], 7]]})
        assert gf5.entry((0,), (1,)) == 2

    @pytest.mark.parametrize("call", [
        lambda: ring_from_tag("bogus"),
        lambda: prime_field(5).coerce(1.5),
        lambda: RATIONAL.invert(Fraction(0)),
        lambda: F64.invert(0.0),
    ], ids=["unknown-tag", "float-into-gfp", "rational-division-by-zero", "f64-division-by-zero"])
    def test_ring_refusals(self, call):
        with pytest.raises(RingError):
            call()

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
