"""Constructors: every producing procedure re-verified through the checkers."""

import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from polysimplex import cli, construct
from polysimplex import tensor as tensor_module
from polysimplex.construct import (
    RECIPES,
    SolutionDescriptor,
    bar_sigma_conjugate,
    bialgebra_tower,
    conjugate,
    higher_mixed_pair,
    hopf_mixed_pair_antipode,
    hopf_pentagon_pair,
    invert_to_dual,
    multi_bialgebra_tower,
    simplex_from_mixed,
    stack,
    stack_arithmetic,
    trace_descend,
    trace_descend_mixed,
    verify_descriptor,
    yang_baxter_from_pair,
)
from polysimplex.hopf import HopfInstance, cyclic_group, direct_product, dual_group_algebra, group_algebra, symmetric_group
from polysimplex.rings import RATIONAL, prime_field
from polysimplex.simplicial import pair_to_simplex_map
from polysimplex.tensor import (
    ShapeError,
    Tensor,
    from_function,
    identity_tensor,
    invert,
    partial_trace_left,
    partial_trace_right,
    tensor_product,
)
from polysimplex.verify import (
    EQUATIONS,
    PreconditionFailed,
    check_mixed,
    check_polygon,
    check_simplex,
    polygon_signature,
)

H2 = group_algebra(cyclic_group(2))
H3 = group_algebra(cyclic_group(3))
T2, S2 = hopf_pentagon_pair(H2)
T3, S3 = hopf_pentagon_pair(H3)

DELTA2 = from_function(2, 1, 2, lambda x: (x[0], x[0]))


def seeded_tensor(seed, d, in_legs, out_legs):
    entries = {}
    state = seed
    for out in product(range(d), repeat=out_legs):
        for inp in product(range(d), repeat=in_legs):
            state = (state * 48271 + 11) % (2**31 - 1)
            if state % 3:
                entries[(out, inp)] = Fraction(state % 5 - 2)
    return Tensor(d, in_legs, out_legs, entries)


class TestHopfPentagonPair:
    def test_z2_closed_forms(self):
        for g, h in product(range(2), repeat=2):
            assert T2.tensor.entry((g, (g + h) % 2), (g, h)) == 1
            assert S2.tensor.entry((g, (h - g) % 2), (g, h)) == 1

    def test_z3_pair_checks(self):
        assert check_polygon(T3.tensor, 5).holds
        assert check_polygon(S3.tensor, 5, dual=True).holds
        assert check_mixed(T3.tensor, S3.tensor, 5).holds

    def test_trivial_hopf_gives_identity_pair(self):
        t, s = hopf_pentagon_pair(group_algebra(cyclic_group(1)))
        assert t.tensor == identity_tensor(1, 2)
        assert s.tensor == identity_tensor(1, 2)

    def test_noncommutative_group_still_works(self):
        t, s = hopf_pentagon_pair(group_algebra(symmetric_group(3)), verify=False)
        assert check_polygon(t.tensor, 5).holds
        assert check_polygon(s.tensor, 5, dual=True).holds

    def test_all_abelian_groups_up_to_order_four(self):
        from polysimplex.hopf import direct_product

        groups = [cyclic_group(n) for n in (1, 2, 3, 4)]
        groups.append(direct_product(cyclic_group(2), cyclic_group(2)))
        for g in groups:
            t, s = hopf_pentagon_pair(group_algebra(g), verify=False)
            assert check_polygon(t.tensor, 5).holds
            assert check_polygon(s.tensor, 5, dual=True).holds
            assert check_mixed(t.tensor, s.tensor, 5).holds


class TestInvertToDual:
    def test_identity_3gon(self):
        one = SolutionDescriptor("polygon", 3, identity_tensor(2, 1))
        dual = invert_to_dual(one)
        assert dual.family == "dual-polygon"
        assert dual.tensor == identity_tensor(2, 1)

    def test_pentagon_inverse_formula(self):
        dual = invert_to_dual(T2)
        assert dual.family == "dual-polygon" and dual.order == 5
        for g, h in product(range(2), repeat=2):
            assert dual.tensor.entry((g, (h - g) % 2), (g, h)) == 1

    def test_round_trip_recovers_original(self):
        assert invert_to_dual(invert_to_dual(T2)).tensor == T2.tensor

    def test_singular_input_rejected(self):
        rank_deficient = SolutionDescriptor(
            "polygon", 5, from_function(2, 2, 2, lambda x: (x[0], x[0]))
        )
        with pytest.raises(PreconditionFailed):
            invert_to_dual(rank_deficient)


class TestConjugate:
    def test_identity_phi_is_noop(self):
        assert conjugate(T2, identity_tensor(2, 1)).tensor == T2.tensor

    def test_diagonal_phi_on_pentagon(self):
        phi = Tensor(2, 1, 1, {((0,), (0,)): 1, ((1,), (1,)): 2})
        out = conjugate(T2, phi)
        assert verify_descriptor(out).holds
        assert out.tensor != T2.tensor  # the conjugate is genuinely different

    def test_even_gon_shapes(self):
        tower6 = bialgebra_tower(6, H2)
        phi = Tensor(2, 1, 1, {((0,), (1,)): 1, ((1,), (0,)): 1})
        out = conjugate(tower6, phi)
        assert (out.tensor.in_legs, out.tensor.out_legs) == (2, 3)

    def test_singular_phi_rejected(self):
        phi = Tensor(2, 1, 1, {((0,), (0,)): 1})
        with pytest.raises(PreconditionFailed):
            conjugate(T2, phi)


class TestBarSigmaConjugate:
    def test_order_three_is_identity_transform(self):
        one = SolutionDescriptor("polygon", 3, identity_tensor(2, 1))
        assert bar_sigma_conjugate(one).tensor == one.tensor

    def test_pentagon_to_dual(self):
        out = bar_sigma_conjugate(T2)
        assert out.family == "dual-polygon"
        assert check_polygon(out.tensor, 5, dual=True).holds

    def test_even_case_keeps_family_and_shapes(self):
        tower6 = bialgebra_tower(6, H2)
        out = bar_sigma_conjugate(tower6)
        assert out.family == "polygon" and out.order == 6
        assert (out.tensor.in_legs, out.tensor.out_legs) == (2, 3)
        assert verify_descriptor(out).holds

    def test_order_four_both_families(self):
        delta4 = SolutionDescriptor("polygon", 4, H2.coproduct)
        mult4 = SolutionDescriptor("dual-polygon", 4, H2.product)
        for desc in (delta4, mult4):
            out = bar_sigma_conjugate(desc)
            assert out.family == desc.family and out.order == 4
            assert verify_descriptor(out).holds

    def test_involution_on_odd_orders(self):
        assert bar_sigma_conjugate(bar_sigma_conjugate(T2)).tensor == T2.tensor

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_the_reversal_permutations(self, ring, data):
        n = data.draw(st.integers(3, 8))
        dual = data.draw(st.booleans())
        k, l = polygon_signature(n, dual)
        t = data.draw(st.one_of(oracle.sparse_tensor(ring, 2, k, l), oracle.function_tensor(ring, 2, k, l)))
        out = bar_sigma_conjugate(SolutionDescriptor("dual-polygon" if dual else "polygon", n, t), verify=False)
        expect = oracle.compose(oracle.bar_sigma(l, 2, ring), oracle.compose(t, oracle.bar_sigma(k, 2, ring)))
        assert out.tensor.to_json_dict() == expect.to_json_dict()


class TestTraceDescend:
    def test_identity_pentagon_descends_to_identity(self):
        ident5 = SolutionDescriptor("polygon", 5, identity_tensor(2, 2))
        out = trace_descend(ident5)
        assert out.order == 3
        assert out.tensor == identity_tensor(2, 1)

    def test_seven_gon_tower_descends_to_pentagon(self):
        tower7 = bialgebra_tower(7, H2)
        out = trace_descend(tower7)
        assert out.order == 5
        assert check_polygon(out.tensor, 5).holds
        right = trace_descend(tower7, side="right")
        assert check_polygon(right.tensor, 5).holds

    def test_normalization_is_necessary(self):
        tower7 = bialgebra_tower(7, H2)
        raw = partial_trace_left(tower7.tensor)
        assert not check_polygon(raw, 5).holds

    def test_simplex_descent_has_no_normalization(self):
        r4 = simplex_from_mixed(T2, S2, drop="one")
        out = trace_descend(r4)
        assert out.order == 3 and out.family == "simplex"
        assert out.tensor == partial_trace_left(r4.tensor)

    def test_non_invertible_rejected(self):
        bad = SolutionDescriptor("polygon", 5, from_function(2, 2, 2, lambda x: (x[0], x[0])))
        with pytest.raises(PreconditionFailed):
            trace_descend(bad)

    def test_prime_field_normalization_needs_invertible_dimension(self):
        # 1/dim does not exist when the characteristic divides dim
        from polysimplex.rings import RingError, prime_field

        gf2 = prime_field(2)
        t = from_function(2, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 2), gf2)
        desc = SolutionDescriptor("polygon", 5, t)
        with pytest.raises(RingError):
            trace_descend(desc)
        gf5 = prime_field(5)  # 5 does not divide dim = 3, so 1/3 exists
        t3 = from_function(3, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 3), gf5)
        s3 = from_function(3, 2, 2, lambda x: (x[0], (x[1] - x[0]) % 3), gf5)
        tower = higher_mixed_pair(2, t3, s3, verify=False)[0]
        assert trace_descend(tower).tensor.ring is gf5


class TestTraceDescendMixed:
    def test_identity_pair_from_five_to_three(self):
        t5 = SolutionDescriptor("polygon", 5, identity_tensor(2, 2))
        s5 = SolutionDescriptor("dual-polygon", 5, identity_tensor(2, 2))
        new_t, new_s = trace_descend_mixed(t5, s5)
        assert new_t.tensor == identity_tensor(2, 1)
        assert new_s.tensor == identity_tensor(2, 1)

    def test_seven_gon_pair_descends_to_five(self):
        t7, s7 = higher_mixed_pair(2, T2.tensor, S2.tensor)
        new_t, new_s = trace_descend_mixed(t7, s7)
        assert new_t.order == 5
        assert check_mixed(new_t.tensor, new_s.tensor, 5).holds

    def test_right_side_variant(self):
        t7, s7 = higher_mixed_pair(2, T2.tensor, S2.tensor)
        new_t, new_s = trace_descend_mixed(t7, s7, side="right")
        assert check_mixed(new_t.tensor, new_s.tensor, 5).holds

    def test_each_map_is_inverted_once(self, monkeypatch):
        """The z3 7-gon pair is inverted once per map, by each map's descent."""
        t7, s7 = higher_mixed_pair(2, T3.tensor, S3.tensor, verify=False)
        calls = []
        monkeypatch.setattr(tensor_module, "invert", lambda f: calls.append(f) or invert(f))
        trace_descend_mixed(t7, s7, verify=False)
        assert calls == [t7.tensor, s7.tensor]


class TestStack:
    def test_seven_gon_from_pentagon_pair(self):
        out = stack(T2, T2, "compose_left")
        assert out.family == "polygon" and out.order == 7
        assert check_polygon(out.tensor, 7).holds

    def test_eight_gon_with_diagonal(self):
        seven = stack(T2, T2, "compose_left")
        delta4 = SolutionDescriptor("polygon", 4, DELTA2)
        out = stack(seven, delta4, "compose_left")
        assert out.order == 8
        assert check_polygon(out.tensor, 8).holds

    def test_nine_gon_tensor_square(self):
        out = stack(T2, T2, "tensor")
        assert out.order == 9
        assert check_polygon(out.tensor, 9).holds

    def test_dual_stacking(self):
        out = stack(S2, S2, "compose_right")
        assert out.family == "dual-polygon" and out.order == 7
        assert check_polygon(out.tensor, 7, dual=True).holds

    def test_arithmetic_table_all_cases(self):
        # (x family, x order, y family, y order, mode) -> expected output
        cases = [
            ("polygon", 5, "polygon", 5, "compose_left", ("polygon", 7)),
            ("polygon", 5, "polygon", 4, "tensor", ("polygon", 8)),
            ("dual-polygon", 5, "dual-polygon", 5, "compose_right", ("dual-polygon", 7)),
            ("dual-polygon", 5, "dual-polygon", 6, "tensor", ("dual-polygon", 10)),
            ("dual-polygon", 4, "polygon", 5, "compose_left", ("dual-polygon", 6)),
            ("dual-polygon", 4, "polygon", 5, "tensor", ("dual-polygon", 8)),
            ("polygon", 4, "dual-polygon", 5, "compose_right", ("polygon", 6)),
            ("polygon", 4, "dual-polygon", 5, "tensor", ("polygon", 8)),
        ]
        for xf, xo, yf, yo, mode, expect in cases:
            assert stack_arithmetic(xf, xo, yf, yo, mode) == expect

    def test_signature_table_on_synthetic_shapes(self):
        # Partial composition / tensor product leg arithmetic matches the
        # announced output family signature, with no solution claims.
        from polysimplex.tensor import partial_compose_left, partial_compose_right

        shape_cases = [
            ("polygon", 5, "polygon", 5, "compose_left"),
            ("dual-polygon", 5, "dual-polygon", 7, "compose_right"),
            ("dual-polygon", 4, "polygon", 5, "compose_left"),
            ("polygon", 4, "dual-polygon", 5, "compose_right"),
            ("polygon", 5, "polygon", 6, "tensor"),
            ("polygon", 4, "dual-polygon", 6, "tensor"),
        ]
        for xf, xo, yf, yo, mode in shape_cases:
            x = seeded_tensor(xo, 2, *polygon_signature(xo, xf == "dual-polygon"))
            y = seeded_tensor(yo + 7, 2, *polygon_signature(yo, yf == "dual-polygon"))
            family, order = stack_arithmetic(xf, xo, yf, yo, mode)
            if mode == "compose_left":
                result = partial_compose_left(x, y)
            elif mode == "compose_right":
                result = partial_compose_right(x, y)
            else:
                result = tensor_product(x, y)
            want = polygon_signature(order, family == "dual-polygon")
            assert (result.in_legs, result.out_legs) == want

    def test_commutation_gate(self):
        # (x, y) -> (x, x+y+1) solves the pentagon but does not commute
        # with T, so stacking must refuse it.
        shifted = SolutionDescriptor(
            "polygon", 5, from_function(2, 2, 2, lambda x: (x[0], (x[0] + x[1] + 1) % 2))
        )
        assert check_polygon(shifted.tensor, 5).holds
        with pytest.raises(PreconditionFailed):
            stack(T2, shifted, "compose_left")

    def test_inadmissible_mode(self):
        with pytest.raises(PreconditionFailed):
            stack(T2, T2, "compose_right")


class TestBialgebraTowers:
    def test_order_three_is_identity(self):
        out = bialgebra_tower(3, H2)
        assert out.tensor == identity_tensor(2, 1)

    def test_order_five_closed_form(self):
        out = bialgebra_tower(5, H2)
        assert out.tensor == T2.tensor

    def test_order_six_signature_and_check(self):
        out = bialgebra_tower(6, H2)
        assert (out.tensor.in_legs, out.tensor.out_legs) == (2, 3)
        assert check_polygon(out.tensor, 6).holds

    def test_dual_towers(self):
        for n in (3, 4, 5, 6, 7):
            out = bialgebra_tower(n, H2, dual=True)
            assert check_polygon(out.tensor, n, dual=True).holds

    def test_towers_over_z3(self):
        for n in (5, 6, 7):
            assert verify_descriptor(bialgebra_tower(n, H3)).holds

    def test_noncommutative_group_rejected(self):
        with pytest.raises(PreconditionFailed):
            bialgebra_tower(5, group_algebra(symmetric_group(3)))


class TestMultiBialgebraTower:
    def test_single_factor_reduces_to_plain_tower(self):
        out = multi_bialgebra_tower(2, [H2])
        assert out.tensor == bialgebra_tower(5, H2).tensor

    def test_two_factors_pentagon_at_dim_four(self):
        out = multi_bialgebra_tower(2, [H2, H2])
        assert out.tensor.dim == 4
        assert check_polygon(out.tensor, 5).holds

    def test_hat_coproduct_is_unit_insertion(self):
        from polysimplex.construct import _hat_structure

        cop, _ = _hat_structure([H2, H2], 1)
        # basis x (x) y maps to (x (x) 1) (x) (1 (x) y); digit packing is
        # (x, y) -> 2x + y with the unit at digit 0
        for x, y in product(range(2), repeat=2):
            assert cop.entry((2 * x + 0, 0 + y), (2 * x + y,)) == 1
        assert len(cop.entries) == 4

    def test_too_few_factors_rejected(self):
        with pytest.raises(PreconditionFailed):
            multi_bialgebra_tower(3, [H2])

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("factors", ["k-1", "k"])
    def test_even_tower_solves_the_2k_gon(self, k, factors):
        # The chain without its last product, as the plain towers build even orders.
        out = multi_bialgebra_tower(k, [H2] * (k - 1 if factors == "k-1" else k), even=True)
        assert out.family == "polygon" and out.order == 2 * k
        assert check_polygon(out.tensor, 2 * k).holds

    @pytest.mark.parametrize("ring", [RATIONAL, prime_field(5)], ids=lambda ring: ring.tag)
    @pytest.mark.parametrize("orders, k", [((2, 3), 2), ((2, 3), 3), ((2, 2, 3), 2)])
    def test_mixed_dimension_factors(self, orders, k, ring):
        from polysimplex.construct import _hat_structure

        instances = [group_algebra(cyclic_group(o), ring) for o in orders]
        big = math.prod(orders)

        def unpack(x):
            digits = []
            for o in reversed(orders):
                x, digit = divmod(x, o)
                digits.append(digit)
            return digits[::-1]

        def pack(digits):
            x = 0
            for digit, o in zip(digits, orders):
                x = x * o + digit
            return x

        # Closed forms over k[Z_o]: index 0 is group-like Delta and the group
        # product factor by factor; index i keeps the first i factors of the
        # left tensor leg and the rest of the right one (the unit is digit 0).
        for index in range(len(orders) + 1):
            zeros = [0] * len(orders)
            if index == 0:
                def cop(x):
                    return (x[0], x[0])

                def mult(x):
                    return (pack([(a + b) % o for a, b, o in zip(unpack(x[0]), unpack(x[1]), orders)]),)
            else:
                def cop(x):
                    digits = unpack(x[0])
                    return (pack(digits[:index] + zeros[index:]), pack(zeros[:index] + digits[index:]))

                def mult(x):
                    return (pack(unpack(x[0])[:index] + unpack(x[1])[index:]),)
            expect = (from_function(big, 1, 2, cop, ring), from_function(big, 2, 1, mult, ring))
            assert _hat_structure(instances, index) == expect
        out = multi_bialgebra_tower(k, instances, verify=False)
        assert out.tensor.dim == big and check_polygon(out.tensor, 2 * k + 1).holds


class TestHigherMixedPair:
    def test_k1_returns_inputs(self):
        t, s = higher_mixed_pair(1, T2.tensor, S2.tensor)
        assert t.tensor == T2.tensor and s.tensor == S2.tensor

    def test_k2_seven_gon_pair(self):
        t7, s7 = higher_mixed_pair(2, T2.tensor, S2.tensor)
        assert t7.order == 7
        assert check_mixed(t7.tensor, s7.tensor, 7).holds

    def test_k3_shapes_only(self):
        t9, s9 = higher_mixed_pair(3, T2.tensor, S2.tensor, verify=False)
        assert (t9.tensor.in_legs, t9.tensor.out_legs) == (4, 4)
        assert (s9.tensor.in_legs, s9.tensor.out_legs) == (4, 4)

    def test_relation_gate(self):
        with pytest.raises(PreconditionFailed):
            higher_mixed_pair(2, T3.tensor, T3.tensor)


class TestAntipodeMixedPair:
    def test_k1_identity_pair(self):
        t, s = hopf_mixed_pair_antipode(1, H2)
        assert t.tensor == identity_tensor(2, 1)
        assert s.tensor == identity_tensor(2, 1)

    def test_k2_over_z2(self):
        t, s = hopf_mixed_pair_antipode(2, H2)
        assert check_mixed(t.tensor, s.tensor, 5).holds

    def test_k2_over_z3(self):
        t, s = hopf_mixed_pair_antipode(2, H3)
        assert t.tensor.dim == 3
        assert check_mixed(t.tensor, s.tensor, 5).holds

    def test_requires_hopf(self):
        stripped = group_algebra(cyclic_group(2))
        from polysimplex.hopf import HopfInstance

        no_antipode = HopfInstance(
            stripped.dim,
            stripped.unit,
            stripped.counit,
            stripped.product,
            stripped.coproduct,
            antipode=None,
        )
        with pytest.raises(PreconditionFailed):
            hopf_mixed_pair_antipode(2, no_antipode)


def _shift_automorphism(d):
    """id + 2 E_(0, d-1): invertible, and not a basis function for d >= 2."""
    entries = {((i,), (i,)): 1 for i in range(d)}
    entries[((0,), (d - 1,))] = 2
    return Tensor(d, 1, 1, entries)


def _pairwise_fold(maps, connectors):
    """The chain folded left to right through the identity-padded oracle
    compositions: ``r`` is ``partial_compose_right``, ``l`` ``partial_compose_left``."""
    result = maps[0]
    for conn, nxt in zip(connectors, maps[1:]):
        compose_pair = oracle.partial_compose_right if conn == "r" else oracle.partial_compose_left
        result = compose_pair(result, nxt)
    return result


class TestChainRecipesMatchPairwiseFolds:
    """Every chain recipe equals its chain folded pair by pair in ``oracle``."""

    @pytest.mark.parametrize("h", [H2, H3], ids=["z2", "z3"])
    @pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
    @pytest.mark.parametrize("n", range(3, 10))
    def test_towers(self, h, dual, n):
        if n == 3:
            want = identity_tensor(h.dim, 1)
        else:
            maps = [h.product, h.coproduct] if dual else [h.coproduct, h.product]
            connectors = "lr" if dual else "rl"
            want = _pairwise_fold([maps[i % 2] for i in range(n - 3)], [connectors[i % 2] for i in range(n - 4)])
        assert bialgebra_tower(n, h, dual, verify=False).tensor == want

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("even", [False, True], ids=["odd", "even"])
    @pytest.mark.parametrize("start", [0, 1])
    def test_multi_towers(self, k, even, start):
        from polysimplex.construct import _hat_structure

        instances = [H2] * (k - 1 + start)
        maps, connectors = [], []
        for index in range(start, start + k - 1):
            cop, mult = _hat_structure(instances, index)
            last = index == start + k - 2
            maps.append(cop)
            if not (even and last):
                connectors.append("r")
                maps.append(mult)
            if not last:
                connectors.append("l")
        out = multi_bialgebra_tower(k, instances, even, verify=False)
        assert out.order == (2 * k if even else 2 * k + 1)
        assert out.tensor == _pairwise_fold(maps, connectors)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("phi", [None, _shift_automorphism(2)], ids=["basis", "conjugated"])
    def test_higher_mixed_pair(self, k, phi):
        t, s = T2.tensor, S2.tensor
        if phi is not None:
            t, s = conjugate(T2, phi).tensor, conjugate(S2, phi).tensor
        t_out, s_out = higher_mixed_pair(k, t, s, verify=False)
        assert t_out.tensor == _pairwise_fold([t] * k, ["l"] * (k - 1))
        assert s_out.tensor == _pairwise_fold([s] * k, ["r"] * (k - 1))

    @pytest.mark.parametrize("h", [H2, H3], ids=["z2", "z3"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_antipode_mixed_pair(self, h, k):
        t_out, s_out = hopf_mixed_pair_antipode(k, h, verify=False)
        if k == 1:
            t_want = s_want = identity_tensor(h.dim, 1)
        else:
            t_block = oracle.partial_compose_right(h.coproduct, h.product)
            s_block = oracle.partial_compose_right(h.coproduct, oracle.twisted_product(h))
            t_want = _pairwise_fold([t_block] * (k - 1), ["l"] * (k - 2))
            s_want = _pairwise_fold([s_block] * (k - 1), ["r"] * (k - 2))
        assert (t_out.tensor, s_out.tensor) == (t_want, s_want)


GROUPS = {
    "z2": cyclic_group(2),
    "z3": cyclic_group(3),
    "v4": direct_product(cyclic_group(2), cyclic_group(2)),
    "s3": symmetric_group(3),
}


@pytest.mark.parametrize("algebra", [group_algebra, dual_group_algebra], ids=["k[G]", "Fun(G)"])
class TestStagedWordsMatchPaddedCompositions:
    """The staged construction words equal the identity-padded compositions
    of ``oracle``, entry for entry."""

    # S3 makes the product noncommutative, so the order m reads its legs in matters.
    @pytest.mark.parametrize("group", GROUPS)
    def test_pentagon_pair(self, algebra, group):
        h = algebra(GROUPS[group])
        built = [desc.tensor.to_json_dict() for desc in hopf_pentagon_pair(h)]
        assert built == [t.to_json_dict() for t in oracle.hopf_pentagon_pair(h)]

    @pytest.mark.parametrize("group", ["z2", "z3", "v4"])
    def test_conjugate_by_a_non_basis_automorphism(self, algebra, group):
        h = algebra(GROUPS[group])
        phi = _shift_automorphism(h.dim)
        for desc in (*hopf_pentagon_pair(h), bialgebra_tower(6, h)):
            want = oracle.conjugate(desc.tensor, phi, invert(phi))
            assert conjugate(desc, phi).tensor.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("group", ["z2", "z3", "v4"])
    def test_antipode_twisted_block(self, algebra, group):
        h = algebra(GROUPS[group])
        want = oracle.partial_compose_right(h.coproduct, oracle.twisted_product(h))
        assert hopf_mixed_pair_antipode(2, h)[1].tensor.to_json_dict() == want.to_json_dict()


class TestSimplexFromMixed:
    def test_r4_matches_published_action(self):
        r4 = simplex_from_mixed(T2, S2, drop="one")
        assert r4.order == 4
        # R(x,y,z,w) = (y_(1), x_(1), y_(2) w, z s^-1(x_(2))) over k[Z_2]
        for x, y, z, w in product(range(2), repeat=4):
            expect = (y, x, (y + w) % 2, (z - x) % 2)
            assert r4.tensor.entry(expect, (x, y, z, w)) == 1

    def test_r3_matches_published_action(self):
        r3 = simplex_from_mixed(T2, S2, drop="two")
        assert r3.order == 3
        # R(x,y,z) = (x_(1), z s^-1(x_(3)), x_(2) y) over k[Z_2]
        for x, y, z in product(range(2), repeat=3):
            expect = (x, (z - x) % 2, (x + y) % 2)
            assert r3.tensor.entry(expect, (x, y, z)) == 1

    def test_r3_is_left_trace_of_r4(self):
        r4 = simplex_from_mixed(T2, S2, drop="one")
        r3 = simplex_from_mixed(T2, S2, drop="two")
        assert r3.tensor == partial_trace_left(r4.tensor)

    def test_right_trace_variant(self):
        out = simplex_from_mixed(T2, S2, drop="two_right")
        assert out.order == 3
        assert check_simplex(out.tensor, 3).holds
        r4 = simplex_from_mixed(T2, S2, drop="one")
        assert out.tensor == partial_trace_right(r4.tensor)

    def test_trace_identity_holds_for_arbitrary_pairs(self):
        # R^(n-2) = tr_l(R^(n-1)) is a formula-level identity: check it on
        # seeded tensors with no solution property, both parities.
        for n, sig_t, sig_s in ((5, (2, 2), (2, 2)), (4, (1, 2), (2, 1))):
            t = seeded_tensor(n, 2, *sig_t)
            s = seeded_tensor(n + 1, 2, *sig_s)
            big = pair_to_simplex_map(t, s)
            small = partial_trace_left(big)
            assert small.shape == (2, n - 2, n - 2)

    def test_mixed_gate(self):
        with pytest.raises(PreconditionFailed):
            simplex_from_mixed(T3, SolutionDescriptor("dual-polygon", 5, T3.tensor), "one")

    def test_pair_swaps_helper(self):
        sw = oracle.adjacent_pair_swaps(2, 5, 2, RATIONAL)
        for digits in product(range(2), repeat=5):
            expect = (digits[1], digits[0], digits[3], digits[2], digits[4])
            assert sw.entry(expect, digits) == 1


class TestYangBaxter:
    def test_compose_mode(self):
        out = yang_baxter_from_pair(T2.tensor, S2.tensor, "compose")
        assert out.order == 2
        # S o T (g, h) = (g, g h g^-1) which is (g, h) for abelian G
        assert out.tensor == identity_tensor(2, 2)
        assert check_simplex(out.tensor, 2).holds

    def test_compose_mode_z3(self):
        out = yang_baxter_from_pair(T3.tensor, S3.tensor, "compose")
        assert check_simplex(out.tensor, 2).holds

    def test_four_factor_mode(self):
        out = yang_baxter_from_pair(T2.tensor, S2.tensor, "four_factor")
        assert out.tensor.dim == 4
        assert (out.tensor.in_legs, out.tensor.out_legs) == (2, 2)
        assert check_simplex(out.tensor, 2).holds

    def test_identity_pair(self):
        one = identity_tensor(2, 2)
        out = yang_baxter_from_pair(one, one, "compose")
        assert out.tensor == one

    def test_non_pair_rejected(self):
        with pytest.raises(PreconditionFailed):
            yang_baxter_from_pair(oracle.flip(2), S2.tensor, "compose")


class TestDescriptorPlumbing:
    def test_json_round_trip(self):
        data = T2.to_json_dict()
        back = SolutionDescriptor.from_json_dict(data)
        assert back.tensor == T2.tensor and back.family == "polygon"

    def test_signature_validation(self):
        with pytest.raises(ShapeError):
            SolutionDescriptor("polygon", 5, identity_tensor(2, 3))

    def test_provenance_accumulates(self):
        out = trace_descend(bialgebra_tower(7, H2))
        assert any("tower" in note for note in out.provenance)
        assert any("trace" in note for note in out.provenance)


def _broken_algebra():
    """k[Z2] with the product m(a (x) b) = a, which fails the unit law."""
    h = group_algebra(cyclic_group(2))
    first = from_function(2, 2, 1, lambda x: (x[0],))
    return HopfInstance(h.dim, h.unit, h.counit, first, h.coproduct, h.antipode)


ONE3 = identity_tensor(2, 1)
ZERO5 = Tensor(2, 2, 2, {})
SIMPLEX1 = SolutionDescriptor("simplex", 1, ONE3)
POLYGON3 = SolutionDescriptor("polygon", 3, ONE3)
DUAL3 = SolutionDescriptor("dual-polygon", 3, ONE3)
TOWER4, TOWER6 = bialgebra_tower(4, H2), bialgebra_tower(6, H2)

# Every refusal of the builders, each reached by one call: (call, exception).
REFUSALS = {
    "unknown descriptor family": (lambda: SolutionDescriptor("hexagon", 5, T2.tensor), ShapeError),
    "invert even order": (lambda: invert_to_dual(TOWER4), PreconditionFailed),
    "conjugate simplex": (lambda: conjugate(SIMPLEX1, ONE3), PreconditionFailed),
    "conjugate 2->2 phi": (lambda: conjugate(T2, identity_tensor(2, 2)), ShapeError),
    "bar-sigma simplex": (lambda: bar_sigma_conjugate(SIMPLEX1), PreconditionFailed),
    "trace middle": (lambda: trace_descend(T2, "middle"), ShapeError),
    "trace simplex order 1": (lambda: trace_descend(SIMPLEX1), PreconditionFailed),
    "trace 6-gon": (lambda: trace_descend(TOWER6), PreconditionFailed),
    "trace 3-gon": (lambda: trace_descend(POLYGON3), PreconditionFailed),
    "trace mixed order 3": (lambda: trace_descend_mixed(POLYGON3, DUAL3), PreconditionFailed),
    "trace mixed zero pair": (
        lambda: trace_descend_mixed(SolutionDescriptor("polygon", 5, ZERO5), SolutionDescriptor("dual-polygon", 5, ZERO5)),
        PreconditionFailed,
    ),
    "stack simplex": (lambda: stack(SIMPLEX1, T2, "tensor"), PreconditionFailed),
    "stack bad mode": (lambda: stack(T2, T2, "sideways"), PreconditionFailed),
    "failing axioms": (lambda: bialgebra_tower(5, _broken_algebra()), PreconditionFailed),
    "tower below 3": (lambda: bialgebra_tower(2, H2), PreconditionFailed),
    "multi tower k = 1": (lambda: multi_bialgebra_tower(1, [H2, H2]), PreconditionFailed),
    "multi tower mixed rings": (
        lambda: multi_bialgebra_tower(2, [H2, group_algebra(cyclic_group(2), prime_field(5))]),
        PreconditionFailed,
    ),
    "swapped pair": (lambda: simplex_from_mixed(S2, T2), PreconditionFailed),
    "order-mismatched pair": (lambda: simplex_from_mixed(T2, DUAL3), PreconditionFailed),
    "higher mixed k = 0": (lambda: higher_mixed_pair(0, T2.tensor, S2.tensor), PreconditionFailed),
    "antipode pair k = 0": (lambda: hopf_mixed_pair_antipode(0, H2), PreconditionFailed),
    "bad drop": (lambda: simplex_from_mixed(T2, S2, "three"), ShapeError),
    "bad mode": (lambda: yang_baxter_from_pair(T2.tensor, S2.tensor, "sideways"), ShapeError),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_every_refusal_is_pinned(name):
    call, exception = REFUSALS[name]
    with pytest.raises(exception):
        call()


def test_inputs_checked_against_their_own_equations_only_after_a_failing_self_check(monkeypatch):
    """A passing self-check runs no extra check; a failing one first
    refuses a descriptor input that fails its own equation."""
    checked = []
    verify_descriptor = construct.verify_descriptor
    monkeypatch.setattr(construct, "verify_descriptor", lambda desc: checked.append(desc) or verify_descriptor(desc))
    assert check_polygon(invert_to_dual(T2).tensor, 5, dual=True).holds
    assert checked == []
    doubled = SolutionDescriptor("polygon", 5, T2.tensor.scale(2))
    with pytest.raises(PreconditionFailed, match="invert-to-dual: the input desc fails its own equation, the 5-gon"):
        invert_to_dual(doubled)
    assert checked == [doubled]
    assert invert_to_dual(doubled, verify=False).tensor.shape == (2, 2, 2)
    assert checked == [doubled]


# The header and parameter cases of REFUSALS as ``construct`` calls:
# (recipe, inputs, params), an input a group name (--group) or a tensor
# or descriptor (--input, --input2).
CLI_REFUSALS = {
    "invert even order": ("invert-to-dual", [TOWER4], {}),
    "conjugate simplex": ("conjugate", [SIMPLEX1, ONE3], {}),
    "bar-sigma simplex": ("bar-sigma-conjugate", [SIMPLEX1], {}),
    "trace middle": ("trace-descend", [T2], {"side": "middle"}),
    "trace simplex order 1": ("trace-descend", [SIMPLEX1], {}),
    "trace 6-gon": ("trace-descend", [TOWER6], {}),
    "trace 3-gon": ("trace-descend", [POLYGON3], {}),
    "trace mixed order 3": ("trace-descend-mixed", [POLYGON3, DUAL3], {}),
    "stack simplex": ("stack", [SIMPLEX1, T2], {"mode": "tensor"}),
    "stack bad mode": ("stack", [T2, T2], {"mode": "sideways"}),
    "tower below 3": ("bialgebra-tower", ["z2"], {"n": 2}),
    "multi tower k = 1": ("multi-bialgebra-tower", [], {"groups": ["z2", "z2"], "k": 1}),
    "swapped pair": ("simplex-from-mixed", [S2, T2], {}),
    "order-mismatched pair": ("simplex-from-mixed", [T2, DUAL3], {}),
    "higher mixed k = 0": ("higher-mixed-pair", [T2.tensor, S2.tensor], {"k": 0}),
    "antipode pair k = 0": ("hopf-mixed-pair-antipode", ["z2"], {"k": 0}),
    "bad drop": ("simplex-from-mixed", [T2, S2], {"drop": "three"}),
    "bad mode": ("yang-baxter", [T2.tensor, S2.tensor], {"mode": "sideways"}),
}
# The others need built maps, or no recipe runs them.
BUILT_MAP_REFUSALS = {
    "unknown descriptor family", "conjugate 2->2 phi", "trace mixed zero pair", "failing axioms", "multi tower mixed rings",
}


def test_refusals_split_into_hypotheses_and_built_maps():
    assert sorted([*CLI_REFUSALS, *BUILT_MAP_REFUSALS]) == sorted(REFUSALS)


@pytest.mark.parametrize("name", list(CLI_REFUSALS))
def test_construct_refuses_a_hypothesis_as_the_library_does(capsys, monkeypatch, tmp_path, name):
    """Every header or parameter hypothesis is refused by the record the
    CLI gate reads, before any input or map is built, with the library's
    message."""
    call, exception = REFUSALS[name]
    with pytest.raises(exception) as refused:
        call()
    recipe, inputs, params = CLI_REFUSALS[name]
    monkeypatch.setattr(construct, RECIPES[recipe].builder, lambda **kwargs: pytest.fail("built"))
    for kind, (what, _, header) in list(cli.INPUTS.items()):
        monkeypatch.setitem(cli.INPUTS, kind, (what, lambda data: pytest.fail(f"{what} built"), header))
    monkeypatch.setattr(cli, "group_algebra", lambda *args: pytest.fail("group algebra built"))
    argv = ["construct", "--recipe", recipe, "--params", json.dumps(params)]
    for flag, value in zip(("--input", "--input2"), inputs):
        if isinstance(value, str):
            argv += ["--group", value]
            continue
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(value.to_json_dict()) if isinstance(value, SolutionDescriptor) else value.to_json())
        argv += [flag, str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {refused.value}\n")


def _has_equation(family, order) -> bool:
    try:
        EQUATIONS[family].signatures(order)
    except ShapeError:
        return False
    return True


def test_records_list_only_equations_that_exist():
    """For headers and parameters its record admits, each recipe lists the
    family and order of T, and only (family, order) pairs that have an
    equation, which the CLI gate stages without a guard."""
    descriptors = [(f, n, 2) for f in ("polygon", "dual-polygon", "simplex") for n in range(-1, 10) if _has_equation(f, n)]
    headers = {"group": [1, 2], "groups": [4], "tensor": [2], "descriptor": descriptors}
    words = ["left", "right", "middle", "one", "two", "two_right", "three", "compose", "four_factor", "compose_left",
             "compose_right", "tensor", "sideways"]
    values = {int: range(-1, 6), bool: (False, True), str: words}
    for name, recipe in RECIPES.items():
        params = {key: values[type(default)] for key, default in recipe.params.items() if default is not None}
        admitted = 0
        for inputs in product(*(headers[kind] for kind in recipe.inputs.values())):
            for chosen in product(*params.values()):
                try:
                    checks = recipe.checks(*inputs, **dict(zip(params, chosen)))
                except (PreconditionFailed, ShapeError):
                    continue
                admitted += 1
                assert ("T",) in [maps for *_, maps in checks], (name, inputs, chosen)
                assert all(_has_equation(family, order) for family, order, *_ in checks), (name, inputs, chosen)
        assert admitted, name
