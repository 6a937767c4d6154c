"""Group-derived Hopf instances and the axiom checker."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

import oracle
from polysimplex import hopf, tensor
from polysimplex.construct import hopf_pentagon_pair
from polysimplex.hopf import (
    GroupTable,
    HopfInstance,
    InvalidGroup,
    check_axioms,
    cyclic_group,
    direct_product,
    dual_group_algebra,
    group_algebra,
    settheoretic_lift,
    symmetric_group,
)
from polysimplex.rings import F64, RATIONAL, prime_field
from polysimplex.setmaps import FiniteMap
from polysimplex.tensor import ShapeError, Tensor, _staged_kernel, compose, identity_tensor

# A loop of order 5 (a Latin square with identity 0) that is not a group:
# (1*1)*2 = 2 but 1*(1*2) = 4.
LOOP_5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


class TestGroupTable:
    def test_cyclic_groups(self):
        for n in range(1, 6):
            g = cyclic_group(n)
            assert g.order == n
            assert g.is_abelian()
            for a in range(n):
                assert g.mul(a, g.inverse(a)) == 0

    def test_symmetric_group_3(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        assert not s3.is_abelian()

    def test_klein_four(self):
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert v4.order == 4
        assert v4.is_abelian()
        assert all(v4.mul(a, a) == 0 for a in range(4))

    def test_invalid_tables(self):
        with pytest.raises(InvalidGroup):
            GroupTable(((0, 1), (1, 1)))  # not a latin square
        with pytest.raises(InvalidGroup):
            GroupTable(((1, 0), (0, 1)))  # identity not element 0
        for table in (((False, True), (True, False)), ((0.0, 1.0), (1.0, 0.0))):
            with pytest.raises(InvalidGroup, match="entries must be integers"):
                GroupTable(table)
        with pytest.raises(InvalidGroup, match="not square"):
            GroupTable(((0, 1), (1,)))
        with pytest.raises(InvalidGroup, match="out of range"):
            GroupTable(((0, 1), (1, 2)))
        with pytest.raises(InvalidGroup, match="declared order disagrees"):
            GroupTable.from_json_dict({"order": 3, "table": [[0, 1], [1, 0]]})

    def test_loop_with_identity_is_not_a_group(self):
        assert not oracle.is_associative(LOOP_5)
        with pytest.raises(InvalidGroup, match="^Cayley table is not associative$"):
            GroupTable(LOOP_5)

    @settings(max_examples=80, deadline=None)
    @given(table=oracle.loops(range(5, 8)))
    def test_group_laws_match_brute_force(self, table):
        """The constructor runs the associative word, and is_abelian the
        commutative word, of the law table on the Cayley table; both agree
        with loops over every triple and pair, on tables that are not groups too."""
        if oracle.is_associative(table):
            assert GroupTable(table).is_abelian() == oracle.is_commutative(table)
        else:
            with pytest.raises(InvalidGroup, match="^Cayley table is not associative$"):
                GroupTable(table)
        unchecked = object.__new__(GroupTable)
        vars(unchecked)["table"] = table
        assert unchecked.is_abelian() == oracle.is_commutative(table)

    def test_json_round_trip(self):
        g = cyclic_group(3)
        assert GroupTable.from_json_dict(g.to_json_dict()) == g


class TestGroupAlgebra:
    def test_trivial_group(self):
        h = group_algebra(cyclic_group(1))
        assert h.dim == 1
        assert check_axioms(h).holds

    def test_z2_structure(self):
        h = group_algebra(cyclic_group(2))
        assert h.coproduct.entries == {((g, g), (g,)): Fraction(1) for g in range(2)}
        report = check_axioms(h)
        assert report.holds
        assert report.details["commutative"] and report.details["cocommutative"]
        assert report.details["antipode_invertible"]

    def test_axioms_reuse_the_groups_associativity_kernel(self, monkeypatch):
        """Building a group compiles the kernel of the associative word; the
        axiom check of its algebra runs the same word and compiles it no more."""
        compiled, source = [], tensor._kernel_source
        monkeypatch.setattr(tensor, "_kernel_source", lambda *key: compiled.append(key) or source(*key))
        _staged_kernel.cache_clear()
        [(legs, *words)] = hopf.LAWS["associative"]
        key = (legs, tuple(tuple((positions, 1) for _, positions in word) for word in words), (None, None), False, False)
        group = cyclic_group(3)
        assert compiled == [key]
        compiled.clear()
        assert check_axioms(group_algebra(group)).holds
        assert compiled and key not in compiled

    def test_axioms_checked_once_per_instance(self, monkeypatch):
        calls = []
        report_of = hopf._axioms_report
        monkeypatch.setattr(hopf, "_axioms_report", lambda h: calls.append(h) or report_of(h))
        h = group_algebra(cyclic_group(2))
        first = check_axioms(h)
        hopf_pentagon_pair(h, verify=False)  # requires the axioms again
        assert check_axioms(h) is first
        assert calls == [h]
        assert check_axioms(group_algebra(cyclic_group(2))) is not first

    @pytest.mark.parametrize("field_name", ["unit", "counit", "product", "coproduct", "antipode"])
    def test_structure_maps_of_two_rings_refused_at_construction(self, field_name):
        """The laws stage the maps unchecked, so one ring is required when the instance is built."""
        h, other = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(2), prime_field(5))
        maps = {name: getattr(h, name) for name in ("unit", "counit", "product", "coproduct", "antipode")}
        maps[field_name] = getattr(other, field_name)
        with pytest.raises(ShapeError, match="the structure maps must share one ring"):
            HopfInstance(2, **maps)

    def test_antipode_of_another_dim_refused_at_construction(self):
        h = group_algebra(cyclic_group(2))
        with pytest.raises(ShapeError, match="antipode must be a 1->1 tensor of dim 2"):
            HopfInstance(2, h.unit, h.counit, h.product, h.coproduct, identity_tensor(3, 1))

    def test_s3_flagged_noncommutative(self):
        h = group_algebra(symmetric_group(3))
        report = check_axioms(h)
        assert report.holds
        assert not report.details["commutative"]
        assert report.details["cocommutative"]

    def test_abelian_groups_up_to_4(self):
        groups = [cyclic_group(n) for n in (1, 2, 3, 4)]
        groups.append(direct_product(cyclic_group(2), cyclic_group(2)))
        for g in groups:
            report = check_axioms(group_algebra(g))
            assert report.holds
            assert report.details["commutative"] and report.details["cocommutative"]

    @pytest.mark.parametrize("ring", [RATIONAL, F64, prime_field(5)], ids=lambda ring: ring.tag)
    def test_negated_unit_or_counit_fails_its_law(self, ring):
        """The two unit (counit) laws are checked apart: one word running
        both side by side is blind to a sign shared by both, (-1)^2 = 1."""
        h = group_algebra(cyclic_group(3), ring)
        minus = ring.neg(ring.one)
        eta = Tensor(3, 0, 1, {((0,), ()): minus}, ring)
        eps = Tensor(3, 1, 0, {((), (g,)): minus for g in range(3)}, ring)
        for unit, counit, law in ((eta, h.counit, "unit"), (h.unit, eps, "counit")):
            report = check_axioms(HopfInstance(3, unit, counit, h.product, h.coproduct, h.antipode))
            assert not report.details[law] and law in report.witness["failing"]

    def test_corrupted_product_fails_associativity(self):
        h = group_algebra(cyclic_group(3))
        bad_entries = dict(h.product.entries)
        del bad_entries[((2,), (1, 1))]  # erase 1*1 = 2
        bad_entries[((1,), (1, 1))] = Fraction(1)  # pretend 1*1 = 1
        bad = HopfInstance(
            h.dim, h.unit, h.counit, Tensor(3, 2, 1, bad_entries), h.coproduct, h.antipode
        )
        report = check_axioms(bad)
        assert not report.holds
        assert "associative" in report.witness["failing"]


class TestDualGroupAlgebra:
    def test_z2_dual_axioms(self):
        h = dual_group_algebra(cyclic_group(2))
        report = check_axioms(h)
        assert report.holds
        assert report.details["cocommutative"]  # abelian G
        assert report.details["commutative"]  # pointwise product always

    def test_trivial(self):
        assert check_axioms(dual_group_algebra(cyclic_group(1))).holds

    def test_s3_dual_not_cocommutative(self):
        h = dual_group_algebra(symmetric_group(3))
        report = check_axioms(h)
        assert report.holds
        assert not report.details["cocommutative"]

    def test_double_dual_is_original_for_abelian(self):
        # For abelian G the dual of the dual has the same structure tensors
        # after the relabeling g -> -g that the convolution coproduct induces.
        g = cyclic_group(3)
        h = group_algebra(g)
        dd = dual_group_algebra(g)
        # dual coproduct transposes the product, dual product transposes the
        # coproduct; double transpose recovers the original entry sets
        assert {((a, b), (c,)) for (c,), (a, b) in [(k[0], k[1]) for k in h.product.entries]} == set(
            dd.coproduct.entries
        )


class TestSettheoreticLift:
    def test_diagonal_map(self):
        diag = FiniteMap.from_callable(2, 1, 2, lambda a: (a[0], a[0]))
        lifted = settheoretic_lift(diag)
        assert lifted.entries == {((x, x), (x,)): Fraction(1) for x in range(2)}

    def test_pinned_diagonal(self):
        pinned = FiniteMap.from_callable(2, 1, 2, lambda a: (1, a[0]))
        lifted = settheoretic_lift(pinned)
        assert lifted.entries == {((1, x), (x,)): Fraction(1) for x in range(2)}

    def test_identity_lift(self):
        ident = FiniteMap.from_callable(3, 1, 1, lambda a: a)
        assert settheoretic_lift(ident) == identity_tensor(3, 1)

    def test_functorial_on_random_maps(self):
        import random

        rng = random.Random(7)
        for base in (2, 3):
            for _ in range(12):
                k, m, l = rng.choice([(1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 2)])
                f = FiniteMap.from_callable(
                    base, k, m, lambda a: tuple(rng.randrange(base) for _ in range(m))
                )
                g = FiniteMap.from_callable(
                    base, m, l, lambda a: tuple(rng.randrange(base) for _ in range(l))
                )
                gf = FiniteMap.from_callable(base, k, l, lambda a: g(f(a)))
                assert settheoretic_lift(gf) == compose(
                    settheoretic_lift(g), settheoretic_lift(f)
                )

    def test_sweedler_expansion_matches_contraction(self):
        # T(e_g (x) e_h) = e_g (x) e_(gh) for the group algebra, computed
        # through tensor_product/compose rather than the closed form.
        from polysimplex.tensor import tensor_product

        h = group_algebra(cyclic_group(3))
        one = identity_tensor(3, 1)
        t = compose(tensor_product(one, h.product), tensor_product(h.coproduct, one))
        for g in range(3):
            for x in range(3):
                assert t.entry((g, (g + x) % 3), (g, x)) == 1
