"""Set-theoretic polygon solutions, lifts between neighbouring orders, and
agreement with the linear engine."""

import random
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import apply_gathers, set_check, start_legs

from polysimplex.hopf import settheoretic_lift
from polysimplex.setmaps import (
    FiniteMap,
    LIFTS,
    apply_staged,
    check_polygon_set,
    enumerate_set_solutions,
    lift_dual_even_to_odd,
    lift_dual_even_to_odd_pinned,
    lift_dual_odd_to_even,
    lift_dual_odd_to_even_pinned,
    lift_odd_to_even,
    lift_odd_to_even_pinned,
)
from polysimplex.tensor import ShapeError
from polysimplex.verify import PreconditionFailed, check_polygon, polygon_signature


def z_add_map(base):
    return FiniteMap.from_callable(base, 2, 2, lambda a: (a[0], (a[0] + a[1]) % base))


class TestCheckPolygonSet:
    def test_identity_3gon(self):
        ident = FiniteMap.from_callable(2, 1, 1, lambda a: a)
        assert check_polygon_set(ident, 3).holds

    def test_group_pentagon_over_z2(self):
        assert check_polygon_set(z_add_map(2), 5).holds

    def test_failure_carries_witness(self):
        swap = FiniteMap.from_callable(2, 2, 2, lambda a: (a[1], a[0]))
        report = check_polygon_set(swap, 5)
        assert not report.holds
        assert report.witness is not None

    def test_signature_guard(self):
        with pytest.raises(ShapeError):
            check_polygon_set(z_add_map(2), 4)

    def test_agrees_with_linear_engine_on_random_maps(self):
        rng = random.Random(11)
        for n, dual in ((3, False), (4, False), (4, True), (5, False), (5, True)):
            if n % 2:
                k = (n - 1) // 2
                arity = (k, k)
            else:
                k = n // 2
                arity = (k, k - 1) if dual else (k - 1, k)
            for _ in range(8):
                table = FiniteMap.from_callable(
                    2, arity[0], arity[1],
                    lambda a: tuple(rng.randrange(2) for _ in range(arity[1])),
                )
                set_says = check_polygon_set(table, n, dual).holds
                tensor_says = check_polygon(settheoretic_lift(table), n, dual).holds
                assert set_says == tensor_says


@cache
def known_solutions():
    """Base-2 solutions for n <= 5, their lifts to the 6-gon, and the
    identity 7-gon solutions, keyed by (n, dual)."""
    pool = {}
    for n, dual in product((3, 4, 5), (False, True)):
        pool[(n, dual)] = enumerate_set_solutions(n, 2, dual)
    pool[(6, False)] = [lift_odd_to_even(t, 2).result for t in pool[(5, False)]] + [
        lift_dual_odd_to_even(s, 2).result for s in pool[(5, True)]
    ]
    identities = [FiniteMap.from_callable(b, 3, 3, lambda a: a) for b in (2, 3)]
    pool[(7, False)] = pool[(7, True)] = identities
    return pool


@st.composite
def polygon_map(draw):
    """A random map, or a known solution with at most one row changed."""
    n, dual = draw(st.sampled_from([(n, dual) for n in range(3, 8) for dual in (False, True)]))
    k, l = polygon_signature(n, dual)
    solutions = known_solutions().get((n, dual), [])
    if solutions and draw(st.booleans()):
        fmap = draw(st.sampled_from(solutions))
        rows = list(fmap.table)
        if draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = draw(st.tuples(*[st.integers(0, fmap.base - 1)] * l))
        return FiniteMap(fmap.base, k, l, tuple(rows)), n, dual
    legs = start_legs("dual-polygon" if dual else "polygon", n)
    base = draw(st.sampled_from([b for b in (1, 2, 3) if b**legs <= 729]))
    row = st.tuples(*[st.integers(0, base - 1)] * l)
    rows = draw(st.lists(row, min_size=base**k, max_size=base**k))
    return FiniteMap(base, k, l, tuple(rows)), n, dual


class TestSetOracle:
    @settings(max_examples=200, deadline=None)
    @given(polygon_map())
    def test_verdict_and_witness_match_oracle(self, case):
        fmap, n, dual = case
        report = check_polygon_set(fmap, n, dual)
        assert (report.holds, report.witness) == set_check(fmap, n, dual)

    def test_apply_staged_matches_slot_rule(self):
        fmap = z_add_map(3)
        gathers = [(2, 3), (3, 1), (1, 2)]
        for values in product(range(3), repeat=3):
            assert apply_staged(fmap, gathers, values) == apply_gathers(fmap, gathers, values)


class TestEnumeration:
    def test_three_gon_solutions_are_idempotents(self):
        found = enumerate_set_solutions(3, 2)
        tables = {f.table for f in found}
        assert tables == {((0,), (1,)), ((0,), (0,)), ((1,), (1,))}

    def test_dual_four_gon_solutions_are_associative_ops(self):
        found = enumerate_set_solutions(4, 2, dual=True)
        for f in found:
            for a, b, c in product(range(2), repeat=3):
                assert f((f((a, b))[0], c)) == f((a, f((b, c))[0]))

    def test_deterministic_order(self):
        a = [f.table for f in enumerate_set_solutions(5, 2)]
        b = [f.table for f in enumerate_set_solutions(5, 2)]
        assert a == b
        assert a == sorted(a)

    def test_cap_enforced(self):
        with pytest.raises(ShapeError):
            enumerate_set_solutions(5, 4)
        with pytest.raises(ShapeError):
            enumerate_set_solutions(7, 2)


class TestLifts:
    def test_lift_dual_even_to_odd_on_projection(self):
        # S(x, y) = x solves the dual 4-gon; its lift is a 5-gon solution.
        proj = FiniteMap.from_callable(2, 2, 1, lambda a: (a[0],))
        outcome = lift_dual_even_to_odd(proj, k=2)
        assert outcome.report.holds
        assert outcome.result((0, 1)) == (0, 0)

    def test_lift_odd_to_even_identity(self):
        ident = FiniteMap.from_callable(2, 1, 1, lambda a: a)
        outcome = lift_odd_to_even(ident, k=1)
        assert outcome.report.holds
        assert outcome.result.table == ((0, 0), (1, 1))

    def test_pinned_variant_flags_failure_without_raising(self):
        # constant-0 map is a dual 3-gon solution; pinning u=1 breaks the
        # fixed point S(1) = 1 and the lift must be flagged, not raised.
        const0 = FiniteMap.from_callable(2, 1, 1, lambda a: (0,))
        good = lift_dual_odd_to_even_pinned(const0, u=0, k=1)
        bad = lift_dual_odd_to_even_pinned(const0, u=1, k=1)
        assert good.fixed_point_ok and good.report.holds
        assert not bad.fixed_point_ok and not bad.report.holds

    def test_source_verification_gate(self):
        swap = FiniteMap.from_callable(2, 2, 2, lambda a: (a[1], a[0]))
        with pytest.raises(PreconditionFailed):
            lift_odd_to_even(swap, k=2)

    @pytest.mark.parametrize("base", [2, 3])
    def test_exhaustive_iff_for_all_six_lifts(self, base):
        """Every construction verified in both directions over small X."""
        plain = {
            "dual-even-to-odd": (4, True, 2, lift_dual_even_to_odd),
            "odd-to-even": (3, False, 1, lift_odd_to_even),
            "dual-odd-to-even": (3, True, 1, lift_dual_odd_to_even),
        }
        pinned = {
            "dual-even-to-odd-pinned": (4, True, 2, lift_dual_even_to_odd_pinned),
            "odd-to-even-pinned": (3, False, 1, lift_odd_to_even_pinned),
            "dual-odd-to-even-pinned": (3, True, 1, lift_dual_odd_to_even_pinned),
        }
        for n, dual, k, lift in plain.values():
            for source in enumerate_set_solutions(n, base, dual):
                assert lift(source, k).report.holds
        for n, dual, k, lift in pinned.values():
            for source in enumerate_set_solutions(n, base, dual):
                for u in range(base):
                    outcome = lift(source, u, k)
                    assert outcome.report.holds == outcome.fixed_point_ok

    def test_lift_registry_is_complete(self):
        assert set(LIFTS) == {
            "dual-even-to-odd",
            "dual-even-to-odd-pinned",
            "odd-to-even",
            "odd-to-even-pinned",
            "dual-odd-to-even",
            "dual-odd-to-even-pinned",
        }


class TestFiniteMapJson:
    def test_round_trip(self):
        f = z_add_map(3)
        data = f.to_json_dict()
        assert data["base"] == 3 and data["in"] == 2 and data["out"] == 2
        assert FiniteMap.from_json_dict(data) == f

    def test_missing_row_rejected(self):
        data = {"base": 2, "in": 1, "out": 1, "table": {"0": [0]}}
        with pytest.raises(ShapeError):
            FiniteMap.from_json_dict(data)

    def test_zero_arity_input(self):
        point = FiniteMap.from_callable(2, 0, 1, lambda a: (1,))
        data = point.to_json_dict()
        assert FiniteMap.from_json_dict(data) == point
