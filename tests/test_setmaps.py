"""Set-theoretic polygon solutions, lifts between neighbouring orders, and
agreement with the linear engine."""

import random
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import apply_gathers, enumerate_set_solutions_brute, set_check, start_legs

from polysimplex.hopf import settheoretic_lift
from polysimplex.setmaps import (
    ENUMERATION_CAP,
    FiniteMap,
    apply_staged,
    check_polygon_set,
    enumerate_set_solutions,
    lift_dual_even_to_odd,
    lift_dual_even_to_odd_pinned,
    lift_dual_odd_to_even,
    lift_dual_odd_to_even_pinned,
    lift_odd_to_even,
    lift_odd_to_even_pinned,
    _polygon_sides,
)
from polysimplex.tensor import ShapeError, _staged_kernel
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

    @pytest.mark.parametrize("values", [(-1, 0, 0), (0, 3, 0), (0, True, 0), (0, 1.0, 0)])
    def test_apply_staged_refuses_values_outside_base(self, values):
        """A value outside 0..base-1 has no row; a negative one must not
        index a row from the end of the rank-keyed table."""
        with pytest.raises(ShapeError):
            apply_staged(z_add_map(3), [(2, 3), (3, 1)], values)

    @pytest.mark.parametrize("row", [(-1, 0), (0, 2), (True, 0), (1.0, 0)])
    def test_map_refuses_values_outside_base(self, row):
        table = ((0, 0), row, (1, 0), (1, 1))
        with pytest.raises(ShapeError):
            FiniteMap(2, 2, 2, table)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_apply_staged_on_random_programs(self, data):
        fmap = data.draw(finite_map())
        legs = data.draw(st.integers(max(fmap.in_arity, 1), 5))
        values = data.draw(st.tuples(*[st.integers(0, fmap.base - 1)] * legs))
        gathers = data.draw(gather_sequence(fmap, legs, data.draw(st.integers(0, 3))))
        assert apply_staged(fmap, gathers, values) == apply_gathers(fmap, gathers, values)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_compare_kernel_finds_first_failure(self, data):
        """Two random staged sides of one map: the first tuple in product
        order whose sides differ, as the per-tuple slot rule finds it."""
        fmap = data.draw(finite_map())
        legs = data.draw(st.integers(max(fmap.in_arity, 1), 4))
        # Equal step counts, so that both sides end on the same leg count.
        count = data.draw(st.integers(0, 3))
        lhs, rhs = (data.draw(gather_sequence(fmap, legs, count)) for _ in range(2))
        expect = None
        for values in product(range(fmap.base), repeat=legs):
            sides = apply_gathers(fmap, lhs, values), apply_gathers(fmap, rhs, values)
            if sides[0] != sides[1]:
                expect = (values, *sides)
                break
        shapes = tuple(tuple((gather, fmap.out_arity) for gather in side) for side in (lhs, rhs))
        kernel = _staged_kernel(legs, shapes, (None, None))
        tables = (fmap.table,) * (len(lhs) + len(rhs))  # rows in rank order
        assert next(kernel((range(fmap.base),) * legs, fmap.base, *tables), None) == expect

    @pytest.mark.parametrize("n, dual", [(13, False), (15, True)])
    def test_past_the_block_limit_base_one(self, n, dual):
        """21 and 28 free legs: more loops than CPython nests statically."""
        k, l = polygon_signature(n, dual)
        fmap = FiniteMap.from_callable(1, k, l, lambda a: (0,) * l)
        report = check_polygon_set(fmap, n, dual)
        assert (report.holds, report.witness) == set_check(fmap, n, dual) == (True, None)

    def test_past_the_block_limit_failing_witness(self):
        rng = random.Random(13)
        k, l = polygon_signature(13, False)
        fmap = FiniteMap.from_callable(2, k, l, lambda a: tuple(rng.randrange(2) for _ in range(l)))
        report = check_polygon_set(fmap, 13)
        assert not report.holds
        assert (report.holds, report.witness) == set_check(fmap, 13)


@st.composite
def finite_map(draw):
    base = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    l = k + draw(st.sampled_from([-1, 0, 1]))
    rows = st.tuples(*[st.integers(0, base - 1)] * l)
    return FiniteMap(base, k, l, tuple(draw(st.lists(rows, min_size=base**k, max_size=base**k))))


@st.composite
def gather_sequence(draw, fmap, legs, count):
    """Up to ``count`` unsorted gathers of fmap, each valid on the legs left."""
    gathers = []
    for _ in range(count):
        if legs < fmap.in_arity:
            break
        gathers.append(tuple(draw(st.permutations(range(1, legs + 1)))[: fmap.in_arity]))
        legs += fmap.out_arity - fmap.in_arity
    return gathers


class TestTrustedFiniteMap:
    @settings(max_examples=100, deadline=None)
    @given(finite_map())
    def test_equals_validated_construction(self, fmap):
        trusted = FiniteMap._trusted(fmap.base, fmap.in_arity, fmap.out_arity, fmap.table)
        assert trusted == fmap and hash(trusted) == hash(fmap)
        assert trusted.to_json_dict() == fmap.to_json_dict()


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
        for base in (0, -1):
            with pytest.raises(ShapeError):
                enumerate_set_solutions(4, base)


# Every capped instance except the two base-3 5-gons, which brute force
# would take hours on (9^9 tables each).
CAPPED = [(n, base, dual) for n in (3, 4, 5) for base in range(1, ENUMERATION_CAP["base"] + 1) for dual in (False, True)]
CAPPED_BRUTE = [(n, base, dual) for n, base, dual in CAPPED if (n, base) != (5, 3)]


@cache
def capped_solutions(n, base, dual):
    return enumerate_set_solutions(n, base, dual)


def relabel(fmap, perm):
    """fmap conjugated by the permutation perm of X."""
    inverse = {p: x for x, p in enumerate(perm)}
    return FiniteMap.from_callable(
        fmap.base,
        fmap.in_arity,
        fmap.out_arity,
        lambda args: tuple(perm[x] for x in fmap(tuple(inverse[a] for a in args))),
    )


class TestBacktrackingEnumeration:
    def test_capped_instances_match_brute_force(self):
        assert len(CAPPED_BRUTE) == 16
        for n, base, dual in CAPPED_BRUTE:
            got = [f.table for f in enumerate_set_solutions(n, base, dual)]
            assert got == [f.table for f in enumerate_set_solutions_brute(n, base, dual)], (n, base, dual)

    @pytest.mark.parametrize("dual", [False, True])
    def test_base3_pentagon(self, dual):
        found = capped_solutions(5, 3, dual)
        tables = [f.table for f in found]
        assert len(tables) == 1115 and tables == sorted(tables)
        assert all(check_polygon_set(f, 5, dual).holds for f in found)
        for perm in permutations(range(3)):
            assert {relabel(f, perm).table for f in found} == set(tables)


@pytest.mark.parametrize("n, base, dual", CAPPED)
def test_lift_reads_the_same_table(n, base, dual):
    """A set map and its 0/1 lift are one object: the lift's rank table is
    the map's table, and the tensor and set checks agree on it and on a
    neighbour that differs in row 0."""
    outputs = list(product(range(base), repeat=polygon_signature(n, dual)[1]))
    for f in capped_solutions(n, base, dual):
        rows = list(f.table)
        rows[0] = outputs[(outputs.index(rows[0]) + 1) % len(outputs)]
        for g in (f, FiniteMap(base, f.in_arity, f.out_arity, tuple(rows))):
            lift = settheoretic_lift(g)
            assert lift._table == list(g.table)
            assert check_polygon(lift, n, dual).holds == check_polygon_set(g, n, dual).holds


SMALL_POLYGONS = [(3, False), (3, True), (4, False), (4, True), (5, False), (5, True)]


class TestPartialPolygonKernel:
    @pytest.mark.parametrize("n, dual", SMALL_POLYGONS)
    def test_empty_table_is_undecided(self, n, dual):
        legs, sides = _polygon_sides(n, dual)
        kernel = _staged_kernel(legs, sides, (None, None))
        empty = [None] * 2 ** polygon_signature(n, dual)[0]
        assert next(kernel((range(2),) * legs, 2, *(empty,) * sum(map(len, sides))), None) is None

    @pytest.mark.parametrize("n, dual", SMALL_POLYGONS)
    def test_complete_tables_match_total_kernel(self, n, dual):
        """On a complete table the search's kernel yields first the witness of
        the total check, the oracle's."""
        in_arity, out_arity = polygon_signature(n, dual)
        legs, sides = _polygon_sides(n, dual)
        steps = sum(map(len, sides))
        kernel = _staged_kernel(legs, sides, (None, None))
        rows = 2**in_arity
        outputs = list(product(range(2), repeat=out_arity))
        failures = 0
        for table in product(outputs, repeat=rows):  # rows in rank order
            holds, witness = set_check(FiniteMap(2, in_arity, out_arity, table), n, dual)
            expect = None if holds else (tuple(witness["in"]), tuple(witness["lhs"]), tuple(witness["rhs"]))
            assert next(kernel((range(2),) * legs, 2, *(table,) * steps), None) == expect
            failures += not holds
        assert 0 < failures < len(outputs) ** rows


@pytest.mark.parametrize("n, dual", [(4, True), (5, False)])
def test_tensor_check_set_check_and_search_share_one_kernel(n, dual):
    """The tensor check of a total basis function, the set check and the
    search of one (dual) n-gon compile one table kernel between them."""
    k, l = polygon_signature(n, dual)
    fmap = FiniteMap.from_callable(2, k, l, lambda a: tuple((a[0] + i) % 2 for i in range(l)))
    _staged_kernel.cache_clear()
    check_polygon(settheoretic_lift(fmap), n, dual)
    check_polygon_set(fmap, n, dual)
    enumerate_set_solutions(n, 2, dual)
    assert _staged_kernel.cache_info().misses == 1


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


class TestFiniteMapJson:
    @pytest.mark.parametrize("base, table, message", [
        (0, (), "base set must be non-empty"),
        (2, ((0, 1),), "table has 1 rows, expected 2"),
    ])
    def test_bad_base_or_row_count(self, base, table, message):
        with pytest.raises(ShapeError, match=message):
            FiniteMap(base, 1, 2, table)

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
