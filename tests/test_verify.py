"""Verifier checks against known solutions and known non-solutions."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from polysimplex.tensor import ShapeError, Tensor, flip, from_function, identity_tensor
from polysimplex.verify import (
    RELATIONS_1_6,
    VerificationReport,
    blocks_transpose,
    check_commutes,
    check_mixed,
    check_polygon,
    check_relations_1_6,
    check_simplex,
    compare_sides,
    polygon_signature,
)

Z2_T = from_function(2, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 2))
Z2_S = from_function(2, 2, 2, lambda x: (x[0], (x[1] - x[0]) % 2))
Z3_T = from_function(3, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 3))
Z3_S = from_function(3, 2, 2, lambda x: (x[0], (x[1] - x[0]) % 3))


class TestCheckPolygon:
    def test_identity_solves_3gon(self):
        assert check_polygon(identity_tensor(2, 1), 3).holds

    def test_group_pentagon(self):
        assert check_polygon(Z2_T, 5).holds
        assert check_polygon(Z3_T, 5).holds

    def test_group_dual_pentagon(self):
        assert check_polygon(Z2_S, 5, dual=True).holds
        assert check_polygon(Z3_S, 5, dual=True).holds

    def test_flip_fails_pentagon_with_witness(self):
        report = check_polygon(flip(2), 5)
        assert not report.holds
        assert report.witness is not None
        assert report.max_deviation > 0

    def test_wrong_signature_raises(self):
        with pytest.raises(ShapeError):
            check_polygon(identity_tensor(2, 1), 5)
        with pytest.raises(ShapeError):
            check_polygon(Z2_T, 6)

    def test_even_gon_tower_solution(self):
        # Delta solves the 4-gon; M solves the dual 4-gon (associativity).
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        assert check_polygon(delta, 4).holds
        assert check_polygon(mult, 4, dual=True).holds

    def test_even_gon_failure(self):
        # x -> (x, x+1) is not a 4-gon solution over Z2.
        bad = from_function(2, 1, 2, lambda x: (x[0], (x[0] + 1) % 2))
        assert not check_polygon(bad, 4).holds


class TestCheckSimplex:
    def test_flip_solves_yang_baxter(self):
        assert check_simplex(flip(2), 2).holds

    def test_identity_solves_everything(self):
        for n in range(1, 5):
            assert check_simplex(identity_tensor(2, n), n).holds

    def test_r3_closed_form_over_char_two(self):
        # R(x,y,z) = (x_(1), z s^-1(x_(3)), x_(2) y) over k[Z_2], asserted
        # directly as a 3-simplex solution.
        r3 = from_function(
            2, 3, 3, lambda v: (v[0], (v[2] - v[0]) % 2, (v[0] + v[1]) % 2)
        )
        assert check_simplex(r3, 3).holds

    def test_non_solution_has_witness(self):
        r = from_function(2, 2, 2, lambda x: ((x[0] + x[1]) % 2, x[1]))
        report = check_simplex(r, 2)
        assert not report.holds and report.witness

    def test_signature_guard(self):
        with pytest.raises(ShapeError):
            check_simplex(identity_tensor(2, 2), 3)


class TestCheckMixed:
    def test_group_pair_ten_term_relation(self):
        assert check_mixed(Z2_T, Z2_S, 5).holds
        assert check_mixed(Z3_T, Z3_S, 5).holds

    def test_tt_pair_degenerate_at_char_two_fails_at_three(self):
        # Brute force: (T, T) happens to satisfy the ten-term relation over
        # k[Z_2] (the offending 2a terms vanish in characteristic 2) but
        # fails over k[Z_3].
        assert check_mixed(Z2_T, Z2_T, 5).holds
        report = check_mixed(Z3_T, Z3_T, 5)
        assert not report.holds and report.witness

    def test_identity_pair_triangle(self):
        one = identity_tensor(2, 1)
        assert check_mixed(one, one, 3).holds

    def test_signature_guard(self):
        with pytest.raises(ShapeError):
            check_mixed(Z2_T, identity_tensor(2, 1), 5)

    def test_even_order_goes_through_compiler(self):
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        report = check_mixed(delta, mult, 4)
        # (Delta, M) solve the 4-gon and its dual but not the mixed relation.
        assert report.equation == "4-gon mixed relation"
        assert not report.holds


class TestCheckCommutes:
    def test_identity_pair(self):
        one = identity_tensor(2, 1)
        assert check_commutes(one, one).holds

    def test_pentagon_self_commutation(self):
        assert check_commutes(Z2_T, Z2_T).holds

    def test_diagonal_commutes_with_everything(self):
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        assert check_commutes(delta, Z2_S).holds
        assert check_commutes(delta, Z2_T).holds
        assert check_commutes(delta, mult).holds
        assert check_commutes(delta, flip(2)).holds

    def test_diagonal_vs_flip_reported(self):
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        report = check_commutes(delta, flip(2))
        assert report.holds  # brute force says they commute

    def test_pinned_diagonal_needs_fixed_point(self):
        # x -> (u, x) commutes with g exactly when g fixes (u, ..., u);
        # over Z2 with g = T the fixed point holds at u=0 and fails at u=1.
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        pin0 = from_function(2, 1, 2, lambda x: (0, x[0]))
        pin1 = from_function(2, 1, 2, lambda x: (1, x[0]))
        assert check_commutes(pin0, mult).holds
        assert not check_commutes(pin1, mult).holds

    def test_blocks_transpose_is_grid_transpose(self):
        from polysimplex.rings import RATIONAL

        x = blocks_transpose(2, 2, 3, RATIONAL)
        for digits in product(range(2), repeat=6):
            grid = [digits[0:3], digits[3:6]]
            expect = tuple(grid[r][c] for c in range(3) for r in range(2))
            assert x.entry(expect, digits) == 1


class TestRelations16:
    def test_group_pair_satisfies_all_six(self):
        report = check_relations_1_6(Z2_T, Z2_S)
        assert report.holds
        assert all(report.details[str(i)] for i in range(1, 7))

    def test_z3_pair_satisfies_all_six(self):
        assert check_relations_1_6(Z3_T, Z3_S).holds

    def test_identity_pair(self):
        one2 = identity_tensor(2, 2)
        assert check_relations_1_6(one2, one2).holds

    def test_tt_pair_degenerate_at_char_two(self):
        # Same characteristic-2 degeneracy as the mixed relation: all six
        # hold for (T, T) over k[Z_2], while relations (2) and (5) fail
        # over k[Z_3].
        assert check_relations_1_6(Z2_T, Z2_T).holds
        report = check_relations_1_6(Z3_T, Z3_T)
        assert not report.holds
        assert not report.details["2"]
        assert not report.details["5"]
        assert report.details["1"] and report.details["3"]

    def test_signature_guard(self):
        with pytest.raises(ShapeError):
            check_relations_1_6(identity_tensor(2, 1), Z2_S)


class TestOtherRings:
    def test_float_solutions_verify_with_tolerance(self):
        from polysimplex.rings import F64

        entries = {k: float(v) for k, v in Z2_T.entries.items()}
        t_float = from_function(2, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 2), F64)
        assert t_float.entries == entries
        assert check_polygon(t_float, 5).holds
        noisy = dict(entries)
        noisy[((0, 0), (0, 0))] = 1.0 + 1e-12  # inside the 1e-9 tolerance
        assert check_polygon(
            type(t_float)(2, 2, 2, noisy, F64), 5
        ).holds

    def test_prime_field_pentagon(self):
        from polysimplex.rings import prime_field

        gf3 = prime_field(3)
        t = from_function(3, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 3), gf3)
        assert check_polygon(t, 5).holds
        assert check_mixed(
            t, from_function(3, 2, 2, lambda x: (x[0], (x[1] - x[0]) % 3), gf3), 5
        ).holds


class TestReportShape:
    def test_json_dict_round_trips_fields(self):
        report = check_polygon(flip(2), 5)
        data = report.to_json_dict()
        assert data["equation"] == "5-gon"
        assert data["holds"] is False
        assert "witness" in data

    def test_exact_deviation_zero_on_success(self):
        report = check_polygon(Z2_T, 5)
        assert report.max_deviation == 0
        assert report.witness is None


def expected_relations_report(t, s):
    """check_relations_1_6's aggregate, rebuilt from the oracle's sides."""
    reports = {
        name: compare_sides(f"relation ({name})", *oracle.relation_sides(t, s, name))
        for name in RELATIONS_1_6
    }
    failing = [r for r in reports.values() if not r.holds]
    first = failing[0] if failing else None
    return VerificationReport(
        "relations (1)-(6)",
        not failing,
        first.max_deviation if first else 0,
        t.shape,
        s.shape,
        witness=first.witness if first else None,
        details={name: r.holds for name, r in reports.items()},
    )


@st.composite
def equation_case(draw, ring):
    """A random check and the oracle's report for it."""
    family = draw(st.sampled_from(["polygon", "dual-polygon", "simplex", "mixed", "relations"]))

    def tensor(in_legs, out_legs):
        return draw(
            st.one_of(
                oracle.sparse_tensor(ring, 2, in_legs, out_legs),
                oracle.function_tensor(ring, 2, in_legs, out_legs),
            )
        )

    if family in ("polygon", "dual-polygon"):
        n = draw(st.integers(3, 7))
        dual = family == "dual-polygon"
        t = tensor(*polygon_signature(n, dual))
        name = f"dual {n}-gon" if dual else f"{n}-gon"
        return check_polygon(t, n, dual), compare_sides(name, *oracle.polygon_sides(t, n, dual))
    if family == "simplex":
        n = draw(st.integers(1, 3))
        r = tensor(n, n)
        return check_simplex(r, n), compare_sides(f"{n}-simplex", *oracle.simplex_sides(r, n))
    if family == "mixed":
        n = draw(st.integers(3, 6))
        t = tensor(*polygon_signature(n, False))
        s = tensor(*polygon_signature(n, True))
        expect = compare_sides(f"{n}-gon mixed relation", *oracle.mixed_sides(t, s, n))
        return check_mixed(t, s, n), expect
    t, s = tensor(2, 2), tensor(2, 2)
    return check_relations_1_6(t, s), expected_relations_report(t, s)


class TestWitnessContract:
    """Verdict, largest deviation and witness key match the materialized oracle."""

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_reports_match_oracle_sides(self, ring, data):
        got, expect = data.draw(equation_case(ring))
        assert got.to_json_dict() == expect.to_json_dict()

    @pytest.mark.parametrize("value", [None, 1, 2], ids=["zero", "function", "scaled"])
    @pytest.mark.parametrize("family, n", [("polygon", 13), ("simplex", 6)])
    def test_past_the_block_limit_on_one_dimension(self, family, n, value):
        """21 free legs at d = 1: more loops than CPython nests statically."""
        k, l = polygon_signature(n, False) if family == "polygon" else (n, n)
        entries = {} if value is None else {((0,) * l, (0,) * k): value}
        t = Tensor(1, k, l, entries)
        if family == "polygon":
            got, sides = check_polygon(t, n), oracle.polygon_sides(t, n)
        else:
            got, sides = check_simplex(t, n), oracle.simplex_sides(t, n)
        assert oracle.start_legs(family, n) == 21
        assert got.to_json_dict() == compare_sides(got.equation, *sides).to_json_dict()
