"""Verifier checks against known solutions and known non-solutions."""

import contextlib
import json
import math
from fractions import Fraction
from functools import cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from polysimplex import simplicial, tensor as tensor_module, verify
from polysimplex.construct import (
    SolutionDescriptor,
    bialgebra_tower,
    conjugate,
    hopf_pentagon_pair,
    simplex_from_mixed,
)
from polysimplex.hopf import cyclic_group, group_algebra
from polysimplex.rings import F64, RATIONAL, FloatRing, prime_field
from polysimplex.setmaps import FiniteMap, check_polygon_set, enumerate_set_solutions
from polysimplex.simplicial import compile_simplex
from polysimplex.tensor import ShapeError, Tensor, contract_staged, from_function, identity_tensor
from polysimplex.verify import (
    RELATIONS_1_6,
    VerificationReport,
    check_commutes,
    check_mixed,
    check_polygon,
    check_relations_1_6,
    check_simplex,
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
        report = check_polygon(oracle.flip(2), 5)
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
        assert check_simplex(oracle.flip(2), 2).holds

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


class TestEquationTable:
    """One table states each family's maps, compiler and name, and
    :func:`verify.check_equation` checks every family through it."""

    @staticmethod
    def refuse_compiling(monkeypatch, family):
        def refuse(*args, **kwargs):
            raise AssertionError("compiled")

        equation = verify.EQUATIONS[family]
        monkeypatch.setitem(verify.EQUATIONS, family, verify.Equation(**dict(vars(equation), compile=refuse)))
        monkeypatch.setattr(simplicial, "_compile", refuse)

    @pytest.mark.parametrize("family, n", [("polygon", 6), ("dual-polygon", 6), ("simplex", 3), ("mixed", 7)])
    def test_wrong_signature_refused_before_compiling(self, monkeypatch, family, n):
        self.refuse_compiling(monkeypatch, family)
        want = verify.signature(family, n)
        name = verify.EQUATIONS[family].name.format(n)
        for wrong in want:
            maps = [Tensor(2, k + (tag == wrong), l, {}) for tag, (k, l) in want.items()]
            k, l = want[wrong]
            message = f"^{name} needs {wrong}:{k}->{l}, got {wrong}:{k + 1}->{l}$"
            with pytest.raises(ShapeError, match=message):
                verify.check_equation(family, n, *maps)
            wrappers = {
                "polygon": lambda: check_polygon(*maps, n),
                "dual-polygon": lambda: check_polygon(*maps, n, dual=True),
                "simplex": lambda: check_simplex(*maps, n),
                "mixed": lambda: check_mixed(*maps, n),
            }
            with pytest.raises(ShapeError, match=message):
                wrappers[family]()

    def test_mixed_maps_share_dimension_and_ring(self, monkeypatch):
        self.refuse_compiling(monkeypatch, "mixed")
        message = "^the maps of the 5-gon mixed relation must share dimension and ring$"
        for s in (Z3_S, Tensor(2, 2, 2, {}, F64)):
            with pytest.raises(ShapeError, match=message):
                check_mixed(Z2_T, s, 5)

    def test_descriptor_signature_refused(self):
        with pytest.raises(ShapeError, match="^dual 5-gon needs S:2->2, got S:2->1$"):
            SolutionDescriptor("dual-polygon", 5, Tensor(2, 2, 1, {}))

    def test_signatures(self):
        assert verify.signature("polygon", 6) == {"T": (2, 3)}
        assert verify.signature("dual-polygon", 6) == {"S": (3, 2)}
        assert verify.signature("simplex", 4) == {"R": (4, 4)}
        assert verify.signature("mixed", 7) == {"T": (3, 3), "S": (3, 3)}
        for family, n, message in [
            ("polygon", 2, "no 2-gon equation; n must be >= 3"),
            ("simplex", 0, "no 0-simplex equation; n must be >= 1"),
            ("mixed", 2, "no 2-gon equation; n must be >= 3"),
        ]:
            with pytest.raises(ShapeError, match=f"^{message}$"):
                verify.signature(family, n)

    def test_reports_named_as_before(self):
        assert check_polygon(Z2_T, 5).equation == "5-gon"
        assert check_polygon(Z2_S, 5, dual=True).equation == "dual 5-gon"
        assert check_simplex(identity_tensor(2, 2), 2).equation == "2-simplex"
        assert check_mixed(Z2_T, Z2_S, 5).equation == "5-gon mixed relation"


class TestRequireColumns:
    """The column cap decides without computing a power plainly over it,
    and writes the count out only when it is short enough to print."""

    def test_under_and_at_the_cap(self):
        for dim, legs in ((2, 22), (0, 10**9), (1, 10**9), (2048, 2), (161, 3)):
            verify.require_columns(dim, legs)

    def test_count_written_when_short(self):
        message = f"^the check runs 2\\^23 = {2**23} columns, over the cap of {verify.MAX_COLUMNS}$"
        with pytest.raises(ShapeError, match=message):
            verify.require_columns(2, 23)
        with pytest.raises(ShapeError, match=f"^x 3\\^66 = {3**66} columns"):
            verify.require_columns(3, 66, "x")

    def test_long_count_left_out(self):
        for dim, legs in ((3, 10**4), (10**9, 3 * 10**7), (2**5000, 3)):
            with pytest.raises(ShapeError, match=f"^x {dim}\\^{legs} columns, over the cap of {verify.MAX_COLUMNS}$"):
                verify.require_columns(dim, legs, "x")
        with pytest.raises(ShapeError, match="^x \\(a 20001-bit number\\)\\^1 columns"):
            verify.require_columns(2**20000, 1, "x")


class TestCheckCommutes:
    def test_zero_legs_refused(self):
        unit = Tensor(2, 0, 1, {((0,), ()): 1})
        with pytest.raises(ShapeError, match="at least one leg per side"):
            check_commutes(unit, identity_tensor(2, 1))

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
        assert check_commutes(delta, oracle.flip(2)).holds

    def test_diagonal_vs_flip_reported(self):
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        report = check_commutes(delta, oracle.flip(2))
        assert report.holds  # brute force says they commute

    def test_pinned_diagonal_needs_fixed_point(self):
        # x -> (u, x) commutes with g exactly when g fixes (u, ..., u);
        # over Z2 with g = T the fixed point holds at u=0 and fails at u=1.
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        pin0 = from_function(2, 1, 2, lambda x: (0, x[0]))
        pin1 = from_function(2, 1, 2, lambda x: (1, x[0]))
        assert check_commutes(pin0, mult).holds
        assert not check_commutes(pin1, mult).holds

    def test_leg_counts_apart_by_two_rejected(self):
        # The slot rule places a map whose leg counts differ by at most one.
        widen = from_function(2, 1, 3, lambda x: (x[0],) * 3)
        with pytest.raises(ShapeError):
            check_commutes(widen, identity_tensor(2, 1))
        with pytest.raises(ShapeError):
            check_commutes(identity_tensor(2, 1), widen)

    def test_blocks_transpose_is_grid_transpose(self):
        from polysimplex.rings import RATIONAL

        x = oracle.blocks_transpose(2, 2, 3, RATIONAL)
        for digits in product(range(2), repeat=6):
            grid = [digits[0:3], digits[3:6]]
            expect = tuple(grid[r][c] for c in range(3) for r in range(2))
            assert x.entry(expect, digits) == 1


class TestRelations16:
    def test_no_seventh_relation(self):
        with pytest.raises(ShapeError, match=r"no relation \(7\)"):
            verify.check_equation("relations", 7, Z2_T, Z2_S)

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
        report = check_polygon(oracle.flip(2), 5)
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
        name: oracle.compare_sides(f"relation ({name})", *oracle.relation_sides(t, s, name))
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
        return check_polygon(t, n, dual), oracle.compare_sides(name, *oracle.polygon_sides(t, n, dual))
    if family == "simplex":
        n = draw(st.integers(1, 3))
        r = tensor(n, n)
        return check_simplex(r, n), oracle.compare_sides(f"{n}-simplex", *oracle.simplex_sides(r, n))
    if family == "mixed":
        n = draw(st.integers(3, 6))
        t = tensor(*polygon_signature(n, False))
        s = tensor(*polygon_signature(n, True))
        expect = oracle.compare_sides(f"{n}-gon mixed relation", *oracle.mixed_sides(t, s, n))
        return check_mixed(t, s, n), expect
    t, s = tensor(2, 2), tensor(2, 2)
    return check_relations_1_6(t, s), expected_relations_report(t, s)


@cache
def set_solutions(n, dual):
    """Set-theoretic (dual) n-gon solutions on one and two points; their
    lifts solve the tensor equation."""
    return tuple(fmap for base in (1, 2) for fmap in enumerate_set_solutions(n, base, dual))


def z_pair(d):
    """The k[Z_d] pentagon and dual pentagon maps, which also solve the mixed relations."""
    return (lambda x: (x[0], (x[0] + x[1]) % d)), (lambda x: (x[0], (x[1] - x[0]) % d))


def identity(x):
    return x


@st.composite
def total_function(draw, ring, d, in_legs, out_legs, solution):
    """A total basis-function tensor: ``solution`` lifted, lifted with the
    outputs of two columns swapped, or a random table."""
    kind = draw(st.sampled_from(["solution", "swapped", "random"]))
    if kind == "random":
        return draw(oracle.function_tensor(ring, d, in_legs, out_legs))
    table = {inp: tuple(solution(inp)) for inp in product(range(d), repeat=in_legs)}
    if kind == "swapped" and len(table) > 1:
        a, b = draw(st.lists(st.sampled_from(sorted(table)), min_size=2, max_size=2, unique=True))
        table[a], table[b] = table[b], table[a]
    return Tensor(d, in_legs, out_legs, {(out, inp): ring.one for inp, out in table.items()}, ring)


@st.composite
def total_function_case(draw, ring):
    """A check on total basis-function tensors and the oracle's report for it."""
    family = draw(st.sampled_from(["polygon", "dual-polygon", "simplex", "mixed", "relations"]))
    if family in ("polygon", "dual-polygon"):
        dual = family == "dual-polygon"
        n = draw(st.integers(3, 5))
        fmap = draw(st.sampled_from(set_solutions(n, dual)))
        t = draw(total_function(ring, fmap.base, fmap.in_arity, fmap.out_arity, fmap))
        name = f"dual {n}-gon" if dual else f"{n}-gon"
        return check_polygon(t, n, dual), oracle.compare_sides(name, *oracle.polygon_sides(t, n, dual))
    d = draw(st.integers(1, 3))
    if family == "simplex":
        n = draw(st.integers(1, 3))
        solutions = [identity]
        if n == 2:
            solutions.append(lambda x: (x[1], x[0]))
        if n == 3 and d == 2:
            solutions.append(lambda v: (v[0], (v[2] - v[0]) % 2, (v[0] + v[1]) % 2))
        r = draw(total_function(ring, d, n, n, draw(st.sampled_from(solutions))))
        return check_simplex(r, n), oracle.compare_sides(f"{n}-simplex", *oracle.simplex_sides(r, n))
    pair = draw(st.sampled_from([(identity, identity), z_pair(d)]))
    if family == "mixed":
        n = 5 if pair[0] is not identity else 3
        k = polygon_signature(n, False)[0]
        t, s = (draw(total_function(ring, d, k, k, f)) for f in pair)
        expect = oracle.compare_sides(f"{n}-gon mixed relation", *oracle.mixed_sides(t, s, n))
        return check_mixed(t, s, n), expect
    t, s = (draw(total_function(ring, d, 2, 2, f)) for f in pair)
    return check_relations_1_6(t, s), expected_relations_report(t, s)


def compare_route_refused():
    """Patch out the compare driver of the checks."""
    return mock.patch.object(verify, "_differing_columns", side_effect=AssertionError("compare route taken"))


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
        assert got.to_json_dict() == oracle.compare_sides(got.equation, *sides).to_json_dict()

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_total_functions_match_oracle(self, ring, data):
        """The compare route decides holding checks; failing ones fall back."""
        got, expect = data.draw(total_function_case(ring))
        assert got.to_json_dict() == expect.to_json_dict()

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_partial_tables_take_the_fallback(self, ring, data):
        n = data.draw(st.integers(3, 6))
        dual = data.draw(st.booleans())
        k, l = polygon_signature(n, dual)
        t = data.draw(oracle.partial_function_tensor(ring, 2, k, l))
        assume(len(t.entries) < 2**k)
        with compare_route_refused():
            got = check_polygon(t, n, dual)
        assert got.to_json_dict() == oracle.compare_sides(got.equation, *oracle.polygon_sides(t, n, dual)).to_json_dict()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_nan_entries_take_the_fallback(self, data):
        t = data.draw(oracle.function_tensor(F64, 2, 2, 2))
        entries = dict(t.entries)
        entries[data.draw(st.sampled_from(sorted(entries)))] = float("nan")
        t = Tensor(2, 2, 2, entries, F64)
        with compare_route_refused():
            got = check_polygon(t, 5)
        assert not got.holds
        # NaN is unequal to itself, so compare the serialized reports.
        expect = oracle.compare_sides("5-gon", *oracle.polygon_sides(t, 5))
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())

    @pytest.mark.parametrize("tolerance", [1.0, 2.5])
    @pytest.mark.parametrize("trusted", [False, True], ids=["validated", "trusted"])
    def test_tolerance_at_least_one_takes_the_fallback(self, tolerance, trusted):
        """One is a zero of the ring: validation drops every entry, and a
        table of ones that bypassed it is not a basis function either."""
        ring = FloatRing(tolerance)
        fn = z_pair(2)[0]
        entries = {(fn(inp), inp): 1.0 for inp in product(range(2), repeat=2)}
        t = Tensor._trusted(2, 2, 2, entries, ring) if trusted else Tensor(2, 2, 2, entries, ring)
        with compare_route_refused():
            got = check_polygon(t, 5)
        assert got.holds
        assert got.to_json_dict() == oracle.compare_sides("5-gon", *oracle.polygon_sides(t, 5)).to_json_dict()


@st.composite
def commutation_pair(draw, ring, total):
    """Maps f and g for a commutation check, leg counts apart by at most one.

    Copy maps (output leg m repeats input leg m mod k) commute with every
    basis function, so holding checks are common; ``total`` draws total
    basis functions only, otherwise partial tables and sparse tensors too.
    The oracle multiplies the entries of the two maps in another grouping
    than the staged sides do, so float entries are dyadic.
    """
    d = draw(st.integers(1, 3))
    budget = {1: 9, 2: 6, 3: 4}[d]  # at most d**budget columns

    def draw_map(in_legs):
        out_legs = max(1, in_legs + draw(st.sampled_from([-1, 0, 1])))
        kinds = [oracle.function_tensor(ring, d, in_legs, out_legs), st.just(None)]
        if not total:
            kinds += [
                oracle.partial_function_tensor(ring, d, in_legs, out_legs),
                oracle.sparse_tensor(ring, d, in_legs, out_legs, values=oracle.dyadic_value),
            ]
        f = draw(st.one_of(kinds))
        if f is None:
            f = from_function(d, in_legs, out_legs, lambda x: tuple(x[m % in_legs] for m in range(out_legs)), ring)
        return f

    k = draw(st.integers(1, 3))
    i = draw(st.integers(1, max(1, budget // k)))
    return draw_map(k), draw_map(i)


def expected_commutation(f, g):
    return oracle.compare_sides("commutation", *oracle.commutation_sides(f, g)).to_json_dict()


class TestCommutationContract:
    """check_commutes against the tensor powers and grid transposes of the oracle."""

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_total_functions_match_oracle(self, ring, data):
        """The compare route decides holding checks; failing ones fall back."""
        f, g = data.draw(commutation_pair(ring, total=True))
        assert check_commutes(f, g).to_json_dict() == expected_commutation(f, g)

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_other_maps_take_the_fallback(self, ring, data):
        f, g = data.draw(commutation_pair(ring, total=False))
        assume(f._masks is None or g._masks is None)
        with compare_route_refused():
            got = check_commutes(f, g)
        assert json.dumps(got.to_json_dict()) == json.dumps(expected_commutation(f, g))


@cache
def z3_simplex_maps():
    """R4 and R3 of the pentagon-to-simplex pipeline over k[Z3]."""
    t, s = hopf_pentagon_pair(group_algebra(cyclic_group(3)), verify=False)
    return tuple(simplex_from_mixed(t, s, drop=drop, verify=False).tensor for drop in ("one", "two"))


class TestCompareRoute:
    """Holding checks on total basis functions build neither side."""

    def holding_checks(self):
        r4, r3 = z3_simplex_maps()
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        swap2, swap3 = oracle.flip(2), oracle.flip(3)
        return [
            lambda: check_polygon(Z3_T, 5),
            lambda: check_polygon(Z3_S, 5, dual=True),
            lambda: check_polygon(delta, 4),
            lambda: check_mixed(Z3_T, Z3_S, 5),
            lambda: check_relations_1_6(Z3_T, Z3_S),
            lambda: check_simplex(r4, 4),
            lambda: check_simplex(r3, 3),
            lambda: check_simplex(swap3, 2),
            lambda: check_commutes(Z3_T, Z3_T),
            lambda: check_commutes(delta, swap2),
        ]

    def test_holding_checks_build_no_side(self, monkeypatch):
        checks = self.holding_checks()

        def refuse(*args, **kwargs):
            raise AssertionError("a side tensor was built")

        monkeypatch.setattr(verify, "compare_sides", refuse)
        monkeypatch.setattr(Tensor, "_trusted", refuse)
        monkeypatch.setattr(Tensor, "__post_init__", refuse)
        for check in checks:
            report = check()
            assert report.holds and report.max_deviation == 0 and report.witness is None

    def test_holding_report_matches_the_built_sides(self):
        r4, _ = z3_simplex_maps()
        got = check_simplex(r4, 4)
        assert got.lhs_dims == got.rhs_dims == (3, 10, 10)
        sides = (
            contract_staged([(r4, p) for _, p in side.gather_positions()], len(side.free_inputs), 3, r4.ring)
            for side in compile_simplex(4)
        )
        assert got.to_json_dict() == oracle.compare_sides("4-simplex", *sides).to_json_dict()

    def test_failing_check_returns_the_oracle_witness(self):
        """The first differing column in product order is not the witness key."""
        swapped = dict(Z3_T.entries)
        (a, ia), (b, ib) = sorted(swapped)[1], sorted(swapped)[7]
        del swapped[(a, ia)], swapped[(b, ib)]
        swapped.update({(b, ia): 1, (a, ib): 1})
        t = Tensor(3, 2, 2, swapped)
        got = check_polygon(t, 5)
        assert not got.holds
        assert got.to_json_dict() == oracle.compare_sides("5-gon", *oracle.polygon_sides(t, 5)).to_json_dict()


def inverse_pairs(ring):
    """Scalars c != 1 and their inverses; the floats dyadic, so that every
    product the checks and the oracle form is exact."""
    if ring is F64:
        return [(2.0, 0.5), (-0.5, -2.0), (4.0, 0.25)]
    if ring is RATIONAL:
        return [(Fraction(2, 3), Fraction(3, 2)), (Fraction(-3, 4), Fraction(-4, 3)), (Fraction(5), Fraction(1, 5))]
    return [(c, ring.invert(c)) for c in range(2, ring.p)]


@st.composite
def two_sided_case(draw, ring):
    """Two staged sides on the same legs, and the oracle's report on them.

    The right side repeats the left one with one map scaled by c and a
    first step of 1/c times the identity, so it holds with another scale
    (the product of its maps' least common denominators) than the left
    side; redrawing one of its maps makes it fail.
    """
    d = draw(st.sampled_from([2, 3]))
    legs = n = draw(st.integers(1, 3))
    lhs = []
    for _ in range(draw(st.integers(1, 3))):
        if n == 0:
            break
        k = draw(st.integers(1, min(n, 2)))
        l = k + draw(st.sampled_from([-1, 0, 1]))
        positions = tuple(draw(st.permutations(range(1, n + 1)))[:k])
        lhs.append((draw(oracle.sparse_tensor(ring, d, k, l, values=oracle.dyadic_value)), positions))
        n += l - k
    c, inverse = draw(st.sampled_from(inverse_pairs(ring)))
    j = draw(st.integers(0, len(lhs) - 1))
    rhs = [(f.scale(c) if i == j else f, positions) for i, (f, positions) in enumerate(lhs)]
    if draw(st.booleans()):
        f, positions = rhs[j]
        rhs[j] = (draw(oracle.sparse_tensor(ring, d, f.in_legs, f.out_legs, values=oracle.dyadic_value)), positions)
    rhs.insert(0, (identity_tensor(d, 1, ring).scale(inverse), (1,)))
    sides = (lhs, rhs)
    expect = oracle.compare_sides("sides", *(oracle.staged(steps, legs, d, ring) for steps in sides))
    return sides, legs, d, expect


def no_side_built():
    """Patch out every construction of a tensor, in any ring."""
    stack = contextlib.ExitStack()
    for name in ("_trusted", "__post_init__"):
        stack.enter_context(mock.patch.object(Tensor, name, side_effect=AssertionError("a side was built")))
    return stack


@cache
def conjugated_z3_pair():
    """The k[Z3] pentagon pair conjugated legwise by a rational automorphism
    with denominators 2 and 3: a solution pair that is no basis function."""
    phi = Tensor(3, 1, 1, {((0,), (0,)): Fraction(1, 2), ((1,), (0,)): 1, ((1,), (1,)): -3, ((2,), (2,)): Fraction(2, 3)})
    t = conjugate(SolutionDescriptor("polygon", 5, Z3_T), phi, verify=False).tensor
    s = conjugate(SolutionDescriptor("dual-polygon", 5, Z3_S), phi, verify=False).tensor
    return t, s


class TestStreamRoute:
    """Checks on other maps stream their columns, in every ring, and match the oracle."""

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_sides_of_other_scales_match_oracle(self, ring, data):
        sides, legs, d, expect = data.draw(two_sided_case(ring))
        with no_side_built():
            got = verify._check_sides("sides", sides, legs, d, ring)
        assert got.to_json_dict() == expect.to_json_dict()

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @pytest.mark.parametrize("rhs_entry", [None, 1, 2], ids=["holds", "one-at-the-cancelled-key", "two"])
    def test_cancelled_paths_match_oracle(self, ring, rhs_entry):
        f, g, h = oracle.cancelling_maps(ring)
        if rhs_entry is not None:
            h = Tensor(2, 1, 1, {**h.entries, ((0,), (0,)): ring.coerce(rhs_entry)}, ring)
        lhs, rhs = [(f, (1,)), (g, (1,))], [(h, (1,))]
        with no_side_built():
            got = verify._check_sides("cancel", (lhs, rhs), 1, 2, ring)
        assert got.holds == (rhs_entry is None)
        expect = oracle.compare_sides("cancel", *(oracle.staged(steps, 1, 2, ring) for steps in (lhs, rhs)))
        assert got.to_json_dict() == expect.to_json_dict()

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @pytest.mark.parametrize("case", sorted(oracle.per_step_cases(F64)))
    @pytest.mark.parametrize("holds", [True, False], ids=["holds", "fails"])
    def test_per_step_cases_match_oracle(self, ring, case, holds):
        """The left side pushed step by step against its oracle tensor,
        placed on every leg as one step, or that tensor off by one at the
        zero key."""
        steps, legs, d, order = oracle.per_step_cases(ring)[case]
        lhs = oracle.staged(steps, legs, d, ring)
        if order:
            lhs = oracle.permute_legs(lhs, oracle.inverse(order), tuple(range(1, legs + 1)))
        rhs = lhs
        if not holds:
            key = ((0,) * lhs.out_legs, (0,) * legs)
            rhs = Tensor(d, legs, lhs.out_legs, {**lhs.entries, key: ring.add(lhs.entry(*key), ring.one)}, ring)
        sides = (steps, [(rhs, tuple(range(1, legs + 1)))])
        with no_side_built():
            got = verify._check_sides("steps", sides, legs, d, ring, (order, None))
        assert got.holds == holds
        assert got.to_json_dict() == oracle.compare_sides("steps", lhs, rhs).to_json_dict()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_float_specials_match_the_built_sides(self, data):
        """NaN and infinite entries, within tolerances below and above one:
        inf - inf is NaN and a deviation, and a NaN magnitude wins only at
        the first differing key, as ``oracle.deviation_scan`` scans the built sides."""
        ring = FloatRing(data.draw(st.sampled_from([1e-9, 0.5, 1.5])))
        d = data.draw(st.integers(1, 3))
        special = st.sampled_from([math.inf, -math.inf, math.nan, 1.0, 2.0, -3.0])

        def side(least):
            count = data.draw(st.integers(least, 2))
            return [(data.draw(oracle.sparse_tensor(ring, d, 1, 1, values=lambda _: special)), (1,)) for _ in range(count)]

        sides = (side(0), side(1))
        expect = oracle.compare_sides("sides", *(contract_staged(steps, 1, d, ring) for steps in sides))
        with no_side_built():
            got = verify._check_sides("sides", sides, 1, d, ring)
        # NaN is unequal to itself, so compare the serialized reports.
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())

    @pytest.mark.parametrize("ring", [RATIONAL, prime_field(5)], ids=lambda ring: ring.tag)
    def test_exact_checks_build_no_side(self, ring, monkeypatch):
        t, s = (Tensor(3, 2, 2, m.entries, ring) for m in conjugated_z3_pair())
        checks = {
            "5-gon": (lambda: check_polygon(t, 5), lambda: oracle.polygon_sides(t, 5)),
            "dual 5-gon": (lambda: check_polygon(s, 5, dual=True), lambda: oracle.polygon_sides(s, 5, True)),
            "mixed": (lambda: check_mixed(t, s, 5), lambda: oracle.mixed_sides(t, s, 5)),
            "scaled 5-gon": (lambda: check_polygon(t.scale(2), 5), lambda: oracle.polygon_sides(t.scale(2), 5)),
            "scaled mixed": (lambda: check_mixed(t, s.scale(3), 5), lambda: oracle.mixed_sides(t, s.scale(3), 5)),
        }

        def refuse(*args, **kwargs):
            raise AssertionError("a side tensor was built")

        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "_trusted", refuse)
            reports = {name: check() for name, (check, _) in checks.items()}
        assert [name for name, report in reports.items() if report.holds] == ["5-gon", "dual 5-gon", "mixed"]
        for name, (_, sides) in checks.items():
            report = reports[name]
            assert report.to_json_dict() == oracle.compare_sides(report.equation, *sides()).to_json_dict()


@cache
def tower_image(n, d, dual):
    """The basis function of the k[Z_d] bialgebra-tower (dual) n-gon, as a table."""
    tower = bialgebra_tower(n, group_algebra(cyclic_group(d)), dual=dual, verify=False).tensor
    return {inp: out for out, inp in tower.entries}


@st.composite
def sparse_dependency_map(draw, ring, d, k, l, solutions=()):
    """A total basis function whose outputs read few inputs: an affine map
    over Z_d (output j is c_j + sum a_ji x_i mod d, so it reads the inputs
    with a_ji != 0) or one of ``solutions``, with one row redrawn half of
    the time, which makes a holding equation fail on some columns only."""
    kind = draw(st.integers(0, len(solutions)))
    if kind < len(solutions):
        fn = solutions[kind]
    else:
        coeffs = [draw(st.lists(st.integers(0, d - 1), min_size=k + 1, max_size=k + 1)) for _ in range(l)]
        fn = lambda x: tuple((row[k] + sum(a * v for a, v in zip(row, x))) % d for row in coeffs)
    table = {inp: tuple(fn(inp)) for inp in product(range(d), repeat=k)}
    if draw(st.booleans()):
        table[draw(st.sampled_from(sorted(table)))] = draw(st.tuples(*[st.integers(0, d - 1)] * l))
    return Tensor(d, k, l, {(out, inp): ring.one for inp, out in table.items()}, ring)


@st.composite
def cone_case(draw):
    """A check on total basis functions with sparse dependencies, as a thunk."""
    ring = draw(st.sampled_from(oracle.RINGS))
    family = draw(st.sampled_from(["polygon", "set", "simplex", "mixed", "commutes", "relations"]))
    d = draw(st.integers(1, 3))
    if family in ("polygon", "set"):
        dual = draw(st.booleans())
        n = draw(st.integers(3, 9 if d < 3 else 7))
        k, l = polygon_signature(n, dual)
        solutions = [lambda x, table=tower_image(n, d, dual): table[x]] if d > 1 else []
        t = draw(sparse_dependency_map(ring, d, k, l, solutions))
        if family == "polygon":
            return lambda: check_polygon(t, n, dual)
        image = {inp: out for out, inp in t.entries}
        fmap = FiniteMap.from_callable(d, k, l, image.__getitem__)
        return lambda: check_polygon_set(fmap, n, dual)
    if family == "simplex":
        n = draw(st.integers(1, 3))
        r = draw(sparse_dependency_map(ring, d, n, n, [identity, lambda x: x[::-1]]))
        return lambda: check_simplex(r, n)
    if family == "commutes":

        def copy_or_affine(k):
            # Copy maps (output leg m repeats input leg m mod k) commute with every basis function.
            l = max(1, k + draw(st.sampled_from([-1, 0, 1])))
            return draw(sparse_dependency_map(ring, d, k, l, [lambda x: tuple(x[m % k] for m in range(l))]))

        f, g = copy_or_affine(draw(st.integers(1, 3))), copy_or_affine(draw(st.integers(1, 2)))
        return lambda: check_commutes(f, g)
    if family == "mixed":
        n = draw(st.integers(3, 6))
        (k, l), (ks, ls) = polygon_signature(n, False), polygon_signature(n, True)
        pair = z_pair(d) if n == 5 else (identity, identity) if k == l else ()
        t = draw(sparse_dependency_map(ring, d, k, l, pair[:1]))
        s = draw(sparse_dependency_map(ring, d, ks, ls, pair[1:]))
        return lambda: check_mixed(t, s, n)
    t, s = (draw(sparse_dependency_map(ring, d, 2, 2, [f])) for f in z_pair(d))
    return lambda: check_relations_1_6(t, s)


def full_domains():
    """Run every compare kernel over the full product of columns, not its cones."""
    full = lambda legs, sides, orders, step_masks, d: ((range(d),) * legs,)
    return mock.patch.object(tensor_module, "_cones", full)


class TestConeRoute:
    """Compare kernels run over dependency cones and report as over every column."""

    @settings(max_examples=300, deadline=None)
    @given(cone_case())
    def test_reports_match_the_full_domain(self, check):
        got = check()
        with full_domains():
            expect = check()
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())

    def test_cones_pin_legs_of_the_tower(self):
        """The z3 tower 9-gon runs six cones of at most 3^4 of its 3^10 columns."""
        t = Tensor(3, 4, 4, {(out, inp): 1 for inp, out in tower_image(9, 3, False).items()})
        calls = []
        kernel = tensor_module._staged_kernel

        def record(*args):
            run = kernel(*args)

            def counted(domains, *rest):
                calls.append(math.prod(map(len, domains)))
                return run(domains, *rest)

            return counted

        with mock.patch.object(tensor_module, "_staged_kernel", record):
            assert check_polygon(t, 9).holds
        assert len(calls) == 6 and max(calls) <= 3**4
