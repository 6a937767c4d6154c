"""Simplicial compiler: cross-generator equivalence is the structural anchor.

Flattened programs must reproduce the recursion matrices placement for
placement; the simplex map of a mixed pair must reproduce the closed-form map.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import flip, polygon_sides, start_legs
from polysimplex import simplicial
from polysimplex.indices import mixed_indices, polygon_recursion_rows, simplex_indices
from polysimplex.simplicial import (
    ContractionProgram,
    ProgramError,
    Step,
    compile_mixed,
    compile_polygon,
    compile_simplex,
    face_delete,
    facets,
    flatten,
    pair_to_simplex_map,
    program_to_dot,
    reverse_lex_sorted,
    standard_simplex,
)
from polysimplex.tensor import ShapeError, Tensor, contract_staged, from_function, identity_tensor
from polysimplex.verify import check_equation

Z2_T = from_function(2, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 2))
Z2_S = from_function(2, 2, 2, lambda x: (x[0], (x[1] - x[0]) % 2))


def seeded_tensor(seed: int, d: int, in_legs: int, out_legs: int) -> Tensor:
    """Deterministic dense-ish exact tensor; no solution property intended."""
    entries = {}
    state = seed
    for out in product(range(d), repeat=out_legs):
        for inp in product(range(d), repeat=in_legs):
            state = (state * 1103515245 + 12345) % (2**31)
            if state % 3:
                entries[(out, inp)] = Fraction(state % 7 - 3)
    return Tensor(d, in_legs, out_legs, entries)


class TestFaceHelpers:
    def test_face_delete(self):
        assert face_delete((0, 1, 3, 4), 2) == (0, 1, 4)

    def test_reverse_lex_is_descending_tuples(self):
        labels = [(0, 1), (2, 3), (1, 3), (0, 3)]
        assert reverse_lex_sorted(labels) == [(2, 3), (1, 3), (0, 3), (0, 1)]

    def test_simplex_leg_order_lists_deleted_pairs_ascending(self):
        # Free legs of the n-simplex equation are d(i,j) for (i,j) ascending.
        n = 3
        legs = reverse_lex_sorted(
            face_delete(face_delete(standard_simplex(n), j), i)
            for i in range(n + 1)
            for j in range(i + 1, n + 1)
        )
        expect = []
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                keep = tuple(v for v in range(n + 1) if v not in (i, j))
                expect.append(keep)
        assert legs == expect


class TestCrossGeneratorEquivalence:
    """The checks evaluate the compiled programs; these tests tie them to
    the paper's index matrices and leg counts well beyond the orders the
    acceptance suite renders."""

    def test_polygon_all_orders(self):
        for n in range(3, 23):
            a_rows, b_rows = polygon_recursion_rows(n)
            lhs, rhs = compile_polygon(n)
            assert [r for _, r in flatten(lhs)] == a_rows
            assert [r for _, r in flatten(rhs)] == list(reversed(b_rows))
            assert all(tag == "T" for tag, _ in flatten(lhs) + flatten(rhs))
            assert len(lhs.free_inputs) == start_legs("polygon", n)

    def test_dual_polygon_all_orders(self):
        for n in range(3, 23):
            a_rows, b_rows = polygon_recursion_rows(n)
            lhs, rhs = compile_polygon(n, dual=True)
            if n % 2 == 0:
                # dual even-gon steps consume k legs; rows are shorthands
                a_rows = [r + (r[-1] + 1,) for r in a_rows]
                b_rows = [r + (r[-1] + 1,) for r in b_rows]
            assert [r for _, r in flatten(lhs)] == list(reversed(a_rows))
            assert [r for _, r in flatten(rhs)] == b_rows
            assert all(tag == "S" for tag, _ in flatten(lhs) + flatten(rhs))
            assert len(lhs.free_inputs) == start_legs("dual-polygon", n)

    def test_simplex_all_orders(self):
        for n in range(1, 10):
            rows = list(simplex_indices(n).rows)
            lhs, rhs = compile_simplex(n)
            assert [r for _, r in flatten(lhs)] == rows
            assert [r for _, r in flatten(rhs)] == list(reversed(rows))
            assert len(lhs.free_inputs) == start_legs("simplex", n)

    def test_mixed_odd_orders(self):
        for n in range(3, 22, 2):
            k = (n - 1) // 2
            d_m, e_m, f_m, g_m = mixed_indices(n)
            lhs, rhs = compile_mixed(n)
            expect_lhs = []
            for i in range(k, -1, -1):
                expect_lhs.append(("T", d_m[i]))
                if i > 0:
                    expect_lhs.append(("S", e_m[i - 1]))
            expect_rhs = []
            for i in range(k + 1):
                expect_rhs.append(("S", f_m[i]))
                if i < k:
                    expect_rhs.append(("T", g_m[i]))
            assert flatten(lhs) == expect_lhs
            assert flatten(rhs) == expect_rhs
            assert len(lhs.free_inputs) == start_legs("mixed", n)

    def test_polygon_free_outputs_descend(self):
        for n in range(3, 11):
            for dual in (False, True):
                lhs, rhs = compile_polygon(n, dual)
                assert list(lhs.free_outputs) == reverse_lex_sorted(lhs.free_outputs)
                assert lhs.free_outputs == rhs.free_outputs
                assert lhs.free_inputs == rhs.free_inputs


class TestProgramStructure:
    # Taken from the three compilers this module once had; even orders have
    # no closed form to compare against.
    EVEN_MIXED = {
        4: (
            [("S", (3, 2)), ("T", (1,)), ("S", (1, 3)), ("T", (1,))],
            [("S", (1, 3)), ("T", (1,)), ("S", (1, 3)), ("T", (2,))],
        ),
        6: (
            [("S", (3, 7, 6)), ("T", (4, 5)), ("S", (2, 5, 7)), ("T", (1, 5)), ("S", (1, 4, 5)), ("T", (1, 2))],
            [("S", (1, 4, 5)), ("T", (1, 2)), ("S", (1, 5, 7)), ("T", (3, 5)), ("S", (2, 5, 7)), ("T", (4, 6))],
        ),
        8: (
            [
                ("S", (4, 9, 13, 12)), ("T", (6, 10, 11)), ("S", (3, 8, 11, 13)), ("T", (5, 7, 11)),
                ("S", (2, 7, 10, 11)), ("T", (1, 7, 8)), ("S", (1, 5, 6, 7)), ("T", (1, 2, 3)),
            ],
            [
                ("S", (1, 5, 6, 7)), ("T", (1, 2, 3)), ("S", (1, 7, 10, 11)), ("T", (4, 7, 8)),
                ("S", (2, 7, 11, 13)), ("T", (5, 9, 11)), ("S", (3, 8, 11, 13)), ("T", (6, 10, 12)),
            ],
        ),
    }

    @pytest.mark.parametrize("n", sorted(EVEN_MIXED))
    def test_mixed_even_placements_pinned(self, n):
        assert tuple(flatten(side) for side in compile_mixed(n)) == self.EVEN_MIXED[n]

    def test_mixed_even_step_counts_and_signatures(self):
        lhs, rhs = compile_mixed(4)
        assert len(lhs.steps) == 4 and len(rhs.steps) == 4
        sigs = [(len(s.inputs), len(s.outputs)) for s in lhs.steps]
        assert sigs == [(1, 2), (2, 1), (1, 2), (2, 1)]
        assert lhs.free_inputs == rhs.free_inputs
        assert lhs.free_outputs == rhs.free_outputs

    def test_mixed_triangle_pattern(self):
        lhs, rhs = compile_mixed(3)
        assert [(tag, r) for tag, r in flatten(lhs)] == [
            ("T", (1,)),
            ("S", (1,)),
            ("T", (1,)),
        ]
        assert [(tag, r) for tag, r in flatten(rhs)] == [
            ("S", (1,)),
            ("T", (1,)),
            ("S", (1,)),
        ]

    def test_polygon_4_signature(self):
        lhs, rhs = compile_polygon(4)
        assert len(lhs.steps) == 2 and len(rhs.steps) == 2
        assert all((len(s.inputs), len(s.outputs)) == (1, 2) for s in lhs.steps)

    def test_validate_rejects_tampering(self):
        lhs, _ = compile_polygon(5)
        with pytest.raises(ProgramError):
            ContractionProgram(lhs.steps, lhs.free_inputs[::-1], lhs.free_outputs)

    def test_dangling_label(self):
        step = Step("T", (0, 1), ((9, 9),), ((1, 2),))
        with pytest.raises(ProgramError):
            ContractionProgram((step,), ((0, 1),), ((1, 2),))

    def test_placement_reading_one_leg_twice(self):
        step = Step("T", (0, 1), ((0,), (0,)), ((1,),))
        with pytest.raises(ProgramError, match="reads one leg twice"):
            ContractionProgram((step,), ((0,), (0,)), ((1,),))

    def test_each_compiled_side_replayed_once(self, monkeypatch):
        calls = []

        def counted(state, placements):
            calls.append(len(placements))
            return replay(state, placements)

        replay = simplicial._replay
        monkeypatch.setattr(simplicial, "_replay", counted)
        for compiler, n in ((compile_polygon, 7), (compile_simplex, 4), (compile_mixed, 6)):
            calls.clear()
            lhs, rhs = compiler.__wrapped__(n)
            assert calls == [len(lhs.steps), len(rhs.steps)]

    def test_mixed_cross_check_in_the_compiler(self, monkeypatch):
        monkeypatch.setattr(simplicial, "mixed_sequences", lambda n: ([], []))
        with pytest.raises(ShapeError, match="internal disagreement"):
            compile_mixed.__wrapped__(5)
        assert compile_mixed.__wrapped__(6)  # even orders have no closed form

    def test_single_step_flatten(self):
        p = face_delete(standard_simplex(2), 0)
        step = Step("R", p, tuple(facets(p)), tuple(facets(p)))
        prog = ContractionProgram(
            (step,), tuple(reverse_lex_sorted(facets(p))), tuple(reverse_lex_sorted(facets(p)))
        )
        assert flatten(prog) == [("R", (1, 2))]

    def test_dot_export_mentions_all_steps(self):
        lhs, _ = compile_polygon(5)
        dot = program_to_dot(lhs)
        assert dot.count("shape=box") == 3
        assert dot.startswith("digraph")


def contract_side(program, maps, d):
    """One compiled side contracted, ``maps`` by tag."""
    steps = [(maps[tag], positions) for tag, positions in program.gather_positions()]
    return contract_staged(steps, len(program.free_inputs), d)


class TestProgramEvaluation:
    def test_pentagon_program_agrees_with_placements(self):
        lhs, rhs = compile_polygon(5)
        expect, expect_rhs = polygon_sides(Z2_T, 5)
        assert contract_side(lhs, {"T": Z2_T}, 2) == expect
        assert contract_side(rhs, {"T": Z2_T}, 2) == expect_rhs

    def test_functional_oracle_even_mixed(self):
        # Evaluate the compiled 4-gon mixed sides two ways: as sparse tensor
        # contractions and as staged functions on tuples.
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        fns = {"T": lambda digits: (digits[0], digits[0]),
               "S": lambda digits: ((digits[0] + digits[1]) % 2,)}
        from polysimplex.tensor import replace_slots

        for program in compile_mixed(4):
            tensor_side = contract_side(program, {"T": delta, "S": mult}, 2)
            for start in product(range(2), repeat=len(program.free_inputs)):
                state_labels = list(program.free_inputs)
                state_vals = list(start)
                for step in program.steps:
                    positions = [state_labels.index(l) + 1 for l in step.inputs]
                    outs = list(fns[step.tag](tuple(state_vals[p - 1] for p in positions)))
                    state_labels = replace_slots(state_labels, positions, list(step.outputs))
                    state_vals = replace_slots(state_vals, positions, outs)
                assert tensor_side.entry(tuple(state_vals), start) == 1

    def test_callable_assignment_for_families(self):
        # The 4-simplex map of a 5-gon pair satisfies the 4-simplex equation.
        t = from_function(2, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 2))
        s = from_function(2, 2, 2, lambda x: (x[0], (x[1] - x[0]) % 2))
        assert check_equation("simplex", 4, pair_to_simplex_map(t, s)).holds


class TestNonConstantBuilders:
    def test_constant_family_matches_closed_form_odd(self):
        # order-4 family from 5-gon-shaped tensors == the pair swaps after T and S
        t = seeded_tensor(11, 2, 2, 2)
        s = seeded_tensor(23, 2, 2, 2)
        assert pair_to_simplex_map(t, s) == oracle.pair_swap_formula(t, s)

    def test_constant_family_matches_closed_form_even(self):
        for n, seeds in ((3, (5, 7)), (5, (13, 17))):
            m = n + 1  # polygon order, even
            k = m // 2
            t = seeded_tensor(seeds[0], 2, k - 1, k)
            s = seeded_tensor(seeds[1], 2, k, k - 1)
            assert pair_to_simplex_map(t, s) == oracle.pair_swap_formula(t, s)

    @pytest.mark.parametrize("ring", oracle.RINGS, ids=lambda ring: ring.tag)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_builder_matches_both_oracles(self, ring, data):
        """Both parities: n = 2k+1 on 2k legs, n = 2k on 2k-1 legs."""
        n = data.draw(st.integers(3, 8))
        t_sig = (n - 1) // 2, n // 2
        maps = [oracle.sparse_tensor, oracle.function_tensor, oracle.partial_function_tensor]
        t, s = (data.draw(st.sampled_from(maps).flatmap(lambda m: m(ring, 2, *sig))) for sig in (t_sig, t_sig[::-1]))
        got = pair_to_simplex_map(t, s).to_json_dict()
        assert got == oracle.pair_to_simplex_map(t, s).to_json_dict()
        assert got == oracle.pair_swap_formula(t, s).to_json_dict()

    def test_identity_pair_gives_pure_permutation(self):
        one = identity_tensor(2, 1)
        assert pair_to_simplex_map(one, one) == flip(2)

    def test_mismatched_pair_rejected(self):
        with pytest.raises(ShapeError):
            pair_to_simplex_map(identity_tensor(2, 2), identity_tensor(3, 2))
        with pytest.raises(ShapeError):
            pair_to_simplex_map(identity_tensor(2, 2), seeded_tensor(1, 2, 1, 2))
