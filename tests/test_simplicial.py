"""Simplicial compiler: cross-generator equivalence is the structural anchor.

Flattened programs must reproduce the recursion matrices placement for
placement; the non-constant builders must reproduce the closed-form maps.
"""

from fractions import Fraction
from itertools import product

import pytest

from oracle import polygon_sides, start_legs
from polysimplex.indices import mixed_indices, polygon_recursion_rows, simplex_indices
from polysimplex.simplicial import (
    ContractionProgram,
    ProgramError,
    Step,
    compile_mixed,
    compile_polygon,
    compile_simplex,
    evaluate_program,
    face_delete,
    facets,
    flatten,
    pachner_split,
    pair_to_simplex_map,
    program_to_dot,
    reverse_lex_sorted,
    simplex_family_from_pair,
    standard_simplex,
    traced_family,
)
from polysimplex.tensor import (
    ShapeError,
    Tensor,
    from_function,
    identity_tensor,
    partial_trace_left,
)

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


class TestPachnerSplit:
    def test_examples(self):
        assert pachner_split(2) == ((0, 2), (1, 3))
        assert pachner_split(3) == ((0, 2, 4), (1, 3))
        assert pachner_split(1) == ((0, 2), (1,))

    def test_partitions_vertices(self):
        for n in range(1, 10):
            evens, odds = pachner_split(n)
            assert sorted(evens + odds) == list(range(n + 2))


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
        bad = ContractionProgram(lhs.steps, lhs.free_inputs[::-1], lhs.free_outputs)
        with pytest.raises(ProgramError):
            bad.validate()

    def test_dangling_label(self):
        step = Step("T", (0, 1), ((9, 9),), ((1, 2),))
        prog = ContractionProgram((step,), ((0, 1),), ((1, 2),))
        with pytest.raises(ProgramError):
            prog.flatten() if hasattr(prog, "flatten") else flatten(prog)

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


class TestProgramEvaluation:
    def test_pentagon_program_agrees_with_placements(self):
        lhs, rhs = compile_polygon(5)
        expect, expect_rhs = polygon_sides(Z2_T, 5)
        assert evaluate_program(lhs, {"T": Z2_T}, 2) == expect
        assert evaluate_program(rhs, {"T": Z2_T}, 2) == expect_rhs

    def test_functional_oracle_even_mixed(self):
        # Evaluate the compiled 4-gon mixed sides two ways: as sparse tensor
        # contractions and as staged functions on tuples.
        delta = from_function(2, 1, 2, lambda x: (x[0], x[0]))
        mult = from_function(2, 2, 1, lambda x: ((x[0] + x[1]) % 2,))
        fns = {"T": lambda digits: (digits[0], digits[0]),
               "S": lambda digits: ((digits[0] + digits[1]) % 2,)}
        from polysimplex.tensor import replace_slots

        for program in compile_mixed(4):
            tensor_side = evaluate_program(program, {"T": delta, "S": mult}, 2)
            for start in product(range(2), repeat=len(program.free_inputs)):
                state_labels = list(program.free_inputs)
                state_vals = list(start)
                for step in program.steps:
                    positions = [state_labels.index(l) + 1 for l in step.inputs]
                    outs = list(fns[step.tag](tuple(state_vals[p - 1] for p in positions)))
                    state_labels = replace_slots(state_labels, positions, list(step.outputs))
                    state_vals = replace_slots(state_vals, positions, outs)
                assert tensor_side.entry(tuple(state_vals), start) == 1

    def test_signature_mismatch_rejected(self):
        lhs, _ = compile_polygon(5)
        with pytest.raises(ShapeError):
            evaluate_program(lhs, {"T": identity_tensor(2, 3)}, 2)

    def test_callable_assignment_for_families(self):
        # Evaluate the 4-simplex equation with a per-face family (constant
        # in value, non-constant in plumbing) and compare both sides.
        t = from_function(2, 2, 2, lambda x: (x[0], (x[0] + x[1]) % 2))
        s = from_function(2, 2, 2, lambda x: (x[0], (x[1] - x[0]) % 2))
        family = simplex_family_from_pair(4, t, s)
        lhs, rhs = compile_simplex(4)
        left = evaluate_program(lhs, lambda tag, face: family[face], 2)
        right = evaluate_program(rhs, lambda tag, face: family[face], 2)
        assert left == right


class TestNonConstantBuilders:
    def test_constant_family_matches_closed_form_odd(self):
        # order-4 family from 5-gon-shaped tensors == sigma T S composite
        from polysimplex.construct import simplex_map_from_pair_formula

        t = seeded_tensor(11, 2, 2, 2)
        s = seeded_tensor(23, 2, 2, 2)
        family = simplex_family_from_pair(4, t, s)
        expect = simplex_map_from_pair_formula(t, s, 5)
        for face, tensor in family.items():
            assert tensor == expect

    def test_constant_family_matches_closed_form_even(self):
        from polysimplex.construct import simplex_map_from_pair_formula

        for n, seeds in ((3, (5, 7)), (5, (13, 17))):
            m = n + 1  # polygon order, even
            k = m // 2
            t = seeded_tensor(seeds[0], 2, k - 1, k)
            s = seeded_tensor(seeds[1], 2, k, k - 1)
            family = simplex_family_from_pair(n, t, s)
            expect = simplex_map_from_pair_formula(t, s, m)
            for tensor in family.values():
                assert tensor == expect

    def test_identity_pair_gives_pure_permutation(self):
        one = identity_tensor(2, 1)
        family = simplex_family_from_pair(2, one, one)
        for tensor in family.values():
            assert tensor.is_permutation_like()

    def test_traced_identity_family_scales_by_dimension(self):
        fam = {face_delete(standard_simplex(4), i): identity_tensor(2, 4) for i in range(5)}
        q_fam = traced_family(3, fam)
        for q, tensor in q_fam.items():
            assert tensor == identity_tensor(2, 3).scale(2)

    def test_traced_family_closes_first_leg(self):
        t = seeded_tensor(3, 2, 2, 2)
        s = seeded_tensor(9, 2, 2, 2)
        family = simplex_family_from_pair(4, t, s)
        q_fam = traced_family(3, family)
        parent = family[(0, 1, 3, 4)]
        assert q_fam[(0, 2, 3)] == partial_trace_left(parent)

    def test_missing_face_rejected(self):
        with pytest.raises(ProgramError):
            traced_family(2, {})

    def test_mismatched_pair_rejected(self):
        with pytest.raises(ShapeError):
            pair_to_simplex_map(identity_tensor(2, 2), identity_tensor(3, 2))
