"""Acceptance suite: the seven exit criteria, exact equality at desk scale.

Each criterion prints one pass/fail line (see conftest) with its wall time
against the stated budget.  Everything runs over exact rationals.
"""

import time
from itertools import product

from conftest import record_acceptance

from polysimplex.cli import build_catalog
from polysimplex.construct import (
    SolutionDescriptor,
    bar_sigma_conjugate,
    conjugate,
    higher_mixed_pair,
    hopf_pentagon_pair,
    invert_to_dual,
    simplex_from_mixed,
    stack,
    trace_descend,
    trace_descend_mixed,
)
from polysimplex.hopf import cyclic_group, group_algebra
from polysimplex.indices import mixed_indices, polygon_recursion_rows, simplex_indices
from polysimplex.setmaps import (
    enumerate_set_solutions,
    lift_dual_even_to_odd,
    lift_dual_even_to_odd_pinned,
    lift_dual_odd_to_even,
    lift_dual_odd_to_even_pinned,
    lift_odd_to_even,
    lift_odd_to_even_pinned,
)
from polysimplex.simplicial import compile_mixed, compile_polygon, compile_simplex, flatten
from polysimplex.tensor import Tensor, partial_trace_left
from polysimplex.verify import (
    check_mixed,
    check_polygon,
    check_relations_1_6,
    check_simplex,
)

# The published equation catalog, the target of criterion 1.
KNOWN_POLYGON_LINES = {
    3: "T_{1}T_{1}=T_{1}",
    4: "T_{1}T_{1}=T_{2}T_{1}",
    5: "T_{12}T_{13}T_{23}=T_{23}T_{12}",
    6: "T_{12}T_{13}T_{23}=T_{35}T_{24}T_{12}",
    7: "T_{123}T_{145}T_{246}T_{356}=T_{356}T_{245}T_{123}",
    8: "T_{123}T_{145}T_{246}T_{356}=T_{479}T_{368}T_{256}T_{123}",
    9: "T_{1234}T_{1567}T_{2589}T_{368,10}T_{479,10}=T_{479,10}T_{3689}T_{2567}T_{1234}",
    10: "T_{1234}T_{1567}T_{2589}T_{368,10}T_{479,10}"
    "=T_{59,12,14}T_{48,11,13}T_{37,10,11}T_{2678}T_{1234}",
}
KNOWN_SIMPLEX_LINES = {
    1: "R_{1}R_{1}=R_{1}R_{1}",
    2: "R_{12}R_{13}R_{23}=R_{23}R_{13}R_{12}",
    3: "R_{123}R_{145}R_{246}R_{356}=R_{356}R_{246}R_{145}R_{123}",
    4: "R_{1234}R_{1567}R_{2589}R_{368,10}R_{479,10}"
    "=R_{479,10}R_{368,10}R_{2589}R_{1567}R_{1234}",
}

H2 = group_algebra(cyclic_group(2))


def normalize_separators(line: str) -> str:
    """Strip the comma typography so only the index content is compared."""
    return line.replace(",", "")


class Criterion:
    def __init__(self, number: int, name: str, budget: float):
        self.name = f"criterion {number}: {name}"
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        ok = exc_type is None and elapsed < self.budget
        record_acceptance(self.name, ok, elapsed, self.budget)
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"{self.name} exceeded its {self.budget}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_equation_catalog_fidelity():
    with Criterion(1, "equation catalog fidelity", 1.0):
        catalog = build_catalog(10)
        for n, expect in KNOWN_POLYGON_LINES.items():
            got = catalog["polygon"][str(n)]
            assert normalize_separators(got) == normalize_separators(expect)
            assert got == expect  # the comma typography matches as well
        for n, expect in KNOWN_SIMPLEX_LINES.items():
            got = catalog["simplex"][str(n)]
            assert normalize_separators(got) == normalize_separators(expect)
            assert got == expect


def test_criterion_2_cross_generator_equivalence():
    with Criterion(2, "cross-generator equivalence", 5.0):
        for n in range(3, 11):
            a_rows, b_rows = polygon_recursion_rows(n)
            lhs, rhs = compile_polygon(n)
            assert [r for _, r in flatten(lhs)] == a_rows
            assert [r for _, r in flatten(rhs)] == list(reversed(b_rows))
            dual_lhs, dual_rhs = compile_polygon(n, dual=True)
            if n % 2 == 0:
                a_rows = [r + (r[-1] + 1,) for r in a_rows]
                b_rows = [r + (r[-1] + 1,) for r in b_rows]
            assert [r for _, r in flatten(dual_lhs)] == list(reversed(a_rows))
            assert [r for _, r in flatten(dual_rhs)] == b_rows
        for n in range(1, 5):
            rows = list(simplex_indices(n))
            lhs, rhs = compile_simplex(n)
            assert [r for _, r in flatten(lhs)] == rows
            assert [r for _, r in flatten(rhs)] == list(reversed(rows))
        for n in range(3, 10, 2):
            k = (n - 1) // 2
            d_m, e_m, f_m, g_m = mixed_indices(n)
            lhs, rhs = compile_mixed(n)
            expect_lhs, expect_rhs = [], []
            for i in range(k, -1, -1):
                expect_lhs.append(("T", d_m[i]))
                if i > 0:
                    expect_lhs.append(("S", e_m[i - 1]))
            for i in range(k + 1):
                expect_rhs.append(("S", f_m[i]))
                if i < k:
                    expect_rhs.append(("T", g_m[i]))
            assert flatten(lhs) == expect_lhs
            assert flatten(rhs) == expect_rhs


def test_criterion_3_pentagon_pipeline():
    with Criterion(3, "pentagon pipeline over k[Z2]", 60.0):
        t_desc, s_desc = hopf_pentagon_pair(H2, verify=False)
        t, s = t_desc.tensor, s_desc.tensor
        assert check_polygon(t, 5).holds
        assert check_polygon(s, 5, dual=True).holds
        relations = check_relations_1_6(t, s)
        assert relations.holds and all(relations.details[str(i)] for i in range(1, 7))
        assert check_mixed(t, s, 5).holds

        r4 = simplex_from_mixed(t_desc, s_desc, drop="one", verify=False)
        report4 = check_simplex(r4.tensor, 4)  # both sides live on V^(x)10
        assert report4.holds
        assert report4.lhs_dims == (2, 10, 10)

        r3 = simplex_from_mixed(t_desc, s_desc, drop="two", verify=False)
        assert check_simplex(r3.tensor, 3).holds
        assert r3.tensor == partial_trace_left(r4.tensor)

        # entrywise actions of the published closed forms, all 2^k basis vectors
        for g, h in product(range(2), repeat=2):
            assert t.entry((g, (g + h) % 2), (g, h)) == 1
            assert s.entry((g, (h - g) % 2), (g, h)) == 1
        for x, y, z, w in product(range(2), repeat=4):
            expect = (y, x, (y + w) % 2, (z - x) % 2)
            assert r4.tensor.entry(expect, (x, y, z, w)) == 1
        for x, y, z in product(range(2), repeat=3):
            expect = (x, (z - x) % 2, (x + y) % 2)
            assert r3.tensor.entry(expect, (x, y, z)) == 1


def test_criterion_4_stacked_mixed_pair_and_descent():
    with Criterion(4, "stacked mixed 7-gon pair and trace descent", 120.0):
        t_desc, s_desc = hopf_pentagon_pair(H2, verify=False)
        t7, s7 = higher_mixed_pair(2, t_desc.tensor, s_desc.tensor, verify=False)
        assert t7.order == 7 and s7.order == 7
        assert check_polygon(t7.tensor, 7).holds
        assert check_polygon(s7.tensor, 7, dual=True).holds
        assert check_mixed(t7.tensor, s7.tensor, 7).holds
        # the 6- and 5-simplex constructions are out of desk scale (V^(x)21);
        # the descent loop is closed by tracing the pair back down instead
        t5, s5 = trace_descend_mixed(t7, s7, verify=False)
        assert t5.order == 5 and s5.order == 5
        assert check_mixed(t5.tensor, s5.tensor, 5).holds


def test_criterion_5_stacking_arithmetic():
    with Criterion(5, "stacking arithmetic and order offsets", 300.0):
        t_desc, s_desc = hopf_pentagon_pair(H2, verify=False)
        delta4 = SolutionDescriptor("polygon", 4, H2.coproduct)
        mult4 = SolutionDescriptor("dual-polygon", 4, H2.product)

        # offset -2: odd-with-odd partial composition (7-gon)
        seven = stack(t_desc, t_desc, "compose_left", verify=False)
        assert seven.order == 7
        assert check_polygon(seven.tensor, 7).holds

        # offset -2 again one level up: the 8-gon tower
        eight = stack(seven, delta4, "compose_left", verify=False)
        assert eight.order == 8
        assert check_polygon(eight.tensor, 8).holds

        # offset 0: tensor square lands on the 9-gon (acts on V^(x)10)
        nine = stack(t_desc, t_desc, "tensor", verify=False)
        assert nine.order == 9
        report9 = check_polygon(nine.tensor, 9)
        assert report9.holds
        assert report9.lhs_dims == (2, 10, 10)

        # offset -3: even-with-odd partial composition (6-gon both ways)
        six = stack(delta4, s_desc, "compose_right", verify=False)
        assert six.order == 6
        assert check_polygon(six.tensor, 6).holds
        six_dual = stack(mult4, t_desc, "compose_left", verify=False)
        assert six_dual.order == 6
        assert check_polygon(six_dual.tensor, 6, dual=True).holds

        # offset -1: even-with-odd tensor product (8-gon)
        eight_tensor = stack(delta4, s_desc, "tensor", verify=False)
        assert eight_tensor.order == 8
        assert check_polygon(eight_tensor.tensor, 8).holds


def test_criterion_6_set_theoretic_corollary():
    with Criterion(6, "set-theoretic lifting constructions at |X| = 2", 60.0):
        base = 2
        plain = [
            (4, True, 2, lift_dual_even_to_odd),
            (3, False, 1, lift_odd_to_even),
            (3, True, 1, lift_dual_odd_to_even),
        ]
        pinned = [
            (4, True, 2, lift_dual_even_to_odd_pinned),
            (3, False, 1, lift_odd_to_even_pinned),
            (3, True, 1, lift_dual_odd_to_even_pinned),
        ]
        for n, dual, k, lift in plain:
            sources = enumerate_set_solutions(n, base, dual)
            assert sources, f"no sources for n={n} dual={dual}"
            for source in sources:
                assert lift(source, k).report.holds
        fixed_seen = broken_seen = False
        for n, dual, k, lift in pinned:
            for source in enumerate_set_solutions(n, base, dual):
                for u in range(base):
                    outcome = lift(source, u, k)
                    # iff, in both directions
                    assert outcome.report.holds == outcome.fixed_point_ok
                    fixed_seen = fixed_seen or outcome.fixed_point_ok
                    broken_seen = broken_seen or not outcome.fixed_point_ok
        assert fixed_seen and broken_seen  # both directions genuinely exercised


def test_criterion_7_transform_closure():
    with Criterion(7, "transform closure for single solutions", 30.0):
        t_desc, _ = hopf_pentagon_pair(H2, verify=False)

        # (1) inverse swaps primal and dual; applying it twice returns
        dual = invert_to_dual(t_desc)
        assert dual.family == "dual-polygon"
        assert check_polygon(dual.tensor, 5, dual=True).holds
        assert invert_to_dual(dual).tensor == t_desc.tensor

        # (2) conjugation by an automorphism of V
        phi = Tensor(2, 1, 1, {((0,), (0,)): 1, ((1,), (1,)): 3})
        conj = conjugate(t_desc, phi)
        assert check_polygon(conj.tensor, 5).holds

        # (3) odd reversal conjugation lands in the dual family, involutively
        rev = bar_sigma_conjugate(t_desc)
        assert rev.family == "dual-polygon"
        assert check_polygon(rev.tensor, 5, dual=True).holds
        assert bar_sigma_conjugate(rev).tensor == t_desc.tensor

        # (4) even reversal stays in its family
        from polysimplex.construct import bialgebra_tower

        tower6 = bialgebra_tower(6, H2, verify=False)
        rev6 = bar_sigma_conjugate(tower6)
        assert rev6.family == "polygon" and rev6.order == 6
        assert check_polygon(rev6.tensor, 6).holds

        # (5) trace descent from the 7-gon tower, and 1/dim is necessary
        tower7 = bialgebra_tower(7, H2, verify=False)
        for side in ("left", "right"):
            descended = trace_descend(tower7, side)
            assert descended.order == 5
            assert check_polygon(descended.tensor, 5).holds
        unnormalized = partial_trace_left(tower7.tensor)
        assert not check_polygon(unnormalized, 5).holds
