"""Index matrices and rendered equations, frozen to the published catalog."""

from itertools import product

import pytest

from oracle import bar_sigma, compose, flip, permutation_tensor
from polysimplex.indices import (
    format_subscript,
    mixed_equation,
    mixed_indices,
    polygon_equation,
    polygon_indices,
    polygon_recursion_rows,
    simplex_equation,
    simplex_indices,
)
from polysimplex.tensor import ShapeError, identity_tensor

# The 3- through 10-gon equations exactly as published.
KNOWN_POLYGON_EQUATIONS = {
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

KNOWN_SIMPLEX_EQUATIONS = {
    1: "R_{1}R_{1}=R_{1}R_{1}",
    2: "R_{12}R_{13}R_{23}=R_{23}R_{13}R_{12}",
    3: "R_{123}R_{145}R_{246}R_{356}=R_{356}R_{246}R_{145}R_{123}",
    4: "R_{1234}R_{1567}R_{2589}R_{368,10}R_{479,10}"
    "=R_{479,10}R_{368,10}R_{2589}R_{1567}R_{1234}",
}


class TestPolygonIndices:
    def test_pentagon(self):
        a, b = polygon_indices(5)
        assert a == ((1, 2), (1, 3), (2, 3))
        assert b == ((2, 3), (1, 2))

    def test_octagon(self):
        a, b = polygon_indices(8)
        assert a == ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))
        assert b == ((4, 7, 9), (3, 6, 8), (2, 5, 6), (1, 2, 3))

    def test_triangle(self):
        a, b = polygon_indices(3)
        assert a == ((1,), (1,))
        assert b == ((1,),)

    def test_rejects_small_n(self):
        with pytest.raises(ShapeError):
            polygon_indices(2)

    def test_shapes_and_bounds_up_to_11(self):
        for n in range(3, 12):
            a, b = polygon_indices(n)
            k = (n - 1) // 2 if n % 2 else n // 2
            if n % 2:
                assert len(a) == k + 1 and all(len(r) == k for r in a)
                assert len(b) == k and all(len(r) == k for r in b)
                bound = k * (k + 1) // 2
                assert all(x <= bound for r in a for x in r)
            else:
                assert len(a) == k and all(len(r) == k - 1 for r in a)
                assert len(b) == k and all(len(r) == k - 1 for r in b)
            if n >= 5:
                # the 3-gon's A is [1; 1] by construction, so distinctness
                # of rows only starts at the pentagon
                assert len(set(a)) == len(a)
                assert len(set(b)) == len(b)

    def test_even_matrices_derive_from_odd_neighbours(self):
        for k in range(2, 6):
            a_even, b_even = polygon_indices(2 * k)
            a_prev, _ = polygon_indices(2 * k - 1)
            _, b_next = polygon_indices(2 * k + 1)
            assert a_even == a_prev
            assert b_even == tuple(r[:-1] for r in b_next)

    def test_recursion_rows_orientation(self):
        a_rows, b_rows = polygon_recursion_rows(5)
        assert a_rows == [(1, 2), (1, 3), (2, 3)]
        assert b_rows == [(1, 2), (2, 3)]


class TestSimplexIndices:
    def test_yang_baxter(self):
        assert simplex_indices(2) == ((1, 2), (1, 3), (2, 3))

    def test_tetrahedron(self):
        assert simplex_indices(3) == ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))

    def test_one_simplex(self):
        assert simplex_indices(1) == ((1,), (1,))

    def test_matches_odd_polygon_up_to_5(self):
        for n in range(1, 6):
            a, _ = polygon_indices(2 * n + 1)
            assert simplex_indices(n) == a

    def test_rejects_n_zero(self):
        with pytest.raises(ShapeError):
            simplex_indices(0)


class TestMixedIndices:
    def test_base_case(self):
        d, e, f, g = mixed_indices(3)
        assert d == ((1,), (1,))
        assert e == ((1,),)
        assert f == ((1,), (1,))
        assert g == ((1,),)

    def test_pentagon_case(self):
        d, e, f, g = mixed_indices(5)
        assert d == ((1, 2), (1, 4), (3, 4))
        assert e == ((1, 3), (2, 4))
        assert f == ((1, 3), (1, 4), (2, 4))
        assert g == ((1, 2), (3, 4))

    def test_heptagon_case(self):
        _, e, _, g = mixed_indices(7)
        assert e == ((1, 4, 5), (2, 6, 8), (3, 7, 9))
        assert g == ((1, 2, 3), (4, 6, 7), (5, 8, 9))

    def test_g_is_e_transposed_up_to_11(self):
        for n in range(3, 12, 2):
            _, e, _, g = mixed_indices(n)
            k = len(e)
            assert all(g[i][j] == e[j][i] for i in range(k) for j in range(k))

    def test_shapes(self):
        for n in range(3, 12, 2):
            d, e, f, g = mixed_indices(n)
            k = (n - 1) // 2
            assert (len(d), len(e), len(f), len(g)) == (k + 1, k, k + 1, k)
            assert all(len(r) == k for m in (d, e, f, g) for r in m)
            assert all(x <= k * k for m in (d, e, f, g) for r in m for x in r)

    def test_rejects_even_and_small(self):
        with pytest.raises(ShapeError):
            mixed_indices(4)
        with pytest.raises(ShapeError):
            mixed_indices(1)


class TestBarSigma:
    def test_single_leg_is_identity(self):
        assert bar_sigma(1, 2) == identity_tensor(2, 1)

    def test_two_legs_is_flip(self):
        assert bar_sigma(2, 2) == flip(2)

    def test_three_legs_reverses_basis(self):
        # Oracle: compose the transpositions (1 3) explicitly.
        sigma = bar_sigma(3, 2)
        for a, b, c in product(range(2), repeat=3):
            assert sigma.entry((c, b, a), (a, b, c)) == 1

    def test_composite_of_transpositions(self):
        # bar_sigma_k equals the product of swaps (i, k+1-i).
        for k in range(1, 6):
            expect = identity_tensor(2, k)
            for i in range(1, k // 2 + 1):
                image = list(range(1, k + 1))
                image[i - 1], image[k - i] = image[k - i], image[i - 1]
                expect = compose(permutation_tensor(2, tuple(image)), expect)
            assert bar_sigma(k, 2) == expect

    def test_involution(self):
        for k in range(1, 6):
            assert compose(bar_sigma(k, 2), bar_sigma(k, 2)) == identity_tensor(2, k)


class TestRendering:
    def test_polygon_catalog_lines(self):
        for n, expect in KNOWN_POLYGON_EQUATIONS.items():
            assert polygon_equation(n) == expect

    def test_simplex_catalog_lines(self):
        for n, expect in KNOWN_SIMPLEX_EQUATIONS.items():
            assert simplex_equation(n) == expect

    def test_dual_pentagon(self):
        assert polygon_equation(5, dual=True) == "T_{23}T_{13}T_{12}=T_{12}T_{23}"

    def test_mixed_pentagon_line(self):
        assert mixed_equation(5) == (
            "T_{34}S_{24}T_{14}S_{13}T_{12}" "=S_{13}T_{12}S_{14}T_{34}S_{24}"
        )

    def test_mixed_triangle_line(self):
        assert mixed_equation(3) == "T_{1}S_{1}T_{1}=S_{1}T_{1}S_{1}"

    def test_subscript_comma_rule(self):
        assert format_subscript((3, 6, 8, 10)) == "368,10"
        assert format_subscript((5, 9, 12, 14)) == "59,12,14"
        assert format_subscript((1, 2, 3, 4)) == "1234"

    def test_rows_increase_from_one(self):
        """Every row of every index matrix is strictly increasing and starts at 1 or more."""
        matrices = [m for n in range(3, 16) for m in polygon_indices(n)]
        matrices += [simplex_indices(n) for n in range(1, 16)]
        matrices += [m for n in range(3, 16, 2) for m in mixed_indices(n)]
        for rows in matrices:
            assert isinstance(rows, tuple)
            for row in rows:
                assert isinstance(row, tuple) and row[0] >= 1
                assert all(a < b for a, b in zip(row, row[1:]))
