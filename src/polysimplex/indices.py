"""Multi-index matrices of the polygon, simplex and mixed-relation families.

All matrices are produced by unrolling their two-term recursions from the
base case at order 3.  Rows are strictly increasing multi-indices naming
the tensor factors each operator acts on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import RATIONAL, ScalarRing
from .tensor import LegPermutation, ShapeError, Tensor, permutation_tensor

Row = tuple[int, ...]


@dataclass(frozen=True)
class MultiIndexMatrix:
    """Value object holding one of the A, B, D, E, F, G index matrices."""

    rows: tuple[Row, ...]
    kind: str
    order: int

    def __post_init__(self):
        for row in self.rows:
            if any(row[m] >= row[m + 1] for m in range(len(row) - 1)):
                raise ShapeError(f"{self.kind}_{self.order} row {row} not increasing")
            if row and row[0] < 1:
                raise ShapeError(f"{self.kind}_{self.order} row {row} not positive")

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def _unroll(k: int, base: list[Row], head, column, offset) -> list[Row]:
    """Rows at level k of a two-term row recursion, built without recursion.

    Level 1 is ``base``.  Level j >= 2 is the row ``head(j)`` followed by
    rows i >= 1 equal to ``(column(j, i-1),)`` glued onto row i-1 of level
    j-1 shifted by ``offset(j)``.  Row i of level k is read off by walking
    down i levels, so each row costs its own length.
    """
    count = len(base) + k - 1
    rows = []
    for i in range(count):
        level, index, shift, prefix = k, i, 0, []
        while level > 1 and index > 0:
            prefix.append(column(level, index - 1) + shift)
            shift += offset(level)
            level, index = level - 1, index - 1
        tail = base[index] if level == 1 else head(level)
        rows.append(tuple(prefix) + tuple(x + shift for x in tail))
    return rows


def _odd_a_rows(k: int) -> list[Row]:
    # A_3 = [1; 1]; A_(2k+1) prepends the row [1..k] and glues the column
    # (1..k) onto A_(2k-1) + k.
    return _unroll(k, [(1,), (1,)], lambda j: range(1, j + 1), lambda j, i: i + 1, lambda j: j)


def _odd_b_rows(k: int) -> list[Row]:
    # B_3 = [1]; B_(2k+1) prepends [1..k] and glues the column (2..k) onto
    # B_(2k-1) + k.
    return _unroll(k, [(1,)], lambda j: range(1, j + 1), lambda j, i: i + 2, lambda j: j)


def polygon_indices(n: int) -> tuple[MultiIndexMatrix, MultiIndexMatrix]:
    """Index matrices (A, B) of the n-gon equation.

    Rows are listed in the order the corresponding factors appear in the
    rendered primal equation: A left to right on the left-hand side, B left
    to right on the right-hand side (reverse of the recursion order).
    """
    if n < 3:
        raise ShapeError(f"no {n}-gon equation; n must be >= 3")
    if n % 2:
        k = (n - 1) // 2
        a_rows = _odd_a_rows(k)
        b_rows = _odd_b_rows(k)
    else:
        k = n // 2
        a_rows = _odd_a_rows(k - 1) if k > 1 else []
        b_rows = [row[:-1] for row in _odd_b_rows(k)]
    return (
        MultiIndexMatrix(tuple(a_rows), "A", n),
        MultiIndexMatrix(tuple(reversed(b_rows)), "B", n),
    )


def polygon_recursion_rows(n: int) -> tuple[list[Row], list[Row]]:
    """(A, B) rows in recursion order a_1..  and b_1.. (B not reversed)."""
    a, b = polygon_indices(n)
    return list(a.rows), list(reversed(b.rows))


def simplex_indices(n: int) -> MultiIndexMatrix:
    """The matrix A_(2n+1) indexing the n-simplex equation."""
    if n < 1:
        raise ShapeError(f"no {n}-simplex equation; n must be >= 1")
    return MultiIndexMatrix(tuple(_odd_a_rows(n)), "A", 2 * n + 1)


def _mixed_head(j: int) -> Row:
    return (1,) + tuple(range(j + 1, 2 * j))


def _mixed_e_rows(k: int) -> list[Row]:
    return _unroll(k, [(1,)], _mixed_head, lambda j, i: i + 2, lambda j: 2 * j - 1)


def _mixed_d_rows(k: int) -> list[Row]:
    return _unroll(
        k,
        [(1,), (1,)],
        lambda j: range(1, j + 1),
        lambda j, i: 1 if i == 0 else j + i,
        lambda j: 2 * j - 1,
    )


def _mixed_f_rows(k: int) -> list[Row]:
    return _unroll(k, [(1,), (1,)], _mixed_head, lambda j, i: i + 1, lambda j: 2 * j - 1)


def mixed_indices(
    n: int,
) -> tuple[MultiIndexMatrix, MultiIndexMatrix, MultiIndexMatrix, MultiIndexMatrix]:
    """Index matrices (D, E, F, G) of the odd-gon mixed relation.

    Rows are in recursion order (d_1.., e_1.., f_1.., g_1..); G is the
    transpose of E.  The even-gon mixed relation has no closed-form index
    recursion and is produced only by the simplicial compiler.
    """
    if n < 3 or n % 2 == 0:
        raise ShapeError(f"mixed index matrices exist only for odd n >= 3, got {n}")
    k = (n - 1) // 2
    e_rows = _mixed_e_rows(k)
    g_rows = [tuple(e_rows[i][j] for i in range(k)) for j in range(k)]
    return (
        MultiIndexMatrix(tuple(_mixed_d_rows(k)), "D", n),
        MultiIndexMatrix(tuple(e_rows), "E", n),
        MultiIndexMatrix(tuple(_mixed_f_rows(k)), "F", n),
        MultiIndexMatrix(tuple(g_rows), "G", n),
    )


def bar_sigma(k: int, d: int, ring: ScalarRing = RATIONAL) -> Tensor:
    """Order-reversing permutation on k legs (the translation twist)."""
    if k < 1:
        raise ShapeError("bar_sigma needs k >= 1")
    return permutation_tensor(d, LegPermutation(tuple(range(k, 0, -1))), ring)


# -- equation rendering ------------------------------------------------------


def format_subscript(row) -> str:
    """Digits concatenate below 10; an index >= 10 is set off by commas."""
    parts = []
    prev = None
    for x in row:
        if prev is not None and (x >= 10 or prev >= 10):
            parts.append(",")
        parts.append(str(x))
        prev = x
    return "".join(parts)


def _factors(symbol: str, rows) -> str:
    return "".join(f"{symbol}_{{{format_subscript(r)}}}" for r in rows)


def polygon_equation(n: int, dual: bool = False) -> str:
    a_rows, b_rows = polygon_recursion_rows(n)
    if dual:
        return _factors("T", list(reversed(a_rows))) + "=" + _factors("T", b_rows)
    return _factors("T", a_rows) + "=" + _factors("T", list(reversed(b_rows)))


def simplex_equation(n: int) -> str:
    rows = list(simplex_indices(n).rows)
    return _factors("R", rows) + "=" + _factors("R", list(reversed(rows)))


def mixed_sequences(n: int) -> tuple[list, list]:
    """(map, row) per factor of both sides of the odd-gon mixed relation,
    in written (top-to-bottom) order."""
    d, e, f, g = mixed_indices(n)
    k = len(e)
    lhs = []
    for i in range(k, -1, -1):
        lhs.append(("T", d[i]))
        if i > 0:
            lhs.append(("S", e[i - 1]))
    rhs = []
    for i in range(k + 1):
        rhs.append(("S", f[i]))
        if i < k:
            rhs.append(("T", g[i]))
    return lhs, rhs


def mixed_equation(n: int) -> str:
    lhs, rhs = mixed_sequences(n)

    def render(seq):
        return "".join(f"{s}_{{{format_subscript(r)}}}" for s, r in seq)

    return render(lhs) + "=" + render(rhs)
