"""Multi-index matrices of the polygon, simplex and mixed-relation families.

All matrices are produced by unrolling their two-term recursions from the
base case at order 3.  A matrix is a tuple of rows, each a strictly
increasing tuple of indices from 1 up naming the tensor factors its
operator acts on.
"""

from __future__ import annotations

from .tensor import ShapeError

Row = tuple[int, ...]
Matrix = tuple[Row, ...]


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


def polygon_indices(n: int) -> tuple[Matrix, Matrix]:
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
    return tuple(a_rows), tuple(reversed(b_rows))


def polygon_recursion_rows(n: int) -> tuple[list[Row], list[Row]]:
    """(A, B) rows in recursion order a_1..  and b_1.. (B not reversed)."""
    a, b = polygon_indices(n)
    return list(a), list(reversed(b))


def simplex_indices(n: int) -> Matrix:
    """The matrix A_(2n+1) indexing the n-simplex equation."""
    if n < 1:
        raise ShapeError(f"no {n}-simplex equation; n must be >= 1")
    return tuple(_odd_a_rows(n))


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


def mixed_indices(n: int) -> tuple[Matrix, Matrix, Matrix, Matrix]:
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
    return tuple(_mixed_d_rows(k)), tuple(e_rows), tuple(_mixed_f_rows(k)), tuple(g_rows)


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


def _written(lhs, rhs) -> str:
    """The equation of the ``(map, row)`` factors of each side, in written order."""
    return "=".join("".join(f"{s}_{{{format_subscript(r)}}}" for s, r in side) for side in (lhs, rhs))


def polygon_equation(n: int, dual: bool = False) -> str:
    a_rows, b_rows = polygon_recursion_rows(n)
    lhs, rhs = (a_rows[::-1], b_rows) if dual else (a_rows, b_rows[::-1])
    return _written([("T", r) for r in lhs], [("T", r) for r in rhs])


def simplex_equation(n: int) -> str:
    rows = simplex_indices(n)
    return _written([("R", r) for r in rows], [("R", r) for r in reversed(rows)])


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
    return _written(*mixed_sequences(n))
