"""Decision procedures for every equation family.

The polygon, simplex and mixed checks take both sides of their equation
from the simplicial compiler and contract each with
:func:`polysimplex.tensor.contract_staged`, through
:func:`polysimplex.simplicial.evaluate_program`; the relations (1)-(6)
are fixed placement words fed to the same evaluator.  The two side
tensors are compared entrywise, reporting the largest deviation at the
lexicographically first key as a witness.  Exact rings decide equality
exactly; the float ring compares within its global absolute tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .indices import mixed_sequences
from .simplicial import compile_mixed, compile_polygon, compile_simplex, evaluate_program, flatten
from .tensor import (
    LegPermutation,
    ShapeError,
    Tensor,
    compose,
    contract_staged,
    deviation,
    permutation_tensor,
    tensor_power,
)


class PreconditionFailed(ValueError):
    """A construction was fed inputs that fail its required hypotheses."""


class SelfCheckFailed(RuntimeError):
    """A constructed solution failed its own verifier (internal error)."""


@dataclass
class VerificationReport:
    """Outcome of one equation check."""

    equation: str
    holds: bool
    max_deviation: object
    lhs_dims: tuple[int, int, int]
    rhs_dims: tuple[int, int, int]
    witness: Optional[dict] = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        data = {
            "equation": self.equation,
            "holds": self.holds,
            "max_deviation": str(self.max_deviation),
            "lhs_dims": list(self.lhs_dims),
            "rhs_dims": list(self.rhs_dims),
        }
        if self.witness is not None:
            data["witness"] = self.witness
        if self.details:
            data["details"] = {k: bool(v) for k, v in self.details.items()}
        return data


def compare_sides(equation: str, lhs: Tensor, rhs: Tensor) -> VerificationReport:
    worst = deviation(lhs, rhs)
    if worst is None:
        return VerificationReport(equation, True, 0, lhs.shape, rhs.shape)
    mag, (out, inp) = worst
    witness = {
        "out": list(out),
        "in": list(inp),
        "lhs": lhs.ring.format(lhs.entry(out, inp)),
        "rhs": rhs.ring.format(rhs.entry(out, inp)),
    }
    return VerificationReport(equation, False, mag, lhs.shape, rhs.shape, witness)


def polygon_signature(n: int, dual: bool) -> tuple[int, int]:
    """(in_legs, out_legs) demanded of a (dual) n-gon solution."""
    if n < 3:
        raise ShapeError(f"no {n}-gon equation; n must be >= 3")
    if n % 2:
        k = (n - 1) // 2
        return (k, k)
    k = n // 2
    return (k, k - 1) if dual else (k - 1, k)


def check_polygon(t: Tensor, n: int, dual: bool = False) -> VerificationReport:
    """Does t satisfy the (dual) n-gon equation?"""
    want = polygon_signature(n, dual)
    if (t.in_legs, t.out_legs) != want:
        raise ShapeError(
            f"{'dual ' if dual else ''}{n}-gon needs signature {want[0]}->{want[1]}, "
            f"got {t.in_legs}->{t.out_legs}"
        )
    maps = {"S" if dual else "T": t}
    lhs, rhs = (evaluate_program(side, maps, t.dim, t.ring) for side in compile_polygon(n, dual))
    name = f"dual {n}-gon" if dual else f"{n}-gon"
    return compare_sides(name, lhs, rhs)


def check_simplex(r: Tensor, n: int) -> VerificationReport:
    """Does r satisfy the n-simplex equation?"""
    if (r.in_legs, r.out_legs) != (n, n):
        raise ShapeError(
            f"{n}-simplex needs signature {n}->{n}, got {r.in_legs}->{r.out_legs}"
        )
    lhs, rhs = (evaluate_program(side, {"R": r}, r.dim, r.ring) for side in compile_simplex(n))
    return compare_sides(f"{n}-simplex", lhs, rhs)


def check_mixed(t: Tensor, s: Tensor, n: int) -> VerificationReport:
    """Do (t, s) satisfy the mixed relation at order n?

    t must solve-shape the n-gon and s the dual n-gon.  For odd n the
    compiled placements must coincide with the closed-form index matrices
    (one evaluator contracts both, so equal placements mean equal sides);
    even n only exists through the compiled program.
    """
    want_t = polygon_signature(n, dual=False)
    want_s = polygon_signature(n, dual=True)
    if (t.in_legs, t.out_legs) != want_t or (s.in_legs, s.out_legs) != want_s:
        raise ShapeError(
            f"mixed relation at n={n} needs T:{want_t[0]}->{want_t[1]} and "
            f"S:{want_s[0]}->{want_s[1]}, got T:{t.in_legs}->{t.out_legs}, "
            f"S:{s.in_legs}->{s.out_legs}"
        )
    if t.dim != s.dim or t.ring != s.ring:
        raise ShapeError("mixed pair must share dimension and ring")
    programs = compile_mixed(n)
    if n % 2 and [flatten(side) for side in programs] != list(mixed_sequences(n)):
        raise ShapeError(
            "internal disagreement between index-matrix and compiled "
            f"placements of the {n}-gon mixed relation"
        )
    maps = {"T": t, "S": s}
    lhs, rhs = (evaluate_program(side, maps, t.dim, t.ring) for side in programs)
    return compare_sides(f"{n}-gon mixed relation", lhs, rhs)


def blocks_transpose(d: int, blocks: int, width: int, ring) -> Tensor:
    """Permutation V^(blocks*width) regrouping row-major blocks into columns."""
    image = [0] * (blocks * width)
    for r in range(blocks):
        for c in range(width):
            image[r * width + c] = c * blocks + r + 1
    return permutation_tensor(d, LegPermutation(tuple(image)), ring)


def check_commutes(f: Tensor, g: Tensor) -> VerificationReport:
    """The interchange-style commutation that licenses stacking.

    With f: V^k -> V^l on rows and g: V^i -> V^j on columns, one side
    applies f to every row then g to every column, the other applies g to
    every column then f to every row; both are maps V^(ki) -> V^(lj).
    """
    if f.dim != g.dim or f.ring != g.ring:
        raise ShapeError("commutation check needs matching dimension and ring")
    k, l = f.in_legs, f.out_legs
    i, j = g.in_legs, g.out_legs
    if min(k, l, i, j) < 1:
        raise ShapeError("commutation check needs at least one leg per side")
    d, ring = f.dim, f.ring
    lhs = compose(
        blocks_transpose(d, l, j, ring),
        compose(tensor_power(g, l), compose(blocks_transpose(d, i, l, ring), tensor_power(f, i))),
    )
    rhs = compose(
        tensor_power(f, j),
        compose(blocks_transpose(d, k, j, ring), compose(tensor_power(g, k), blocks_transpose(d, i, k, ring))),
    )
    return compare_sides("commutation", lhs, rhs)


RELATIONS_1_6 = {
    # name: (ambient legs, [(tag, row), ...] per side, application order is
    # right-to-left as written)
    "1": (3, [("T", (1, 3)), ("S", (2, 3))], [("S", (2, 3)), ("T", (1, 3))]),
    "2": (3, [("T", (2, 3)), ("T", (1, 3)), ("S", (1, 2))], [("S", (1, 2)), ("T", (2, 3))]),
    "3": (3, [("T", (1, 2)), ("S", (1, 3)), ("S", (2, 3))], [("S", (2, 3)), ("T", (1, 2))]),
    "4": (4, [("T", (1, 2)), ("S", (1, 3))], [("S", (1, 3)), ("T", (1, 2))]),
    "5": (
        4,
        [("T", (2, 3)), ("S", (3, 4)), ("T", (1, 3)), ("S", (1, 2))],
        [("S", (3, 4)), ("T", (2, 4)), ("S", (1, 2)), ("T", (2, 3))],
    ),
    "6": (
        4,
        [("T", (1, 2)), ("S", (1, 3)), ("T", (3, 4)), ("S", (2, 3))],
        [("S", (2, 3)), ("T", (1, 2)), ("S", (2, 4)), ("T", (3, 4))],
    ),
}


def check_relations_1_6(t: Tensor, s: Tensor) -> VerificationReport:
    """The six compatibility relations sufficient for the mixed relation.

    Relations 1-3 suffice for pentagon pairs; 4-6 are additionally needed
    when stacking the pair to higher odd-gon mixed pairs.
    """
    if (t.in_legs, t.out_legs) != (2, 2) or (s.in_legs, s.out_legs) != (2, 2):
        raise ShapeError("relations (1)-(6) are stated for maps V^2 -> V^2")
    if t.dim != s.dim or t.ring != s.ring:
        raise ShapeError("pair must share dimension and ring")
    maps = {"T": t, "S": s}
    details = {}
    first_failure = None
    worst = 0
    for name, (legs, lhs_seq, rhs_seq) in RELATIONS_1_6.items():
        lhs, rhs = (
            contract_staged([(maps[tag], row) for tag, row in reversed(seq)], legs, t.dim, t.ring)
            for seq in (lhs_seq, rhs_seq)
        )
        report = compare_sides(f"relation ({name})", lhs, rhs)
        details[name] = report.holds
        if not report.holds and first_failure is None:
            first_failure = report
            worst = report.max_deviation
    holds = all(details.values())
    return VerificationReport(
        "relations (1)-(6)",
        holds,
        0 if holds else worst,
        t.shape,
        s.shape,
        witness=None if holds else first_failure.witness,
        details=details,
    )
