"""Sparse multilinear maps V^k -> V^l over a fixed local dimension.

A :class:`Tensor` stores only nonzero entries, keyed by
``(out_digits, in_digits)`` pairs of basis multi-digits.  All solutions
produced in this package are permutation-like (one nonzero per input
column), so sparse storage keeps even the V^(x)10 instances tiny.

Conventions, fixed once here and relied on everywhere:

* leg positions are 1-based, basis digits are 0-based;
* dense exports are row-major with the FIRST leg slowest;
* ``place`` realizes the sweep-composite semantics: legs listed in ``a``
  are gathered to the front in that order, the map is applied, outputs are
  distributed to positions ``b``, and passive legs keep their relative
  order.

:func:`contract_staged` is the one evaluator of staged placements: the
compiled polygon, simplex and mixed sides, the relation words and the
closed-form constructions are lists of ``(map, gather positions)`` steps
pushed through it column by column, with outputs written by the slot
rule of :func:`replace_slots`.  No placed factor is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
import json
from operator import itemgetter

from .rings import RATIONAL, ScalarRing, ring_from_tag

Digits = tuple[int, ...]
EntryKey = tuple[Digits, Digits]


class ShapeError(ValueError):
    """Leg-count, dimension or index mismatch."""


class NotInvertible(ValueError):
    """Raised when an operation requires an invertible tensor."""


@dataclass(frozen=True)
class LegPermutation:
    """A bijection of leg positions; ``image[i-1]`` is where leg i goes."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ShapeError(f"{self.image} is not a permutation of 1..{n}")

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, position: int) -> int:
        return self.image[position - 1]

    def inverse(self) -> "LegPermutation":
        inv = [0] * self.size
        for i, target in enumerate(self.image):
            inv[target - 1] = i + 1
        return LegPermutation(tuple(inv))

    def apply(self, digits: Digits) -> Digits:
        out = [0] * self.size
        for i, x in enumerate(digits):
            out[self.image[i] - 1] = x
        return tuple(out)


@dataclass(frozen=True)
class Tensor:
    """A linear map V^(x)in_legs -> V^(x)out_legs, dim(V) = dim."""

    dim: int
    in_legs: int
    out_legs: int
    entries: dict[EntryKey, object] = field(default_factory=dict)
    ring: ScalarRing = RATIONAL

    def __post_init__(self):
        if self.dim < 1 or self.in_legs < 0 or self.out_legs < 0:
            raise ShapeError("dim must be >= 1 and leg counts >= 0")
        clean = {}
        for (out, inp), value in self.entries.items():
            out, inp = tuple(out), tuple(inp)
            if len(out) != self.out_legs or len(inp) != self.in_legs:
                raise ShapeError(f"entry key {(out, inp)} has wrong leg counts")
            if any(d < 0 or d >= self.dim for d in out + inp):
                raise ShapeError(f"digit out of range in entry key {(out, inp)}")
            value = self.ring.coerce(value)
            if not self.ring.is_zero(value):
                clean[(out, inp)] = value
        object.__setattr__(self, "entries", clean)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.dim, self.in_legs, self.out_legs)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.ring == other.ring
            and deviation(self, other) is None
        )

    def __hash__(self):
        return hash((self.shape, self.ring.tag, len(self.entries)))

    def entry(self, out: Digits, inp: Digits):
        return self.entries.get((tuple(out), tuple(inp)), self.ring.zero)

    def scale(self, factor) -> "Tensor":
        factor = self.ring.coerce(factor)
        entries = {k: self.ring.mul(factor, v) for k, v in self.entries.items()}
        return Tensor(self.dim, self.in_legs, self.out_legs, entries, self.ring)

    def is_permutation_like(self) -> bool:
        """One entry per input column with value 1 (a basis bijection)."""
        seen_in, seen_out = set(), set()
        for (out, inp), v in self.entries.items():
            if not self.ring.eq(v, self.ring.one):
                return False
            seen_in.add(inp)
            seen_out.add(out)
        full = self.dim**self.in_legs
        return len(self.entries) == full and len(seen_in) == full and len(seen_out) == full

    def to_dense(self) -> list[list]:
        """Nested [row][col] list; rows/cols ranked first-leg-slowest."""
        rows, cols = self.dim**self.out_legs, self.dim**self.in_legs
        dense = [[self.ring.zero] * cols for _ in range(rows)]
        for (out, inp), v in self.entries.items():
            dense[digits_to_rank(out, self.dim)][digits_to_rank(inp, self.dim)] = v
        return dense

    def to_json_dict(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "dim": self.dim,
            "in_legs": self.in_legs,
            "out_legs": self.out_legs,
            "scalar": self.ring.tag,
            "entries": [
                [list(out), list(inp), self.ring.format(v)] for (out, inp), v in items
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "Tensor":
        ring = ring_from_tag(data["scalar"])
        entries = {
            (tuple(out), tuple(inp)): ring.parse(v) for out, inp, v in data["entries"]
        }
        return Tensor(data["dim"], data["in_legs"], data["out_legs"], entries, ring)

    @staticmethod
    def from_json(text: str) -> "Tensor":
        return Tensor.from_json_dict(json.loads(text))

    def __repr__(self):
        return (
            f"Tensor(dim={self.dim}, in_legs={self.in_legs}, "
            f"out_legs={self.out_legs}, nnz={len(self.entries)}, ring={self.ring.tag})"
        )


def digits_to_rank(digits: Digits, d: int) -> int:
    rank = 0
    for x in digits:
        rank = rank * d + x
    return rank


def rank_to_digits(rank: int, d: int, legs: int) -> Digits:
    out = []
    for _ in range(legs):
        rank, r = divmod(rank, d)
        out.append(r)
    return tuple(reversed(out))


def deviation(f: Tensor, g: Tensor):
    """Largest entrywise |f - g|, or None when equal within the ring.

    Exact rings treat any nonzero difference as a deviation; the float ring
    applies its absolute tolerance.  Returns ``(magnitude, key)`` with the
    lexicographically first offending key for reproducible witnesses.
    """
    if f.shape != g.shape or f.ring != g.ring:
        raise ShapeError(f"cannot compare shapes {f.shape} and {g.shape}")
    ring = f.ring
    worst = None
    for key in sorted(set(f.entries) | set(g.entries)):
        diff = ring.add(f.entry(*key), ring.neg(g.entry(*key)))
        if not ring.is_zero(diff):
            mag = ring.magnitude(diff)
            if worst is None or mag > worst[0]:
                worst = (mag, key)
    return worst


def identity_tensor(d: int, legs: int, ring: ScalarRing = RATIONAL) -> Tensor:
    entries = {(t, t): ring.one for t in product(range(d), repeat=legs)}
    return Tensor(d, legs, legs, entries, ring)


def from_function(d: int, in_legs: int, out_legs: int, fn, ring: ScalarRing = RATIONAL) -> Tensor:
    """0/1 tensor of a function on basis multi-digits (the set-map lift)."""
    entries = {}
    for inp in product(range(d), repeat=in_legs):
        out = tuple(fn(inp))
        entries[(out, inp)] = ring.one
    return Tensor(d, in_legs, out_legs, entries, ring)


def permutation_tensor(d: int, perm: LegPermutation, ring: ScalarRing = RATIONAL) -> Tensor:
    return from_function(d, perm.size, perm.size, perm.apply, ring)


def flip(d: int, ring: ScalarRing = RATIONAL) -> Tensor:
    """The transposition x(x)y -> y(x)x on two legs."""
    return permutation_tensor(d, LegPermutation((2, 1)), ring)


def compose(f: Tensor, g: Tensor) -> Tensor:
    """f after g; the shared legs are summed over."""
    if f.dim != g.dim:
        raise ShapeError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.in_legs != g.out_legs:
        raise ShapeError(
            f"cannot compose: f takes {f.in_legs} legs but g emits {g.out_legs}"
        )
    if f.ring != g.ring:
        raise ShapeError(f"ring mismatch: {f.ring.tag} vs {g.ring.tag}")
    ring = f.ring
    by_in: dict[Digits, list] = {}
    for (out, inp), v in f.entries.items():
        by_in.setdefault(inp, []).append((out, v))
    entries: dict[EntryKey, object] = {}
    for (mid, inp), gv in g.entries.items():
        for out, fv in by_in.get(mid, ()):
            key = (out, inp)
            acc = entries.get(key)
            term = ring.mul(fv, gv)
            entries[key] = term if acc is None else ring.add(acc, term)
    return Tensor(f.dim, g.in_legs, f.out_legs, entries, ring)


def tensor_product(f: Tensor, g: Tensor) -> Tensor:
    """Side-by-side product; f's legs come first."""
    if f.dim != g.dim:
        raise ShapeError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.ring != g.ring:
        raise ShapeError(f"ring mismatch: {f.ring.tag} vs {g.ring.tag}")
    ring = f.ring
    entries = {}
    for (fo, fi), fv in f.entries.items():
        for (go, gi), gv in g.entries.items():
            entries[(fo + go, fi + gi)] = ring.mul(fv, gv)
    return Tensor(f.dim, f.in_legs + g.in_legs, f.out_legs + g.out_legs, entries, ring)


def tensor_power(f: Tensor, n: int) -> Tensor:
    if n < 0:
        raise ShapeError("negative tensor power")
    result = identity_tensor(f.dim, 0, f.ring)
    for _ in range(n):
        result = tensor_product(result, f)
    return result


def sweep(i: int, j: int, n: int, d: int, ring: ScalarRing = RATIONAL) -> Tensor:
    """Move factor j to position i, shifting factors i..j-1 right by one."""
    if not (1 <= i <= j <= n):
        raise ShapeError(f"sweep positions must satisfy 1 <= i <= j <= n, got {(i, j, n)}")

    def act(x: Digits) -> Digits:
        lst = list(x)
        val = lst.pop(j - 1)
        lst.insert(i - 1, val)
        return tuple(lst)

    return from_function(d, n, n, act, ring)


def sweep_inverse(i: int, j: int, n: int, d: int, ring: ScalarRing = RATIONAL) -> Tensor:
    if not (1 <= i <= j <= n):
        raise ShapeError(f"sweep positions must satisfy 1 <= i <= j <= n, got {(i, j, n)}")

    def act(x: Digits) -> Digits:
        lst = list(x)
        val = lst.pop(i - 1)
        lst.insert(j - 1, val)
        return tuple(lst)

    return from_function(d, n, n, act, ring)


def _check_multi_index(a, length: int, bound: int, what: str) -> tuple[int, ...]:
    a = tuple(a)
    if len(a) != length:
        raise ShapeError(f"{what} must have {length} entries, got {a}")
    if any(x < 1 or x > bound for x in a):
        raise ShapeError(f"{what} {a} out of range 1..{bound}")
    if any(a[m] >= a[m + 1] for m in range(len(a) - 1)):
        raise ShapeError(f"{what} {a} is not strictly increasing")
    return a


def place(f: Tensor, a, b, n: int) -> Tensor:
    """Embed f into V^(x)n, reading legs ``a`` and writing legs ``b``.

    Equals the sweep composite
    tau_(1,b1)^-1 ... tau_(l,bl)^-1 (f (x) id^(n-k)) tau_(k,ak) ... tau_(1,a1);
    passive legs map to passive output slots preserving relative order.
    """
    k, l = f.in_legs, f.out_legs
    if n < k:
        raise ShapeError(f"ambient leg count {n} smaller than map input {k}")
    a = _check_multi_index(a, k, n, "input index")
    b = _check_multi_index(b, l, n - k + l, "output index")
    return _place_entries(f, a, b, n)


def _place_entries(f: Tensor, a: tuple[int, ...], b: tuple[int, ...], n: int) -> Tensor:
    k, l = f.in_legs, f.out_legs
    d, ring = f.dim, f.ring
    m = n - k + l
    passive_in = [p for p in range(1, n + 1) if p not in set(a)]
    passive_out = [p for p in range(1, m + 1) if p not in set(b)]
    entries: dict[EntryKey, object] = {}
    for (fo, fi), v in f.entries.items():
        for passive in product(range(d), repeat=n - k):
            full_in = [0] * n
            full_out = [0] * m
            for pos, digit in zip(a, fi):
                full_in[pos - 1] = digit
            for pos, digit in zip(passive_in, passive):
                full_in[pos - 1] = digit
            for pos, digit in zip(b, fo):
                full_out[pos - 1] = digit
            for pos, digit in zip(passive_out, passive):
                full_out[pos - 1] = digit
            key = (tuple(full_out), tuple(full_in))
            acc = entries.get(key)
            entries[key] = v if acc is None else ring.add(acc, v)
    return Tensor(d, n, m, entries, ring)


def replace_slots(seq: list, positions, new_items) -> list:
    """The slot rule of staged placement, applied to a list of legs.

    Removes the (possibly unsorted) ``positions`` and writes ``new_items``
    into the sorted slots, with the last slot opening or closing when the
    item count differs by one.
    """
    k, l = len(positions), len(new_items)
    if abs(l - k) > 1:
        raise ShapeError(f"slot replacement needs |out-in| <= 1, got {k}->{l}")
    slots = sorted(positions)
    out = []
    for p, item in enumerate(seq, start=1):
        if p in slots:
            i = slots.index(p)
            if i < min(k, l):
                out.append(new_items[i])
            if i == k - 1 and l == k + 1:
                out.append(new_items[k])
        else:
            out.append(item)
    if k == 0 and l == 1:
        raise ShapeError("cannot place an output without an anchor slot")
    return out


def _tuple_getter(indices):
    """``itemgetter`` that returns a tuple for any number of indices."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    if not indices:
        return lambda seq: ()
    return itemgetter(*indices)


def contract_staged(steps, legs: int, d: int, ring: ScalarRing = RATIONAL) -> Tensor:
    """Compose staged placements on V^(x)legs into one tensor.

    ``steps`` lists ``(f, positions)`` in application order.  Map leg i of
    ``f`` reads the current leg ``positions[i]`` (1-based, in any order);
    the outputs land in the sorted consumed slots by the rule of
    :func:`replace_slots`.  Each basis column is pushed through the steps
    as a sparse vector, so no placed factor is ever built; the result
    equals composing the placed factors one after another.
    """
    plans = []
    n = legs
    for f, positions in steps:
        positions = tuple(positions)
        k = f.in_legs
        if f.dim != d or f.ring != ring:
            raise ShapeError("map dimension/ring does not match the staged evaluation")
        if len(positions) != k or len(set(positions)) != k:
            raise ShapeError(f"gather positions {positions} must be {k} distinct legs")
        if any(p < 1 or p > n for p in positions):
            raise ShapeError(f"gather positions {positions} out of range 1..{n}")
        by_in: dict[Digits, list] = {}
        for (out, inp), v in f.entries.items():
            by_in.setdefault(inp, []).append((out, v))
        # New leg j takes old leg layout[j] < n, or map output layout[j] - n.
        layout = replace_slots(list(range(n)), positions, list(range(n, n + f.out_legs)))
        plans.append((_tuple_getter([p - 1 for p in positions]), by_in, _tuple_getter(layout)))
        n = len(layout)
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    entries: dict[EntryKey, object] = {}
    for column in product(range(d), repeat=legs):
        vec = {column: ring.one}
        for read, by_in, write in plans:
            nxt: dict[Digits, object] = {}
            for state, c in vec.items():
                for out, v in by_in.get(read(state), ()):
                    key = write(state + out)
                    acc = nxt.get(key)
                    term = mul(v, c)
                    nxt[key] = term if acc is None else add(acc, term)
            vec = {key: c for key, c in nxt.items() if not is_zero(c)}
        for state, c in vec.items():
            entries[(state, column)] = c
    return Tensor(d, legs, n, entries, ring)


def partial_trace_left(f: Tensor) -> Tensor:
    if f.in_legs < 1 or f.out_legs < 1:
        raise ShapeError("partial trace needs at least one leg on each side")
    ring = f.ring
    entries: dict[EntryKey, object] = {}
    for (out, inp), v in f.entries.items():
        if out[0] == inp[0]:
            key = (out[1:], inp[1:])
            acc = entries.get(key)
            entries[key] = v if acc is None else ring.add(acc, v)
    return Tensor(f.dim, f.in_legs - 1, f.out_legs - 1, entries, ring)


def partial_trace_right(f: Tensor) -> Tensor:
    if f.in_legs < 1 or f.out_legs < 1:
        raise ShapeError("partial trace needs at least one leg on each side")
    ring = f.ring
    entries: dict[EntryKey, object] = {}
    for (out, inp), v in f.entries.items():
        if out[-1] == inp[-1]:
            key = (out[:-1], inp[:-1])
            acc = entries.get(key)
            entries[key] = v if acc is None else ring.add(acc, v)
    return Tensor(f.dim, f.in_legs - 1, f.out_legs - 1, entries, ring)


def permute_legs(f: Tensor, sigma_out: LegPermutation, sigma_in: LegPermutation) -> Tensor:
    """Relabel legs: leg i moves to position image[i] on each side."""
    if sigma_out.size != f.out_legs or sigma_in.size != f.in_legs:
        raise ShapeError(
            f"permutation sizes {(sigma_out.size, sigma_in.size)} do not match "
            f"legs {(f.out_legs, f.in_legs)}"
        )
    entries = {
        (sigma_out.apply(out), sigma_in.apply(inp)): v
        for (out, inp), v in f.entries.items()
    }
    return Tensor(f.dim, f.in_legs, f.out_legs, entries, f.ring)


def partial_compose_left(x: Tensor, y: Tensor, overlap: int = 1) -> Tensor:
    """x on the top-left, y on the bottom-right, sharing ``overlap`` legs.

    The last ``overlap`` inputs of x consume the first ``overlap`` outputs
    of y.  One shared leg is the partial composition used by the stacking
    results and the bialgebra towers.
    """
    if overlap < 0 or overlap > min(x.in_legs, y.out_legs):
        raise ShapeError(f"overlap {overlap} impossible for {x.shape} o_l {y.shape}")
    top = tensor_product(x, identity_tensor(x.dim, y.out_legs - overlap, x.ring))
    bottom = tensor_product(identity_tensor(x.dim, x.in_legs - overlap, x.ring), y)
    return compose(top, bottom)


def partial_compose_right(x: Tensor, y: Tensor, overlap: int = 1) -> Tensor:
    """x on the bottom-left, y on the top-right, sharing ``overlap`` legs."""
    if overlap < 0 or overlap > min(x.out_legs, y.in_legs):
        raise ShapeError(f"overlap {overlap} impossible for {x.shape} o_r {y.shape}")
    top = tensor_product(identity_tensor(x.dim, x.out_legs - overlap, x.ring), y)
    bottom = tensor_product(x, identity_tensor(x.dim, y.in_legs - overlap, x.ring))
    return compose(top, bottom)


def regroup(f: Tensor, block: int) -> Tensor:
    """Reinterpret consecutive blocks of legs as single legs of dim^block."""
    if f.in_legs % block or f.out_legs % block:
        raise ShapeError(f"leg counts {f.shape} not divisible by block {block}")

    def pack(digits: Digits) -> Digits:
        return tuple(
            digits_to_rank(digits[i : i + block], f.dim)
            for i in range(0, len(digits), block)
        )

    entries = {(pack(out), pack(inp)): v for (out, inp), v in f.entries.items()}
    return Tensor(f.dim**block, f.in_legs // block, f.out_legs // block, entries, f.ring)


def invert(f: Tensor) -> Tensor:
    """Exact inverse via Gaussian elimination on the dense matrix."""
    if f.in_legs != f.out_legs:
        raise NotInvertible(f"non-square signature {f.in_legs}->{f.out_legs}")
    ring = f.ring
    size = f.dim**f.in_legs
    m = f.to_dense()
    aug = [list(row) + [ring.one if i == j else ring.zero for j in range(size)]
           for i, row in enumerate(m)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if not ring.is_zero(aug[r][col])), None)
        if pivot is None:
            raise NotInvertible("tensor is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = ring.invert(aug[col][col])
        aug[col] = [ring.mul(inv_p, v) for v in aug[col]]
        for r in range(size):
            if r != col and not ring.is_zero(aug[r][col]):
                factor = aug[r][col]
                aug[r] = [
                    ring.add(aug[r][c], ring.neg(ring.mul(factor, aug[col][c])))
                    for c in range(2 * size)
                ]
    entries: dict[EntryKey, object] = {}
    for i in range(size):
        for j in range(size):
            v = aug[i][size + j]
            if not ring.is_zero(v):
                out = rank_to_digits(i, f.dim, f.out_legs)
                inp = rank_to_digits(j, f.dim, f.in_legs)
                entries[(out, inp)] = v
    return Tensor(f.dim, f.in_legs, f.out_legs, entries, ring)


def is_invertible(f: Tensor) -> bool:
    try:
        invert(f)
        return True
    except NotInvertible:
        return False
