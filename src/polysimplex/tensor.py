"""Sparse multilinear maps V^k -> V^l over a fixed local dimension.

A :class:`Tensor` stores only nonzero entries, keyed by
``(out_digits, in_digits)`` pairs of basis multi-digits.  Most solutions
produced in this package are basis functions (one entry, equal to one,
per input column), and trace descent divides a few columns among several
entries, so sparse storage keeps even the V^(x)10 instances tiny.

Conventions, fixed once here and relied on everywhere:

* leg positions are 1-based, basis digits are 0-based;
* dense exports are row-major with the FIRST leg slowest.

:func:`contract_staged` is the one evaluator of staged placements: the
compiled polygon, simplex and mixed sides, the relation and Hopf-axiom
words, :func:`compose`, :func:`tensor_product` and the closed-form
constructions are lists of ``(map, gather positions)`` steps pushed
through it column by column, with outputs written by the slot rule of
:func:`replace_slots`, which places a map of any leg counts, and the
final legs optionally read out in another output order.  No placed
factor is ever materialized.
When every map is a basis function (each column it has holds one entry,
equal to one), the steps run as a generated loop-nest kernel in table
mode, with no ring arithmetic, on tables indexed by the mixed-radix rank
of their input digits, each lookup hoisted to the outermost loop that
binds its inputs and tested for a miss.  Other maps run in the push mode
of the same generator (:func:`_push_columns`), which pushes each column
as a sparse vector of states through tables indexed by the same rank, on
native numbers: rationals as integers scaled by each map's least common
denominator, GF(p) as ``int`` reduced mod p, floats as floats.  A table
kernel of both sides of an equation runs them in one nest and yields
every column whose sides are both decided and differ, so one compiled
kernel serves the equation's tensor check in :mod:`polysimplex.verify`,
which decides it on total basis functions without building either side,
its set-theoretic check, and the set enumeration, which prunes on a
partial table.  Both checks run it through :func:`_differing_columns`,
once per dependency cone: the column legs some final leg reads on either side, with every
other leg pinned to 0.  On other maps the tensor checks stream the
pushed columns of both sides, in every ring, so neither route builds a
side.  So the slot rule, the output order and the table key each have
one compiler, the generator.  Every comparison, of two streamed sides or
of two built tensors (``==``), runs in one comparator,
:func:`_stream_sides`.

Validation sits at the trust boundary: ``Tensor(...)``, JSON input and
:func:`from_function` check every key and coerce every value, while the
evaluator's results, already clean and zero-free, are wrapped by the
private ``Tensor._trusted`` without a second pass.  The staged boundary
is :func:`contract_staged`, which checks its steps before they run; the
checks of :mod:`polysimplex.verify` and the Hopf laws stage the words of
their tables, on maps that ``require_signatures`` or ``HopfInstance``
has checked, without that pass.  The generator keeps its own shape
check, since it guards the text that is ``exec``'d.  What the evaluator
reads of a map, its prepared form (the rank table, the output masks of a
total one, and the push table), is derived on first use and kept on the
instance, as ``hopf.check_axioms`` keeps its report, so a tensor's
entries must not change after construction.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import product
import json
from math import gcd, lcm, prod
from operator import or_

from ._record import field, record
from .rings import RATIONAL, FloatRing, PrimeField, RationalRing, ScalarRing, ring_from_tag

Digits = tuple[int, ...]
EntryKey = tuple[Digits, Digits]


class ShapeError(ValueError):
    """Leg-count, dimension or index mismatch."""


class NotInvertible(ValueError):
    """Raised when an operation requires an invertible tensor."""


@record
class Tensor:
    """A linear map V^(x)in_legs -> V^(x)out_legs, dim(V) = dim."""

    dim: int
    in_legs: int
    out_legs: int
    entries: dict[EntryKey, object] = field(default_factory=dict)
    ring: ScalarRing = RATIONAL

    def __post_init__(self):
        # Digits become the ranks that index the kernel's tables, so a bool
        # or float must not pass for an int, even where it equals one.
        shape = self.dim, self.in_legs, self.out_legs
        if not all(map(_is_count, shape)):
            raise ShapeError(f"dim and leg counts {list(shape)} must be integers")
        if self.dim < 1 or self.in_legs < 0 or self.out_legs < 0:
            raise ShapeError("dim must be >= 1 and leg counts >= 0")
        clean = {}
        for (out, inp), value in self.entries.items():
            out, inp = tuple(out), tuple(inp)
            if not all(map(_is_count, out + inp)):
                raise ShapeError(f"entry key {[list(out), list(inp)]} must hold integer digits")
            if len(out) != self.out_legs or len(inp) != self.in_legs:
                raise ShapeError(f"entry key {(out, inp)} has wrong leg counts")
            if any(d < 0 or d >= self.dim for d in out + inp):
                raise ShapeError(f"digit out of range in entry key {(out, inp)}")
            value = self.ring.coerce(value)
            if not self.ring.is_zero(value):
                clean[(out, inp)] = value
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _trusted(cls, dim: int, in_legs: int, out_legs: int, entries: dict, ring: ScalarRing) -> "Tensor":
        """Wrap entries that are already clean: tuple keys of the right
        lengths and digit range, coerced and nonzero values.  Internal
        results only; every outside input goes through ``__init__``."""
        t = object.__new__(cls)
        vars(t).update(dim=dim, in_legs=in_legs, out_legs=out_legs, entries=entries, ring=ring)
        return t

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.dim, self.in_legs, self.out_legs)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.ring == other.ring
            and _stream_sides(_paired_columns(self, other), (1, 1), self.ring)[1] is None
        )

    def __hash__(self):
        return hash((self.shape, self.ring.tag, len(self.entries)))

    def entry(self, out: Digits, inp: Digits):
        return self.entries.get((tuple(out), tuple(inp)), self.ring.zero)

    def scale(self, factor) -> "Tensor":
        factor = self.ring.coerce(factor)
        entries = {k: self.ring.mul(factor, v) for k, v in self.entries.items()}
        return Tensor(self.dim, self.in_legs, self.out_legs, entries, self.ring)

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
        entries = {(tuple(out), tuple(inp)): ring.parse(v) for out, inp, v in data["entries"]}
        return Tensor(data["dim"], data["in_legs"], data["out_legs"], entries, ring)

    @staticmethod
    def from_json(text: str) -> "Tensor":
        return Tensor.from_json_dict(json.loads(text))

    def __repr__(self):
        return (
            f"Tensor(dim={self.dim}, in_legs={self.in_legs}, "
            f"out_legs={self.out_legs}, nnz={len(self.entries)}, ring={self.ring.tag})"
        )

    @cached_property
    def _table(self):
        """Output digits indexed by input rank (None: no entry) when every
        column that has entries holds exactly one, ``ring.one``; else None."""
        one, table = self.ring.one, [None] * self.dim**self.in_legs
        for (out, inp), v in self.entries.items():
            rank = digits_to_rank(inp, self.dim)
            if table[rank] is not None or v != one:
                return None
            table[rank] = out
        return table

    @cached_property
    def _masks(self):
        """The output masks (:func:`_output_masks`) of the rank table when
        it is total, with an entry in every column; else None."""
        if self._table is not None and None not in self._table:
            return _output_masks(self._table, self.dim, self.in_legs, self.out_legs)

    @cached_property
    def _push(self) -> tuple[list, int]:
        """The push table, indexed by input rank, of each column's
        ``[(output digits, coefficient), ...]`` (``()`` where it has no
        entry), and its scale: rationals become integers times their least
        common denominator, the scale; GF(p) and floats keep scale 1."""
        rational = isinstance(self.ring, RationalRing)
        scale = lcm(*(v.denominator for v in self.entries.values())) if rational else 1
        by_rank: dict[int, list] = {}
        for (out, inp), v in self.entries.items():
            by_rank.setdefault(digits_to_rank(inp, self.dim), []).append(
                (out, v.numerator * (scale // v.denominator) if rational else v)
            )
        return [by_rank.get(r, ()) for r in range(self.dim**self.in_legs)], scale


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


def compose(f: Tensor, g: Tensor) -> Tensor:
    """f after g; the shared legs are summed over.  Two staged steps on
    g's input legs: g on all of them, then f on all of g's outputs."""
    if f.dim != g.dim:
        raise ShapeError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.in_legs != g.out_legs:
        raise ShapeError(
            f"cannot compose: f takes {f.in_legs} legs but g emits {g.out_legs}"
        )
    if f.ring != g.ring:
        raise ShapeError(f"ring mismatch: {f.ring.tag} vs {g.ring.tag}")
    steps = [(g, range(1, g.in_legs + 1)), (f, range(1, f.in_legs + 1))]
    return contract_staged(steps, g.in_legs, f.dim, f.ring)


def tensor_product(f: Tensor, g: Tensor) -> Tensor:
    """Side-by-side product; f's legs come first.  Two staged steps: f on
    its leading input legs, then g on the rest.  A 0-input f opens its
    outputs after the last leg, behind g's, so the output order moves
    them first."""
    if f.dim != g.dim:
        raise ShapeError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.ring != g.ring:
        raise ShapeError(f"ring mismatch: {f.ring.tag} vs {g.ring.tag}")
    first = f.out_legs + 1 if f.in_legs else 1
    steps = [(f, range(1, f.in_legs + 1)), (g, range(first, first + g.in_legs))]
    order = None
    if not f.in_legs and g.in_legs:
        order = tuple(range(g.out_legs + 1, g.out_legs + f.out_legs + 1)) + tuple(range(1, g.out_legs + 1))
    return contract_staged(steps, f.in_legs + g.in_legs, f.dim, f.ring, order)


def _place_entries(f: Tensor, a: tuple[int, ...], b: tuple[int, ...], n: int) -> Tensor:
    """f as a full operator on V^(x)n, reading the sorted legs ``a`` and
    writing the sorted legs ``b``; passive legs keep their relative order.

    The evaluator never builds a placed factor: this is the placement
    kernel of the materialized reference in ``tests/oracle.py``, and the
    benchmark tracer binds it by name.
    """
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

    Removes the (possibly unsorted, distinct) ``positions`` and writes
    ``new_items`` into the sorted slots: the first min(k, l) items fill the
    first slots, the items beyond the slot count open right after the last
    slot (after the last leg when there is none), and the slots beyond the
    item count close.
    """
    slots = sorted(positions)
    k, l = len(slots), len(new_items)
    out = list(seq)
    for p, item in zip(slots, new_items):
        out[p - 1] = item
    for p in reversed(slots[l:]):
        del out[p - 1]
    at = slots[-1] if k else len(out)
    out[at:at] = new_items[k:]
    return out


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_shape(legs: int, shape, order=None) -> int:
    """Validate staged placements on ``legs`` legs; return the final leg count.

    ``shape`` lists ``(gather positions, output count)`` per step; the
    output order, if given, must be a tuple of the integers 1..final legs.
    """
    if not _is_count(legs) or legs < 0:
        raise ShapeError(f"leg count {legs!r} must be an integer >= 0")
    n = legs
    for positions, out_count in shape:
        if not all(_is_count(p) for p in positions) or not _is_count(out_count):
            raise ShapeError(f"gather positions {positions!r} and output count {out_count!r} must be integers")
        if len(set(positions)) != len(positions):
            raise ShapeError(f"gather positions {positions} must be {len(positions)} distinct legs")
        if any(p < 1 or p > n for p in positions):
            raise ShapeError(f"gather positions {positions} out of range 1..{n}")
        n += out_count - len(positions)
    if order is not None and not (
        isinstance(order, tuple) and all(map(_is_count, order)) and sorted(order) == list(range(1, n + 1))
    ):
        raise ShapeError(f"output order {order!r} must be a tuple of the integers 1..{n} in some order")
    return n


# CPython refuses more than 20 statically nested blocks; a kernel never
# opens more loops than this, whatever its leg count.
_MAX_LOOPS = 12


def _tuple_source(names) -> str:
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"  # "()" when empty


def _kernel_source(legs: int, sides: tuple, orders: tuple, push: bool = False, exact: bool = False) -> str:
    """Python source of the loop-nest kernel of staged placements.

    ``sides`` holds one shape (push mode, and table mode on one side) or
    two (table mode on both sides of an equation), and ``orders`` the
    output order of each side (None: the final state as it stands).  Leg
    j of the column is the variable ``c<j>``, bound in product order
    (first leg slowest); each map output is a fresh variable ``v<i>``, so
    the slot rule of :func:`replace_slots` and the output order are
    applied to variable names here, once, and no state tuple is indexed
    at run time.  Step ``s`` looks its inputs up in
    ``T<s>`` inside the outermost loop that binds all of them, so its work
    is shared by every column of the inner loops.  Runs of legs with no
    lookup between them share one ``product`` loop, and the outermost loop
    boundaries are merged until at most ``_MAX_LOOPS`` remain.

    Every table is a sequence indexed by the mixed-radix rank of its inputs
    in base ``d`` (first input most significant, as :func:`digits_to_rank`),
    with the weights ``D<w> = d**w`` computed once at kernel entry.  The
    terms of a key bound in outer loops are summed into ``h<s>`` once, in
    the innermost loop that binds them, so every mode's lookup adds only
    the terms of its own loop: ``T<s>[h<s> + v7*D1 + c9]``.

    Table mode reads tables of each column's output digits, with None
    where a map has no entry.  Every lookup tests for a miss, which skips
    the whole block of columns under its loop.  With one side the kernel
    is a generator of ``(final legs, column)`` for every column whose
    lookups all hit; with two it runs both sides in one nest and yields
    ``(column, lhs, rhs)`` for every column, in product order, where both
    sides are decided and their final legs differ.  On total tables an
    equation holds iff it yields nothing; on the search's partial table a
    column counts only where both sides are decided.

    Push mode is a generator over the columns in product order of
    ``(column, {final legs in the output order: c})``, for maps that are
    no basis functions; its tables hold ``(output digits, coefficient)``
    pairs.  Each column starts as the sparse vector ``{column: 1}``, and
    every step pushes each state of the vector through its map's lookup,
    unpacking the state into the names of the legs and packing the next
    state from them.  Colliding terms are merged as they arrive, products
    take the map's coefficient first, and ``settle`` drops the ring's
    zeros after each step, so the values are those of the composed placed
    factors.  With ``exact`` (an exact ring, where a zero pushed on stays
    zero) it runs once per column, after the last step.

    The source is made only of generated names; tables, domains and ``d``
    are arguments of the kernel, never part of the text.
    """
    finals = [_check_shape(legs, shape, order) for shape, order in zip(sides, orders)]
    compare = len(sides) == 2
    if compare and finals[0] != finals[1]:
        raise ShapeError(f"sides end on {finals[0]} and {finals[1]} legs")
    columns = [f"c{j}" for j in range(legs)]
    # The level of a variable is the last leg its value depends on (-1: none).
    level = {c: j for j, c in enumerate(columns)}
    lookups, states, moves = [], [], []
    for shape, order in zip(sides, orders):
        state = columns
        for positions, out_count in shape:
            ins = [state[p - 1] for p in positions]
            outs = [f"v{len(level) + i}" for i in range(out_count)]
            step_level = max((level[v] for v in ins), default=-1)
            level.update(dict.fromkeys(outs, step_level))
            lookups.append((step_level, ins, outs))
            before, state = state, replace_slots(state, positions, outs)
            moves.append((before, state))
        states.append(state if order is None else [state[m - 1] for m in order])
    head = "domains, d, settle" if push else "domains, d"
    lines = [f"def kernel({', '.join([head] + [f'T{s}' for s in range(len(lookups))])}):"]
    if legs:
        lines.append(f"    {', '.join(f'R{j}' for j in range(legs))}, = domains")
    for w in range(1, max((len(ins) for _, ins, _ in lookups), default=0)):
        lines.append(f"    D{w} = {'d' if w == 1 else f'D{w - 1} * d'}")

    def rank_terms(ins):
        """The terms of the mixed-radix rank of the inputs ``ins``."""
        return [f"{v}*D{w}" if w else v for v, w in zip(ins, range(len(ins) - 1, -1, -1))]

    if push:
        lines.append(f"    for column in product({', '.join(f'R{j}' for j in range(legs))}):")
        # With no step the value is one, which a float tolerance >= 1 makes a zero.
        lines.append(f"        vec = {'{column: 1}' if lookups else 'settle({column: 1})'}")
        for s, ((_, ins, outs), (before, after)) in enumerate(zip(lookups, moves)):
            lines.append("        nxt = {}")
            lines.append(f"        for {_tuple_source(before)}, x in vec.items():")
            lines.append(f"            for {_tuple_source(outs)}, y in T{s}[{' + '.join(rank_terms(ins)) or '0'}]:")
            lines.append(f"                k = {_tuple_source(after)}")
            # 0 + x is x for every nonzero float, and a -0.0 sum is a zero either way.
            lines.append("                nxt[k] = nxt.get(k, 0) + y * x")
            lines.append("        vec = nxt" if exact and s < len(lookups) - 1 else "        vec = settle(nxt)")
        lines.append(f"        yield column, {{{_tuple_source(states[0])}: x for {_tuple_source(state)}, x in vec.items()}}")
        return "\n".join(lines) + "\n"

    # Loop boundaries: the last leg, and every leg that completes a lookup's inputs.
    ends = sorted({lvl for lvl, _, _ in lookups if lvl >= 0} | ({legs - 1} if legs else set()))
    ends = ends[-_MAX_LOOPS:]

    def loop_of(lvl):
        """The loop that binds a value of level ``lvl`` (-1: before any loop)."""
        return bisect_left(ends, lvl) if lvl >= 0 else -1

    placed: dict[int, list] = {}
    hoisted: dict[int, list] = {}
    for s, (lvl, ins, outs) in enumerate(lookups):
        loop = loop_of(lvl)
        terms = [(term, loop_of(level[v])) for term, v in zip(rank_terms(ins), ins)]
        key = [term for term, bound in terms if bound == loop]
        outer = [(term, bound) for term, bound in terms if bound < loop]
        if outer:
            sum_loop = max(bound for _, bound in outer)
            hoisted.setdefault(sum_loop, []).append(f"h{s} = {' + '.join(term for term, _ in outer)}")
            key.insert(0, f"h{s}")
        placed.setdefault(loop, []).append((s, " + ".join(key) or "0", outs))

    def emit_lookups(loop):
        pad = "    " * (loop + 2)
        for s, key, outs in placed.get(loop, ()):
            lines.append(f"{pad}o = T{s}[{key}]")
            lines.append(f"{pad}if o is None:")
            lines.append(f"{pad}    {'continue' if loop >= 0 else 'return'}")
            if outs:
                lines.append(f"{pad}{', '.join(outs)}, = o")
        lines.extend(pad + line for line in hoisted.get(loop, ()))

    emit_lookups(-1)
    start = 0
    for loop, end in enumerate(ends):
        pad = "    " * (loop + 1)
        if end == start:
            lines.append(f"{pad}for c{start} in R{start}:")
        else:
            bound = ", ".join(columns[start : end + 1])
            domains = ", ".join(f"R{j}" for j in range(start, end + 1))
            lines.append(f"{pad}for {bound} in product({domains}):")
        emit_lookups(loop)
        start = end + 1
    pad = "    " * (len(ends) + 1)
    column = _tuple_source(columns)
    if not compare:
        lines.append(f"{pad}yield {_tuple_source(states[0])}, {column}")
    else:
        lhs, rhs = (_tuple_source(state) for state in states)
        # Only the legs that can differ are compared; "() != ()" when none can.
        differ = [(a, b) for a, b in zip(*states) if a != b]
        left, right = (_tuple_source([pair[i] for pair in differ]) for i in (0, 1))
        lines.append(f"{pad}if {left} != {right}:")
        lines.append(f"{pad}    yield {column}, {lhs}, {rhs}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=256)
def _staged_kernel(legs: int, sides: tuple, orders: tuple, push: bool = False, exact: bool = False):
    """The compiled kernel of :func:`_kernel_source`, built once per shape."""
    namespace = {"product": product}
    exec(compile(_kernel_source(legs, sides, orders, push, exact), "<staged kernel>", "exec"), namespace)
    return namespace["kernel"]


def _output_masks(table, d: int, k: int, l: int) -> tuple[int, ...]:
    """For each output of a total table of V^k -> V^l (indexed by the rank
    of the input digits, as the table kernel reads it), the bitmask of
    the inputs it depends on: bit i is set when changing input i alone
    changes that output on some row.  On the product domain of a total
    table an output is a function of exactly these inputs."""
    masks = [0] * l
    for i in range(k):
        weight = d ** (k - 1 - i)
        for r, row in enumerate(table):
            # The row that differs from this one only in input i, set to 0.
            pinned = table[r - r // weight % d * weight]
            for j, (a, b) in enumerate(zip(row, pinned)):
                if a != b:
                    masks[j] |= 1 << i
    return tuple(masks)


def _differing_columns(legs: int, sides: tuple, orders, tables, masks: tuple, d: int):
    """The compare driver of an equation on total tables: ``tables`` and
    their output masks ``masks``, one per step, lhs steps first.  None when
    the sides agree over every cone of :func:`_cones`, else the kernel
    over every column, yielding ``(column, lhs, rhs)`` where they differ."""
    kernel = _staged_kernel(legs, sides, orders)
    cones = _cones(legs, sides, orders, masks, d)
    if all(next(kernel(domains, d, *tables), None) is None for domains in cones):
        return None
    return kernel((range(d),) * legs, d, *tables)


@lru_cache(maxsize=256)
def _cones(legs: int, sides: tuple, orders, step_masks: tuple, d: int) -> tuple:
    """Kernel domains that decide a two-sided table kernel on total tables,
    from each step's output masks; cached, since the masks repeat across
    the many checks of one map.

    Final leg i of either side is a function of the column legs in its
    dependency cone (the lhs and rhs dependencies of leg i together), so
    the sides agree on every column iff they agree on the columns that
    vary the cone's legs and pin every other leg to 0.  Returns one domain
    tuple per maximal cone (``range(d)`` on its legs, ``range(1)`` on the
    others), or the full domain when the cones together would run no
    fewer columns.  Every pinned column is a real column, so a difference
    found in any cone is genuine.
    """
    step_masks = iter(step_masks)
    finals = []
    for shape, order in zip(sides, orders):
        state = [1 << j for j in range(legs)]  # the column legs each leg depends on
        for positions, _ in shape:
            ins = [state[p - 1] for p in positions]
            outs = [reduce(or_, (dep for i, dep in enumerate(ins) if mask >> i & 1), 0) for mask in next(step_masks)]
            state = replace_slots(state, positions, outs)
        finals.append(state if order is None else [state[m - 1] for m in order])
    cones = set(map(or_, *finals))
    cones = [c for c in cones if not any(c != other and c & other == c for other in cones)]
    if sum(d ** bin(c).count("1") for c in cones) >= d**legs:
        cones = [(1 << legs) - 1]
    full, pinned = range(d), range(1)
    return tuple(tuple(full if c >> j & 1 else pinned for j in range(legs)) for c in sorted(cones))


def contract_staged(steps, legs: int, d: int, ring: ScalarRing = RATIONAL, order=None) -> Tensor:
    """Compose staged placements on V^(x)legs into one tensor.

    ``steps`` lists ``(f, positions)`` in application order.  Map leg i of
    ``f`` reads the current leg ``positions[i]`` (1-based, in any order);
    the outputs land in the sorted consumed slots by the rule of
    :func:`replace_slots`.  The output order, a tuple, makes leg
    ``order[m]`` of the final state the output leg m+1 (None keeps the
    final state as it stands).  No placed factor is ever built; the
    result equals composing the placed factors, and then the leg
    permutation, one after another.

    This is the staged boundary: every map must have dimension ``d`` and
    ring ``ring`` and read as many distinct legs in range as it has
    inputs, and ``order`` must permute the final legs, or
    :class:`ShapeError` is raised before anything runs.

    When every map is a basis function on the columns it has, the steps
    run as a generated loop nest over the columns in product order, with
    every leg a local variable and each map's lookup table, indexed by the
    rank of its input digits (``Tensor._table``), read in the
    outermost loop that binds its inputs, so one lookup serves a whole
    block of columns and a missing input drops that block.  Runs of legs
    without a lookup share one loop and the nest depth is capped, so any
    leg count compiles.  Other maps push each column as a sparse vector
    on native numbers through the push-mode kernel of the same generator
    (see :func:`_push_columns`), and a rational entry is built once, as
    ``Fraction(c, S)`` from the integer ``c`` and the side's scale ``S``.
    """
    if d < 1 or legs < 0:
        raise ShapeError("dim must be >= 1 and leg counts >= 0")
    maps, shape = [], []
    for f, positions in steps:
        positions = tuple(positions)
        if f.dim != d or f.ring != ring:
            raise ShapeError("map dimension/ring does not match the staged evaluation")
        if len(positions) != f.in_legs:
            raise ShapeError(f"gather positions {positions} must be {f.in_legs} distinct legs")
        maps.append(f)
        shape.append((positions, f.out_legs))
    shape = tuple(shape)
    n = _check_shape(legs, shape, order)
    tables = [f._table for f in maps]
    # A float tolerance >= 1 makes one a zero, which the sparse path drops.
    if None not in tables and not ring.is_zero(ring.one):
        kernel = _staged_kernel(legs, (shape,), (order,))
        return Tensor._trusted(d, legs, n, dict.fromkeys(kernel((range(d),) * legs, d, *tables), ring.one), ring)
    scale, pushed = _push_columns(maps, shape, legs, d, ring, order)
    value = _entry_value(ring, scale)
    entries: dict[EntryKey, object] = {}
    for column, vec in pushed:
        for out, c in vec.items():
            entries[(out, column)] = value(c)
    return Tensor._trusted(d, legs, n, entries, ring)


def _entry_value(ring: ScalarRing, scale: int):
    """The ring element of a value pushed by :func:`_push_columns` on a
    side of scale ``scale``."""
    if isinstance(ring, RationalRing):
        return lambda c: Fraction(c, scale)
    # A side of no steps, and a column a table kernel yields, hold the integer 1.
    return float if isinstance(ring, FloatRing) else lambda c: c


def _push_columns(maps, shape, legs: int, d: int, ring: ScalarRing, order=None):
    """Push every column of V^(x)legs through validated staged maps as a
    sparse vector on native numbers, in the push-mode kernel of
    :func:`_kernel_source`.

    Returns the side's scale S, the product of its steps' scales (see
    ``Tensor._push``), and an iterator over the columns in product
    order of ``(column, {final legs in the output order: c})``, where the
    entry is ``c / S`` in the rationals and ``c`` in the other rings.
    Floats are multiplied and added in the order of the composed placed
    factors, and values within the tolerance are dropped after each step.
    The exact rings settle once per column, after the last step: GF(p)
    values are reduced mod p and zeros dropped there.
    """
    scale = prod(f._push[1] for f in maps)
    if isinstance(ring, FloatRing):
        tolerance = ring.tolerance
        # Not ``> tolerance``: a NaN is no zero, and stays.
        settle = lambda nxt: {key: c for key, c in nxt.items() if not abs(c) <= tolerance}
    elif isinstance(ring, PrimeField):
        p = ring.p
        settle = lambda nxt: {key: r for key, c in nxt.items() if (r := c % p)}
    else:
        settle = lambda nxt: {key: c for key, c in nxt.items() if c}
    kernel = _staged_kernel(legs, (shape,), (order,), push=True, exact=not isinstance(ring, FloatRing))
    return scale, kernel((range(d),) * legs, d, settle, *(f._push[0] for f in maps))


def _paired_columns(f: Tensor, g: Tensor):
    """The entries of two tensors of one shape, column by column, as
    ``(column, f's {out digits: value}, g's {out digits: value})`` for
    :func:`_stream_sides` at scales 1."""
    by_column: dict[Digits, tuple[dict, dict]] = {}
    for side, t in enumerate((f, g)):
        for (out, inp), v in t.entries.items():
            by_column.setdefault(inp, ({}, {}))[side][out] = v
    return ((column, lv, rv) for column, (lv, rv) in by_column.items())


def _stream_sides(columns, scales, ring: ScalarRing):
    """The one comparator of two sides, fed column by column.

    ``columns`` yields ``(column, lhs, rhs)``, each side a ``{final legs:
    c}`` dict of native numbers as :func:`_push_columns` pushes them: the
    entry is ``c / S`` in the rationals, with ``S`` the side's scale from
    ``scales``, and ``c`` in the other rings.  Each column is discarded
    once compared.  A key ranks by the ring magnitude of ``lhs * S_rhs -
    rhs * S_lhs`` (the scales divided by their gcd), on native numbers,
    and ring values are built for the witness only.  Returns ``(0, None)``
    when the sides agree in the ring (floats within the tolerance, where
    ``inf - inf`` is NaN and a difference), else ``(magnitude, witness)``
    of the key of largest magnitude, the lexicographically first among
    equals, except that a NaN magnitude wins at the lexicographically
    first differing key.
    """
    lhs_scale, rhs_scale = scales
    common = gcd(lhs_scale, rhs_scale)
    lhs_factor, rhs_factor = rhs_scale // common, lhs_scale // common
    # Zero-free equal columns cannot differ, but a NaN equals itself in a dict.
    prefilter = lhs_factor == rhs_factor and not isinstance(ring, FloatRing)
    first = worst = None  # (key, rank, lhs, rhs)
    for column, lv, rv in columns:
        if prefilter and lv == rv:
            continue
        for out in lv.keys() | rv.keys():
            a, b = lv.get(out, 0), rv.get(out, 0)
            diff = ring.add(a * lhs_factor, ring.neg(b * rhs_factor))
            if ring.is_zero(diff):
                continue
            r, key = ring.magnitude(diff), (out, column)
            if first is None or key < first[0]:
                first = (key, r, a, b)
            if r == r and (worst is None or r > worst[1] or (r == worst[1] and key < worst[0])):
                worst = (key, r, a, b)
    if first is None:
        return 0, None
    (out, inp), _, a, b = first if first[1] != first[1] else worst
    a, b = _entry_value(ring, lhs_scale)(a), _entry_value(ring, rhs_scale)(b)
    witness = {"out": list(out), "in": list(inp), "lhs": ring.format(a), "rhs": ring.format(b)}
    return ring.magnitude(ring.add(a, ring.neg(b))), witness


def _partial_trace(f: Tensor, leg: int) -> Tensor:
    """Close the loop between input and output ``leg`` (0: first, -1: last)."""
    if f.in_legs < 1 or f.out_legs < 1:
        raise ShapeError("partial trace needs at least one leg on each side")
    ring = f.ring
    keep = slice(1, None) if leg == 0 else slice(None, -1)
    entries: dict[EntryKey, object] = {}
    for (out, inp), v in f.entries.items():
        if out[leg] == inp[leg]:
            key = (out[keep], inp[keep])
            acc = entries.get(key)
            entries[key] = v if acc is None else ring.add(acc, v)
    return Tensor(f.dim, f.in_legs - 1, f.out_legs - 1, entries, ring)


def partial_trace_left(f: Tensor) -> Tensor:
    return _partial_trace(f, 0)


def partial_trace_right(f: Tensor) -> Tensor:
    return _partial_trace(f, -1)


def partial_compose_left(x: Tensor, y: Tensor, overlap: int = 1) -> Tensor:
    """x on the top-left, y on the bottom-right, sharing ``overlap`` legs.

    The last ``overlap`` inputs of x consume the first ``overlap`` outputs
    of y.  One shared leg is the partial composition used by the stacking
    results and the bialgebra towers.  Two staged steps, y on the trailing
    legs and then x on the leading ones, each placed by the slot rule.
    """
    if overlap < 0 or overlap > min(x.in_legs, y.out_legs):
        raise ShapeError(f"overlap {overlap} impossible for {x.shape} o_l {y.shape}")
    if not x.in_legs:
        # Staged, x would open its outputs behind y's.
        return tensor_product(x, y)
    first = x.in_legs - overlap + 1
    steps = [(y, range(first, first + y.in_legs)), (x, range(1, x.in_legs + 1))]
    return contract_staged(steps, first - 1 + y.in_legs, x.dim, x.ring)


def partial_compose_right(x: Tensor, y: Tensor, overlap: int = 1) -> Tensor:
    """x on the bottom-left, y on the top-right, sharing ``overlap`` legs:
    x on the leading legs, then y from the last ``overlap`` outputs of x on."""
    if overlap < 0 or overlap > min(x.out_legs, y.in_legs):
        raise ShapeError(f"overlap {overlap} impossible for {x.shape} o_r {y.shape}")
    first = x.out_legs - overlap + 1
    if not x.in_legs:
        # Staged, x would open its outputs behind the legs that y reads after them.
        top = tensor_product(identity_tensor(x.dim, first - 1, x.ring), y)
        return compose(top, tensor_product(x, identity_tensor(x.dim, y.in_legs - overlap, x.ring)))
    steps = [(x, range(1, x.in_legs + 1)), (y, range(first, first + y.in_legs))]
    return contract_staged(steps, x.in_legs + y.in_legs - overlap, x.dim, x.ring)


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


# Columns of the largest matrix :func:`invert` eliminates densely.  At 243
# (3^5) a map of two entries per column takes 1.3 s in the rationals and a
# fully dense one 4-6 s in GF(5) or f64 (2 vCPU Xeon, Python 3.11.7); the
# cube law makes 729 columns take minutes.
MAX_DENSE_COLUMNS = 243


def invert(f: Tensor) -> Tensor:
    """Exact inverse: the swapped table of a bijective basis function,
    else Gaussian elimination on the dense matrix, refused above
    ``MAX_DENSE_COLUMNS`` columns."""
    if f.in_legs != f.out_legs:
        raise NotInvertible(f"non-square signature {f.in_legs}->{f.out_legs}")
    # Fewer entries than columns leave a zero column; no table is built.
    size = f.dim**f.in_legs
    if len(f.entries) < size:
        raise NotInvertible("tensor is singular")
    table = f._table
    if table is None:
        if size > MAX_DENSE_COLUMNS:
            raise ShapeError(f"inverting densely takes {size} columns, over the cap of {MAX_DENSE_COLUMNS}")
        return _invert_dense(f)
    # A basis function with an entry in every column is singular when it
    # repeats an image, which makes two equal columns.
    if len(set(table)) != size:
        raise NotInvertible("tensor is singular")
    entries = {(inp, out): f.ring.one for out, inp in sorted(f.entries, key=lambda key: key[1])}
    return Tensor._trusted(f.dim, f.in_legs, f.out_legs, entries, f.ring)


def _invert_dense(f: Tensor) -> Tensor:
    """Inverse of a square ``f`` by Gaussian elimination on the dense matrix."""
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
