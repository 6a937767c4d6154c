"""Scalar rings for tensor entries: exact rationals, prime fields, floats.

Entry values stay unboxed (``Fraction``, ``int``, ``float``); the ring object
carries the arithmetic so prime-field elements do not need wrapper objects.
Rationals are the default everywhere, since every built-in solution has
rational (in fact 0/1) entries and exact equality avoids tolerance disputes.
"""

from __future__ import annotations

from fractions import Fraction


class RingError(ValueError):
    """Raised for invalid ring parameters or impossible divisions."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class ScalarRing:
    """Arithmetic context shared by all entries of one tensor."""

    tag: str = "abstract"

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.invert(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def eq(self, a, b) -> bool:
        return self.is_zero(self.add(a, self.neg(b)))

    def magnitude(self, a):
        """Non-negative size of ``a``, used for deviation reports."""
        raise NotImplementedError

    def format(self, a):
        """JSON-compatible encoding of ``a`` (lossless for exact rings)."""
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def __repr__(self):
        return f"<ring {self.tag}>"


class RationalRing(ScalarRing):
    """Arbitrary-precision rationals, always in lowest terms."""

    tag = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, float):
            raise RingError("refusing to coerce a float into the rational ring")
        return Fraction(value)

    def invert(self, a):
        if a == 0:
            raise RingError("division by zero in rational ring")
        return 1 / Fraction(a)

    def magnitude(self, a):
        return abs(a)

    def format(self, a):
        return f"{a.numerator}/{a.denominator}"

    def parse(self, text):
        return Fraction(text)

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash(self.tag)


class PrimeField(ScalarRing):
    """Integers mod p for a prime p; values are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise RingError(f"modulus {p} is not prime")
        self.p = p
        self.tag = f"gfp:{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        if isinstance(value, float):
            raise RingError("refusing to coerce a float into a prime field")
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        a %= self.p
        if a == 0:
            raise RingError(f"division by zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def magnitude(self, a):
        return a % self.p

    def format(self, a):
        return str(a % self.p)

    def parse(self, text):
        return int(text) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.tag)


class FloatRing(ScalarRing):
    """binary64 floats compared with a single absolute tolerance."""

    tag = "f64"
    zero = 0.0
    one = 1.0

    def __init__(self, tolerance: float = 1e-9):
        if tolerance < 0:
            raise RingError("tolerance must be non-negative")
        self.tolerance = tolerance

    def coerce(self, value):
        return float(value)

    def invert(self, a):
        if abs(a) <= self.tolerance:
            raise RingError("division by (numerical) zero in float ring")
        return 1.0 / a

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tolerance

    def magnitude(self, a):
        return abs(a)

    def format(self, a):
        return float(a)

    def parse(self, text):
        return float(text)

    def __eq__(self, other):
        # Tolerance is a comparison setting, not part of the ring identity.
        return isinstance(other, FloatRing)

    def __hash__(self):
        return hash(self.tag)


RATIONAL = RationalRing()
F64 = FloatRing()

_PRIME_FIELDS: dict[int, PrimeField] = {}


def prime_field(p: int) -> PrimeField:
    if p not in _PRIME_FIELDS:
        _PRIME_FIELDS[p] = PrimeField(p)
    return _PRIME_FIELDS[p]


def ring_from_tag(tag: str) -> ScalarRing:
    """Inverse of ``ring.tag``, for JSON deserialization and CLI flags."""
    if tag == "rational":
        return RATIONAL
    if tag == "f64":
        return F64
    if tag.startswith("gfp:"):
        try:
            modulus = int(tag.split(":", 1)[1])
        except ValueError:
            raise RingError(f"malformed prime field tag {tag!r}") from None
        return prime_field(modulus)
    raise RingError(f"unknown scalar ring tag {tag!r}")
