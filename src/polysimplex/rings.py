"""Scalar rings for tensor entries: exact rationals, prime fields, floats.

Entry values stay unboxed (``Fraction``, ``int``, ``float``); the ring object
carries the arithmetic so prime-field elements do not need wrapper objects.
Rationals are the default everywhere, since every built-in solution has
rational (in fact 0/1) entries and exact equality avoids tolerance disputes.
"""

from __future__ import annotations

from fractions import Fraction
import re
import sys


class RingError(ValueError):
    """Raised for invalid ring parameters or impossible divisions."""


# Miller-Rabin on the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015); larger moduli are refused.
PRIME_CAP = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for every ``p`` below ``PRIME_CAP``."""
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    n = p - 1
    s = (n & -n).bit_length() - 1  # n = d * 2**s with d odd
    # p passes base a when a**d is 1, or a**(d * 2**i) is -1 for some i < s.
    powers = (pow(a, n >> s, p) for a in _BASES)
    return all(x == 1 or n in (pow(x, 1 << i, p) for i in range(s)) for x in powers)


# The only scalar strings the exact rings read: no exponent, no zero denominator.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _parse_rational(value) -> Fraction:
    """A JSON integer (not a bool) or a ``[-]digits[/nonzero digits]`` string
    whose parts are within the interpreter's int-string digit limit."""
    if type(value) is str and _RATIONAL.fullmatch(value):
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        digits = max(map(len, value.lstrip("-").split("/")))
        if limit and digits > limit:
            raise RingError(f"scalar has {digits} digits, over the interpreter's int-string limit of {limit}")
        return Fraction(value)
    if type(value) is int:
        return Fraction(value)
    raise RingError(f"scalar {value!r} must be an integer or a string of the form [-]digits[/nonzero digits]")


def exact_str(x) -> str:
    """``str(x)`` of an int or Fraction past the int-to-str digit limit,
    which bounds the time to parse outside input, not to print results."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal  # converts from binary with no digit limit

        n, d = x.as_integer_ratio()
        return str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


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
        """A JSON scalar of this ring; the exact rings read :func:`_parse_rational`."""
        return self.coerce(_parse_rational(text))

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
        return f"{exact_str(a.numerator)}/{exact_str(a.denominator)}"

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash(self.tag)


class PrimeField(ScalarRing):
    """Integers mod p for a prime p; values are ints in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIME_CAP:
            raise RingError(f"modulus {p} is over the cap of {PRIME_CAP}")
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
        if not tolerance >= 0:  # refuses NaN too, under which no value is a zero
            raise RingError(f"tolerance must be a number >= 0, got {tolerance!r}")
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

    def parse(self, value):
        """A JSON number, not a bool, ``NaN`` and ``Infinity`` included."""
        if type(value) not in (int, float):
            raise RingError(f"f64 scalar {value!r} must be a JSON number")
        try:
            return float(value)
        except OverflowError:
            raise RingError("f64 scalar integer is out of the binary64 range") from None

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
