"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python values (int / Fraction for QQ, canonical
ints 0..p-1 for GF(p)); a field object supplies the arithmetic.  Keeping
rational values as ints whenever possible makes the hot dict-arithmetic
paths run on machine integers.

A canonical QQ value is an int exactly when it is integral, and never an
int subclass such as bool.  `QQ.div`, `coerce` and `from_str` return
canonical values, and so do elimination (`linalg`), reduction
(`submodules`) and the limit algebra's `AFMatrix.entries` (`af_s`), which
make each output value from integers by one exact division
(`linalg._ratio`); plain Fraction arithmetic elsewhere may leave a
Fraction(k, 1), equal to k, which `coerce` maps to k.

`QgrClass`, a K0 class t * d^(-i) in Z[1/d], is here, below both `fpmod`
and `af_s`, so that each imports it at load time.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import BudgetExceeded, NotExpressibleAtTwist, ParseError

# The most digits the numerator or denominator of a QQ literal, read or
# printed, may have: the most CPython prints from an int by default.
MAX_LITERAL_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_LITERAL_DIGITS  # the least int with more digits
_EXPONENT_LITERAL = re.compile(r"[-+]?([0-9]*)(?:\.([0-9]*))?[eE]([-+]?[0-9]+)")
_INT_LITERAL = re.compile(rf"[-+]?[0-9]{{1,{MAX_LITERAL_DIGITS}}}")


def read_int(text: str, what: str, line=None) -> int:
    """The int of an optional sign and at most MAX_LITERAL_DIGITS ASCII digits;
    any other text (underscores, spaces, non-ASCII digits) is a ParseError."""
    if _INT_LITERAL.fullmatch(text) is None:
        raise ParseError(f"{what} must be an integer of at most {MAX_LITERAL_DIGITS} ASCII digits, got "
                         f"{text[:20]!r}" + "..." * (len(text) > 20), line)
    return int(text)


def power_above(n: int, d: int, k: int, bound: int) -> bool:
    """Whether n * d^k > bound, exactly, for ints n, d, bound >= 0 and k >= 0.
    For n >= 1 and d >= 2, n * d^k >= 2^(bits(n) - 1 + k*(bits(d) - 1)), so a
    large k is decided from bit lengths, and no product of more than three
    times the bits of bound is formed."""
    if not n or d < 2:
        return n * d ** min(k, 1) > bound  # d^k is d^min(k, 1) for d = 0, 1
    return n.bit_length() - 1 + k * (d.bit_length() - 1) >= bound.bit_length() or n * d**k > bound


def _too_long(s: str) -> bool:
    """Whether the value of the literal s has more than MAX_LITERAL_DIGITS
    digits, read from the text.  `Fraction` refuses a longer digit run
    itself but builds 10**exponent in full, so an exponent longer than
    MAX_LITERAL_DIGITS is refused and a shorter one shifts the significant
    digits of the mantissa."""
    m = _EXPONENT_LITERAL.fullmatch(s)
    if m is None:
        return False
    whole, frac, exp = m[1], m[2] or "", m[3]
    if len(exp.lstrip("+-0")) > len(str(MAX_LITERAL_DIGITS)):
        return True
    mantissa = (whole + frac).lstrip("0")
    digits = mantissa.rstrip("0")
    shift = int(exp) - len(frac) + len(mantissa) - len(digits)
    return bool(digits) and max(len(digits) + shift, 1 - shift) > MAX_LITERAL_DIGITS


class RationalField:
    """The rationals.  Values are ints or Fractions; equal values compare equal."""

    name = "QQ"
    characteristic = 0
    zero = 0
    one = 1

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def div(a, b):
        q = Fraction(a) / Fraction(b)
        return int(q) if q.denominator == 1 else q

    @staticmethod
    def invert(a):
        return RationalField.div(1, a)

    @staticmethod
    def coerce(x):
        if type(x) is int:
            return x
        if isinstance(x, int):
            return int(x)  # a bool or other int subclass as the int itself
        if isinstance(x, Fraction):
            return int(x) if x.denominator == 1 else x
        raise TypeError(f"cannot coerce {x!r} into QQ")

    @staticmethod
    def from_str(s: str):
        """The value of a literal as `Fraction` reads it, from one word of
        ASCII text without underscores; ParseError for any other text, for a
        malformed literal or, before any number is built, a `_too_long` one."""
        if len(s) <= MAX_LITERAL_DIGITS and s.isascii() and s.isdigit():
            return int(s)  # what the checks and Fraction below return, sooner
        if not s.isascii() or "_" in s or s.split() != [s]:
            raise ParseError(f"bad rational {s!r}")
        if _too_long(s):
            raise ParseError(f"rational literal {s!r} has more than {MAX_LITERAL_DIGITS} digits")
        try:
            q = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {s!r}") from exc
        return int(q) if q.denominator == 1 else q

    @staticmethod
    def to_str(v) -> str:
        """The literal of a value, refused before str() when too long."""
        if abs(v.numerator) >= _DIGIT_BOUND or v.denominator >= _DIGIT_BOUND:
            raise BudgetExceeded(f"a computed value has over fields.MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits")
        return str(v)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


# Miller-Rabin to the first 13 prime bases is exact below PRIME_BOUND
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_BOUND; ValueError above it."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is out of range: primality is certified only below {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p < PRIME_BOUND; values are canonical ints in 0..p-1."""

    characteristic: int

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in " + self.name)
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.invert(b)) % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def from_str(self, s: str):
        try:
            return self.coerce(RationalField.from_str(s))
        except ZeroDivisionError:
            raise ParseError(f"{s!r} has no value in {self.name}: its denominator is divisible by {self.p}") from None

    def to_str(self, v) -> str:
        return str(v % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_spec(spec: str):
    """Parse a field name: "QQ", "GF(7)" or "GF:7"."""
    s = spec.strip()
    if s == "QQ":
        return QQ
    for prefix, suffix in (("GF(", ")"), ("GF:", "")):
        if s.startswith(prefix) and s.endswith(suffix):
            p = read_int(s[len(prefix):len(s) - len(suffix) or None], "the characteristic p of GF(p)")
            try:
                return GF(p)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field {spec!r} (expected QQ or GF(p))")


class QgrClass:
    """An element t * d^(-i) of Z[1/d] in normal form.

    Normal form: i is the least integer making t a nonnegative integer; in
    particular d does not divide t when t > 0 (for d >= 2), and zero is
    stored as (0, 0).
    """

    __slots__ = ("t", "i", "d")

    def __init__(self, t: int, i: int, d: int):
        if d < 1:
            raise ValueError("d must be at least 1")
        if t < 0:
            raise ValueError("classes are nonnegative")
        self.t, self.i = QgrClass._strip(t, i, d)
        self.d = d

    @staticmethod
    def _strip(t: int, i: int, d: int):
        """Normal form of t * d^(-i) for an integer t, from the exponents
        alone: factors of d move from t into i, and no power of d is formed."""
        if t == 0:
            return 0, 0
        if d == 1:
            return t, 0
        while t % d == 0:
            t //= d
            i -= 1
        return t, i

    @property
    def value(self) -> Fraction:
        """t * d^(-i) as one Fraction of two integers, in lowest terms."""
        return Fraction(self.t * self.d ** max(-self.i, 0), self.d ** max(self.i, 0))

    def multiplicity_at(self, i: int) -> int:
        """r with value = r * d^i, if r is a nonnegative integer.  For the
        normal form t * d^(-c) that is t * d^(-c-i), integral exactly when
        -c-i >= 0 (d does not divide t), read from the exponents."""
        e = -self.i - i
        if e < 0 and self.t and self.d > 1:
            raise NotExpressibleAtTwist(
                f"class {self.t} * {self.d}^{-self.i} is not integral at twist {i}")
        return self.t * self.d ** max(e, 0)

    def expressible_in(self, e: int) -> bool:
        """Does this value lie in Z[1/e]?"""
        den = self.value.denominator
        while den > 1:
            g = gcd(den, e)
            if g == 1:
                return False
            den //= g
        return True

    def __eq__(self, other):
        return (
            isinstance(other, QgrClass)
            and (self.t, self.i, self.d) == (other.t, other.i, other.d)
        )

    def __hash__(self):
        return hash((self.t, self.i, self.d))

    def to_json(self):
        return {"t": self.t, "i": self.i, "d": self.d}

    def __repr__(self):
        return f"QgrClass({self.t}*{self.d}^-{self.i})"
