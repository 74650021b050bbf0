"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python values (int / Fraction for QQ, canonical
ints 0..p-1 for GF(p)); a field object supplies the arithmetic.  Keeping
rational values as ints whenever possible makes the hot dict-arithmetic
paths run on machine integers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BudgetExceeded, ParseError

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
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

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
        if isinstance(x, int):
            return x
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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in " + self.name)
        return pow(a, self.p - 2, self.p)

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
