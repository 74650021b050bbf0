"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python values (int / Fraction for QQ, canonical
ints 0..p-1 for GF(p)); a field object supplies the arithmetic.  Keeping
rational values as ints whenever possible makes the hot dict-arithmetic
paths run on machine integers.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


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
        try:
            q = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {s!r}") from exc
        return int(q) if q.denominator == 1 else q

    @staticmethod
    def to_str(v) -> str:
        return str(v)

    def random(self, rng, span=3):
        return rng.randint(-span, span)

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

    def random(self, rng, span=None):
        return rng.randrange(self.p)

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
            body = s[len(prefix):len(s) - len(suffix) or None]
            try:
                p = int(body)
            except ValueError:
                break
            try:
                return GF(p)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field {spec!r} (expected QQ or GF(p))")
