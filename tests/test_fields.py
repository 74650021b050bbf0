import math
import time
from fractions import Fraction

import pytest

from freeproj.errors import ParseError
from freeproj.fields import GF, PRIME_BOUND, QQ, field_from_spec, is_prime


def test_qq_arithmetic_is_exact():
    third = QQ.div(1, 3)
    assert third * 3 == 1
    assert QQ.add(third, QQ.div(2, 3)) == 1
    assert QQ.mul(Fraction(1, 2), 2) == 1


def test_qq_prefers_ints():
    assert isinstance(QQ.div(4, 2), int)
    assert QQ.coerce(Fraction(6, 3)) == 2
    assert QQ.from_str("-1/2") == Fraction(-1, 2)
    assert QQ.to_str(Fraction(-1, 2)) == "-1/2"


def test_gf_inverses_total_on_nonzero():
    F = GF(7)
    for a in range(1, 7):
        assert F.mul(a, F.invert(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.invert(0)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_is_prime_agrees_with_trial_division():
    for n in range(10**5):
        expected = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == expected, n


@pytest.mark.parametrize("carmichael", [561, 41041])
def test_gf_rejects_carmichael_numbers(carmichael):
    with pytest.raises(ValueError, match="not prime"):
        GF(carmichael)


def test_gf_large_primes():
    start = time.perf_counter()
    F = GF(2**61 - 1)
    assert time.perf_counter() - start < 0.05
    assert F.mul(F.invert(3), 3) == 1
    with pytest.raises(ValueError, match="out of range"):
        GF(2**89 - 1)
    with pytest.raises(ValueError, match="out of range"):
        GF(PRIME_BOUND)
    with pytest.raises(ParseError, match="out of range"):
        field_from_spec(f"GF({2**89 - 1})")


def test_gf_coerces_fractions():
    F = GF(5)
    assert F.coerce(Fraction(1, 2)) == 3  # 2*3 = 6 = 1 mod 5
    assert F.from_str("-1/2") == 2
    with pytest.raises(ParseError, match="denominator"):
        F.from_str("1/10")


@pytest.mark.parametrize("spec,expected", [("QQ", QQ), ("GF(5)", GF(5)), ("GF:5", GF(5))])
def test_field_from_spec(spec, expected):
    assert field_from_spec(spec) == expected


def test_field_from_spec_rejects_garbage():
    with pytest.raises(ParseError):
        field_from_spec("ZZ")
    with pytest.raises(ParseError):
        field_from_spec("GF(4)")
