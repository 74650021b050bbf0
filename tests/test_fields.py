import math
import random
import re
import time
from fractions import Fraction

import pytest

from freeproj.errors import BudgetExceeded, ParseError
from freeproj.fields import GF, MAX_LITERAL_DIGITS, PRIME_BOUND, QQ, field_from_spec, is_prime, read_int
from freeproj.freealg import FreeAlgebra


def test_qq_arithmetic_is_exact():
    third = QQ.div(1, 3)
    assert third * 3 == 1
    assert third + QQ.div(2, 3) == 1
    assert QQ.mul(Fraction(1, 2), 2) == 1


def test_qq_prefers_ints():
    assert isinstance(QQ.div(4, 2), int)
    assert QQ.coerce(Fraction(6, 3)) == 2
    assert QQ.from_str("-1/2") == Fraction(-1, 2)
    assert QQ.to_str(Fraction(-1, 2)) == "-1/2"


def test_qq_coerces_a_bool_to_its_int():
    # a canonical QQ value is an int, not an int subclass, as over GF(p)
    for x in (True, False):
        assert type(QQ.coerce(x)) is int and QQ.coerce(x) == x
        assert type(GF(7).coerce(x)) is int
    A = FreeAlgebra(2)
    assert [type(c) for c in A.poly({(0,): True}).terms.values()] == [int]


def test_qq_literals_are_bounded_from_the_text():
    # at most 4300 digits in the numerator and the denominator
    for text, value in (("0.5", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)), ("12300e-2", 123),
                        ("1e4299", 10**4299), ("1.000e-4299", Fraction(1, 10**4299)),
                        ("-25E-1", Fraction(-5, 2)), ("0e9999", 0)):
        assert QQ.from_str(text) == value
        assert GF(7).from_str(text) == GF(7).coerce(value)
    start = time.perf_counter()
    for text in ("1e100000", "1e300000000", "1e4300", "1e-4300", "25e4299", "1e" + "9" * 5000, "0e10000",
                 "-2_5E-1"):
        for field in (QQ, GF(7)):
            with pytest.raises(ParseError, match=re.escape(text[:20])):
                field.from_str(text)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text", ["1_0", " 3", "3 ", "\t1/2\n", "1 / 2", "\u0663", " \u0663 ", "\uff11",
                                  "1e1_0", "1.5_0", ""])
def test_qq_literals_are_one_ascii_word_without_underscores(text):
    # Fraction reads all but "" as a number: "1_0" as 10 and "\u0663" as 3
    for field in (QQ, GF(7)):
        with pytest.raises(ParseError) as info:
            field.from_str(text)
        assert str(info.value) == f"bad rational {text!r}"


def test_qq_digit_literals_are_ints():
    for text in ("0", "7", "007", "9" * 4300):
        value = QQ.from_str(text)
        assert type(value) is int and value == int(text)
        assert GF(7).from_str(text) == int(text) % 7


def test_gf_inverses_total_on_nonzero():
    F = GF(7)
    for a in range(1, 7):
        assert F.mul(a, F.invert(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.invert(0)


@pytest.mark.parametrize("p", [2, 3, 7, 10007, 2**61 - 1, 3317044064679887385961813])
def test_gf_invert_matches_fermat(p):
    F = GF(p)
    rng = random.Random(p)
    for a in [1, p - 1, *(rng.randrange(1, p) for _ in range(50))]:
        assert F.invert(a) == pow(a, p - 2, p)
        assert F.invert(a + 3 * p) == F.invert(-(p - a)) == pow(a, p - 2, p)
    for zero in (0, p, -2 * p):
        with pytest.raises(ZeroDivisionError):
            F.invert(zero)


def test_largest_prime_below_the_bound():
    top = 3317044064679887385961813
    assert is_prime(top) and not any(is_prime(n) for n in range(top + 1, PRIME_BOUND))


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
    # int() reads each of these as 11
    for spec in ("GF:1_1", "GF(1_1)", "GF: 11", "GF:\u0661\u0661"):
        with pytest.raises(ParseError, match="must be an integer"):
            field_from_spec(spec)


def test_read_int_takes_a_sign_and_ascii_digits_only():
    texts = ("0", "12", "-3", "+4", "007", "9" * MAX_LITERAL_DIGITS)
    assert [read_int(t, "n") for t in texts] == [0, 12, -3, 4, 7, 10**MAX_LITERAL_DIGITS - 1]
    # int() reads 1_2, the spaced ones and the non-ASCII digits
    for text in ("", "1_2", " 2", "2 ", "\u0661", "\uff11", "1.0", "--1", "0x1", "9" * (MAX_LITERAL_DIGITS + 1)):
        with pytest.raises(ParseError, match="^n must be an integer"):
            read_int(text, "n")
    with pytest.raises(ParseError, match="^line 3: d must be an integer"):
        read_int("0_2", "d", 3)


def test_qq_printed_values_are_bounded():
    # the bound is the one on literals: at most MAX_LITERAL_DIGITS digits in
    # the numerator and in the denominator, checked without str()
    top = 10**MAX_LITERAL_DIGITS - 1
    for v in (top, -top, Fraction(1, top), Fraction(-top, top - 1)):
        assert QQ.from_str(QQ.to_str(v)) == v
    for v in (top + 1, -top - 1, Fraction(1, top + 1), Fraction(top + 1, 7)):
        with pytest.raises(BudgetExceeded, match="4300 digits"):
            QQ.to_str(v)
    assert GF(7).to_str(10**5000) == "2"
