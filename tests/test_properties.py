"""Randomized algebraic laws, hypothesis-style."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as st

from freeproj import FpModule, FreeAlgebra
from freeproj.af_s import AFMatrix
from freeproj.leavitt import LeavittElement
from freeproj.qgr import QgrClass

from random_elements import star

A2 = FreeAlgebra(2)

words = st.lists(st.integers(0, 1), min_size=0, max_size=4).map(tuple)
coeffs = st.integers(-4, 4)


@st.composite
def polys(draw, max_terms=4):
    terms = draw(st.lists(st.tuples(words, coeffs), max_size=max_terms))
    return A2.poly({w: 0 for w, _ in terms} | {w: c for w, c in terms})


@st.composite
def leavitt_monomials(draw):
    w = draw(st.lists(st.integers(0, 1), max_size=3).map(tuple))
    v = draw(st.lists(st.integers(0, 1), max_size=3).map(tuple))
    return LeavittElement.monomial(A2, w, v)


@hypothesis.given(polys(), polys(), polys())
def test_poly_ring_laws(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert A2.one() * p == p == p * A2.one()


@hypothesis.given(polys())
def test_poly_reversal_involutive(p):
    assert p.reversed().reversed() == p


@hypothesis.given(leavitt_monomials(), leavitt_monomials(), leavitt_monomials())
def test_leavitt_monomial_associativity(a, b, c):
    assert ((a * b) * c).equals(a * (b * c))


@hypothesis.given(leavitt_monomials(), leavitt_monomials())
def test_leavitt_star_reverses_products(a, b):
    assert star(a * b).equals(star(b) * star(a))


@st.composite
def af_matrices(draw, level=None):
    lvl = level if level is not None else draw(st.integers(0, 2))
    n = 2**lvl
    entries = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    return AFMatrix(2, lvl, entries)


@hypothesis.given(af_matrices(), af_matrices())
def test_af_products_respect_embedding(a, b):
    r = max(a.level, b.level) + 1
    assert (a * b).embed(r) == a.embed(r) * b.embed(r)


@hypothesis.given(af_matrices())
def test_af_regularity_always_has_witness(a):
    x = a.vn_regular_witness()
    assert a * x * a == a


@hypothesis.given(st.integers(0, 6400), st.integers(-3, 6), st.integers(0, 4))
def test_class_normal_form_round_trips(t, i, k):
    cls = QgrClass(t, i, 2)
    assert cls.value == Fraction(t) * Fraction(2) ** (-i)
    if cls.t:
        assert cls.t % 2 == 1
    assert QgrClass(cls.t, cls.i, 2) == cls
    # the same value written with k more factors of 2 has the same normal form
    assert QgrClass(t * 2**k, i + k, 2) == cls


@hypothesis.given(
    st.integers(0, 40), st.integers(-3, 3), st.integers(0, 40), st.integers(-3, 3)
)
def test_class_addition_matches_fractions(t1, i1, t2, i2):
    def val(t, i):
        return Fraction(t) * Fraction(2) ** (-i)

    a = QgrClass(t1, i1, 2)
    b = QgrClass(t2, i2, 2)
    # R(-i1)^t1 + R(-i2)^t2 has the sum of the classes, and its twist by 2
    # four times that
    M = FpModule.free(A2, [i1] * t1 + [i2] * t2)
    assert M.k0_class().value == a.value + b.value == val(t1, i1) + val(t2, i2)
    assert M.shift(2).k0_class().value == M.k0_class().value * 4
    assert (a == b) == (val(t1, i1) == val(t2, i2))
