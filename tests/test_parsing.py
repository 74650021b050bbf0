from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

import leavitt_oracle
from freeproj import FreeAlgebra
from freeproj.errors import ParseError
from freeproj.fields import GF, QQ
from freeproj.leavitt import LeavittElement
from freeproj.parsing import (
    format_poly,
    parse_leavitt,
    parse_poly,
    parse_presentation,
)


def test_parse_poly_basic(A2):
    p = parse_poly(A2, "x0 x1 x0")
    assert p == A2.monomial((0, 1, 0))
    assert parse_poly(A2, "1") == A2.one()
    assert parse_poly(A2, "3") == A2.one().scale(3)
    assert parse_poly(A2, "-1/2 x1") == A2.gen(1).scale(Fraction(-1, 2))
    combo = parse_poly(A2, "x0 x1 + 1/2 x1 - 3")
    assert combo.terms == {(0, 1): 1, (1,): Fraction(1, 2), (): -3}


def test_parse_poly_cancels(A2):
    assert parse_poly(A2, "x0 - x0").is_zero()


def test_parse_poly_rejects_bad_input(A2):
    with pytest.raises(ParseError):
        parse_poly(A2, "x0 & x1")
    with pytest.raises(ParseError):
        parse_poly(A2, "x5")
    with pytest.raises(ParseError):
        parse_poly(A2, "x0*")  # stars are not part of the plain grammar
    with pytest.raises(ParseError):
        parse_poly(A2, "x0 3 x1")
    with pytest.raises(ParseError):
        parse_poly(A2, "")


def test_poly_print_parse_round_trip(A2):
    from freeproj.randgen import make_rng, random_poly

    rng = make_rng(21)
    for _ in range(40):
        p = random_poly(rng, A2, rng.randint(0, 3)) + random_poly(
            rng, A2, rng.randint(0, 3)
        )
        assert parse_poly(A2, format_poly(p)) == p
    assert format_poly(A2.zero()) == "0"
    assert parse_poly(A2, "0").is_zero()


def test_parse_leavitt(A2):
    e = parse_leavitt(A2, "x0 x0*")
    assert e.equals(LeavittElement.one(A2))
    assert parse_leavitt(A2, "x0 x1*").is_zero()
    mix = parse_leavitt(A2, "x0* x1 + 1/2 x1* x0")
    assert mix.terms[((0,), (1,))] == 1
    assert mix.terms[((1,), (0,))] == Fraction(1, 2)


@st.composite
def leavitt_texts(draw):
    """Leavitt expressions over QQ or GF(7) at d = 1..3: zero coefficients,
    bare 1, runs of one letter (cancelling and killing junctions), and now
    and then one letter out of range or one misplaced coefficient."""
    algebra = FreeAlgebra(draw(st.integers(1, 3)), draw(st.sampled_from([QQ, GF(7)])))
    letter = st.tuples(st.integers(0, algebra.d - 1), st.booleans()).map(
        lambda t: f"x{t[0]}{'*' if t[1] else ''}")
    terms = []
    for n in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["+", "-"] if n else ["", "-"]))
        coeff = draw(st.sampled_from(["", "", "0", "1", "2", "3/2", "-"]))
        atoms = draw(st.lists(st.one_of(letter, letter, letter, st.just("1")), max_size=6))
        terms.append(([t for t in [sign, coeff] if t], atoms))
    mistake = draw(st.sampled_from([None] * 4 + [f"x{algebra.d}", f"x{algebra.d + 1}*", "5"]))
    if mistake:
        atoms = draw(st.sampled_from(terms))[1]
        atoms.insert(draw(st.integers(0, len(atoms))), mistake)
    return algebra, " ".join(" ".join(head + atoms) for head, atoms in terms)


def _parsed(parse, algebra, text):
    try:
        e = parse(algebra, text)
    except Exception as exc:
        return type(exc), str(exc)
    return [(k, type(c), c) for k, c in e.terms.items()]


@hypothesis.settings(max_examples=300)
@hypothesis.given(leavitt_texts())
def test_parse_leavitt_matches_oracle(case):
    # terms in key order, coefficient types included, or the same error
    algebra, text = case
    assert _parsed(parse_leavitt, algebra, text) == _parsed(
        leavitt_oracle.parse_leavitt, algebra, text)


def test_parse_leavitt_matches_oracle_on_examples():
    for algebra, text in [
        (FreeAlgebra(2), "0 x0 + x1* x1 x1 x0*"),
        (FreeAlgebra(2), "x0 x0 x0* x0* - 1 + 1"),
        (FreeAlgebra(2), "x0 x1* x2 + x0"),
        (FreeAlgebra(2, GF(7)), "3/2 x1* x0 + 4 x1* x0 - x0 x1 x1* x0*"),
        (FreeAlgebra(3), "x2* x2 x0 + 0 x5 + x1 x0*"),
        (FreeAlgebra(1), "x0 x0* - 1 + x0* x0"),
        (FreeAlgebra(2), "x0 2"),
    ]:
        assert _parsed(parse_leavitt, algebra, text) == _parsed(
            leavitt_oracle.parse_leavitt, algebra, text)


def test_leavitt_print_parse_round_trip(A2):
    from freeproj.randgen import make_rng
    from random_elements import random_leavitt

    rng = make_rng(22)
    for _ in range(30):
        a = random_leavitt(rng, A2).canonical()
        assert parse_leavitt(A2, str(a)).equals(a)


PRESENTATION = """\
# the letter quotient
name: letterq
field: QQ
d: 2
gens: [0]
rels:
x0
"""


def test_parse_presentation():
    pf = parse_presentation(PRESENTATION)
    assert pf.name == "letterq"
    assert pf.field == QQ and pf.d == 2 and pf.shifts == (0,)
    M = pf.module()
    assert [M.hilbert(j) for j in range(4)] == [1, 1, 2, 4]


def render(pf) -> str:
    """The presentation file text of a parsed presentation."""
    lines = [f"name: {pf.name}"] if pf.name else []
    lines += [f"field: {pf.field.name}", f"d: {pf.d}", f"gens: {list(pf.shifts)}", "rels:"]
    lines += [", ".join(format_poly(p) for p in row) for row in pf.rel_rows]
    return "\n".join(lines) + "\n"


def test_presentation_round_trip():
    pf = parse_presentation(PRESENTATION)
    again = parse_presentation(render(pf))
    assert again.shifts == pf.shifts
    assert again.rel_rows == pf.rel_rows
    assert render(again) == render(pf)


def test_presentation_multi_column():
    text = "field: GF(5)\nd: 2\ngens: [0, 1]\nrels:\nx0 x1, x0\nx1 x1, x1\n"
    pf = parse_presentation(text)
    assert pf.field == GF(5)
    assert len(pf.rel_rows) == 2
    M = pf.module()
    assert M.hilbert(0) == 1


def test_presentation_errors_carry_line_numbers():
    bad = "field: QQ\nd: 2\ngens: [0]\nrels:\nx0, x1\n"
    with pytest.raises(ParseError) as info:
        parse_presentation(bad)
    assert "line 5" in str(info.value)

    inhom = "field: QQ\nd: 2\ngens: [0]\nrels:\nx0 + 1\n"
    with pytest.raises(ParseError) as info:
        parse_presentation(inhom)
    assert "homogeneous" in str(info.value)

    with pytest.raises(ParseError):
        parse_presentation("d: 2\ngens: [0]\nrels:\n")  # missing field
