import re
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
    # letter indices and coefficients are ASCII digits; \d would read x١ as x1
    for text in ("x\u0661", "\u0662 x0", "x0 x\uff11"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_poly(A2, text)


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


_ATOM_OR_SIGN = re.compile(r"x[0-9]+\*?|[0-9]+/[0-9]+|[0-9]+|([+-])")


def _sign_run(text):
    """Whether an atom is followed by two or more signs, or by a sign that
    ends the text.  The oracle reads each extra sign there as a term 1 and
    drops a trailing sign; the parser multiplies a run and refuses a
    trailing sign, so the oracle tests leave these texts out."""
    kinds = "".join("s" if sign else "a" for sign in _ATOM_OR_SIGN.findall(text))
    return re.search("as(s|$)", kinds) is not None


@hypothesis.settings(max_examples=300)
@hypothesis.given(leavitt_texts())
def test_parse_leavitt_matches_oracle(case):
    # terms in key order, coefficient types included, or the same error
    algebra, text = case
    hypothesis.assume(not _sign_run(text))
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


# the malformed pieces of test_text_fuzz.py, a letter out of range, a
# starred letter, a misplaced coefficient and bad characters
POLY_MISTAKES = ["x" + "9" * 4400, "x" + "0" * 4400 + "1", "9" * 4301, "2/0", "1e3", "/", "*", "x0*", "x3",
                 "5", "&", "x\u0661", "+ +", "-"]


@st.composite
def poly_texts(draw):
    """Polynomial texts over QQ or GF(7) at d = 1..3, their tokens joined by
    any run of spaces or none, now and then with one of POLY_MISTAKES put
    anywhere, so also after a valid prefix."""
    algebra = FreeAlgebra(draw(st.integers(1, 3)), draw(st.sampled_from([QQ, GF(7)])))
    letter = st.integers(0, algebra.d - 1).map(lambda i: f"x{i}")
    tokens = []
    for n in range(draw(st.integers(1, 5))):
        tokens += [draw(st.sampled_from(["+", "-"] if n else ["", "-"]))]
        tokens += [draw(st.sampled_from(["", "", "0", "1", "2", "3/2", "1/7", "007", "9" * 4300]))]
        tokens += draw(st.lists(st.one_of(letter, letter, st.just("1")), max_size=6))
    tokens = [t for t in tokens if t]
    mistake = draw(st.sampled_from([None] * 4 + POLY_MISTAKES))
    if mistake:
        tokens.insert(draw(st.integers(0, len(tokens))), mistake)
    spaces = st.sampled_from([" ", " ", "  ", "\t", "\n", ""])
    text = "".join(tok + draw(spaces) for tok in tokens)
    return algebra, draw(st.sampled_from(["", " "])) + text, draw(st.sampled_from([None, 5]))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(poly_texts())
def test_parse_poly_matches_oracle(case):
    # terms in key order, coefficient types included, or the same error
    algebra, text, line = case
    hypothesis.assume(not _sign_run(text))
    assert _parsed(lambda A, t: parse_poly(A, t, line), algebra, text) == _parsed(
        lambda A, t: leavitt_oracle.parse_poly(A, t, line), algebra, text)


@pytest.mark.parametrize("mistake", POLY_MISTAKES)
@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_parse_poly_matches_oracle_on_mistakes(mistake, field):
    for d in (1, 2, 3):
        for text in (mistake, f"x0 {mistake}", f"2 x0 - {mistake} x0", f"x0 + 1/2 {mistake}"):
            if _sign_run(text):
                continue
            assert _parsed(parse_poly, FreeAlgebra(d, field), text) == _parsed(
                leavitt_oracle.parse_poly, FreeAlgebra(d, field), text)


@pytest.mark.parametrize("text, value", [
    ("x0 + - x1", "x0 - x1"), ("x0 - - x1", "x0 + x1"), ("x0 + + x1", "x0 + x1"),
    ("x0 - + - 2 x1", "x0 + 2 x1"), ("- - x0 -  -\t- 1/2 x1", "x0 - 1/2 x1"), ("3 - - 1", "4"),
])
def test_parse_poly_reads_a_run_of_signs_as_their_product(A2, text, value):
    assert parse_poly(A2, text) == parse_poly(A2, value)
    assert parse_leavitt(A2, text).equals(parse_leavitt(A2, value))


@pytest.mark.parametrize("text", ["x0 -", "x0 +", "x0 - -", "2 x0 + x1 - \n", "x0* x0 +"])
def test_parse_refuses_a_trailing_sign(A2, text):
    if "*" not in text:
        with pytest.raises(ParseError, match="ends in a sign"):
            parse_poly(A2, text)
    with pytest.raises(ParseError, match="ends in a sign"):
        parse_leavitt(A2, text)


def test_sign_run_marks_the_texts_the_oracle_reads_differently():
    for text in ("x0 + - x1", "x0 -", "1 + +", "x0 - \t+ x1", "x0* x0 - - 1"):
        assert _sign_run(text)
    for text in ("- - x0", "x0 - x1", "-", "- -", "x0 - 1/2 x1", "+ - 3 x0 - x1"):
        assert not _sign_run(text)


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


@pytest.mark.parametrize("header, error", [
    ("d: 0_2", "line 2: d must be an integer of at most 4300 ASCII digits, got '0_2'"),
    ("d: \u0662", "line 2: d must be an integer of at most 4300 ASCII digits, got '\u0662'"),
    ("gens: [0_0, 1_1]", "line 3: a gens shift must be an integer of at most 4300 ASCII digits, got '0_0'"),
    ("gens: [0, 1_1]", "line 3: a gens shift must be an integer of at most 4300 ASCII digits, got '1_1'"),
    ("gens: [0, \u0661]", "line 3: a gens shift must be an integer of at most 4300 ASCII digits, got '\u0661'"),
])
def test_presentation_integers_are_sign_and_ascii_digits(header, error):
    # int() reads each of these, so a typo such as 1_1 for 1, 1 changed the module
    lines = ["field: QQ", "d: 2", "gens: [0, 1]", "rels:"]
    lines[1 if header.startswith("d:") else 2] = header
    with pytest.raises(ParseError) as info:
        parse_presentation("\n".join(lines) + "\n")
    assert str(info.value) == error


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

    # a repeated header is refused at its second line, naming the first
    for first, (key, again) in enumerate((("name", "b"), ("field", "GF(5)"), ("d", "3"), ("gens", "[1]")), 1):
        text = f"name: a\nfield: QQ\nd: 2\ngens: [0]\n# note\n{key}: {again}\nrels:\nx0\n"
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert str(info.value) == f"line 6: repeated {key!r} header; the first is on line {first}"
