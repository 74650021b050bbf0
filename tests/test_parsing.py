import random
import re
from fractions import Fraction
from unittest import mock

import hypothesis
import hypothesis.strategies as st
import pytest

import leavitt_oracle
import text_oracle
from freeproj import FreeAlgebra, parsing
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


@pytest.mark.parametrize("field, text, printed", [
    (QQ, "x1 - 2 x0 x1 + 3/2", "-2 x0 x1 + x1 + 3/2"),
    (QQ, "-1/2 - x0 + x1 x1", "x1 x1 - x0 - 1/2"),
    (QQ, "-1", "-1"),
    (QQ, "x0 - x0", "0"),
    (GF(7), "-1/2 - x0 + x1 x1", "x1 x1 + 6 x0 + 3"),
])
def test_format_poly_signs_each_term_and_fixes_the_first(field, text, printed):
    assert format_poly(parse_poly(FreeAlgebra(2, field), text)) == printed


@pytest.mark.parametrize("field, text, printed", [
    (QQ, "-2 x1* x0 x0 + x0* - 1/3", "-1/3 + x0* - 2 x1* x0 x0"),
    (QQ, "x0* x1 - x1 x0", "-x1 x0 + x0* x1"),
    (QQ, "-x0* x0* x0 x1", "-x0* x0* x0 x1"),
    (QQ, "x0* x0 + x1* x1 - 1", "0"),
    (GF(7), "-x1* x0 + 1/2 x0*", "4 x0* + 6 x1* x0"),
])
def test_format_leavitt_signs_each_term_and_fixes_the_first(field, text, printed):
    assert str(parse_leavitt(FreeAlgebra(2, field), text)) == printed


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


# separators between tokens: \xa0 and \x1c are whitespace to the grammar,
# and none at all juxtaposes two tokens ("2x0x1*", "x0" "1" as "x01")
SEPARATORS = st.sampled_from([" "] * 6 + ["  ", "\t", "\n", "\xa0", "\x1c", ""])
SPACES = st.sampled_from([" "] * 6 + ["  ", "\t", "\n", "\xa0", "\x1c"])
# a run of signs, spaced or not, now and then in place of one sign
SIGNS = st.sampled_from(["+", "-"] * 6 + ["- -", "+-", "-\t+ -"])
# d = 258 is above the letters a letter table holds
DEGREES = st.sampled_from([1, 2, 3, 3, 258])


@st.composite
def blanks(draw):
    """Empty or whitespace-only text."""
    return draw(st.text(st.sampled_from(" \t\n\xa0\x1c"), max_size=3))


@st.composite
def letters_of(draw, d, starred):
    """A letter of k<x0..x_{d-1}>, starred now and then when starred is set;
    at d = 258 often one of x256, x257."""
    i = draw(st.integers(0, d - 1) | st.integers(max(d - 2, 0), d - 1))
    return f"x{i}" + ("*" if starred and draw(st.booleans()) else "")


@st.composite
def leavitt_texts(draw):
    """Leavitt expressions over QQ or GF(7) at d in DEGREES: zero
    coefficients, bare 1 (also between letters), runs of one letter
    (cancelling and killing junctions), runs of signs, any SEPARATORS and
    leading or trailing whitespace; now and then one letter at d or far
    above, an index with a leading zero or one misplaced coefficient; or
    blanks.  Half the texts are smooth: spaced, with no bare 1 after a
    letter and no mistake, so the letter table reads most of them."""
    algebra = FreeAlgebra(draw(DEGREES), draw(st.sampled_from([QQ, GF(7)])))
    if draw(st.integers(0, 15)) == 0:
        return algebra, draw(blanks())
    rough = draw(st.booleans())
    letter = letters_of(algebra.d, True)
    atom = st.one_of(letter, letter, letter, st.just("1")) if rough else letter
    terms = []
    for n in range(draw(st.integers(1, 5))):
        sign = draw(SIGNS if n else st.sampled_from(["", "-", "- -"]))
        coeff = draw(st.sampled_from(["", "", "0", "1", "2", "3/2", "-"]))
        atoms = draw(st.lists(atom, max_size=6))
        terms.append(([t for t in [sign, coeff] if t], atoms))
    mistake = draw(st.sampled_from([None] * 6 + [f"x{algebra.d}", f"x{algebra.d + 1}*", f"x{algebra.d + 999}",
                                                 "x01", "x00*", "5"])) if rough else None
    if mistake:
        atoms = draw(st.sampled_from(terms))[1]
        atoms.insert(draw(st.integers(0, len(atoms))), mistake)
    tokens = [t for head, atoms in terms for t in head + atoms]
    text = "".join(tok + draw(SEPARATORS if rough else SPACES) for tok in tokens)
    return algebra, draw(blanks()) + text + draw(blanks())


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
                 "5", "&", "x\u0661", "+ +", "-", "x01", "x999", "x1*x0", "2x0x1"]


@st.composite
def poly_texts(draw):
    """Polynomial texts over QQ or GF(7) at d in DEGREES, their tokens
    joined by any SEPARATORS, with runs of signs and leading or trailing
    whitespace; now and then with one of POLY_MISTAKES put anywhere, so
    also after a valid prefix; or blanks.  Half the texts are smooth, as in
    `leavitt_texts`."""
    algebra = FreeAlgebra(draw(DEGREES), draw(st.sampled_from([QQ, GF(7)])))
    line = draw(st.sampled_from([None, 5]))
    if draw(st.integers(0, 15)) == 0:
        return algebra, draw(blanks()), line
    rough = draw(st.booleans())
    letter = letters_of(algebra.d, False)
    tokens = []
    for n in range(draw(st.integers(1, 5))):
        tokens += [draw(SIGNS if n else st.sampled_from(["", "-"]))]
        tokens += [draw(st.sampled_from(["", "", "0", "1", "2", "3/2", "1/7", "007", "9" * 4300]))]
        tokens += draw(st.lists(st.one_of(letter, letter, st.just("1")) if rough else letter, max_size=6))
    tokens = [t for t in tokens if t]
    mistake = draw(st.sampled_from([None] * 4 + POLY_MISTAKES)) if rough else None
    if mistake:
        tokens.insert(draw(st.integers(0, len(tokens))), mistake)
    text = "".join(tok + draw(SEPARATORS if rough else SPACES) for tok in tokens)
    return algebra, draw(blanks()) + text + draw(blanks()), line


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(poly_texts())
def test_parse_poly_matches_oracle(case):
    # terms in key order, coefficient types included, or the same error
    algebra, text, line = case
    hypothesis.assume(not _sign_run(text))
    assert _parsed(lambda A, t: parse_poly(A, t, line), algebra, text) == _parsed(
        lambda A, t: leavitt_oracle.parse_poly(A, t, line), algebra, text)


def _read(reader, algebra, text, line, starred):
    try:
        terms = reader(algebra.field, algebra.d, text, line, starred)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [(letters, type(c), c) for letters, c in terms]


# the fragment of each ParseError message the term reader raises
ERROR_KINDS = ("unexpected character", "unexpected coefficient", "starred letter", "a letter index", "out of range",
               "ends in a sign", "empty expression", "bad rational", "has no value")


def _read_kind(algebra, text, line, starred):
    """How `parsing._terms` reads text: "table run" when every word run is
    looked up in the letter table, "word-by-word run" when one is read a
    letter at a time, else the ERROR_KINDS fragment of its ParseError."""
    with mock.patch.object(parsing, "_run_letters", wraps=parsing._run_letters) as by_letter:
        try:
            parsing._terms(algebra.field, algebra.d, text, line, starred)
        except ParseError as exc:
            return next(kind for kind in ERROR_KINDS if kind in str(exc))
    return "word-by-word run" if by_letter.called else "table run"


A2_QQ, A2_GF7, A300 = FreeAlgebra(2), FreeAlgebra(2, GF(7)), FreeAlgebra(300)


def test_term_reader_matches_token_loop():
    # on every text, sign runs too: the same terms in order with the same
    # value types, or the same error with the same line; each way of
    # reading and each error is drawn, and pinned by an example
    kinds = set()

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.one_of(leavitt_texts().map(lambda case: (*case, None, True)),
                                poly_texts().map(lambda case: (*case, False))))
    @hypothesis.example((A2_QQ, "x0* x1 - 3/2 x0 + 2", None, True))
    @hypothesis.example((A300, "x0 x1 + x255 x256", 5, False))
    @hypothesis.example((A2_QQ, "x0 + &", None, False))
    @hypothesis.example((A2_QQ, "x0 3", 5, False))
    @hypothesis.example((A2_QQ, "x9 x0*", None, False))
    @hypothesis.example((A2_QQ, "x" + "9" * 4400, None, True))
    @hypothesis.example((A2_QQ, "x0 x9 - x1", 5, True))
    @hypothesis.example((A2_QQ, "x0 -", None, True))
    @hypothesis.example((A2_QQ, "- -", None, False))
    @hypothesis.example((A2_QQ, "x0 - 2/0", None, False))
    @hypothesis.example((A2_GF7, "1/7 x0", 5, False))
    def check(case):
        algebra, text, line, starred = case
        want = _read(text_oracle._token_terms, algebra, text, line, starred)
        assert _read(parsing._terms, algebra, text, line, starred) == want
        kinds.add(_read_kind(algebra, text, line, starred))

    check()
    assert {"table run", "word-by-word run", *ERROR_KINDS} <= kinds, kinds


@pytest.mark.parametrize("text", [
    "x0 x1* - 2 x1", "3/2x0x1*", "x0\tx1\n- x0\xa0x1*\x1c+ 1", "  - - x0 ", "x01 x0", "x0 1 x1", "x2", "x999",
    "", " \t", "x0 -", "2 3", "x0* x1", "1 x0 + 01 x1",
])
@pytest.mark.parametrize("starred", [False, True])
def test_term_reader_matches_token_loop_on_examples(A2, text, starred):
    assert _read(parsing._terms, A2, text, 7, starred) == _read(text_oracle._token_terms, A2, text, 7, starred)


@pytest.mark.parametrize("d, text, starred, want", [
    (2, "x0x1", False, [((0, 1), 1)]),
    (2, "2x0x1*", True, [((0, ~1), 2)]),
    (2, "x01 x0", False, [((1, 0), 1)]),
    (2, "x0 1 x1", False, [((0, 1), 1)]),
    (2, "2 1", False, [((), 2)]),
    (2, "1 1", False, [((), 1)]),
    (300, "x255 x256 x299*", True, [((255, 256, ~299), 1)]),
    (2, "x9 + &", False, "unexpected character '&'"),
    (2, "x0 3", False, "unexpected coefficient '3' inside a term"),
    (2, "x0*", False, "starred letter 'x0*' not allowed here"),
    (2, "x9 x0*", False, "starred letter 'x0*' not allowed here"),
    (2, "x" + "9" * 4400, True, "a letter index must be an integer of at most 4300 ASCII digits"),
    (2, "2/0", False, "bad rational '2/0'"),
    (2, "x0 -", True, "the expression ends in a sign"),
    (2, "- -", False, "empty expression"),
])
def test_term_reader_reads_pinned_texts_as_the_token_loop(d, text, starred, want):
    # spellings the letter table misses are read in place, and each error
    # is the one the token loop raises first, with its line
    algebra = FreeAlgebra(d)
    got = _read(parsing._terms, algebra, text, 3, starred)
    assert got == _read(text_oracle._token_terms, algebra, text, 3, starred)
    if isinstance(want, list):
        assert got == [(letters, int, c) for letters, c in want]
    else:
        assert got[0] is ParseError and want in got[1] and got[2] == 3


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
    lines += [", ".join(format_poly(p) for p in rel.polys()) for rel in pf.relations]
    return "\n".join(lines) + "\n"


def test_presentation_round_trip():
    pf = parse_presentation(PRESENTATION)
    again = parse_presentation(render(pf))
    assert again.shifts == pf.shifts
    assert [r.polys() for r in again.relations] == [r.polys() for r in pf.relations]
    assert render(again) == render(pf)


def test_presentation_multi_column():
    text = "field: GF(5)\nd: 2\ngens: [0, 1]\nrels:\nx0 x1, x0\nx1 x1, x1\n"
    pf = parse_presentation(text)
    assert pf.field == GF(5)
    assert len(pf.relations) == 2
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
    assert str(info.value) == "line 5: relation row is not homogeneous (degrees [0, 1])"
    # the degrees of all the cells of a row, each against its generator's shift
    with pytest.raises(ParseError) as info:
        parse_presentation("field: QQ\nd: 2\ngens: [0, 1]\nrels:\nx0 x1, x1\nx0, x1\n")
    assert str(info.value) == "line 6: relation row is not homogeneous (degrees [1, 2])"

    with pytest.raises(ParseError):
        parse_presentation("d: 2\ngens: [0]\nrels:\n")  # missing field

    # a coefficient's error names its line too
    for field, cell, error in (("QQ", "2/0 x1", "bad rational '2/0'"),
                               ("GF:5", "1/5 x1", "'1/5' has no value in GF(5): its denominator is divisible by 5")):
        with pytest.raises(ParseError) as info:
            parse_presentation(f"field: {field}\nd: 2\ngens: [0]\n# note\nrels:\n{cell}\n")
        assert str(info.value) == f"line 6: {error}" and info.value.line == 6

    # a repeated header is refused at its second line, naming the first
    for first, (key, again) in enumerate((("name", "b"), ("field", "GF(5)"), ("d", "3"), ("gens", "[1]")), 1):
        text = f"name: a\nfield: QQ\nd: 2\ngens: [0]\n# note\n{key}: {again}\nrels:\nx0\n"
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert str(info.value) == f"line 6: repeated {key!r} header; the first is on line {first}"


def test_presentation_relations_keep_the_key_order_of_their_cells():
    # each relation line is summed straight into one element of F0: its keys,
    # values and value types are those of parse_poly per cell, then from_polys,
    # cancellations and terms that come back after one included
    rng = random.Random(4242)
    for field in (QQ, GF(5)):
        for d in (1, 2, 3):
            A = FreeAlgebra(d, field)
            shifts = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
            lines = []
            for _ in range(6):
                top = max(shifts) + rng.randint(0, 2)
                cells = []
                for b in shifts:
                    words = [" ".join(f"x{rng.randrange(d)}" for _ in range(top - b)) or "1" for _ in range(3)]
                    terms = [f"{rng.choice(['+', '-'])} {rng.choice(['', '2', '1/3'])} {rng.choice(words)}"
                             for _ in range(rng.randint(0, 6))]
                    cells.append(" ".join(terms).lstrip("+ ") or "0")
                lines.append(", ".join(cells))
            pf = parse_presentation(f"field: {field.name}\nd: {d}\ngens: {shifts}\nrels:\n" + "\n".join(lines) + "\n")
            assert len(pf.relations) == len(lines)
            for rel, line in zip(pf.relations, lines):
                want = pf.F0.from_polys([parse_poly(A, cell) for cell in line.split(",")])
                assert rel.module is pf.F0
                assert [(m, type(c), c) for m, c in rel.terms.items()] == \
                       [(m, type(c), c) for m, c in want.terms.items()]
