"""Text grammars: polynomials, Leavitt expressions, presentation files.

Polynomial grammar: terms joined by "+" / "-" (a run of signs is their
product, and none ends a text); a term is an optional signed rational
coefficient ("3", "-1/2") followed by a word; a word is letters "x0 x1 x0"
juxtaposed with spaces, or "1" for the empty word.  The Leavitt grammar
adds starred letters "x0*".  Printing emits exactly this grammar, so
parse and print are mutually inverse on canonical forms.

An expression is read in one pass.  One anchored regex match checks the
whole text, and where it stops is the first character no token starts; one
`findall` then hands over the tokens, each already sorted into letter,
number or sign by its regex group, and a letter index is `int` of ASCII
digits.  A Leavitt term whose stars all come before its plain letters is
the monomial (reversed stars, plain letters) as it stands; `mono_mul`
multiplies in only the letters from a star after a plain letter on.
"""

from __future__ import annotations

import itertools
import re

from .errors import ParseError
from .fields import MAX_LITERAL_DIGITS, field_from_spec, read_int
from .fpmod import FpModule
from .freealg import FreeAlgebra, NcPoly
from .leavitt import LeavittElement, mono_mul
from .linalg import _add_terms

# one token as (letter index, star, number, sign): the one group it fills
_TOKEN = re.compile(r"\s*(?:x([0-9]+)(\*?)|([0-9]+/[0-9]+|[0-9]+)|([+-]))")
# Tokens and the space between them in one greedy match.  It never needs to
# backtrack into a token, so it ends where reading one token at a time
# stops: at the first character that starts no token, or at the end.
_TOKENS = re.compile(rf"(?:{_TOKEN.pattern})*\s*")


def _terms(field, d, text: str, line=None, starred=False):
    """Yield (coefficient, letters) for each term of text, in order; the
    letter x_i is i and x_i* is ~i.  A run of signs multiplies, its first
    sign closes the term before it, and a trailing sign is refused.  A number
    is a coefficient only as a term's first atom; "1" is the empty word.
    Each term's atoms are read, then its letters range checked."""
    end = _TOKENS.match(text).end()
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", line)
    sign, coeff, letters, k, seen = 1, field.one, [], 0, False  # k: atoms read in the term
    for digits, star, number, op in _TOKEN.findall(text):
        if op:
            if k:
                yield _checked(field, sign, coeff, letters, d, line)
                sign, coeff, letters, k = 1, field.one, [], 0
            if op == "-":
                sign = -sign
            continue
        if digits:
            if star and not starred:
                raise ParseError(f"starred letter {'x' + digits + star!r} not allowed here", line)
            # the lexer read ASCII digits; read_int only refuses a too-long index
            i = int(digits) if len(digits) <= MAX_LITERAL_DIGITS else read_int(digits, "a letter index", line)
            letters.append(~i if star else i)
        elif number != "1":  # "1" is the empty word
            if k:
                raise ParseError(f"unexpected coefficient {number!r} inside a term", line)
            coeff = field.from_str(number)
        k += 1
        seen = True
    if k:
        yield _checked(field, sign, coeff, letters, d, line)
    else:
        raise ParseError("the expression ends in a sign" if seen else "empty expression", line)


def _checked(field, sign, coeff, letters, d, line):
    """The signed coefficient and the letters of a term; ParseError naming
    its first letter, in text order, whose index is not below d."""
    if letters and (max(letters) >= d or min(letters) < -d):
        i = next(i for i in letters if not -d <= i < d)
        raise ParseError(f"letter x{~i if i < 0 else i} out of range for d={d}", line)
    return (field.neg(coeff) if sign < 0 else coeff), letters


def parse_poly(algebra, text: str, line=None):
    """Parse the polynomial grammar into an NcPoly over the given algebra."""
    terms: dict = {}
    words = _terms(algebra.field, algebra.d, text, line)
    _add_terms(algebra.field, terms, [(tuple(word), c) for c, word in words])
    return NcPoly(algebra, terms)


def parse_leavitt(algebra, text: str, line=None):
    """Parse the Leavitt grammar into the sum of its terms in text order.
    A term's leading stars and the plain letters after them are its
    monomial (reversed stars, plain letters); `mono_mul` folds in each
    later letter, and a zero junction makes the term zero."""
    terms = []
    for coeff, letters in _terms(algebra.field, algebra.d, text, line, starred=True):
        n, k = len(letters), 0
        while k < n and letters[k] < 0:
            k += 1
        j = k
        while j < n and letters[j] >= 0:
            j += 1
        mon = (tuple(~i for i in reversed(letters[:k])), tuple(letters[k:j]))
        for i in letters[j:]:
            mon = mono_mul(mon, ((~i,), ()) if i < 0 else ((), (i,)))
            if mon is None:
                break
        else:
            terms.append((mon, coeff))
    out: dict = {}
    _add_terms(algebra.field, out, terms)
    return LeavittElement(algebra, out)


# ---------------------------------------------------------------------------
# printing


def _format_terms(field, items):
    """items: list of (coefficient, word text), in print order."""
    if not items:
        return "0"
    chunks = []
    for n, (coeff, body) in enumerate(items):
        try:
            negative = coeff < 0
        except TypeError:
            negative = False
        mag = field.neg(coeff) if negative else coeff
        if not body:
            text = field.to_str(mag)
        elif mag == field.one:
            text = body
        else:
            text = f"{field.to_str(mag)} {body}"
        if n == 0:
            chunks.append(("-" if negative else "") + text)
        else:
            chunks.append(("- " if negative else "+ ") + text)
    return " ".join(chunks)


def format_poly(poly) -> str:
    F = poly.algebra.field
    words = sorted(poly.terms, key=lambda w: (len(w), w), reverse=True)
    name = {i: f"x{i}" for i in set().union(*words)}
    items = [(poly.terms[w], " ".join([name[i] for i in w])) for w in words]
    return _format_terms(F, items)


def format_leavitt(elem) -> str:
    keys = sorted(elem.terms, key=lambda wv: (len(wv[0]) + len(wv[1]), wv[0], wv[1]))
    letters = set().union(*itertools.chain.from_iterable(keys))
    name, star = {i: f"x{i}" for i in letters}, {i: f"x{i}*" for i in letters}
    items = [(elem.terms[w, v], " ".join([star[i] for i in reversed(w)] + [name[i] for i in v])) for w, v in keys]
    return _format_terms(elem.algebra.field, items)


# ---------------------------------------------------------------------------
# presentation files


class PresentationFile:
    """A parsed module presentation: field, d, name, generator shifts, relation rows."""

    def __init__(self, field, d, name, shifts, rel_rows):
        self.field = field
        self.d = d
        self.name = name
        self.shifts = tuple(shifts)
        self.rel_rows = rel_rows  # list of lists of NcPoly

    def algebra(self):
        return FreeAlgebra(self.d, self.field)

    def module(self):
        A = self.algebra()
        F0 = A.free_module(self.shifts)
        rels = [F0.from_polys(row) for row in self.rel_rows]
        return FpModule(F0, rels)


def parse_presentation(text: str) -> PresentationFile:
    field = None
    d = None
    name = None
    shifts = None
    rel_lines = []
    seen = {}
    in_rels = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_rels:
            rel_lines.append((ln, line))
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}", ln)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ParseError(f"repeated {key!r} header; the first is on line {seen[key]}", ln)
        seen[key] = ln
        if key == "field":
            field = field_from_spec(value)
        elif key == "d":
            d = read_int(value, "d", ln)
            if d < 1:
                raise ParseError("d must be at least 1", ln)
        elif key == "name":
            name = value
        elif key == "gens":
            if not (value.startswith("[") and value.endswith("]")):
                raise ParseError("gens must be a bracketed list like [0, 1]", ln)
            inner = value[1:-1].strip()
            shifts = [read_int(s.strip(), "a gens shift", ln) for s in inner.split(",")] if inner else []
        elif key == "rels":
            if value:
                raise ParseError("relations go on the lines after 'rels:'", ln)
            in_rels = True
        else:
            raise ParseError(f"unknown header key {key!r}", ln)
    if field is None:
        raise ParseError("missing 'field:' header")
    if d is None:
        raise ParseError("missing 'd:' header")
    if shifts is None:
        raise ParseError("missing 'gens:' header")

    A = FreeAlgebra(d, field)
    rows = []
    for ln, line in rel_lines:
        cells = line.split(",")
        if len(cells) != len(shifts):
            raise ParseError(
                f"relation row has {len(cells)} entries, expected {len(shifts)}", ln
            )
        row = [parse_poly(A, cell, ln) for cell in cells]
        # homogeneity against the shifts
        degs = set()
        for beta, p in enumerate(row):
            for w in p.terms:
                degs.add(len(w) + shifts[beta])
        if len(degs) > 1:
            raise ParseError(f"relation row is not homogeneous (degrees {sorted(degs)})", ln)
        rows.append(row)
    return PresentationFile(field, d, name, shifts, rows)
