"""Text grammars: polynomials, Leavitt expressions, presentation files.

Polynomial grammar: terms joined by "+" / "-" (a run of signs is their
product, and none ends a text); a term is an optional signed rational
coefficient ("3", "-1/2") followed by a word; a word is letters "x0 x1 x0"
juxtaposed with spaces, or "1" for the empty word.  The Leavitt grammar
adds starred letters "x0*".  Printing emits exactly this grammar, so
parse and print are mutually inverse on canonical forms.

An expression is read a term at a time, by one reader: one anchored regex
match per term gives its sign run, its coefficient and its run of words, and
each word is looked up in a table of the in-range letters of d, up to x255
("x0" -> 0, and "x0*" -> ~0 in the Leavitt grammar), which also checks its
range.  A run the table misses (juxtaposed letters "x0x1", "x01", a "1"
between letters, a letter past the table or out of range) is read again a
letter at a time.  The same reader raises every ParseError, as reading one
token at a time would meet it: a character that starts no token, anywhere,
wins (one anchored match of the token grammar finds it, on the error path
only); otherwise the first fault in reading order, a letter out of range
being reported when its term closes, at the next sign or the end.  A
Leavitt term whose stars all come before its plain letters is the monomial
(reversed stars, plain letters) as it stands; `mono_mul` multiplies in
only the letters from a star after a plain letter on.

A presentation file's relation line is read once: the terms of each cell
are summed straight into one {(coordinate, word): coefficient} dict, the
key order `parse_poly` per cell and then `from_polys` would give, and the
homogeneity check reads that dict's keys.  The file holds each relation as
that element of its free module F0, and `module()` hands them to FpModule
as they are.
"""

from __future__ import annotations

import itertools
import re
from functools import cache, lru_cache

from .errors import ParseError
from .fields import MAX_LITERAL_DIGITS, field_from_spec, read_int
from .fpmod import FpModule
from .freealg import FreeAlgebra, FreeModuleElement, NcPoly
from .leavitt import LeavittElement, mono_mul
from .linalg import _add_terms

# Tokens and the space between them in one greedy match, read on the error
# path only.  It never needs to backtrack into a token, so it ends where
# reading one token at a time stops: at the first character that starts no
# token, or at the end.
_TOKENS = re.compile(r"(?:\s*(?:x[0-9]+\*?|[0-9]+/[0-9]+|[0-9]+|[+-]))*\s*")
# One term as (sign run, coefficient, word run), each part optional, read
# greedily with no backtracking.  A word is a letter or "1", the empty word,
# where no digit or "/" follows it; the run is its letters, then each "1"
# with the letters after it.  The words of a run are its letters only where
# spaces part them: "x0x1" is one word, which no letter table holds.
_LETTERS = r"(?:x[0-9]+\*?\s*)*"
_TERM = re.compile(rf"\s*([+-][\s+-]*)?([0-9]+/[0-9]+|[0-9]+)?\s*({_LETTERS}(?:1(?![0-9/])\s*{_LETTERS})*)")
# one letter of a run as (index, star)
_LETTER = re.compile(r"x([0-9]+)(\*?)")
# the most letters a letter table holds, so that a huge d builds no huge table
_TABLE_LETTERS = 256


@cache
def _letter_table(n: int, starred: bool) -> dict:
    """{"x0": 0, .., "x{n-1}": n - 1}, and also "x{i}*": ~i when starred."""
    table = {f"x{i}": i for i in range(n)}
    if starred:
        table.update({f"x{i}*": ~i for i in range(n)})
    return table


def _terms(field, d, text: str, line=None, starred=False):
    """[(letters, coefficient)] for the terms of text, in order, one `_TERM`
    match each; letters is a tuple, the letter x_i is i and x_i* is ~i.  A
    run of signs multiplies and opens every term after the first; a number
    is a coefficient only as a term's first atom.  A run the letter table
    misses is read by `_run_letters`.  Faults are raised as a token loop
    meets them (module docstring): a bad character anywhere first, else the
    first in reading order, a letter out of range when its term closes."""
    lookup = _letter_table(min(d, _TABLE_LETTERS), starred).__getitem__
    one, neg, from_str, match = field.one, field.neg, field.from_str, _TERM.match
    terms, pos, end, wide = [], 0, len(text), None  # wide: the open term's range error
    try:
        while True:
            m = match(text, pos)
            signs, number, run = m.groups()
            if not (number or run) or terms and not signs or wide:
                if terms and not signs:  # a number inside the open term, or a bad character
                    raise ParseError(f"unexpected coefficient {number!r} inside a term", line)
                if wide:
                    raise wide
                # a trailing sign, or a bad character
                raise ParseError("the expression ends in a sign" if terms else "empty expression", line)
            coeff = from_str(number, line) if number else one
            if signs and signs.count("-") & 1:
                coeff = neg(coeff)
            try:
                letters = tuple(map(lookup, run.split()))
            except KeyError:
                letters, wide = _run_letters(run, d, starred, line)
            terms.append((letters, coeff))
            pos = m.end()
            if pos == end:
                if wide:
                    raise wide
                return terms
    except ParseError:
        end = _TOKENS.match(text).end()
        if end < len(text):
            raise ParseError(f"unexpected character {text[end]!r}", line) from None
        raise


def _run_letters(run: str, d, starred, line):
    """(the letters of a word run, read a letter at a time, the ParseError
    of its first letter whose index is not below d, or None).  A starred
    letter where none is allowed and a too-long index are raised at once."""
    letters, wide = [], None
    for digits, star in _LETTER.findall(run):
        if star and not starred:
            raise ParseError(f"starred letter {'x' + digits + star!r} not allowed here", line)
        # the regex read ASCII digits; read_int only refuses a too-long index
        i = int(digits) if len(digits) <= MAX_LITERAL_DIGITS else read_int(digits, "a letter index", line)
        if i >= d and wide is None:
            wide = ParseError(f"letter x{i} out of range for d={d}", line)
        letters.append(~i if star else i)
    return tuple(letters), wide


def parse_poly(algebra, text: str, line=None):
    """Parse the polynomial grammar into an NcPoly over the given algebra."""
    terms: dict = {}
    _add_terms(algebra.field, terms, _terms(algebra.field, algebra.d, text, line))
    return NcPoly(algebra, terms)


def parse_leavitt(algebra, text: str, line=None):
    """Parse the Leavitt grammar into the sum of its terms in text order.
    A term's leading stars and the plain letters after them are its
    monomial (reversed stars, plain letters); `mono_mul` folds in each
    later letter, and a zero junction makes the term zero."""
    terms = []
    for letters, coeff in _terms(algebra.field, algebra.d, text, line, starred=True):
        n, k = len(letters), 0
        while k < n and letters[k] < 0:
            k += 1
        j = k
        while j < n and letters[j] >= 0:
            j += 1
        mon = (tuple([~i for i in letters[k - 1::-1]]) if k else (), letters[k:j])
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
    """The text of items, (coefficient, word text) pairs in print order:
    each term signed, then the sign of the first fixed up; "0" for none."""
    one, to_str = field.one, field.to_str
    chunks = []
    for coeff, body in items:
        sign = "+ "
        if coeff < 0:
            sign, coeff = "- ", -coeff
        if not body:
            chunks.append(sign + to_str(coeff))
        elif coeff == one:
            chunks.append(sign + body)
        else:
            chunks.append(f"{sign}{to_str(coeff)} {body}")
    if not chunks:
        return "0"
    text = " ".join(chunks)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _poly_order(w):
    return len(w), w


def _leavitt_order(mon):
    w, v = mon
    return len(w) + len(v), w, v


def format_poly(poly) -> str:
    terms = poly.terms
    words = sorted(terms, key=_poly_order, reverse=True)
    name = {i: f"x{i}" for i in set().union(*words)}.__getitem__
    return _format_terms(poly.algebra.field, [(terms[w], " ".join(map(name, w))) for w in words])


@lru_cache(maxsize=32)
def _letter_names(letters) -> tuple:
    """The lookups i -> "x{i}" and i -> "x{i}*" over the letters, range(d) up to x255."""
    return {i: f"x{i}" for i in letters}.__getitem__, {i: f"x{i}*" for i in letters}.__getitem__


def format_leavitt(elem) -> str:
    terms, d = elem.terms, elem.algebra.d
    keys = sorted(terms, key=_leavitt_order)
    letters = range(d) if d <= _TABLE_LETTERS else frozenset().union(*itertools.chain.from_iterable(keys))
    name, star = _letter_names(letters)
    items = [(terms[w, v], " ".join([*map(star, reversed(w)), *map(name, v)])) for w, v in keys]
    return _format_terms(elem.algebra.field, items)


# ---------------------------------------------------------------------------
# presentation files


class PresentationFile:
    """A parsed module presentation: field, d, name, the free module F0 on
    the generator shifts, and each relation line as an element of F0."""

    def __init__(self, name, F0, relations):
        self.field = F0.algebra.field
        self.d = F0.algebra.d
        self.name = name
        self.shifts = F0.shifts
        self.F0 = F0
        self.relations = tuple(relations)

    def module(self):
        return FpModule(self.F0, self.relations)


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

    F0 = FreeAlgebra(d, field).free_module(shifts)
    relations = []
    for ln, line in rel_lines:
        cells = line.split(",")
        if len(cells) != len(shifts):
            raise ParseError(
                f"relation row has {len(cells)} entries, expected {len(shifts)}", ln
            )
        terms: dict = {}
        _add_terms(field, terms, [((beta, w), c)
                                  for beta, cell in enumerate(cells) for w, c in _terms(field, d, cell, ln)])
        degs = {len(w) + shifts[beta] for beta, w in terms}
        if len(degs) > 1:
            raise ParseError(f"relation row is not homogeneous (degrees {sorted(degs)})", ln)
        relations.append(FreeModuleElement(F0, terms))
    return PresentationFile(name, F0, relations)
