"""Text grammars: polynomials, Leavitt expressions, presentation files.

Polynomial grammar: terms joined by "+" / "-"; a term is an optional signed
rational coefficient ("3", "-1/2") followed by a word; a word is letters
"x0 x1 x0" juxtaposed with spaces, or "1" for the empty word.  The Leavitt
grammar adds starred letters "x0*".  Printing emits exactly this grammar, so
parse and print are mutually inverse on canonical forms.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import field_from_spec
from .fpmod import FpModule
from .freealg import FreeAlgebra, NcPoly
from .leavitt import LeavittElement, mono_mul
from .linalg import _add_terms

_TOKEN = re.compile(r"\s*(x\d+\*?|\d+/\d+|\d+|[+-])")


def _tokenize(text: str, line=None):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", line)
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _split_terms(tokens, line=None):
    """Group a token stream into (sign, [atoms]) chunks."""
    terms = []
    sign = 1
    atoms: list = []
    seen_atom = False
    for tok in tokens:
        if tok in "+-":
            if seen_atom:
                terms.append((sign, atoms))
                atoms = []
                sign = 1
            sign *= -1 if tok == "-" else 1
        else:
            atoms.append(tok)
            seen_atom = True
    if atoms:
        terms.append((sign, atoms))
    elif not terms:
        raise ParseError("empty expression", line)
    return terms


def _parse_term(field, sign, atoms, line=None, starred=False):
    """Returns (coefficient, list of (letter index, is_starred))."""
    coeff = field.one
    gens = []
    for k, tok in enumerate(atoms):
        if tok[0] == "x":
            star = tok.endswith("*")
            if star and not starred:
                raise ParseError(f"starred letter {tok!r} not allowed here", line)
            digits = tok[1:-1] if star else tok[1:]
            try:
                gens.append((int(digits), star))
            except ValueError:  # more digits than int() reads
                raise ParseError(f"letter x{digits[:6]}... has an index of {len(digits)} digits", line) from None
        elif tok == "1":
            continue  # the empty word
        elif k == 0:
            coeff = field.from_str(tok)
        else:
            raise ParseError(f"unexpected coefficient {tok!r} inside a term", line)
    if sign < 0:
        coeff = field.neg(coeff)
    return coeff, gens


def parse_poly(algebra, text: str, line=None):
    """Parse the polynomial grammar into an NcPoly over the given algebra."""
    F = algebra.field
    terms: dict = {}
    for sign, atoms in _split_terms(_tokenize(text, line), line):
        coeff, gens = _parse_term(F, sign, atoms, line, starred=False)
        word = []
        for idx, _ in gens:
            if not 0 <= idx < algebra.d:
                raise ParseError(f"letter x{idx} out of range for d={algebra.d}", line)
            word.append(idx)
        _add_terms(F, terms, [(tuple(word), coeff)])
    return NcPoly(algebra, terms)


def parse_leavitt(algebra, text: str, line=None):
    """Parse the Leavitt grammar: each term's letters fold into one monomial
    with `mono_mul` (every letter is still range checked, also past a zero
    junction), and the terms are summed in text order."""
    F = algebra.field
    terms = []
    for sign, atoms in _split_terms(_tokenize(text, line), line):
        coeff, gens = _parse_term(F, sign, atoms, line, starred=True)
        mon = ((), ())
        for idx, star in gens:
            if not 0 <= idx < algebra.d:
                raise ParseError(f"letter x{idx} out of range for d={algebra.d}", line)
            if mon is not None:
                mon = mono_mul(mon, ((idx,), ()) if star else ((), (idx,)))
        if mon is not None:
            terms.append((mon, coeff))
    out: dict = {}
    _add_terms(F, out, terms)
    return LeavittElement(algebra, out)


# ---------------------------------------------------------------------------
# printing


def _format_terms(field, items):
    """items: list of (coefficient, list of generator strings), in print order."""
    if not items:
        return "0"
    chunks = []
    for n, (coeff, gens) in enumerate(items):
        try:
            negative = coeff < 0
        except TypeError:
            negative = False
        mag = field.neg(coeff) if negative else coeff
        body = " ".join(gens)
        if not gens:
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
    items = [(poly.terms[w], [f"x{i}" for i in w]) for w in words]
    return _format_terms(F, items)


def format_leavitt(elem) -> str:
    keys = sorted(elem.terms, key=lambda wv: (len(wv[0]) + len(wv[1]), wv[0], wv[1]))
    items = [(elem.terms[(w, v)], [f"x{i}*" for i in reversed(w)] + [f"x{i}" for i in v]) for w, v in keys]
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
        if key == "field":
            field = field_from_spec(value)
        elif key == "d":
            try:
                d = int(value)
            except ValueError:
                raise ParseError(f"bad d {value!r}", ln) from None
            if d < 1:
                raise ParseError("d must be at least 1", ln)
        elif key == "name":
            name = value
        elif key == "gens":
            if not (value.startswith("[") and value.endswith("]")):
                raise ParseError("gens must be a bracketed list like [0, 1]", ln)
            inner = value[1:-1].strip()
            try:
                shifts = [int(s) for s in inner.split(",")] if inner else []
            except ValueError:
                raise ParseError(f"bad gens list {value!r}", ln) from None
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
