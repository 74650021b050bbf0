"""The element-level Leavitt paths and the token-by-token text front end
that the fast paths replaced.

The lexer matches one regex per token and reads each letter index with
`read_int`; `parse_poly` sums one term at a time; `parse_leavitt`
multiplies out one `LeavittElement` product per letter and rebuilds the sum
once per term; `mono_mul` cancels the junction letter by letter; the flat
filtration reassembles with one element product and one sum per word.  Kept
verbatim as the oracles the fast paths must match exactly: same terms, same
dict key order, same errors.
"""

import re

from freeproj.errors import NotInFiltrationLevel, ParseError
from freeproj.fields import read_int
from freeproj.freealg import NcPoly
from freeproj.leavitt import LeavittElement
from freeproj.linalg import _add_terms

_TOKEN = re.compile(r"\s*(x[0-9]+\*?|[0-9]+/[0-9]+|[0-9]+|[+-])")


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
            gens.append((read_int(tok[1:-1] if star else tok[1:], "a letter index", line), star))
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


def mono_mul(m1, m2):
    """Product of monomials (w1, v1) * (w2, v2); None encodes zero.

    The junction v1 * w2-star cancels from the inside out while the last
    letters agree; a mismatch kills the product.
    """
    w1, v1 = m1
    w2, v2 = m2
    i, j = len(v1), len(w2)
    while i > 0 and j > 0:
        if v1[i - 1] != w2[j - 1]:
            return None
        i -= 1
        j -= 1
    if j == 0:
        return (w1, v1[:i] + v2)
    return (w2[:j] + w1, v2)


def parse_leavitt(algebra, text: str, line=None):
    """Parse the Leavitt grammar; generator products are multiplied out."""
    F = algebra.field
    total = LeavittElement.zero(algebra)
    for sign, atoms in _split_terms(_tokenize(text, line), line):
        coeff, gens = _parse_term(F, sign, atoms, line, starred=True)
        factor = LeavittElement.one(algebra).scale(coeff)
        for idx, star in gens:
            if not 0 <= idx < algebra.d:
                raise ParseError(f"letter x{idx} out of range for d={algebra.d}", line)
            g = LeavittElement.gen_star(algebra, idx) if star else LeavittElement.gen(algebra, idx)
            factor = factor * g
        total = total + factor
    return total


def flat_decompose(a, r: int) -> dict:
    """Write a as sum over length-r words w of w* times a plain polynomial,
    reassembling with one element product and one sum per word."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    A = a.algebra
    out = {}
    reassembled = LeavittElement.zero(A)
    for w in A.words(r):
        proj = (LeavittElement.monomial(A, (), w) * a).lowered()
        if any(u for (u, v) in proj.terms):
            raise NotInFiltrationLevel(f"projection at {w} is not a plain polynomial")
        poly = NcPoly(A, {v: c for (u, v), c in proj.terms.items()})
        out[w] = poly
        reassembled = reassembled + LeavittElement.word_star(A, w) * LeavittElement.from_poly(poly)
    if not reassembled.equals(a):
        raise NotInFiltrationLevel(f"element is not in filtration level {r}")
    return out


def flat_reassemble(algebra, coeffs: dict):
    out = LeavittElement.zero(algebra)
    for w, poly in coeffs.items():
        out = out + LeavittElement.word_star(algebra, w) * LeavittElement.from_poly(poly)
    return out
