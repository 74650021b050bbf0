"""The element-level Leavitt paths that the monomial-level ones replaced.

`parse_leavitt` multiplies out one `LeavittElement` product per letter and
rebuilds the sum once per term; `mono_mul` cancels the junction letter by
letter; the flat filtration reassembles with one element product and one
sum per word.  Kept verbatim as the oracles the fast paths must match exactly:
same terms, same dict key order, same errors.
"""

from freeproj.errors import NotInFiltrationLevel, ParseError
from freeproj.freealg import NcPoly
from freeproj.leavitt import LeavittElement
from freeproj.parsing import _parse_term, _split_terms, _tokenize


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
