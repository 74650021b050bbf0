"""The element-level Leavitt paths and the token-by-token text front end
that the fast paths replaced, and the accumulate loops on field methods.

The lexer matches one regex per token and reads each letter index with
`read_int`; `parse_poly` sums one term at a time; `parse_leavitt`
multiplies out one `LeavittElement` product per letter and rebuilds the sum
once per term; `mono_mul` cancels the junction letter by letter; the flat
filtration reads each projection by `lowered`, which undoes raises one
level at a time, and reassembles with one element product and one sum per
word.
`add_terms` and `add_products` are `linalg._add_terms` and
`linalg._add_products` as they were on field methods, `field_add` and
`field.mul` per term or pair.  `from_poly` embeds the free algebra in the
Leavitt algebra.  `product` and `equals` are the element product by
`linalg._add_products` with one `mono_mul` call per pair and the equality
by the canonical form of the whole difference, raised to each degree's
top level, as they stood before the product ran on the terms it changes
and equality on the normal form.  No oracle here decides zero or equality
through `LeavittElement.equals` or `is_zero`, which read that normal form.
Kept verbatim as the oracles the fast paths must match exactly: same terms,
same values and value types, same dict key order, same errors.
"""

import re

from freeproj import leavitt
from freeproj.af_s import AFMatrix, word_rank
from freeproj.errors import LevelDecrease, NotDegreeZero, NotInFiltrationLevel, ParseError
from freeproj.fields import read_int
from freeproj.freealg import FreeAlgebra, NcPoly
from freeproj.leavitt import LeavittElement, mono_degree
from freeproj.linalg import _add_products
from row_reduce_oracle import field_add

_TOKEN = re.compile(r"\s*(x[0-9]+\*?|[0-9]+/[0-9]+|[0-9]+|[+-])")


def word_unrank(d: int, rank: int, length: int):
    """The word of the given length with lex rank `rank` (first letter most
    significant): the inverse of `freeproj.af_s.word_rank`."""
    digits = []
    for _ in range(length):
        rank, i = divmod(rank, d)
        digits.append(i)
    return tuple(reversed(digits))


def from_poly(p: NcPoly) -> LeavittElement:
    """The canonical (injective) image of a plain polynomial."""
    return LeavittElement(p.algebra, {((), w): c for w, c in p.terms.items()})


def add_terms(field, acc: dict, terms):
    """acc += terms, in place, for (key, value) pairs; a zero sum drops its
    key, and a later term inserts it again at the end."""
    for k, v in terms:
        s = field_add(field, acc.get(k, field.zero), v)
        if s == 0:
            acc.pop(k, None)
        else:
            acc[k] = s


def add_products(field, acc: dict, left: dict, right: dict, key):
    """acc += a*b at key(k, l) for each term (k, a) of left and (l, b) of
    right, in place, in that nested order; a key of None skips the pair and
    a zero sum drops its key as in `add_terms`."""
    for k, a in left.items():
        for l, b in right.items():
            m = key(k, l)
            if m is not None:
                s = field_add(field, acc.get(m, field.zero), field.mul(a, b))
                if s == 0:
                    acc.pop(m, None)
                else:
                    acc[m] = s


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
            coeff = field.from_str(tok, line)
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
        add_terms(F, terms, [(tuple(word), coeff)])
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


def _lower_once(comp: LeavittElement):
    """One level down if every monomial groups as sum_i (x_i u)* (x_i u')."""
    A = comp.algebra
    F = A.field
    groups: dict = {}
    for (w, v), c in comp.terms.items():
        if not w or not v or w[0] != v[0]:
            return None
        groups.setdefault((w[1:], v[1:]), {})[w[0]] = c
    out = {}
    for key, per_letter in groups.items():
        if len(per_letter) != A.d:
            return None
        vals = set(per_letter.values())
        if len(vals) != 1:
            return None
        out[key] = vals.pop()
    return LeavittElement(A, out)


def lowered(a: LeavittElement) -> LeavittElement:
    """Cosmetic inverse of raising: undo one level wherever each degree
    component matches the pattern of a raise exactly."""
    out = a
    changed = True
    while changed:
        changed = False
        for m in out.degrees():
            r = max(len(w) for w, v in out.terms if len(v) - len(w) == m)
            if not r:
                continue
            comp = LeavittElement(out.algebra, {mon: c for mon, c in out.terms.items() if mono_degree(mon) == m})
            low = _lower_once(comp)
            if low is not None:
                out = (out - comp) + low
                changed = True
    return out


def flat_decompose(a, r: int) -> dict:
    """Write a as sum over length-r words w of w* times a plain polynomial,
    reading each projection by `lowered` and reassembling with one element
    product and one sum per word."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    A = a.algebra
    out = {}
    reassembled = LeavittElement.zero(A)
    for w in A.words(r):
        proj = lowered(LeavittElement.monomial(A, (), w) * a)
        if any(u for (u, v) in proj.terms):
            raise NotInFiltrationLevel(f"projection at {w} is not a plain polynomial")
        poly = NcPoly(A, {v: c for (u, v), c in proj.terms.items()})
        out[w] = poly
        reassembled = reassembled + LeavittElement.word_star(A, w) * from_poly(poly)
    if not equals(reassembled, a):
        raise NotInFiltrationLevel(f"element is not in filtration level {r}")
    return out


def flat_reassemble(algebra, coeffs: dict):
    out = LeavittElement.zero(algebra)
    for w, poly in coeffs.items():
        out = out + LeavittElement.word_star(algebra, w) * from_poly(poly)
    return out


def l0_to_s(a, level=None):
    """Identify a degree-zero element with a leveled matrix: w* v becomes the
    matrix unit E_{w,v}."""
    A = a.algebra
    if any(mono_degree(m) != 0 for m in a.terms):
        raise NotDegreeZero("element has nonzero graded components")
    r = max([len(w) for (w, v) in a.terms] + [0])
    if level is not None:
        if level < r:
            raise LevelDecrease(f"need level >= {r}")
        r = level
    b = a.raise_level(0, r)
    n = A.d**r
    rows = [[A.field.zero] * n for _ in range(n)]
    for (w, v), c in b.terms.items():
        rows[word_rank(A.d, w)][word_rank(A.d, v)] = c
    return AFMatrix(A.d, r, rows, A.field).canonical()


def s_to_l0(s, algebra=None):
    """Inverse identification: matrix units become monomials w* v."""
    A = algebra if algebra is not None else FreeAlgebra(s.d, s.field)
    if A.d != s.d or A.field != s.field:
        raise ValueError("algebra does not match the matrix element")
    terms = {}
    for i, row in enumerate(s.entries):
        for j, c in enumerate(row):
            if c != 0:
                terms[(word_unrank(s.d, i, s.level), word_unrank(s.d, j, s.level))] = c
    return LeavittElement(A, terms)


def product(a, b):
    """a * b, one `freeproj.leavitt.mono_mul` call per pair of terms."""
    out: dict = {}
    _add_products(a.algebra.field, out, a.terms, b.terms, leavitt.mono_mul)
    return LeavittElement(a.algebra, out)


def equals(a, b) -> bool:
    """Whether a - b is zero: the whole difference built and made canonical,
    each degree raised to its top level, where its monomials are independent."""
    return not (a - b).canonical().terms
