"""The Leavitt algebra on d letters and their stars.

Monomials are pairs (w, v) of words denoting w* v, where the star is the
anti-involution with x_i x_j* = delta_ij and the starred letters summing
against the plain ones to 1.  A product of monomials cancels at its one
junction, by a single comparison of the words that meet there, and is
again a monomial or zero (`mono_mul`), so the span of these monomials is
closed under multiplication; the grading counts plain letters minus starred
ones.  Terms are built at this level: the parser folds each term's letters
into one monomial, and the flat filtration writes its monomials w* v
directly, each summed once with `linalg._add_terms`.

Canonical forms raise every monomial of a fixed degree to a common level
r = max |w| by the rewriting w* v = sum_i (x_i w)* (x_i v); at a fixed level
the monomials are linearly independent (left multiplication by plain words
of length r separates them), so equality is a dictionary comparison after
raising.  The degree-zero part at level r is exactly the d^r x d^r matrix
algebra, matching the limit-algebra picture unit by unit.
"""

from __future__ import annotations

from .af_s import AFMatrix, word_rank, word_unrank
from .errors import (
    BudgetExceeded,
    CertificateMismatch,
    LevelDecrease,
    NotDegreeZero,
    NotInFiltrationLevel,
)
from .fpmod import FpModule
from .freealg import FreeAlgebra, NcPoly, _Terms
from .linalg import _add_products, _add_terms


# raising a monomial by k levels emits d**k terms of a few hundred bytes each
MAX_RAISED_TERMS = 2**20


def mono_mul(m1, m2):
    """Product of monomials (w1, v1) * (w2, v2); None encodes zero.

    The junction v1 * w2-star cancels when the shorter of v1 and w2 ends
    the longer one; otherwise the product is zero.
    """
    w1, v1 = m1
    w2, v2 = m2
    k = len(v1) - len(w2)
    if k >= 0:
        return (w1, v1[:k] + v2) if v1[k:] == w2 else None
    return (w2[:-k] + w1, v2) if w2[-k:] == v1 else None


def mono_degree(mon) -> int:
    w, v = mon
    return len(v) - len(w)


class LeavittElement(_Terms):
    """A linear combination of monomials w* v with exact coefficients."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: FreeAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    @property
    def _field(self):
        return self.algebra.field

    def _new(self, terms):
        return LeavittElement(self.algebra, terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, algebra) -> "LeavittElement":
        return cls(algebra, {})

    @classmethod
    def one(cls, algebra) -> "LeavittElement":
        return cls(algebra, {((), ()): algebra.field.one})

    @classmethod
    def gen(cls, algebra, i: int) -> "LeavittElement":
        algebra._check_word((i,))
        return cls(algebra, {((), (i,)): algebra.field.one})

    @classmethod
    def gen_star(cls, algebra, i: int) -> "LeavittElement":
        algebra._check_word((i,))
        return cls(algebra, {((i,), ()): algebra.field.one})

    @classmethod
    def monomial(cls, algebra, w, v, coeff=1) -> "LeavittElement":
        w, v = tuple(w), tuple(v)
        algebra._check_word(w)
        algebra._check_word(v)
        c = algebra.field.coerce(coeff)
        return cls(algebra, {(w, v): c} if c != 0 else {})

    @classmethod
    def from_poly(cls, p: NcPoly) -> "LeavittElement":
        """The canonical (injective) image of a plain polynomial."""
        return cls(p.algebra, {((), w): c for w, c in p.terms.items()})

    @classmethod
    def word_star(cls, algebra, w) -> "LeavittElement":
        return cls.monomial(algebra, w, ())

    # -- basic arithmetic ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LeavittElement):
            return self.scale(other)
        out: dict = {}
        _add_products(self.algebra.field, out, self.terms, other.terms, mono_mul)
        return LeavittElement(self.algebra, out)

    # -- grading ------------------------------------------------------------------

    def degrees(self):
        return sorted({mono_degree(m) for m in self.terms})

    def graded_component(self, m: int) -> "LeavittElement":
        return LeavittElement(
            self.algebra, {mon: c for mon, c in self.terms.items() if mono_degree(mon) == m}
        )

    # -- canonical form --------------------------------------------------------------

    def raise_level(self, degree: int, r: int) -> "LeavittElement":
        """Raise every degree-`degree` monomial to starred length r."""
        return self._raised({degree: r})

    def canonical(self) -> "LeavittElement":
        """Each graded component raised to its own maximal level; self when already so."""
        levels: dict = {}
        mixed = False
        for w, v in self.terms:
            r = levels.setdefault(len(v) - len(w), len(w))
            if r != len(w):
                mixed = True
                levels[len(v) - len(w)] = max(r, len(w))
        return self._raised(levels) if mixed else self

    def _raised(self, levels: dict) -> "LeavittElement":
        """Raise each monomial of a degree m in `levels` to starred length
        levels[m], in one pass: no two components share a monomial.  The
        terms it would emit are counted first, against MAX_RAISED_TERMS."""
        d = self.algebra.d
        count = 0
        for w, v in self.terms:
            r = levels.get(len(v) - len(w))
            if r is not None:
                if len(w) > r:
                    raise LevelDecrease(f"monomial already at level {len(w)} > {r}")
                count += d ** (r - len(w))
        if count > MAX_RAISED_TERMS:
            raise BudgetExceeded(f"raising emits {count} terms, above the bound {MAX_RAISED_TERMS}")
        terms = []
        for (w, v), c in self.terms.items():
            r = levels.get(len(v) - len(w))
            if r is None:
                terms.append(((w, v), c))
            else:
                terms += [((s + w, s + v), c) for s in self.algebra.words(r - len(w))]
        out: dict = {}
        _add_terms(self.algebra.field, out, terms)
        return LeavittElement(self.algebra, out)

    def level_in_degree(self, m: int):
        return max((len(w) for w, v in self.terms if len(v) - len(w) == m), default=None)

    def is_zero(self) -> bool:
        return not self.canonical().terms

    def equals(self, other: "LeavittElement") -> bool:
        return (self - other).is_zero()

    def __eq__(self, other):
        return isinstance(other, LeavittElement) and self.algebra == other.algebra and self.equals(other)

    def lowered(self) -> "LeavittElement":
        """Cosmetic inverse of raising: undo one level wherever each degree
        component matches the pattern of a raise exactly."""
        out = self
        changed = True
        while changed:
            changed = False
            for m in out.degrees():
                r = out.level_in_degree(m)
                if not r:
                    continue
                comp = out.graded_component(m)
                lowered = _lower_once(comp)
                if lowered is not None:
                    out = (out - comp) + lowered
                    changed = True
        return out

    def __str__(self):
        from .parsing import format_leavitt

        return format_leavitt(self.canonical())

    def __repr__(self):
        return f"LeavittElement({self})"


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


# ---------------------------------------------------------------------------
# the degree-zero part and the limit algebra


def l0_to_s(a: LeavittElement, level=None) -> AFMatrix:
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


def s_to_l0(s: AFMatrix, algebra: FreeAlgebra = None) -> LeavittElement:
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


# ---------------------------------------------------------------------------
# strong grading


class StrongGradingWitness:
    """Explicit factorizations of 1 through the degree r and -r pieces."""

    __slots__ = ("algebra", "r", "positive_pair", "negative_pairs", "verified")

    def __init__(self, algebra: FreeAlgebra, r: int):
        self.algebra = algebra
        self.r = r
        one = LeavittElement.one(algebra)
        x0r = tuple([0] * r)
        # 1 = (x_0^r)(x_0^r)* with the first factor of degree r
        self.positive_pair = (
            LeavittElement.monomial(algebra, (), x0r),
            LeavittElement.word_star(algebra, x0r),
        )
        # 1 = sum over words w of length r of (w*)(w)
        self.negative_pairs = [
            (LeavittElement.word_star(algebra, w), LeavittElement.monomial(algebra, (), w))
            for w in algebra.words(r)
        ]
        lhs = self.positive_pair[0] * self.positive_pair[1]
        rhs = LeavittElement.zero(algebra)
        for a, b in self.negative_pairs:
            rhs = rhs + a * b
        self.verified = lhs.equals(one) and rhs.equals(one)

    def __repr__(self):
        return f"StrongGradingWitness(r={self.r}, verified={self.verified})"


def strongly_graded_witness(algebra: FreeAlgebra, r: int) -> StrongGradingWitness:
    if r < 0:
        raise ValueError("r must be nonnegative")
    return StrongGradingWitness(algebra, r)


# ---------------------------------------------------------------------------
# the flat filtration


def flat_decompose(a: LeavittElement, r: int) -> dict:
    """Write a as sum over length-r words w of w* times a plain polynomial.

    The coefficient at w is recovered by left multiplication with w, which
    kills every other summand; the reassembled element must equal the input,
    otherwise the element is not in the filtration piece.  a is made
    canonical first, so that each graded component is lowered from one level.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    a = a.canonical()
    A = a.algebra
    out = {}
    for w in A.words(r):
        proj = (LeavittElement.monomial(A, (), w) * a).lowered()
        if any(u for (u, v) in proj.terms):
            raise NotInFiltrationLevel(f"projection at {w} is not a plain polynomial")
        out[w] = NcPoly(A, {v: c for (u, v), c in proj.terms.items()})
    if not flat_reassemble(A, out).equals(a):
        raise NotInFiltrationLevel(f"element is not in filtration level {r}")
    return out


def flat_reassemble(algebra: FreeAlgebra, coeffs: dict) -> LeavittElement:
    """The sum over w of w* times coeffs[w]: the monomials w* v, in one pass."""
    terms = []
    for w, poly in coeffs.items():
        algebra._check_word(w)
        terms += [((w, v), c) for v, c in poly.terms.items()]
    out: dict = {}
    _add_terms(algebra.field, out, terms)
    return LeavittElement(algebra, out)


# ---------------------------------------------------------------------------
# the vanishing criterion


def tensor_vanishes(module: FpModule):
    """Does tensoring with the Leavitt algebra kill the module?

    True exactly for finite-dimensional modules.  Two independent routes are
    compared: the stable profile's tail rank, and the normalized rank at the
    certified index; disagreement raises.
    Returns (vanishes, certificate).
    """
    from .qgr import normalized_rank

    profile = module.stable_profile()
    fdim = profile.t0 == 0
    nrank = normalized_rank(module, profile.i0)
    if fdim != (nrank == 0):
        raise CertificateMismatch(
            f"profile says t0={profile.t0} but normalized rank is {nrank}"
        )
    certificate = {
        "i0": profile.i0,
        "t0": profile.t0,
        "normalized_rank": nrank,
    }
    return fdim, certificate
