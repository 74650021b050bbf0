"""The Leavitt algebra on d letters and their stars.

Monomials are pairs (w, v) of words denoting w* v, where the star is the
anti-involution with x_i x_j* = delta_ij and the starred letters summing
against the plain ones to 1.  A product of monomials cancels at its one
junction, by a single comparison of the words that meet there, and is
again a monomial or zero (`mono_mul`), so the span of these monomials is
closed under multiplication; the grading counts plain letters minus starred
ones.  Terms are built at this level: the parser folds each term's letters
into one monomial, and the flat filtration writes its monomials w* v
directly, each summed once with `linalg._add_terms`; a product runs the
junction rule inline over its pairs of terms.

Canonical forms, which reports print, raise every monomial of a fixed
degree to a common level r = max |w| by the rewriting
w* v = sum_i (x_i w)* (x_i v); at a fixed level the monomials are linearly
independent (left multiplication by plain words of length r separates
them).  Equality and zero tests raise nothing: they read the normal form in
the basis of monomials w* v whose words do not both start with x_{d-1}
(G. M. Bergman's diamond lemma on the rules x_i x_j* -> delta_ij and
x_{d-1}* x_{d-1} -> 1 - sum_{i<d-1} x_i* x_i), where a monomial with k
leading letters x_{d-1} in common has 1 + k(d - 1) terms and its raise by k
levels d^k.  `equals` reads only the monomials whose coefficients differ,
and takes their normal form only if some degree holds two of their levels:
at one level they differ.
The degree-zero part at level r is exactly the d^r x d^r matrix algebra,
matching the limit-algebra picture unit by unit: raising w* v is the block
embedding a -> diag(a, .., a), so at level r its units sit at rows
t + rank(w), columns t + rank(v), for t a multiple of d^|w| below d^r;
`l0_to_s` places them there, once a side d^r above `af_s.MAX_SIDE` is
refused.
"""

from __future__ import annotations

from .af_s import AFMatrix, _check_side, word_rank
from .errors import (
    BudgetExceeded,
    CertificateMismatch,
    LevelDecrease,
    NotDegreeZero,
    NotInFiltrationLevel,
)
from .fields import power_above
from .fpmod import FpModule
from .freealg import FreeAlgebra, NcPoly, _Terms
from .linalg import _add_terms, _lift, _ratio


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

    __slots__ = ("algebra", "_least")  # _least: canonical() returned it

    def __init__(self, algebra: FreeAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms
        self._least = False

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
    def word_star(cls, algebra, w) -> "LeavittElement":
        return cls.monomial(algebra, w, ())

    # -- basic arithmetic ------------------------------------------------------

    def __mul__(self, other):
        """`mono_mul`'s rule inline over the pairs, in `_add_products`' order."""
        if not isinstance(other, LeavittElement):
            return self.scale(other)
        p = self.algebra.field.characteristic
        out: dict = {}
        get = out.get
        right = [(w2, len(w2), v2, b) for (w2, v2), b in other.terms.items()]
        for (w1, v1), a in self.terms.items():
            n = len(v1)
            for w2, k, v2, b in right:
                if k <= n and v1[n - k:] == w2:
                    m = (w1, v1[:n - k] + v2)
                elif k > n and w2[k - n:] == v1:
                    m = (w2[:k - n] + w1, v2)
                else:
                    continue
                s = get(m, 0) + a * b
                if p:
                    s %= p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return LeavittElement(self.algebra, out)

    # -- grading ------------------------------------------------------------------

    def degrees(self):
        return sorted({mono_degree(m) for m in self.terms})

    # -- canonical form --------------------------------------------------------------

    def raise_level(self, degree: int, r: int) -> "LeavittElement":
        """Raise every degree-`degree` monomial to starred length r."""
        return self._raised({degree: r})

    def canonical(self) -> "LeavittElement":
        """Each graded component raised to its own maximal level, self when already so, marked: not rescanned."""
        if self._least:
            return self
        levels, mixed = _levels(self.terms)
        out = self._raised(levels) if mixed else self
        out._least = True
        return out

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

    def is_zero(self) -> bool:
        """Whether the normal form is empty.  With each degree at one level,
        as in a canonical form, the monomials are independent, and only the
        element with no terms is zero."""
        _, mixed = _levels(self.terms)
        return not _normal_form(self.algebra, self.terms.items()) if mixed else not self.terms

    def equals(self, other: "LeavittElement") -> bool:
        """Whether self - other is zero, read on the monomials D whose
        coefficients differ: no if each degree of D sits at one level, else
        whether the normal form of the difference on D is empty."""
        a, b = self.terms, other.terms
        if a == b:
            return True
        F = self._field
        diff = {m: c for m, c in a.items() if b.get(m) != c}
        _add_terms(F, diff, [(m, F.neg(c)) for m, c in b.items() if a.get(m) != c])
        _, mixed = _levels(diff)
        return mixed and not _normal_form(self.algebra, diff.items())

    def __eq__(self, other):
        return isinstance(other, LeavittElement) and self.algebra == other.algebra and self.equals(other)

    def __str__(self):  # the canonical form
        from .parsing import format_leavitt
        return format_leavitt(self.canonical())

    def __repr__(self):  # the stored terms, which need no raise
        from .parsing import format_leavitt
        return f"LeavittElement({format_leavitt(self)})"


def _levels(monomials):
    """({degree: its largest starred length}, whether a degree holds two)."""
    levels: dict = {}
    mixed = False
    for w, v in monomials:
        r = levels.setdefault(len(v) - len(w), len(w))
        if r != len(w):
            mixed = True
            levels[len(v) - len(w)] = max(r, len(w))
    return levels, mixed


def _normal_form(algebra, items) -> dict:
    """The terms ((w, v), c) summed in the basis of monomials w* v whose words
    do not both start with x_t, t = d - 1: with k the number of leading
    positions at which both words hold t, w* v = (w[k:])* v[k:] minus the sum
    over j = 1..k and i < t of (x_i w[j:])* (x_i v[j:]), by
    x_t* x_t = 1 - sum_{i<t} x_i* x_i."""
    t = algebra.d - 1
    F = algebra.field
    terms = []
    for (w, v), c in items:
        k = 0
        for a, b in zip(w, v):
            if a != t or b != t:
                break
            k += 1
        terms.append(((w[k:], v[k:]), c))
        if k:
            c = F.neg(c)
            terms += [(((i,) + w[j:], (i,) + v[j:]), c) for j in range(1, k + 1) for i in range(t)]
    out: dict = {}
    _add_terms(F, out, terms)
    return out


# ---------------------------------------------------------------------------
# the degree-zero part and the limit algebra


def l0_to_s(a: LeavittElement, level=None) -> AFMatrix:
    """Identify a degree-zero element with a leveled matrix: w* v becomes the
    matrix unit E_{w,v} at each of its block positions, with no raise; the
    coefficients' numerators over one denominator are summed into the rows,
    at the element's own level max |w|: at a higher requested level the
    placement is its embedding, of the same canonical form."""
    A, d = a.algebra, a.algebra.d
    r = 0
    for w, v in a.terms:
        if len(w) != len(v):
            raise NotDegreeZero("element has nonzero graded components")
        if len(w) > r:
            r = len(w)
    if level is not None and level < r:
        raise LevelDecrease(f"need level >= {r}")
    _check_side(d, r if level is None else level, error=BudgetExceeded)
    n, p = d**r, A.field.characteristic
    nums, den = _lift(A.field, a.terms)
    rows = [{} for _ in range(n)]
    for (w, v), c in nums.items():
        i, j = word_rank(d, w), word_rank(d, v)
        for t in range(0, n, d ** len(w)):
            row, k = rows[t + i], t + j
            s = row.get(k, 0) + c
            if p:
                s %= p
            if s:
                row[k] = s
            else:
                row.pop(k, None)
    rows = tuple(dict(sorted(row.items())) if len(row) > 1 else row for row in rows)
    return AFMatrix._new(d, r, rows, A.field, den).canonical()


def s_to_l0(s: AFMatrix, algebra: FreeAlgebra = None) -> LeavittElement:
    """Inverse identification: matrix units become monomials w* v."""
    A = algebra if algebra is not None else FreeAlgebra(s.d, s.field)
    if A.d != s.d or A.field != s.field:
        raise ValueError("algebra does not match the matrix element")
    words, den = list(A.words(s.level)), s.den
    return LeavittElement(A, {(words[i], words[j]): _ratio(c, den) for i, row in enumerate(s.rows)
                              for j, c in row.items()})


# ---------------------------------------------------------------------------
# strong grading


class StrongGradingWitness:
    """Explicit factorizations of 1 through the degree r and -r pieces."""

    __slots__ = ("algebra", "r", "positive_pair", "negative_pairs", "verified")

    def __init__(self, algebra: FreeAlgebra, r: int):
        if power_above(2, algebra.d, r, MAX_RAISED_TERMS):  # d^r products and their d^r-term sum
            raise BudgetExceeded(f"a degree-{r} witness checks 2 * {algebra.d}^{r} terms, above {MAX_RAISED_TERMS}")
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
        rhs: dict = {}
        for a, b in self.negative_pairs:
            _add_terms(algebra.field, rhs, (a * b).terms.items())
        self.verified = lhs.equals(one) and LeavittElement(algebra, rhs).equals(one)

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

    The output holds d^r polynomials: d^r > MAX_RAISED_TERMS is refused
    first.  a is made canonical, and put in normal form if a raise would
    pass MAX_RAISED_TERMS (its output then follows the normal form's
    order).  Under the flat gate, starred length at most r and a raise
    within MAX_RAISED_TERMS, one raise to level r groups its monomials w* v
    by w; past it the coefficient at w is the normal form of w a: left
    multiplication with w kills every other summand, and the normal form of
    a plain polynomial is itself.  The reassembled element must equal the
    input, on the flat gate its raise, otherwise a is not in the filtration
    piece.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    A = a.algebra
    if power_above(1, A.d, r, MAX_RAISED_TERMS):
        raise BudgetExceeded(f"a level-{r} decomposition holds {A.d}^{r} polynomials, "
                             f"above the bound {MAX_RAISED_TERMS}")
    a = a.canonical()
    if len(a.terms) * A.d**r > MAX_RAISED_TERMS:  # 1 written as 2^17 terms is 1, not 2^33 products at r = 16
        a = LeavittElement(A, _normal_form(A, a.terms.items()))
    if len(a.terms) * A.d**r <= MAX_RAISED_TERMS and all(len(u) <= r for u, v in a.terms):
        a = a._raised({len(v) - len(u): r for u, v in a.terms})
        groups: dict = {w: {} for w in A.words(r)}
        for (u, v), c in a.terms.items():
            groups[u][v] = c
        out = {w: NcPoly(A, terms) for w, terms in groups.items()}
    else:
        out = {}
        for w in A.words(r):
            proj = _normal_form(A, (LeavittElement.monomial(A, (), w) * a).terms.items())
            if any(u for (u, v) in proj):
                raise NotInFiltrationLevel(f"projection at {w} is not a plain polynomial")
            out[w] = NcPoly(A, {v: c for (u, v), c in proj.items()})
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

    True exactly for finite-dimensional modules: the stable profile's tail
    rank t0 = dim M_{i0} is zero.  The normalized rank dim M_{i0} / d^{i0}
    reads the same Hilbert value, so their agreement (else a raise) checks
    the profile's bookkeeping, not a second route, and computes nothing in L.
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
