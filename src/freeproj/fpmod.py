"""Finitely presented graded left modules.

A module M is the cokernel of a homogeneous presentation: a free module F0
together with finitely many homogeneous relation rows.  A free basis of the
relation submodule (via the weak algorithm) turns everything degreewise into
standard-monomial combinatorics: the monomials of F0 not head-reducible by
the relation basis form an exact k-basis of M in each degree, so Hilbert
values are closed-form counts and multiplication matrices come from normal
forms.

This is the library's one degreewise basis.  A free module is an FpModule
with no relations, whose standard monomials are all the monomials of F0, so
the free modules of the decomposition pair, the Ext^1 map and the
truncation criterion take their bases from `std_basis` and their matrices
from `FpModuleMorphism.matrix_in_degree` too, Hilbert-checked and held to
MAX_STD_WORDS like every other module's.

Standard words are closed under taking suffixes: a relation leading word that
is a suffix of a word's suffix is a suffix of the word.  So for a standard
word w at coordinate alpha, x_i * w is standard unless it is itself a leading
word at alpha, since its proper suffixes are suffixes of w.  `std_basis`
builds each degree from the one below by this one-letter extension, and
`letter_matrix` writes a unit row for every standard product and reads any
other, a lead, off its monic basis element: minus the tail, which the weak
algorithm (P. M. Cohn) has already reduced.

Torsion is found one letter at a time too.  The tail M_{>=i0} of the stable
profile is free, so an element of M_j is torsion exactly when each x_a times
it is.  `torsion` walks each degree below i0 once, downward from Q_{i0}, the
identity on M_{i0}: the torsion of M_j is the left kernel of S_j, whose
column blocks are letter_matrix(a, j) * Q_{j+1} for each letter a.  One
`row_reduce` of S_j gives that kernel as the transforms of its zero rows,
and Q_j is S_j on its pivot columns, which span its columns, so Q_j has the
same left kernel and at most h_j columns.  A finite-dimensional module is
all torsion, and its torsion in degree j is its Hilbert value h_j, read
with no standard word.  Either way the report, `by_degree` and
`dimension`, needs no generator, so `Torsion.generators` is built on its
first read: the standard words of each degree below i0 as elements, or the
kernels' rows as elements of F0.

Most modules have no torsion, and that needs no kernel.  For
t0 > 0, M has no torsion exactly when for each j from i0 - 1 down to the
least generator degree the map m -> (x_a * m)_a from M_j to M_{j+1}^d is
injective, that is when the letter matrices out of M_j, side by side as
column blocks, have rank h_j.  A nonzero m whose every x_a * m is zero is
torsion; a nonzero torsion element u has a last nonzero word multiple
w * u, and that one is such an m; and from i0 on the letter maps are
bijections.  `torsion` runs these checks first, downward, and the
recursion above only when one of them fails.  Most degrees need no matrix:
the order of `term_key` is stable under left multiplication and reduction
only adds smaller terms, so if x_a * w is standard for the leading word w
of m, it is the leading word of x_a * m, which is then nonzero.  A degree
in which every standard word w keeps a letter (some x_a * w is standard)
passes with no matrix.  By suffix closure a standard w keeps no letter only
when all d words x_a * w are leading words at alpha, a dead end of degree
shift(alpha) + |w|, which `torsion` reads off the relation basis's lead
index with no standard word: w is a proper suffix of a lead, so standard
once `_free_layout(b)` has checked that no lead at alpha ends in another.
Only the degrees below i0 that hold one build their letter matrices and
take the rank, downward; no other degree scans a word.

Morphism matrices grow by the same closure.  A morphism phi is left
R-linear, phi(x_i * m) = x_i * phi(m), and the suffix u of a standard word
x_i * u is standard, so the row of x_i * u is the row of u one degree down
times the target's letter matrix of x_i, one `linalg._row_product`.
`FpModuleMorphism.matrix_in_degree` builds each degree from the one below
by this one-letter extension; only generator rows reduce the cover's image
of their generator.  Past both free bounds, from `_tail_from` on,
`_tail_matrix` only moves columns by the two layouts (below): d copies of
the degree-(k-1) matrix in disjoint rows and column images, one per letter.
So ranks and Hilbert values grow by d, the move of a product is the product
of the moves and of an identity an identity: a check at k restates k - 1's.

The stable profile records the certified index i0 at which the tail of M
becomes free with all its basis in one degree; every degree-0 map between
such tails is a scalar matrix, which is what makes i0 = max(generator
degrees, relation-basis degrees) a valid bound, and i0 is the least index
from which every multiplication map is proved bijective.

Past that bound b the letter maps need no words at all.  Every relation
basis element is homogeneous, so its leading word has degree <= b, and for
j >= b no product x_i * w out of M_j is a leading word: the degree-(j+1)
standard words at coordinate alpha are the d blocks x_0 * S, ..., x_{d-1} * S
of alpha's degree-j words S, in that order, which is the order `std_basis`
builds them in.  So with n_alpha words at alpha in degree j, row p of alpha
in the matrix of x_i is the unit row at column off(alpha) + i * n_alpha + p,
off(alpha) being d times the degree-j words at the coordinates before
alpha.  These are the block embeddings of the limit algebra
S = lim M_d(k)^{tensor r}.  The leads at alpha are suffix-free, so the words
at alpha ending in distinct leads v are disjoint: `_free_layout` reads
n_alpha(b) = d^(b - shift(alpha)) - sum_v d^(b - shift(alpha) - |v|) off the
lead index once, after checking in O(sum |v|) probes that no lead at alpha
ends in another, and takes n_alpha(j) = d^(j-b) * n_alpha(b).  It builds no
word, checks the counts against the Hilbert values h_j and h_{j+1}, and
lays out each degree once; `letter_matrix` places its rows by that layout.

The stable profile builds no word.  The relation module K is free on its
basis B (the free algebra is a free ideal ring), so K_{j+1} = V * K_j +
k * B_{j+1} and F_{j+1} = V * F_j + k * G_{j+1}, both direct, with G_{j+1}
the generators of degree j + 1.  So V tensor M_j -> M_{j+1} has the left
kernel and the cokernel of C_{j+1}, the |B_{j+1}| x |G_{j+1}| matrix of the
basis elements' coefficients at those generators' empty words: it is
bijective exactly when C_{j+1} is square and invertible.  `_mult_bijective`
answers at once when B_{j+1} and G_{j+1} are both empty, as past b, or
differ in size, else by the rank of C_{j+1}, read off `FreeBasis._ints`;
`stable_profile` runs `_free_layout(b)` once, for the tail's layout.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import BudgetExceeded, CertificateMismatch
from .fields import _DIGIT_BOUND, MAX_LITERAL_DIGITS, QgrClass
from .freealg import FreeAlgebra, FreeModuleElement, GradedFreeModule, ModuleMap, term_key
from .linalg import SparseMatrix, _ratio, _row_product, rank, row_reduce
from .submodules import FreeBasis, kernel, weak_basis

# The most standard words and letter-matrix rows an FpModule holds over all
# its cached degrees; a build that would take it past this is refused before
# any of it is built.
MAX_STD_WORDS = 2**18


def _missing(cache, j: int, least: int) -> range:
    """The degrees a degreewise cache still has to build, upward, to hold j:
    from the highest cached degree at or below j, else from min(j, least)."""
    start = max((k for k in cache if k <= j), default=min(j, least) - 1)
    return range(start + 1, j + 1)


def _check_span(low: int, top: int, d: int):
    """Refuse with `BudgetExceeded` a stable profile over the degrees
    low..top that is too wide to walk.  Its Hilbert values reach
    rank * d^k over the span k = top - low, so k * max(bits(d) - 1, 1), a
    lower bound on the bits of d^k for d >= 2 and the span itself for d = 1,
    is held under the bits of a MAX_LITERAL_DIGITS-digit int.  Decided from
    the degrees alone, before any power of d is formed or any degree walked."""
    span = top - low
    if span * max(d.bit_length() - 1, 1) >= _DIGIT_BOUND.bit_length():
        raise BudgetExceeded(
            f"a stable profile over degrees {low}..{top} spans {span} degrees, whose dimensions "
            f"can reach rank * {d}^{span}, more than fields.MAX_LITERAL_DIGITS = "
            f"{MAX_LITERAL_DIGITS} digits; lower --degree-cap or the spread of the shifts")


def _tail_from(*modules: "FpModule") -> int:
    """The least k with k - 1 past the free bounds of all these modules: a map
    among them is a `_tail_matrix` move from k on (module docstring)."""
    return 1 + max(M._free_bound() for M in modules)


class StableProfile:
    """The data (i0, t_{i0}): M_{>=i} is free on t_i generators of degree i
    for every i >= i0, with t_{i+1} = d * t_i forced by the ambient ring."""

    __slots__ = ("i0", "t0", "d", "certified_through")

    def __init__(self, i0: int, t0: int, d: int, certified_through: int):
        self.i0 = i0
        self.t0 = t0
        self.d = d
        self.certified_through = certified_through

    def t(self, i: int) -> int:
        if i < self.i0:
            raise ValueError(f"profile starts at {self.i0}")
        return self.t0 * self.d ** (i - self.i0)

    def as_dict(self):
        """i0, the first five tail dimensions and the certified degree."""
        return {
            "i0": self.i0,
            "t": [self.t(self.i0 + k) for k in range(5)],
            "certified_through": self.certified_through,
        }

    def __repr__(self):
        return f"StableProfile(i0={self.i0}, t0={self.t0}, d={self.d})"


class Torsion:
    """The largest finite-dimensional graded submodule of an FpModule: a basis
    of it as representatives in F0, and by_degree, {j: its dimension in
    degree j} for each degree below i0, made empty when there is no torsion.
    generators is a sequence, or a function that returns one, called on the
    first read of `generators`; the dimension is read off by_degree."""

    __slots__ = ("by_degree", "dimension", "_generators")

    def __init__(self, by_degree, generators):
        self.by_degree = dict(by_degree) if any(by_degree.values()) else {}
        self.dimension = sum(self.by_degree.values())
        self._generators = generators if callable(generators) else tuple(generators)

    @property
    def generators(self) -> tuple:
        if callable(self._generators):
            self._generators = tuple(self._generators())
        return self._generators

    def __repr__(self):
        return f"Torsion(dim={self.dimension})"


class FpModule:
    """A graded module given by generators (shift degrees) and relations."""

    __slots__ = (
        "F0",
        "relations",
        "_rel_basis",
        "_std_cache",
        "_hilbert_cache",
        "_degree_counts",
        "_letter_cache",
        "_profile",
        "_bound",
        "_bound_counts",
        "_layouts",
        "_held",
    )

    def __init__(self, F0: GradedFreeModule, relations=(), _basis: FreeBasis | None = None):
        """The relation basis is built here by `weak_basis`, whose checks are
        the only ones (a relation in another free module or not homogeneous
        raises its ValueError), or is _basis, from `shift` or `direct_sum`."""
        relations = tuple(relations)
        self._rel_basis = weak_basis(relations, ambient=F0) if _basis is None else _basis
        self.F0 = F0
        self.relations = tuple(r for r in relations if r.terms)
        self._std_cache = {}
        self._hilbert_cache = {}
        self._degree_counts = None
        self._letter_cache = {}
        self._profile = None
        self._bound = None
        self._bound_counts = None
        self._layouts = {}
        self._held = 0

    # -- constructors ----------------------------------------------------

    @classmethod
    def free(cls, algebra: FreeAlgebra, shifts) -> "FpModule":
        return cls(algebra.free_module(shifts))

    @classmethod
    def cyclic(cls, algebra: FreeAlgebra, rel_polys) -> "FpModule":
        """R modulo the left ideal generated by the given homogeneous polynomials."""
        F0 = algebra.free_module([0])
        return cls(F0, [F0.from_polys([p]) for p in rel_polys])

    @classmethod
    def residue(cls, algebra: FreeAlgebra) -> "FpModule":
        """The module k = R / R_{>=1}, on its relation basis built once per
        algebra and moved into this module's F0; caches and ledger its own."""
        F0 = algebra.free_module([0])
        rels = [F0.from_polys([algebra.gen(i)]) for i in range(algebra.d)]
        return cls(F0, rels, _residue_basis(algebra)._shifted(F0, 0))

    @classmethod
    def tail_quotient(cls, algebra: FreeAlgebra, m: int) -> "FpModule":
        """R / R_{>=m}: relations are all words of length m."""
        return cls.cyclic(algebra, [algebra.monomial(w) for w in algebra.words(m)])

    @property
    def algebra(self) -> FreeAlgebra:
        return self.F0.algebra

    @property
    def min_degree(self) -> int:
        return min(self.F0.shifts) if self.F0.shifts else 0

    def relation_basis(self) -> FreeBasis:
        return self._rel_basis

    # -- degreewise structure ---------------------------------------------

    def hilbert(self, j: int) -> int:
        """dim_k M_j, exact: monomials of F0 minus the reducible ones, from
        the dict n_a of generators minus relation basis elements per degree,
        built once: d * h(j-1) + n_j when degree j - 1 is cached, else the
        closed form sum n_a d^(j-a) over a <= j.  Cached per queried degree."""
        h = self._hilbert_cache.get(j)
        if h is None:
            if (counts := self._degree_counts) is None:
                counts = self._degree_counts = {}
                for a in self.F0.shifts:
                    counts[a] = counts.get(a, 0) + 1
                for a in self.relation_basis().degrees():
                    counts[a] = counts.get(a, 0) - 1
            d, prev = self.algebra.d, self._hilbert_cache.get(j - 1)
            h = self._hilbert_cache[j] = (sum(n * d ** (j - a) for a, n in counts.items() if a <= j)
                                          if prev is None else d * prev + counts.get(j, 0))
        return h

    def std_basis(self, j: int):
        """Standard monomials: the degree-j monomials of F0 with no relation
        leading word as a suffix (in the matching coordinate), coordinates in
        order and words in lex order within each coordinate.

        Built upward from the highest cached degree below j by one-letter
        extension (see the module docstring): at coordinate alpha of shift
        b < k, the degree-k words are x_i * w for each letter i and each
        degree-(k-1) standard word w of alpha, less alpha's leading words;
        at b == k the word is () unless () is a leading word.  A call that
        would take the module's held words and rows over MAX_STD_WORDS is
        refused by `_check_budget` before any word is built, and each
        degree's count is checked against its Hilbert value.

        The basis is cached per degree together with its index
        {monomial: position}, which `_std_index` reads."""
        if j in self._std_cache:
            return self._std_cache[j][0]
        todo = self._check_budget(j)
        prev = self._std_cache[todo.start - 1][0] if todo.start - 1 in self._std_cache else ()
        d = self.algebra.d
        leads = self.relation_basis()._by_coord
        for k in todo:
            below: dict = {}
            for alpha, w in prev:
                below.setdefault(alpha, []).append(w)
            std = []
            for alpha, b in enumerate(self.F0.shifts):
                lead = leads.get(alpha, ())
                if b == k and () not in lead:
                    std.append((alpha, ()))
                elif b < k:
                    words = below.get(alpha, ())
                    std.extend((alpha, u) for i in range(d) for w in words if (u := (i,) + w) not in lead)
            std = tuple(std)
            if len(std) != self.hilbert(k):
                raise CertificateMismatch("standard monomial count disagrees with Hilbert value")
            self._std_cache[k] = (std, {mon: n for n, mon in enumerate(std)})
            self._held += len(std)
            prev = std
        return prev

    def _check_budget(self, top: int | None, rows=()) -> range:
        """The degrees `std_basis(top)` would build (none for None), after
        refusing with `BudgetExceeded` a build that would take the module's
        held standard words and letter-matrix rows past MAX_STD_WORDS: first
        the words of those degrees, then `rows`, (j, h_j, "letter-matrix
        rows") for a letter matrix out of M_j.  Decided from Hilbert values."""
        todo = range(0) if top is None else _missing(self._std_cache, top, self.min_degree)
        held = self._held
        for k, n, what in [(k, self.hilbert(k), "standard words") for k in todo] + list(rows):
            held += n
            if held > MAX_STD_WORDS:
                raise BudgetExceeded(
                    f"degree {k} would add {n} {what}, bringing the module's held words and rows "
                    f"to {held}, over the bound fpmod.MAX_STD_WORDS = {MAX_STD_WORDS}")
        return todo

    def _std_index(self, j: int) -> dict:
        """{monomial: position in std_basis(j)}, built once with the basis."""
        if j not in self._std_cache:
            self.std_basis(j)
        return self._std_cache[j][1]

    def coords(self, elem: FreeModuleElement, j: int) -> dict:
        """Coordinates of the class of a degree-j element of F0 in std_basis(j):
        the normal form's monomials looked up in the cached index."""
        nf = self.relation_basis().reduce(elem)
        index = self._std_index(j)
        return {index[mon]: c for mon, c in nf.terms.items()}

    def element_from_coords(self, row: dict, j: int) -> FreeModuleElement:
        std = self.std_basis(j)
        return self.F0.element({std[k]: c for k, c in row.items()})

    def letter_matrix(self, i: int, j: int) -> SparseMatrix:
        """Multiplication by x_i from M_j to M_{j+1}, row convention.

        Row k is the class of x_i * w for the k-th standard monomial w.  By
        suffix closure (module docstring) x_i * w is standard unless it is a
        relation leading word: a product found in the degree-(j+1) index is
        a unit row, and any other, a lead, is -v / db over the tail v of
        its basis element B / db, in its order (module docstring).

        On the free tail, j >= b with b the bound of `stable_profile`, every
        row is a unit row placed by `_free_layout` from the per-coordinate
        word counts alone (module docstring).  Either way the words the rows
        need (through degree j+1 below b, none on the tail) and the h_j rows
        themselves are held to MAX_STD_WORDS before any is built."""
        if (i, j) in self._letter_cache:
            return self._letter_cache[(i, j)]
        F, one = self.algebra.field, self.algebra.field.one
        b, hj = self._free_bound(), self.hilbert(j)
        self._check_budget(j + 1 if j < b else None, [(j, hj, "letter-matrix rows")])
        if j >= b:
            layout = self._free_layout(j)
            rows = [None] * hj
            for start, n, off in layout:
                rows[start:start + n] = ({c: one} for c in range(off + i * n, off + (i + 1) * n))
        else:
            index, basis = self._std_index(j + 1), self.relation_basis()
            rows = []
            for alpha, w in self.std_basis(j):
                if (k := index.get((alpha, u := (i,) + w))) is not None:
                    rows.append({k: one})
                    continue
                db, tail = basis._ints[basis._by_coord[alpha][u]]
                rows.append({index[m]: F.neg(v) if db == 1 else _ratio(-v, db) for m, v in tail})
        out = self._letter_cache[(i, j)] = SparseMatrix(F, hj, self.hilbert(j + 1), rows)
        self._held += hj
        return out

    def _free_bound(self) -> int:
        """b = max(generator degrees, relation-basis degrees), computed once:
        M is free past it (module docstring)."""
        if self._bound is None:
            self._bound = max(tuple(self.F0.shifts) + tuple(self.relation_basis().degrees()), default=0)
        return self._bound

    def _free_layout(self, j: int) -> list:
        """(row start, n_alpha(j), column offset) per coordinate alpha of the
        letter maps out of M_j, j >= b, read off the relation leads (module
        docstring) and built once per degree.  It builds no word, so it is
        bounded by `_check_span` alone."""
        if j in self._layouts:
            return self._layouts[j]
        b, d = self._free_bound(), self.algebra.d
        if self._bound_counts is None:
            shifts, counts = self.F0.shifts, [d ** (b - s) for s in self.F0.shifts]
            for alpha, vs in self.relation_basis()._by_coord.items():
                lengths = {len(v) for v in vs}
                for v in vs:
                    n = len(v)
                    for k in lengths:
                        if k < n and v[n - k:] in vs:
                            raise CertificateMismatch("a relation leading word ends in another at its coordinate")
                    counts[alpha] -= d ** (b - shifts[alpha] - n)
            self._bound_counts = counts
        counts = [n * d ** (j - b) for n in self._bound_counts]
        starts = list(itertools.accumulate(counts, initial=0))
        if starts[-1] != self.hilbert(j) or d * starts[-1] != self.hilbert(j + 1):
            raise CertificateMismatch("standard monomial count disagrees with Hilbert value")
        layout = self._layouts[j] = [(row, n, d * row) for row, n in zip(starts, counts)]
        return layout

    def _tail_step(self, prev: SparseMatrix | None, target: "FpModule", k: int) -> SparseMatrix | None:
        """`_tail_matrix(prev, target, k)` if k >= `_tail_from(self, target)`, else None."""
        return self._tail_matrix(prev, target, k) if k >= _tail_from(self, target) else None

    def _tail_matrix(self, prev: SparseMatrix, target: "FpModule", k: int) -> SparseMatrix:
        """Degree k of a map M -> target from its degree-(k-1) matrix prev past both free bounds: per block
        (s, n, _) of M's layout and letter i, rows s..s+n-1 of prev with column c of target's block
        (t, m, off) moved to off + i * m + c - t.  Held to MAX_STD_WORDS against M's ledger first, not added."""
        self._check_budget(None, [(k, self.hilbert(k), "tail-map rows")])
        cols = [[off + i * m + p for _, m, off in target._free_layout(k - 1) for p in range(m)]
                for i in range(self.algebra.d)]
        rows = [{col[c]: a for c, a in row.items()}
                for s, n, _ in self._free_layout(k - 1) for col in cols for row in prev.rows[s:s + n]]
        return SparseMatrix(prev.field, len(rows), target.hilbert(k), rows)

    def _mult_bijective(self, j: int) -> bool:
        """Is V tensor M_j -> M_{j+1} bijective?  Exactly when C_{j+1}, the
        empty-word coefficients of B = db * lead + tail at the degree-(j+1)
        generators, is square and invertible (module docstring)."""
        basis, k = self.relation_basis(), j + 1
        cols = {alpha: c for c, alpha in enumerate(a for a, s in enumerate(self.F0.shifts) if s == k)}
        if (n := basis._degrees.count(k)) != len(cols) or not n:
            return n == len(cols)
        rows = []
        for alpha, leads in basis._by_coord.items():
            for w, i in leads.items():
                if basis._degrees[i] == k:
                    db, tail = basis._ints[i]
                    rows.append({cols[beta]: v for (beta, u), v in (((alpha, w), db), *tail) if not u})
        return rank(SparseMatrix(self.algebra.field, len(rows), len(cols), rows)) == len(cols)

    # -- stable structure ---------------------------------------------------

    def stable_profile(self, through: int = 0) -> StableProfile:
        """(i0, t_{i0}), V tensor M_j -> M_{j+1} bijective for every j >= i0:
        proved on [i0, b) by `_mult_bijective` on the walk down from b, once
        per module, and past b, where every C_{j+1} is empty (module
        docstring).  certified_through is max(b + 4, through), the largest
        degree asked for, a label; `_check_span` refuses one whose
        dimensions pass the digit bound.  A later call with a larger
        `through` checks that span and relabels, and checks no degree."""
        bound = self._free_bound()
        target = max(bound + 4, through)
        if self._profile is not None and self._profile.certified_through >= target:
            return self._profile
        _check_span(self.min_degree, target, self.algebra.d)
        if self._profile is None:
            i0 = bound
            while i0 > self.min_degree and self._mult_bijective(i0 - 1):
                i0 -= 1
            self._free_layout(bound)
        else:
            i0 = self._profile.i0
        self._profile = StableProfile(i0, self.hilbert(i0), self.algebra.d, target)
        return self._profile

    def is_fdim(self) -> bool:
        return self.stable_profile().t0 == 0

    def k0_class(self):
        """The class t_{i0} * d^(-i0) in Z[1/d], computed from the presentation
        and cross-checked against the stable profile.  The presentation class
        is read as n * d^(-m), m the largest shift or relation degree, so no
        negative power of d is formed, and only after the profile has held
        the spread of those degrees to its bound.  As i0 <= m, the two agree
        exactly when n == t_{i0} * d^(m - i0), one integer identity."""
        profile = self.stable_profile()
        d, m = self.algebra.d, self._free_bound()
        degrees = self.relation_basis().degrees()
        n = sum(d ** (m - b) for b in self.F0.shifts) - sum(d ** (m - a) for a in degrees)
        if n != profile.t0 * d ** (m - profile.i0):
            raise CertificateMismatch(
                f"presentation class {n} * {d}^{-m} != profile class {profile.t0} * {d}^{-profile.i0}"
            )
        return QgrClass(profile.t0, profile.i0, d)

    # -- torsion --------------------------------------------------------------

    def _dead_ends(self, top: int) -> set:
        """The degrees j < top that hold a dead end (module docstring): a
        word w at some alpha whose products x_0 * w, ..., x_{d-1} * w are
        all leading words at alpha, read off the lead index alone: w is
        standard and j >= min_degree once `stable_profile` has run."""
        d, shifts = self.algebra.d, self.F0.shifts
        out = set()
        for alpha, leads in self.relation_basis()._by_coord.items():
            for v in leads:
                if v and v[0] == 0 and (j := shifts[alpha] + len(v) - 1) < top and all(
                        (a,) + v[1:] in leads for a in range(1, d)):
                    out.add(j)
        return out

    def _letters_side_by_side(self, j: int, Q: SparseMatrix | None = None) -> SparseMatrix:
        """The d letter matrices out of M_j, each times Q when Q is given,
        side by side as column blocks: row k is (x_a * m_k)_a."""
        d = self.algebra.d
        n = self.hilbert(j + 1) if Q is None else Q.ncols
        rows = [{} for _ in range(self.hilbert(j))]
        for a in range(d):
            block = self.letter_matrix(a, j) if Q is None else self.letter_matrix(a, j).mul(Q)
            for row, part in zip(rows, block.rows):
                row.update((a * n + c, v) for c, v in part.items())
        return SparseMatrix(self.algebra.field, len(rows), d * n, rows)

    def torsion(self) -> Torsion:
        """The largest finite-dimensional graded submodule, by the one-letter
        recursion of the module docstring.  A finite-dimensional module is all
        torsion: h_j in each degree j below i0.  Zero torsion is certified
        first, by a rank at each degree that holds a dead end (module
        docstring), and only a module that fails that check runs the
        recursion.  The generators are built on first read."""
        profile = self.stable_profile()
        i0, low = profile.i0, self.min_degree
        F = self.algebra.field
        if profile.t0 == 0:
            return Torsion({j: self.hilbert(j) for j in range(low, i0)}, lambda: [
                self.F0.element({mon: F.one}) for j in range(low, i0) for mon in self.std_basis(j)])
        if all(rank(self._letters_side_by_side(j)) == self.hilbert(j)
               for j in sorted(self._dead_ends(i0), reverse=True)):
            return Torsion({}, ())
        Q = SparseMatrix.identity(F, self.hilbert(i0))
        kernels = []
        for j in range(i0 - 1, low - 1, -1):
            letters = self._letters_side_by_side(j, Q)
            pivots, reduced, trans = row_reduce(letters, want_transform=True)
            kernels.append((j, [t for t, r in zip(trans, reduced) if not r]))
            cols = {c: k for k, (_, c) in enumerate(pivots)}
            Q = SparseMatrix(F, letters.nrows, len(cols),
                             [{cols[c]: v for c, v in r.items() if c in cols} for r in letters.rows])
        kernels.reverse()
        return Torsion({j: len(ker) for j, ker in kernels},
                       lambda: [self.element_from_coords(t, j) for j, ker in kernels for t in ker])

    def mod_torsion(self) -> "FpModule":
        tors = self.torsion()
        if tors.dimension == 0:
            return self
        return FpModule(self.F0, list(self.relations) + list(tors.generators))

    # -- derived presentations --------------------------------------------

    def submodule_presentation(self, gens) -> "FpModule":
        """Present the submodule of M generated by homogeneous elements of F0
        (given by representatives) as an abstract FpModule.

        The relations are the projections of the kernel of the combined map
        (gens | relations): cover + F1 -> F0, which is exactly the set of rows
        r with sum r_i * gens_i in the relation submodule.
        """
        gens = list(gens)
        if any(g.is_zero() or not g.is_homogeneous() for g in gens):
            raise ValueError("submodule generators must be nonzero homogeneous")
        degrees = [g.degree() for g in gens]
        cover = self.algebra.free_module(degrees)
        k = len(gens)
        rel_degs = [r.degree() for r in self.relations]
        combined_src = self.algebra.free_module(list(degrees) + rel_degs)
        rows = []
        for g in gens:
            rows.append(g.polys())
        for r in self.relations:
            rows.append(r.polys())
        combined = ModuleMap(combined_src, self.F0, rows)
        ker = kernel(combined)
        new_rels = []
        for b in ker.elements:
            terms = {(l, w): c for (l, w), c in b.terms.items() if l < k}
            if terms:
                new_rels.append(FreeModuleElement(cover, terms))
        return FpModule(cover, new_rels)

    def truncate(self, i: int) -> "FpModule":
        """A presentation of M_{>=i}."""
        if i <= self.min_degree:
            return self
        F = self.algebra.field
        gens = [self.F0.element({mon: F.one}) for mon in self.std_basis(i)]
        gens.extend(
            self.F0.gen(alpha) for alpha, b in enumerate(self.F0.shifts) if b > i
        )
        if not gens:
            return FpModule(self.algebra.free_module([]), [])
        return self.submodule_presentation(gens)

    def shift(self, m: int) -> "FpModule":
        """The twist M(m), with degrees moved down by m, its basis moved too."""
        F0 = self.F0.shifted(m)
        rels = [FreeModuleElement(F0, dict(r.terms)) for r in self.relations]
        return FpModule(F0, rels, self._rel_basis._shifted(F0, m))

    def direct_sum(self, other: "FpModule") -> "FpModule":
        """M + N, N's coordinates after M's, on the summands' merged bases."""
        if self.algebra != other.algebra:
            raise ValueError("summands live over different algebras")
        F0 = self.F0.direct_sum(other.F0)
        offset = self.F0.rank
        rels = [FreeModuleElement(F0, dict(r.terms)) for r in self.relations]
        rels.extend(
            FreeModuleElement(F0, {(alpha + offset, w): c for (alpha, w), c in r.terms.items()})
            for r in other.relations
        )
        return FpModule(F0, rels, self._rel_basis._summed(other._rel_basis, F0))

    def __repr__(self):
        return f"FpModule(shifts={self.F0.shifts}, relations={len(self.relations)})"


# the relation basis of R / R_{>=1}, built once for each algebra of `FpModule.residue` (8 kept)
_residue_basis = lru_cache(maxsize=8)(lambda A: FpModule.cyclic(A, [A.gen(i) for i in range(A.d)]).relation_basis())


class FpModuleMorphism:
    """A degree-preserving map between FpModules, given on free covers.

    The underlying ModuleMap on the presentation covers must send the source
    relations into the target's relation submodule.
    """

    __slots__ = ("source", "target", "map0", "_matrix_cache")

    def __init__(self, source: FpModule, target: FpModule, map0: ModuleMap):
        if map0.source != source.F0 or map0.target != target.F0:
            raise ValueError("cover map does not match the presentations")
        basis = target.relation_basis()
        for r in source.relations:
            if not basis.reduce(map0.apply(r)).is_zero():
                raise ValueError("map does not descend: a relation maps outside the target relations")
        self.source = source
        self.target = target
        self.map0 = map0
        self._matrix_cache = {}

    def matrix_in_degree(self, j: int) -> SparseMatrix:
        """The map in degree j in the standard bases, cached per degree.

        Missing degrees are filled upward from the highest cached degree
        below j by one-letter extension (module docstring): the row of a word
        x_i * u at coordinate alpha is the `linalg._row_product` of u's
        degree-(j-1) row and the target's letter matrix of x_i, and only the
        generator rows (alpha, ()) reduce the cover's image of e_alpha.  Past
        both free bounds `FpModule._tail_step` moves columns instead, and reads
        no word.  Each row lists its columns in decreasing `term_key` order of
        the target's standard words, as the normal forms of `coords` do; a
        moved, scaled or unit row is in that order already, a sum is sorted.
        Its values are canonical (`fields`), as theirs are."""
        cache = self._matrix_cache
        if j in cache:
            return cache[j]
        source, target = self.source, self.target
        F = source.algebra.field
        for k in _missing(cache, j, source.min_degree):
            if (tail := source._tail_step(cache.get(k - 1), target, k)) is not None:
                cache[k] = tail
                continue
            prev, below = cache.get(k - 1), source._std_index(k - 1)
            columns = target.std_basis(k)
            letters: dict = {}
            rows = []
            for alpha, w in source.std_basis(k):
                if not w:
                    rows.append(target.coords(target.F0.from_polys(self.map0.matrix[alpha]), k))
                    continue
                i = w[0]
                mat = letters.get(i)
                if mat is None:
                    mat = letters[i] = target.letter_matrix(i, k - 1).rows
                row = prev.rows[below[(alpha, w[1:])]]
                acc = _row_product(F, row, mat)
                if len(row) > 1 and len(acc) > 1:
                    acc = {c: acc[c] for c in sorted(acc, key=lambda c: term_key(columns[c]), reverse=True)}
                if any(type(v) is not int and v.denominator == 1 for v in acc.values()):
                    acc = {c: F.coerce(v) for c, v in acc.items()}  # a product Fraction(k, 1) becomes k
                rows.append(acc)
            cache[k] = SparseMatrix(F, len(rows), target.hilbert(k), rows)
        return cache[j]

    def compose(self, then: "FpModuleMorphism") -> "FpModuleMorphism":
        if not (
            self.target.F0 == then.source.F0
            and self.target.relations == then.source.relations
        ):
            raise ValueError("morphisms are not composable")
        return FpModuleMorphism(self.source, then.target, self.map0.compose(then.map0))

    def __repr__(self):
        return f"FpModuleMorphism({self.source!r} -> {self.target!r})"
