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
builds each degree from the one below by this one-letter extension,
`letter_matrix` writes a unit row for every standard product, and below the
free tail the rank check of `_mult_bijective` meets mostly those unit rows.

Torsion is found one letter at a time too.  The tail M_{>=i0} of the stable
profile is free, so an element of M_j is torsion exactly when each x_a times
it is.  `torsion` walks each degree below i0 once, downward from Q_{i0}, the
identity on M_{i0}: the torsion of M_j is the left kernel of S_j, whose
column blocks are letter_matrix(a, j) * Q_{j+1} for each letter a.  One
`row_reduce` of S_j gives that kernel as the transforms of its zero rows,
and Q_j is S_j on its pivot columns, which span its columns, so Q_j has the
same left kernel and at most h_j columns.

Morphism matrices grow by the same closure.  A morphism phi is left
R-linear, phi(x_i * m) = x_i * phi(m), and the suffix u of a standard word
x_i * u is standard, so the row of x_i * u is the row of u one degree down
times the target's letter matrix of x_i.
`FpModuleMorphism.matrix_in_degree` builds each degree from the one below
by this one-letter extension; only generator rows map a representative
through the cover and reduce it against the target's relations.

The stable profile records the certified index i0 at which the tail of M
becomes free with all its basis in one degree; every degree-0 map between
such tails is a scalar matrix, which is what makes i0 = max(generator
degrees, relation-basis degrees) a valid bound.  The reported i0 is the
least index certified by exact rank checks of the multiplication maps.

Past that bound b the letter maps need no words at all.  Every relation
basis element is homogeneous, so its leading word has degree <= b, and for
j >= b no product x_i * w out of M_j is a leading word: the degree-(j+1)
standard words at coordinate alpha are the d blocks x_0 * S, ..., x_{d-1} * S
of alpha's degree-j words S, in that order, which is the order `std_basis`
builds them in.  So with n_alpha words at alpha in degree j, row p of alpha
in the matrix of x_i is the unit row at column off(alpha) + i * n_alpha + p,
off(alpha) being d times the degree-j words at the coordinates before
alpha.  These are the block embeddings of the limit algebra
S = lim M_d(k)^{tensor r}.  `_free_layout` reads n_alpha(b) once from
`std_basis(b)` and takes n_alpha(j) = d^(j-b) * n_alpha(b); it builds no
word and looks up no index past b, and checks each degree's count against
its Hilbert value.  `letter_matrix` places its rows by that layout, and
`_mult_bijective` checks the layout alone and builds no row: unit rows that
hit each column once have full rank.
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceeded, CertificateMismatch
from .fields import _DIGIT_BOUND, MAX_LITERAL_DIGITS
from .freealg import FreeAlgebra, FreeModuleElement, GradedFreeModule, ModuleMap, term_key
from .linalg import SparseMatrix, _row_axpy, rank, row_reduce
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


def _tiles(blocks, size: int) -> bool:
    """Do the blocks (start, length) cover [0, size) once, with no overlap?
    Sorted by start, each nonempty block must begin where the one before ends."""
    blocks = sorted(block for block in blocks if block[1])
    ends = itertools.accumulate((n for _, n in blocks), initial=0)
    return [start for start, _ in blocks] + [size] == list(ends)


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
    degree j} for each degree below i0, empty when there is no torsion."""

    __slots__ = ("by_degree", "dimension", "generators")

    def __init__(self, by_degree, generators):
        self.by_degree = dict(by_degree)
        self.generators = tuple(generators)
        self.dimension = len(self.generators)

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
        "_letter_cache",
        "_profile",
        "_bound",
        "_bound_counts",
        "_held",
    )

    def __init__(self, F0: GradedFreeModule, relations=()):
        self.F0 = F0
        rels = []
        for r in relations:
            if r.module != F0:
                raise ValueError("relation lives in the wrong free module")
            if not r.is_homogeneous():
                raise ValueError("relations must be homogeneous")
            if not r.is_zero():
                rels.append(r)
        self.relations = tuple(rels)
        self._rel_basis = None
        self._std_cache = {}
        self._hilbert_cache = {}
        self._letter_cache = {}
        self._profile = None
        self._bound = None
        self._bound_counts = None
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
        """The module k = R / R_{>=1}."""
        return cls.cyclic(algebra, [algebra.gen(i) for i in range(algebra.d)])

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
        if self._rel_basis is None:
            self._rel_basis = weak_basis(self.relations, ambient=self.F0)
        return self._rel_basis

    # -- degreewise structure ---------------------------------------------

    def hilbert(self, j: int) -> int:
        """dim_k M_j, exact: monomials of F0 minus the reducible ones.  The
        closed form is summed once per degree and cached, as the module is
        immutable once built."""
        h = self._hilbert_cache.get(j)
        if h is None:
            h = self._hilbert_cache[j] = self.F0.graded_piece_dim(j) - self.relation_basis().submodule_dim(j)
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

    def _check_budget(self, top: int, rows=()) -> range:
        """The degrees `std_basis(top)` would build, after refusing with
        `BudgetExceeded` a build that would take the module's held standard
        words and letter-matrix rows past MAX_STD_WORDS: first the words of
        those degrees, then `rows`, (j, h_j, "letter-matrix rows") for a
        letter matrix out of M_j.  Decided from Hilbert values alone."""
        todo = _missing(self._std_cache, top, self.min_degree)
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
        a unit row, and only the rest are reduced.

        On the free tail, j >= b with b the bound of `stable_profile`, every
        row is a unit row placed by `_free_layout` from the per-coordinate
        word counts alone (module docstring).  Either way the words the rows
        need (through degree j+1 below b, through b on the tail) and the h_j
        rows themselves are held to MAX_STD_WORDS before any is built."""
        if (i, j) in self._letter_cache:
            return self._letter_cache[(i, j)]
        F, one = self.algebra.field, self.algebra.field.one
        b, hj = self._free_bound(), self.hilbert(j)
        self._check_budget(min(j + 1, b), [(j, hj, "letter-matrix rows")])
        if j >= b:
            layout = self._free_layout(j)
            rows = [None] * hj
            for start, n, off in layout:
                rows[start:start + n] = ({c: one} for c in range(off + i * n, off + (i + 1) * n))
        else:
            std = self.std_basis(j)
            index = self._std_index(j + 1)
            rows = []
            for alpha, w in std:
                k = index.get(mon := (alpha, (i,) + w))
                rows.append(self.coords(self.F0.element({mon: one}), j + 1) if k is None else {k: one})
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
        letter maps out of M_j, j >= b (module docstring).  It builds the
        words of degree b at most, so past b it is bounded by `_check_span`
        alone."""
        b = self._free_bound()
        if self._bound_counts is None:
            counts = [0] * self.F0.rank
            for alpha, _ in self.std_basis(b):
                counts[alpha] += 1
            self._bound_counts = counts
        d = self.algebra.d
        counts = [n * d ** (j - b) for n in self._bound_counts]
        starts = list(itertools.accumulate(counts, initial=0))
        if starts[-1] != self.hilbert(j) or d * starts[-1] != self.hilbert(j + 1):
            raise CertificateMismatch("standard monomial count disagrees with Hilbert value")
        return [(row, n, d * row) for row, n in zip(starts, counts)]

    def _mult_bijective(self, j: int) -> bool:
        """Is V tensor M_j -> M_{j+1} bijective?  Exact check.

        For j >= b the stacked letter matrices are the unit rows placed by
        `_free_layout(j)`: full rank iff the row blocks tile [0, h_j) and the
        column blocks off + i * n_alpha tile [0, h_{j+1}).  Below b they are
        mostly unit rows (module docstring), which `rank` counts first."""
        d = self.algebra.d
        hj, hj1 = self.hilbert(j), self.hilbert(j + 1)
        if d * hj != hj1:
            return False
        if hj1 == 0:
            return True
        if j >= self._free_bound():
            layout = self._free_layout(j)
            return (_tiles([(start, n) for start, n, _ in layout], hj)
                    and _tiles([(off + i * n, n) for _, n, off in layout for i in range(d)], hj1))
        stacked = [row for i in range(d) for row in self.letter_matrix(i, j).rows]
        return rank(SparseMatrix(self.algebra.field, d * hj, hj1, stacked)) == hj1

    # -- stable structure ---------------------------------------------------

    def stable_profile(self, through: int = 0) -> StableProfile:
        """(i0, t_{i0}), V tensor M_j -> M_{j+1} bijective for i0 <= j < max(b + 4,
        through): the walk down from b proves [i0, b) and the loop the rest."""
        bound = self._free_bound()
        target = max(bound + 4, through)
        if self._profile is not None and self._profile.certified_through >= target:
            return self._profile
        _check_span(self.min_degree, target, self.algebra.d)
        i0 = bound
        while i0 > self.min_degree and self._mult_bijective(i0 - 1):
            i0 -= 1
        for j in range(bound, target):
            if not self._mult_bijective(j):
                raise CertificateMismatch(
                    f"multiplication map not bijective at degree {j} >= certified i0"
                )
        profile = StableProfile(i0, self.hilbert(i0), self.algebra.d, target)
        self._profile = profile
        return profile

    def is_fdim(self) -> bool:
        return self.stable_profile().t0 == 0

    def k0_class(self):
        """The class t_{i0} * d^(-i0) in Z[1/d], computed from the presentation
        and cross-checked against the stable profile.  The presentation class
        is read as n * d^(-m), m the largest shift or relation degree, so no
        negative power of d is formed, and only after the profile has held
        the spread of those degrees to its bound."""
        from .qgr import QgrClass

        profile = self.stable_profile()
        d, m = self.algebra.d, self._free_bound()
        degrees = self.relation_basis().degrees()
        n = sum(d ** (m - b) for b in self.F0.shifts) - sum(d ** (m - a) for a in degrees)
        cls = QgrClass(profile.t0, profile.i0, d)
        if n < 0 or QgrClass(n, m, d) != cls:
            raise CertificateMismatch(
                f"presentation class {n} * {d}^{-m} != profile class {profile.t0} * {d}^{-profile.i0}"
            )
        return cls

    # -- torsion --------------------------------------------------------------

    def torsion(self) -> Torsion:
        """The largest finite-dimensional graded submodule, by the one-letter
        recursion of the module docstring.  A finite-dimensional module is all
        torsion: its kernel in each degree is the identity on M_j."""
        profile = self.stable_profile()
        i0 = profile.i0
        F, d = self.algebra.field, self.algebra.d
        if profile.t0 == 0:
            kernels = [(j, [{k: F.one} for k in range(self.hilbert(j))]) for j in range(self.min_degree, i0)]
        else:
            Q = SparseMatrix.identity(F, self.hilbert(i0))
            kernels = []
            for j in range(i0 - 1, self.min_degree - 1, -1):
                n = Q.ncols
                rows = [{} for _ in range(self.hilbert(j))]
                for a in range(d):
                    for row, part in zip(rows, self.letter_matrix(a, j).mul(Q).rows):
                        row.update((a * n + c, v) for c, v in part.items())
                pivots, reduced, trans = row_reduce(SparseMatrix(F, len(rows), d * n, rows), want_transform=True)
                kernels.append((j, [t for t, r in zip(trans, reduced) if not r]))
                cols = {c: k for k, (_, c) in enumerate(pivots)}
                Q = SparseMatrix(F, len(rows), len(cols), [{cols[c]: v for c, v in r.items() if c in cols} for r in rows])
            kernels.reverse()
        gens = [self.element_from_coords(t, j) for j, ker in kernels for t in ker]
        return Torsion({j: len(ker) for j, ker in kernels} if gens else {}, gens)

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
        """The twist M(m), with degrees moved down by m."""
        F0 = self.F0.shifted(m)
        rels = [FreeModuleElement(F0, dict(r.terms)) for r in self.relations]
        return FpModule(F0, rels)

    def direct_sum(self, other: "FpModule") -> "FpModule":
        if self.algebra != other.algebra:
            raise ValueError("summands live over different algebras")
        F0 = self.F0.direct_sum(other.F0)
        offset = self.F0.rank
        rels = [FreeModuleElement(F0, dict(r.terms)) for r in self.relations]
        rels.extend(
            FreeModuleElement(F0, {(alpha + offset, w): c for (alpha, w), c in r.terms.items()})
            for r in other.relations
        )
        return FpModule(F0, rels)

    def __repr__(self):
        return f"FpModule(shifts={self.F0.shifts}, relations={len(self.relations)})"


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
        x_i * u at coordinate alpha is the degree-(j-1) row of u times the
        target's letter matrix of x_i, and only the generator rows (alpha, ())
        map a representative through the cover and reduce it.  Each row lists
        its columns in decreasing `term_key` order of the target's standard
        words, as the normal forms of `coords` do."""
        cache = self._matrix_cache
        if j in cache:
            return cache[j]
        source, target = self.source, self.target
        F = source.algebra.field
        neg = F.neg
        for k in _missing(cache, j, source.min_degree):
            prev, below = cache.get(k - 1), source._std_index(k - 1)
            columns = target.std_basis(k)
            letters: dict = {}
            rows = []
            for alpha, w in source.std_basis(k):
                if not w:
                    rep = source.F0.element({(alpha, w): F.one})
                    rows.append(target.coords(self.map0.apply(rep), k))
                    continue
                i = w[0]
                mat = letters.get(i)
                if mat is None:
                    mat = letters[i] = target.letter_matrix(i, k - 1).rows
                acc: dict = {}
                for c, a in prev.rows[below[(alpha, w[1:])]].items():
                    _row_axpy(F, acc, neg(a), mat[c])
                if len(acc) > 1:
                    acc = {c: acc[c] for c in sorted(acc, key=lambda c: term_key(columns[c]), reverse=True)}
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
