"""Finitely presented graded left modules.

A module M is the cokernel of a homogeneous presentation: a free module F0
together with finitely many homogeneous relation rows.  A free basis of the
relation submodule (via the weak algorithm) turns everything degreewise into
standard-monomial combinatorics: the monomials of F0 not head-reducible by
the relation basis form an exact k-basis of M in each degree, so Hilbert
values are closed-form counts and multiplication matrices come from normal
forms.

Standard words are closed under taking suffixes: a relation leading word that
is a suffix of a word's suffix is a suffix of the word.  So for a standard
word w at coordinate alpha, x_i * w is standard unless it is itself a leading
word at alpha, since its proper suffixes are suffixes of w.  `std_basis`
builds each degree from the one below by this one-letter extension,
`letter_matrix` writes a unit row for every standard product, and the rank
check of `_mult_bijective` meets mostly those unit rows.

Word products grow the same way: the matrix of x_a * u from M_j is u's
matrix times x_a's from M_{j+|u|}.  So `word_levels` builds the words of
length L from those of length L-1, one sparse product each (d + ... + d^L in
all, the letter matrices themselves at length 1), for torsion and for the
sections of `qgr.split_sequence`.

The stable profile records the certified index i0 at which the tail of M
becomes free with all its basis in one degree; every degree-0 map between
such tails is a scalar matrix, which is what makes i0 = max(generator
degrees, relation-basis degrees) a valid bound.  The reported i0 is the
least index certified by exact rank checks of the multiplication maps.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import BudgetExceeded, CertificateMismatch
from .freealg import FreeAlgebra, FreeModuleElement, GradedFreeModule, ModuleMap
from .linalg import SparseMatrix, left_kernel, rank
from .submodules import FreeBasis, kernel, weak_basis

# The most standard words an FpModule keeps over all its cached degrees; a
# `std_basis` call that would build past it is refused before any word is.
MAX_STD_WORDS = 2**18


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

    def as_dict(self, terms=5):
        return {
            "i0": self.i0,
            "t": [self.t(self.i0 + k) for k in range(terms)],
            "certified_through": self.certified_through,
        }

    def __repr__(self):
        return f"StableProfile(i0={self.i0}, t0={self.t0}, d={self.d})"


class Torsion:
    """The largest finite-dimensional graded submodule of an FpModule."""

    __slots__ = ("module", "dimension", "generators")

    def __init__(self, module, dimension, generators):
        self.module = module
        self.dimension = dimension
        self.generators = tuple(generators)

    def __repr__(self):
        return f"Torsion(dim={self.dimension})"


class FpModule:
    """A graded module given by generators (shift degrees) and relations."""

    __slots__ = (
        "F0",
        "relations",
        "_rel_basis",
        "_std_cache",
        "_letter_cache",
        "_profile",
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
        self._letter_cache = {}
        self._profile = None

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
        """dim_k M_j, exact: monomials of F0 minus the reducible ones."""
        return self.F0.graded_piece_dim(j) - self.relation_basis().submodule_dim(j)

    def std_basis(self, j: int):
        """Standard monomials: the degree-j monomials of F0 with no relation
        leading word as a suffix (in the matching coordinate), coordinates in
        order and words in lex order within each coordinate.

        Built upward from the highest cached degree below j by one-letter
        extension (see the module docstring): at coordinate alpha of shift
        b < k, the degree-k words are x_i * w for each letter i and each
        degree-(k-1) standard word w of alpha, less alpha's leading words;
        at b == k the word is () unless () is a leading word.  A call whose
        Hilbert values would take the module's words over MAX_STD_WORDS is
        refused with `BudgetExceeded` before any is built, and each degree's
        count is checked against its value.

        The basis is cached per degree together with its index
        {monomial: position}, which `_std_index` reads."""
        if j in self._std_cache:
            return self._std_cache[j][0]
        start = max((k for k in self._std_cache if k < j), default=None)
        if start is None:
            start = min(j, self.min_degree) - 1
            prev = ()
        else:
            prev = self._std_cache[start][0]
        sizes = [self.hilbert(k) for k in range(start + 1, j + 1)]
        kept = sum(len(std) for std, _ in self._std_cache.values())
        for k, h in enumerate(sizes, start + 1):
            kept += h
            if kept > MAX_STD_WORDS:
                raise BudgetExceeded(
                    f"degree {k} has {h} standard words, which bring the module's total to "
                    f"{kept}, over the bound fpmod.MAX_STD_WORDS = {MAX_STD_WORDS}; lower --degree-cap")
        d = self.algebra.d
        leads = {
            alpha: {w for _, w in lst}
            for alpha, lst in self.relation_basis()._by_coord.items()
        }
        for k, h in enumerate(sizes, start + 1):
            below: dict = {}
            for alpha, w in prev:
                below.setdefault(alpha, []).append(w)
            std = []
            for alpha, b in enumerate(self.F0.shifts):
                lead = leads.get(alpha, ())
                if b == k:
                    if () not in lead:
                        std.append((alpha, ()))
                elif b < k:
                    words = below.get(alpha, ())
                    for i in range(d):
                        for w in words:
                            u = (i,) + w
                            if u not in lead:
                                std.append((alpha, u))
            std = tuple(std)
            if len(std) != h:
                raise CertificateMismatch("standard monomial count disagrees with Hilbert value")
            self._std_cache[k] = (std, {mon: n for n, mon in enumerate(std)})
            prev = std
        return prev

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
        a unit row, and only the rest are reduced."""
        if (i, j) in self._letter_cache:
            return self._letter_cache[(i, j)]
        F = self.algebra.field
        std = self.std_basis(j)
        index = self._std_index(j + 1)
        rows = []
        for alpha, w in std:
            mon = (alpha, (i,) + w)
            k = index.get(mon)
            if k is None:
                rows.append(self.coords(self.F0.element({mon: F.one}), j + 1))
            else:
                rows.append({k: F.one})
        out = SparseMatrix(F, len(rows), self.hilbert(j + 1), rows)
        self._letter_cache[(i, j)] = out
        return out

    def word_levels(self, j: int):
        """Yield, for word length 0, 1, 2, ..., the matrices from M_j of the
        words of that length in `FreeAlgebra.words` order, each level built
        from the one below by one-letter extension (module docstring)."""
        yield [SparseMatrix.identity(self.algebra.field, self.hilbert(j))]
        letters = range(self.algebra.d)
        mats = [self.letter_matrix(a, j) for a in letters]
        for k in itertools.count(j + 1):
            yield mats
            mats = [m.mul(self.letter_matrix(a, k)) for a in letters for m in mats]

    def word_matrices(self, length: int, j: int) -> list:
        """The level of the given word length in `word_levels(j)`."""
        return next(itertools.islice(self.word_levels(j), length, None))

    def _mult_bijective(self, j: int) -> bool:
        """Is V tensor M_j -> M_{j+1} bijective?  Exact rank check.

        By suffix closure (module docstring) the stacked letter matrices are
        mostly unit rows, which `rank` counts before it eliminates the rest."""
        d = self.algebra.d
        hj, hj1 = self.hilbert(j), self.hilbert(j + 1)
        if d * hj != hj1:
            return False
        if hj1 == 0:
            return True
        stacked = []
        for i in range(d):
            stacked.extend(self.letter_matrix(i, j).rows)
        mat = SparseMatrix(self.algebra.field, d * hj, hj1, stacked)
        return rank(mat) == hj1

    # -- stable structure ---------------------------------------------------

    def stable_profile(self, window: int = 4) -> StableProfile:
        shifts = self.F0.shifts
        rel_degs = self.relation_basis().degrees()
        bound = max(tuple(shifts) + tuple(rel_degs), default=0)
        target = bound + window
        if self._profile is not None and self._profile.certified_through >= target:
            return self._profile
        i0 = bound
        while i0 > self.min_degree and self._mult_bijective(i0 - 1):
            i0 -= 1
        for j in range(i0, target):
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
        and cross-checked against the stable profile."""
        from .qgr import QgrClass

        d = self.algebra.d
        value = sum(Fraction(1, 1) * Fraction(d) ** (-b) for b in self.F0.shifts)
        value -= sum(Fraction(d) ** (-a) for a in self.relation_basis().degrees())
        profile = self.stable_profile()
        from_profile = Fraction(profile.t0) * Fraction(d) ** (-profile.i0)
        if value != from_profile:
            raise CertificateMismatch(
                f"presentation class {value} != profile class {from_profile}"
            )
        return QgrClass.from_fraction(value, d)

    # -- torsion --------------------------------------------------------------

    def torsion(self) -> Torsion:
        """The largest finite-dimensional graded submodule."""
        profile = self.stable_profile()
        i0 = profile.i0
        if profile.t0 == 0:
            gens = []
            total = 0
            for j in range(self.min_degree, i0):
                std = self.std_basis(j)
                total += len(std)
                gens.extend(self.F0.element({mon: self.algebra.field.one}) for mon in std)
            return Torsion(self, total, gens)
        gens = []
        total = 0
        for j in range(self.min_degree, i0):
            hj = self.hilbert(j)
            if hj == 0:
                continue
            length = i0 - j
            blocks = [{} for _ in range(hj)]
            offset = 0
            for m in self.word_matrices(length, j):
                for r, row in enumerate(m.rows):
                    for c, v in row.items():
                        blocks[r][offset + c] = v
                offset += m.ncols
            stacked = SparseMatrix(self.algebra.field, hj, offset, blocks)
            ker = left_kernel(stacked)
            total += ker.nrows
            for row in ker.rows:
                gens.append(self.element_from_coords(row, j))
        if not gens:
            zero_mod = FpModule(self.algebra.free_module([]), [])
            return Torsion(zero_mod, 0, [])
        return Torsion(self.submodule_presentation(gens), total, gens)

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

    @classmethod
    def identity(cls, module: FpModule) -> "FpModuleMorphism":
        return cls(module, module, ModuleMap.identity(module.F0))

    def apply(self, elem: FreeModuleElement) -> FreeModuleElement:
        """Image of a representative, reduced to normal form in the target."""
        return self.target.relation_basis().reduce(self.map0.apply(elem))

    def matrix_in_degree(self, j: int) -> SparseMatrix:
        """The map in degree j in the standard bases, built once per degree."""
        if j not in self._matrix_cache:
            F = self.source.algebra.field
            rows = []
            for mon in self.source.std_basis(j):
                rep = self.source.F0.element({mon: F.one})
                rows.append(self.target.coords(self.map0.apply(rep), j))
            self._matrix_cache[j] = SparseMatrix(F, len(rows), self.target.hilbert(j), rows)
        return self._matrix_cache[j]

    def compose(self, then: "FpModuleMorphism") -> "FpModuleMorphism":
        if not (
            self.target.F0 == then.source.F0
            and self.target.relations == then.source.relations
        ):
            raise ValueError("morphisms are not composable")
        return FpModuleMorphism(self.source, then.target, self.map0.compose(then.map0))

    def __repr__(self):
        return f"FpModuleMorphism({self.source!r} -> {self.target!r})"
