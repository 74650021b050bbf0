"""Words, graded noncommutative polynomials, and graded free modules.

The base ring is the free algebra on d letters x_0..x_{d-1}, graded by word
length.  Words are plain tuples of letter indices; polynomials map words to
nonzero field elements.  A graded free module is described by its tuple of
shift degrees (b_1,..,b_s), meaning the direct sum of copies of the ring
with generator e_alpha placed in degree b_alpha.

Monomials of a module element are pairs (alpha, word); the term order is
length-then-lex on the word with the coordinate as tiebreak.  This order is
stable under left multiplication by words, which is what the submodule
machinery relies on.

Nothing here enumerates a degreewise basis or writes a degreewise matrix.
A free module is an FpModule with no relations, so its degree-j monomials
are `FpModule.std_basis(j)` and a map between free modules is realized in
degree j by `FpModuleMorphism.matrix_in_degree(j)`: the library has one
degreewise basis, Hilbert-checked and held to the word budget.
"""

from __future__ import annotations

import itertools
from operator import add, index

from .fields import QQ
from .linalg import _add_products, _add_terms

Word = tuple  # words are plain tuples of letter indices
_INT = frozenset([int])  # the one type a letter may have


def _degree(b) -> int:
    """b as an int shift or twist; anything but an integer is a ValueError."""
    try:
        return index(b)
    except TypeError:
        raise ValueError(f"shifts and twists must be integers, got {b!r}") from None


def term_key(mon):
    """Well-order on module monomials (alpha, word), stable under left mult."""
    alpha, w = mon
    return (len(w), w, alpha)


class FreeAlgebra:
    """The free algebra on d letters over an exact coefficient field."""

    __slots__ = ("d", "field")

    def __init__(self, d: int, field=QQ):
        if d < 1:
            raise ValueError("need at least one letter")
        self.d = d
        self.field = field

    def __eq__(self, other):
        return isinstance(other, FreeAlgebra) and (self.d, self.field) == (other.d, other.field)

    def __hash__(self):
        return hash((self.d, self.field))

    def __repr__(self):
        return f"FreeAlgebra(d={self.d}, field={self.field!r})"

    # -- element constructors ------------------------------------------------

    def poly(self, terms) -> "NcPoly":
        """Build a polynomial from {word: coefficient}; zeros are dropped."""
        clean = {}
        for w, c in dict(terms).items():
            c = self.field.coerce(c)
            if c != 0:
                self._check_word(w)
                clean[tuple(w)] = c
        return NcPoly(self, clean)

    def zero(self) -> "NcPoly":
        return NcPoly(self, {})

    def one(self) -> "NcPoly":
        return NcPoly(self, {(): self.field.one})

    def gen(self, i: int) -> "NcPoly":
        if type(i) is not int or not 0 <= i < self.d:
            raise ValueError(f"letter index {i!r} out of range")
        return NcPoly(self, {(i,): self.field.one})

    def monomial(self, word) -> "NcPoly":
        return self.poly({tuple(word): self.field.one})

    def from_str(self, text: str) -> "NcPoly":
        from .parsing import parse_poly

        return parse_poly(self, text)

    def _check_word(self, w):
        """A ValueError unless every letter is an int (not a bool) in 0..d-1:
        its types as one set, its range by min and max."""
        if w and not (_INT.issuperset(map(type, w)) and 0 <= min(w) and max(w) < self.d):
            raise ValueError(f"word {w} has letters outside 0..{self.d - 1}")

    # -- word bookkeeping ----------------------------------------------------

    def words(self, length: int):
        """All words of the given length in lex order."""
        if length < 0:
            return
        yield from itertools.product(range(self.d), repeat=length)

    def free_module(self, shifts) -> "GradedFreeModule":
        return GradedFreeModule(self, shifts)


class _Terms:
    """Sparse arithmetic on {monomial: nonzero coefficient} dicts.

    The one implementation of sum, negation, difference and scaling behind
    polynomials, free module elements and Leavitt elements; a subclass
    supplies its coefficient field (`_field`) and how to build a sibling
    element from a terms dict (`_new`)."""

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        _add_terms(self._field, out, other.terms.items())
        return self._new(out)

    def __neg__(self):
        F = self._field
        return self._new({m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        F = self._field
        c = F.coerce(c)
        if c == 0:
            return self._new({})
        return self._new({m: F.mul(c, v) for m, v in self.terms.items()})


class NcPoly(_Terms):
    """A noncommutative polynomial: finitely many words with nonzero coefficients."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: FreeAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    @property
    def _field(self):
        return self.algebra.field

    def _new(self, terms):
        return NcPoly(self.algebra, terms)

    def degree(self):
        """Degree of a homogeneous polynomial; None for 0."""
        if not self.terms:
            return None
        lengths = {len(w) for w in self.terms}
        if len(lengths) > 1:
            raise ValueError("polynomial is not homogeneous")
        return lengths.pop()

    def __mul__(self, other):
        """Concatenation product, extended bilinearly."""
        if not isinstance(other, NcPoly):
            return self.scale(other)
        out: dict = {}
        _add_products(self.algebra.field, out, self.terms, other.terms, add)
        return NcPoly(self.algebra, out)

    def reversed(self) -> "NcPoly":
        """Image under the word-reversal anti-automorphism."""
        return NcPoly(self.algebra, {tuple(reversed(w)): c for w, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, NcPoly)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __str__(self):
        from .parsing import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"NcPoly({self})"


class GradedFreeModule:
    """A finite free graded module, given by the degrees of its generators."""

    __slots__ = ("algebra", "shifts")

    def __init__(self, algebra: FreeAlgebra, shifts):
        self.algebra = algebra
        self.shifts = tuple(map(_degree, shifts))

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def graded_piece_dim(self, j: int) -> int:
        d = self.algebra.d
        return sum(d ** (j - b) for b in self.shifts if b <= j)

    # -- element constructors ------------------------------------------------

    def gen(self, alpha: int) -> "FreeModuleElement":
        return self.element({(alpha, ()): self.algebra.field.one})

    def element(self, terms) -> "FreeModuleElement":
        F = self.algebra.field
        clean = {}
        for (alpha, w), c in dict(terms).items():
            c = F.coerce(c)
            if c != 0:
                if type(alpha) is not int or not 0 <= alpha < self.rank:  # a bool or 1.0 is no coordinate
                    raise ValueError(f"coordinate {alpha} out of range")
                self.algebra._check_word(w)
                clean[(alpha, tuple(w))] = c
        return FreeModuleElement(self, clean)

    def from_polys(self, polys) -> "FreeModuleElement":
        """Element from a vector of polynomials, one per coordinate."""
        polys = list(polys)
        if len(polys) != self.rank:
            raise ValueError("vector length does not match rank")
        terms = {}
        for alpha, p in enumerate(polys):
            for w, c in p.terms.items():
                terms[(alpha, w)] = c
        return FreeModuleElement(self, terms)

    def shifted(self, m: int) -> "GradedFreeModule":
        """The twist by m: degrees drop by m, so shifts b become b - m."""
        m = _degree(m)
        return GradedFreeModule(self.algebra, tuple(b - m for b in self.shifts))

    def direct_sum(self, other: "GradedFreeModule") -> "GradedFreeModule":
        return GradedFreeModule(self.algebra, self.shifts + other.shifts)

    def __eq__(self, other):
        return (
            isinstance(other, GradedFreeModule)
            and self.algebra == other.algebra
            and self.shifts == other.shifts
        )

    def __hash__(self):
        return hash((self.algebra, self.shifts))

    def __repr__(self):
        return f"GradedFreeModule(shifts={self.shifts}, d={self.algebra.d})"


class FreeModuleElement(_Terms):
    """An element of a graded free module, stored as {(alpha, word): coeff}."""

    __slots__ = ("module",)

    def __init__(self, module: GradedFreeModule, terms: dict):
        self.module = module
        self.terms = terms

    @property
    def _field(self):
        return self.module.algebra.field

    def _new(self, terms):
        return FreeModuleElement(self.module, terms)

    def is_homogeneous(self) -> bool:
        degs = {len(w) + self.module.shifts[alpha] for alpha, w in self.terms}
        return len(degs) <= 1

    def degree(self):
        """Degree of a homogeneous element; None for 0."""
        if not self.terms:
            return None
        degs = {len(w) + self.module.shifts[alpha] for alpha, w in self.terms}
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def word_mul(self, u) -> "FreeModuleElement":
        """Left multiplication by a word."""
        u = tuple(u)
        return FreeModuleElement(
            self.module, {(alpha, u + w): c for (alpha, w), c in self.terms.items()}
        )

    def polys(self) -> list:
        """The element as a vector of polynomials."""
        A = self.module.algebra
        vecs = [{} for _ in range(self.module.rank)]
        for (alpha, w), c in self.terms.items():
            vecs[alpha][w] = c
        return [NcPoly(A, v) for v in vecs]

    def __eq__(self, other):
        return (
            isinstance(other, FreeModuleElement)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "(0)"
        return "(" + ", ".join(str(p) for p in self.polys()) + ")"

    def __repr__(self):
        return f"FreeModuleElement{self}"


class ModuleMap:
    """A degree-preserving map between graded free modules.

    The matrix is stored source-major: row alpha lists the coordinates of the
    image of the source generator e_alpha, so entry (alpha, beta) must be
    homogeneous of degree shifts_src[alpha] - shifts_tgt[beta].
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule, matrix):
        if source.algebra != target.algebra:
            raise ValueError("source and target live over different algebras")
        self.source = source
        self.target = target
        rows = []
        for alpha, row in enumerate(matrix):
            row = tuple(row)
            if len(row) != target.rank:
                raise ValueError("matrix row length does not match target rank")
            for beta, p in enumerate(row):
                if p.is_zero():
                    continue
                want = source.shifts[alpha] - target.shifts[beta]
                if p.degree() != want:
                    raise ValueError(
                        f"entry ({alpha},{beta}) has degree {p.degree()}, expected {want}"
                    )
            rows.append(row)
        if len(rows) != source.rank:
            raise ValueError("matrix row count does not match source rank")
        self.matrix = tuple(rows)

    @classmethod
    def identity(cls, module):
        A = module.algebra
        rows = [
            [A.one() if i == j else A.zero() for j in range(module.rank)]
            for i in range(module.rank)
        ]
        return cls(module, module, rows)

    def row_elements(self) -> list:
        """Images of the source generators."""
        return [self.target.from_polys(row) for row in self.matrix]

    def apply(self, elem: FreeModuleElement) -> FreeModuleElement:
        if elem.module != self.source:
            raise ValueError("element not in the source module")
        F = self.target.algebra.field
        out: dict = {}
        for alpha, p in enumerate(elem.polys()):
            if p.terms:
                for beta, q in enumerate(self.matrix[alpha]):
                    _add_products(F, out, p.terms, q.terms, lambda u, w: (beta, u + w))
        return FreeModuleElement(self.target, out)

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        """self followed by `then`."""
        if self.target != then.source:
            raise ValueError("maps are not composable")
        A = self.source.algebra
        rows = []
        for alpha in range(self.source.rank):
            row = []
            for gamma in range(then.target.rank):
                acc = A.zero()
                for beta in range(self.target.rank):
                    p, q = self.matrix[alpha][beta], then.matrix[beta][gamma]
                    if not p.is_zero() and not q.is_zero():
                        acc = acc + p * q
                row.append(acc)
            rows.append(row)
        return ModuleMap(self.source, then.target, rows)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"ModuleMap({self.source.shifts} -> {self.target.shifts})"
