"""The quotient category of graded modules by the finite-dimensional ones.

Isomorphism classes of its finitely presented objects are nonnegative
elements of Z[1/d]: the class of a module is t * d^(-i) read off from its
stable profile, the twist multiplies by d, and two objects are isomorphic
exactly when their classes agree.  Morphism spaces are matrices over the
limit algebra once both objects are rewritten at a common twist.

The sections functor at finite level r is Hom_k(V^{tensor r}, M_r) with the
right action of the level-r matrix algebra by precomposition; its transition
maps realize the restriction maps of the endomorphism tower of the structure
object.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .af_s import AFMatrix, word_rank
from .errors import (
    CertificateMismatch,
    NotExactInput,
    NotExpressibleAtTwist,
    RankNotStabilized,
    TruncationNotFree,
)
from .fields import QQ
from .fpmod import FpModule, FpModuleMorphism
from .freealg import FreeAlgebra, ModuleMap
from .linalg import SparseMatrix, rank, solve_left


class QgrClass:
    """An element t * d^(-i) of Z[1/d] in normal form.

    Normal form: i is the least integer making t a nonnegative integer; in
    particular d does not divide t when t > 0 (for d >= 2), and zero is
    stored as (0, 0).
    """

    __slots__ = ("t", "i", "d")

    def __init__(self, t: int, i: int, d: int):
        if d < 1:
            raise ValueError("d must be at least 1")
        if t < 0:
            raise ValueError("classes are nonnegative")
        value = Fraction(t) * Fraction(d) ** (-i)
        norm = QgrClass._normalize(value, d)
        self.t, self.i = norm
        self.d = d

    @staticmethod
    def _normalize(value: Fraction, d: int):
        if value == 0:
            return 0, 0
        if d == 1:
            if value.denominator != 1:
                raise ValueError(f"{value} is not in Z[1/1] = Z")
            return int(value), 0
        i = 0
        den = value.denominator
        while den > 1:
            g = gcd(den, d)
            if g == 1:
                raise ValueError(f"{value} is not in Z[1/{d}]")
            num = value * d
            i += 1
            value = num
            den = value.denominator
        # now value is a nonnegative integer t * d^(-i); strip factors of d
        t = int(value)
        while t % d == 0:
            t //= d
            i -= 1
        return t, i

    @classmethod
    def from_fraction(cls, value: Fraction, d: int) -> "QgrClass":
        if value < 0:
            raise ValueError("classes are nonnegative")
        t, i = cls._normalize(Fraction(value), d)
        out = cls.__new__(cls)
        out.t, out.i, out.d = t, i, d
        return out

    @property
    def value(self) -> Fraction:
        return Fraction(self.t) * Fraction(self.d) ** (-self.i)

    def is_zero(self) -> bool:
        return self.t == 0

    def _check(self, other):
        if not isinstance(other, QgrClass) or other.d != self.d:
            raise ValueError("classes live in different groups")

    def __add__(self, other):
        self._check(other)
        return QgrClass.from_fraction(self.value + other.value, self.d)

    def __sub__(self, other):
        self._check(other)
        return QgrClass.from_fraction(self.value - other.value, self.d)

    def scaled(self, n: int) -> "QgrClass":
        return QgrClass.from_fraction(self.value * n, self.d)

    def twisted(self, m: int) -> "QgrClass":
        """Multiply by d^m (the effect of the Serre twist by m)."""
        return QgrClass.from_fraction(self.value * Fraction(self.d) ** m, self.d)

    def multiplicity_at(self, i: int) -> int:
        """r with value = r * d^i, if r is a nonnegative integer."""
        q = self.value * Fraction(self.d) ** (-i)
        if q.denominator != 1:
            raise NotExpressibleAtTwist(f"class {self.value} is not integral at twist {i}")
        return int(q)

    def expressible_in(self, e: int) -> bool:
        """Does this value lie in Z[1/e]?"""
        den = self.value.denominator
        while den > 1:
            g = gcd(den, e)
            if g == 1:
                return False
            den //= g
        return True

    def __eq__(self, other):
        return (
            isinstance(other, QgrClass)
            and (self.t, self.i, self.d) == (other.t, other.i, other.d)
        )

    def __hash__(self):
        return hash((self.t, self.i, self.d))

    def to_json(self):
        return {"t": self.t, "i": self.i, "d": self.d}

    def __repr__(self):
        return f"QgrClass({self.t}*{self.d}^-{self.i})"


class QgrObject:
    """An isomorphism class of coherent objects, with a free-tail witness.

    witness = (i0, t0) means the object is presented as t0 copies of the
    (-i0)-twisted structure object.
    """

    __slots__ = ("d", "cls", "witness")

    def __init__(self, d: int, cls: QgrClass, witness=None):
        self.d = d
        self.cls = cls
        if witness is None:
            witness = (max(cls.i, 0), cls.multiplicity_at(-max(cls.i, 0)))
        i0, t0 = witness
        if cls.multiplicity_at(-i0) != t0:
            raise ValueError("witness does not match the class")
        self.witness = (i0, t0)

    @classmethod
    def zero(cls, d: int) -> "QgrObject":
        return cls(d, QgrClass(0, 0, d), (0, 0))

    @classmethod
    def structure(cls, d: int) -> "QgrObject":
        """The structure object O, class 1."""
        return cls(d, QgrClass(1, 0, d), (0, 1))

    @classmethod
    def twisted_sum(cls, d: int, i: int, r: int) -> "QgrObject":
        """O(i)^r."""
        value = Fraction(r) * Fraction(d) ** i
        return cls(d, QgrClass.from_fraction(value, d), (max(-i, 0), r * d ** max(i, 0)))

    def is_zero(self) -> bool:
        return self.cls.is_zero()

    def twist(self, m: int) -> "QgrObject":
        i0, t0 = self.witness
        return QgrObject(self.d, self.cls.twisted(m), (i0 - m, t0))

    def decompose(self, i: int) -> int:
        """Multiplicity r with this object isomorphic to O(i)^r."""
        return self.cls.multiplicity_at(i)

    def __eq__(self, other):
        return isinstance(other, QgrObject) and self.d == other.d and self.cls == other.cls

    def to_json(self):
        return {"class": self.cls.to_json(), "witness": list(self.witness)}

    def __repr__(self):
        return f"QgrObject(class={self.cls!r}, witness={self.witness})"


def pi_star(module: FpModule) -> QgrObject:
    """Image of a finitely presented module in the quotient category."""
    profile = module.stable_profile()
    cls = module.k0_class()
    return QgrObject(module.algebra.d, cls, (profile.i0, profile.t0))


def is_isomorphic(F: QgrObject, G: QgrObject) -> bool:
    """The class in Z[1/d] is a complete isomorphism invariant."""
    return F.d == G.d and F.cls == G.cls


def twist(F: QgrObject, m: int) -> QgrObject:
    return F.twist(m)


def decompose(F: QgrObject, i: int) -> int:
    return F.decompose(i)


def k0_class(module: FpModule) -> QgrClass:
    return module.k0_class()


def normalized_rank(module: FpModule, r: int) -> Fraction:
    """dim M_r / d^r for r at or past the stabilization index."""
    profile = module.stable_profile()
    if r < profile.i0:
        raise RankNotStabilized(f"need r >= {profile.i0}, got {r}")
    return Fraction(module.hilbert(r), module.algebra.d**r)


# ---------------------------------------------------------------------------
# morphism spaces as matrices over the limit algebra


class QgrMorphismSpace:
    """Hom(F, G) at a finite level, as matrices over the limit algebra.

    Both objects are rewritten at the common twist -m, where F becomes a sum
    of A copies and G a sum of B copies of O(-m); elements are then B x A
    matrices with entries at the given level, composing by matrix product.
    """

    __slots__ = ("F", "G", "m", "level", "A", "B", "d", "field")

    def __init__(self, F: QgrObject, G: QgrObject, level: int, field=None, twist_m=None):
        if F.d != G.d:
            raise ValueError("objects over different rings")
        self.F, self.G = F, G
        self.d = F.d
        self.level = level
        self.field = QQ if field is None else field
        m = max(F.cls.i, G.cls.i, 0)
        if twist_m is not None:
            if twist_m < m:
                raise NotExpressibleAtTwist(
                    f"objects are not sums of copies of O({-twist_m})"
                )
            m = twist_m
        self.m = m
        self.A = F.cls.multiplicity_at(-m)
        self.B = G.cls.multiplicity_at(-m)

    def dimension(self) -> int:
        return self.A * self.B * self.d ** (2 * self.level)

    def element(self, entries) -> "QgrMorphism":
        return QgrMorphism(self, entries)

    def zero(self) -> "QgrMorphism":
        z = AFMatrix.zero(self.d, 0, self.field)
        return QgrMorphism(self, [[z] * self.A for _ in range(self.B)])

    def identity(self) -> "QgrMorphism":
        if self.A != self.B or not is_isomorphic(self.F, self.G):
            raise ValueError("identity requires equal source and target")
        one = AFMatrix.identity(self.d, 0, self.field)
        z = AFMatrix.zero(self.d, 0, self.field)
        return QgrMorphism(
            self, [[one if i == j else z for j in range(self.A)] for i in range(self.B)]
        )

    def matrix_unit_embedding(self, u, v) -> "QgrMorphism":
        """The image of the elementary matrix E_{u,v} of the level-r matrix
        algebra under the diagonal unital embedding into End(F)."""
        if self.A != self.B:
            raise ValueError("matrix-unit embedding lives in an endomorphism space")
        e = AFMatrix.matrix_unit(self.d, u, v, self.field)
        z = AFMatrix.zero(self.d, 0, self.field)
        return QgrMorphism(
            self, [[e if i == j else z for j in range(self.A)] for i in range(self.B)]
        )

    def to_json(self):
        return {
            "source": self.F.to_json(),
            "target": self.G.to_json(),
            "twist": -self.m,
            "level": self.level,
            "shape": [self.B, self.A],
        }

    def __repr__(self):
        return f"QgrMorphismSpace({self.B}x{self.A} over S at level {self.level})"


class QgrMorphism:
    """A matrix of limit-algebra elements, representing a morphism."""

    __slots__ = ("space", "entries")

    def __init__(self, space: QgrMorphismSpace, entries):
        rows = []
        for row in entries:
            row = tuple(row)
            if len(row) != space.A:
                raise ValueError("wrong number of columns")
            for a in row:
                if a.level > space.level:
                    raise ValueError("entry level exceeds the space level")
            rows.append(tuple(a.embed(space.level) for a in row))
        if len(rows) != space.B:
            raise ValueError("wrong number of rows")
        self.space = space
        self.entries = tuple(rows)

    def __add__(self, other):
        if other.space is not self.space and other.space.to_json() != self.space.to_json():
            raise ValueError("morphisms from different spaces")
        return QgrMorphism(
            self.space,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def scale(self, c):
        return QgrMorphism(self.space, [[a.scale(c) for a in row] for row in self.entries])

    def compose(self, first: "QgrMorphism") -> "QgrMorphism":
        """self o first: apply `first`, then self."""
        s, f = self.space, first.space
        if s.A != f.B or s.m != f.m or s.level != f.level:
            raise ValueError("morphisms are not composable")
        out_space = QgrMorphismSpace(f.F, s.G, s.level, s.field, twist_m=s.m)
        z = AFMatrix.zero(s.d, 0, s.field)
        rows = []
        for i in range(s.B):
            row = []
            for j in range(f.A):
                acc = z
                for k in range(s.A):
                    acc = acc + self.entries[i][k] * first.entries[k][j]
                row.append(acc)
            rows.append(row)
        return QgrMorphism(out_space, rows)

    def __eq__(self, other):
        return (
            isinstance(other, QgrMorphism)
            and self.space.to_json() == other.space.to_json()
            and self.entries == other.entries
        )

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "matrix": [[a.to_json() for a in row] for row in self.entries],
        }

    def __repr__(self):
        return f"QgrMorphism({self.space.B}x{self.space.A} at level {self.space.level})"


def hom_space(
    F: QgrObject, G: QgrObject, level: int, field=None, twist_m=None
) -> QgrMorphismSpace:
    return QgrMorphismSpace(F, G, level, field, twist_m)


# ---------------------------------------------------------------------------
# the sections functor at finite level


class GammaElement:
    """A k-linear map from degree-r words to M_r, stored as a row-per-word matrix."""

    __slots__ = ("parent", "rows")

    def __init__(self, parent: "GammaModule", rows):
        self.parent = parent
        self.rows = tuple({c: v for c, v in dict(r).items() if v != 0} for r in rows)
        if len(self.rows) != parent.word_count:
            raise ValueError("wrong number of word rows")

    def act(self, s: AFMatrix) -> "GammaElement":
        """Right action by precomposition with a level-r algebra element."""
        p = self.parent
        if s.level > p.r:
            raise ValueError("algebra element lives above the module level")
        F = p.module.algebra.field
        St = SparseMatrix.from_dense(F, s.embed(p.r).entries).transpose()
        return GammaElement(p, St.mul(self._matrix()).rows)

    def transition(self) -> "GammaElement":
        """The image at level r+1: the new first letter acts through M."""
        p = self.parent
        rows = self._matrix()
        out = []
        for i in range(p.module.algebra.d):
            out.extend(rows.mul(p.module.letter_matrix(i, p.r)).rows)
        return GammaElement(GammaModule(p.module, p.r + 1), out)

    def _matrix(self) -> SparseMatrix:
        """The word rows as a word_count x dim M_r matrix."""
        p = self.parent
        return SparseMatrix(
            p.module.algebra.field, p.word_count, p.module.hilbert(p.r), self.rows
        )

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, GammaElement)
            and self.parent == other.parent
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"GammaElement(level={self.parent.r})"


class GammaModule:
    """Hom_k(V^{tensor r}, M_r) as a right module over the level-r matrix algebra."""

    __slots__ = ("module", "r", "word_count")

    def __init__(self, module: FpModule, r: int):
        if r < 0:
            raise ValueError("level must be nonnegative")
        self.module = module
        self.r = r
        self.word_count = module.algebra.d**r

    def dimension(self) -> int:
        return self.word_count * self.module.hilbert(self.r)

    def element(self, rows) -> GammaElement:
        return GammaElement(self, rows)

    def zero(self) -> GammaElement:
        return GammaElement(self, [{} for _ in range(self.word_count)])

    def basis_element(self, word, mon_index: int) -> GammaElement:
        """The map sending one word to one standard monomial of M_r."""
        rows = [{} for _ in range(self.word_count)]
        rows[word_rank(self.module.algebra.d, word)] = {mon_index: self.module.algebra.field.one}
        return GammaElement(self, rows)

    def __eq__(self, other):
        return (
            isinstance(other, GammaModule)
            and self.module is other.module
            and self.r == other.r
        )

    def __repr__(self):
        return f"GammaModule(r={self.r}, dim={self.dimension()})"


def gamma(module: FpModule, r: int) -> GammaModule:
    return GammaModule(module, r)


# ---------------------------------------------------------------------------
# the endomorphism tower of the structure object


def induced_endo_matrix(f: AFMatrix, degree: int):
    """Degree-`degree` matrix (column convention) of the endomorphism of the
    tail R_{>= level f} obtained from f by extending left-linearly: a word
    splits as prefix * suffix and f rewrites the suffix."""
    d, i = f.d, f.level
    if degree < i:
        raise ValueError("degree below the level of f")
    n = d**degree
    npre = d ** (degree - i)
    ni = d**i
    F = f.field
    out = [[F.zero] * n for _ in range(n)]
    for p in range(npre):
        off = p * ni
        for s2 in range(ni):
            row = out[off + s2]
            src = f.entries[s2]
            for s in range(ni):
                row[off + s] = src[s]
    return out


def tower_transition(f: AFMatrix) -> AFMatrix:
    """One step up the tower: the new first tensor index is untouched."""
    return f.embed(f.level + 1)


def tower_square_commutes(f: AFMatrix, degrees: int = 3) -> bool:
    """Check that restricting the induced endomorphism agrees with inducing
    from the transitioned element, degree by degree."""
    g = tower_transition(f)
    for j in range(f.level + 1, f.level + 1 + degrees):
        if induced_endo_matrix(f, j) != induced_endo_matrix(g, j):
            return False
    return True


# ---------------------------------------------------------------------------
# explicit decomposition of the structure object


class DecompositionPair:
    """Mutually inverse maps between the r-fold twisted sum and the tail.

    forward is the module map from the rank-d^r free module with basis in
    degree r onto the tail R_{>= r} of R (its columns are the words of
    length r); backward realizes the inverse degreewise by splitting a word
    into its prefix and its length-r tail.
    """

    def __init__(self, algebra: FreeAlgebra, r: int = 1):
        if r < 0:
            raise ValueError("r must be nonnegative")
        self.algebra = algebra
        self.r = r
        d = algebra.d
        self.source = algebra.free_module([r] * d**r)
        self.target = algebra.free_module([0])
        words = list(algebra.words(r))
        self.words = words
        self.forward = ModuleMap(
            self.source, self.target, [[algebra.monomial(w)] for w in words]
        )

    def backward_matrix(self, j: int) -> SparseMatrix:
        """Degree-j matrix (row convention) of the inverse map on the tail."""
        if j < self.r:
            raise ValueError("the inverse is defined on degrees >= r")
        F = self.algebra.field
        tgt_index = self.source.basis_index(j)
        rows = []
        for _, w in self.target.monomial_basis(j):
            alpha = word_rank(self.algebra.d, w[len(w) - self.r:])
            rows.append({tgt_index[(alpha, w[: len(w) - self.r])]: F.one})
        return SparseMatrix(F, len(rows), len(tgt_index), rows)

    def verify(self, degrees=4) -> bool:
        """Both composites are identity matrices in every checked degree."""
        for j in range(self.r, self.r + degrees):
            U = self.forward.map_in_degree(j)
            V = self.backward_matrix(j)
            n_src = U.nrows
            n_tgt = V.nrows
            if U.mul(V) != SparseMatrix.identity(self.algebra.field, n_src):
                return False
            if V.mul(U) != SparseMatrix.identity(self.algebra.field, n_tgt):
                return False
        return True


# ---------------------------------------------------------------------------
# splitting short exact sequences


class Section:
    """A degreewise section of a surjection, built by lifting a degree-i basis.

    The data is one exact matrix per checked degree j: sigma_j maps the
    degree-j piece of the quotient back into the middle so that following
    with the surjection is the identity.
    """

    __slots__ = ("surjection", "start", "matrices")

    def __init__(self, surjection: FpModuleMorphism, start: int, matrices: dict):
        self.surjection = surjection
        self.start = start
        self.matrices = dict(matrices)

    def matrix_in_degree(self, j: int) -> SparseMatrix:
        return self.matrices[j]

    def verify(self) -> bool:
        for j, sigma in self.matrices.items():
            G = self.surjection.matrix_in_degree(j)
            n = self.surjection.target.hilbert(j)
            if sigma.mul(G) != SparseMatrix.identity(
                self.surjection.source.algebra.field, n
            ):
                return False
        return True


def split_sequence(
    f: FpModuleMorphism, g: FpModuleMorphism, i: int, degrees: int = 4
) -> Section:
    """Section of g on the tail from degree i, for an exact pair (f, g).

    Verifies degreewise exactness of 0 -> L -> M -> N -> 0 along the checked
    range, demands that the quotient tail is free from degree i on, lifts a
    degree-i standard basis of N through g, and extends freely.
    """
    L, M, N = f.source, f.target, g.target
    if not (
        g.source.F0 == M.F0 and g.source.relations == M.relations
    ):
        raise NotExactInput("the maps are not composable as L -> M -> N")
    composite = f.compose(g)
    for e in composite.map0.row_elements():
        if not N.relation_basis().reduce(e).is_zero():
            raise NotExactInput("g o f is not zero")
    profile = N.stable_profile()
    if i < profile.i0:
        raise TruncationNotFree(f"need i >= {profile.i0}, got {i}")
    lo = min(L.min_degree, M.min_degree, N.min_degree)
    hi = i + degrees
    for j in range(lo, hi + 1):
        fr = rank(f.matrix_in_degree(j))
        gr = rank(g.matrix_in_degree(j))
        if fr != L.hilbert(j):
            raise NotExactInput(f"f is not injective in degree {j}")
        if gr != N.hilbert(j):
            raise NotExactInput(f"g is not surjective in degree {j}")
        if M.hilbert(j) - gr != fr:
            raise NotExactInput(f"sequence not exact in the middle in degree {j}")

    field = M.algebra.field
    Gi = g.matrix_in_degree(i)
    t = N.hilbert(i)
    units = [{l: field.one} for l in range(t)]
    lifts = solve_left(Gi, units)
    if any(x is None for x in lifts):
        raise NotExactInput("could not lift the degree-i basis through g")
    lift_mat = SparseMatrix(field, t, M.hilbert(i), lifts)

    matrices = {}
    for j in range(i, hi + 1):
        rows_T = []
        rows_img = []
        for w in M.algebra.words(j - i):
            rows_T.extend(N.word_matrix(w, i).rows)
            rows_img.extend(lift_mat.mul(M.word_matrix(w, i)).rows)
        T = SparseMatrix(field, len(rows_T), N.hilbert(j), rows_T)
        targets = [{l: field.one} for l in range(N.hilbert(j))]
        coords = solve_left(T, targets)
        if any(c is None for c in coords):
            raise TruncationNotFree(f"quotient tail is not free at degree {j}")
        sigma = SparseMatrix(field, len(coords), len(rows_img), coords).mul(
            SparseMatrix(field, len(rows_img), M.hilbert(j), rows_img)
        )
        if sigma.mul(g.matrix_in_degree(j)) != SparseMatrix.identity(field, N.hilbert(j)):
            raise CertificateMismatch(f"constructed section fails in degree {j}")
        matrices[j] = sigma
    return Section(g, i, matrices)


# ---------------------------------------------------------------------------
# the first Ext dimension check


def ext1_k_R_dim(algebra: FreeAlgebra, j: int) -> int:
    """Degree-j dimension of the cokernel of the map of graded right modules
    sending 1 to the vector of generators (handled over the opposite ring by
    word reversal; the generator letters are reversal-invariant).

    Computed honestly from the cokernel: dimension of the target piece minus
    the exact rank of the degreewise matrix, not from a closed form.
    """
    d = algebra.d
    source = algebra.free_module([0])
    target = algebra.free_module([-1] * d)
    row = [[algebra.gen(b).reversed() for b in range(d)]]
    phi = ModuleMap(source, target, row)
    return target.graded_piece_dim(j) - rank(phi.map_in_degree(j))
