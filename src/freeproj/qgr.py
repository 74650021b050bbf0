"""The quotient category of graded modules by the finite-dimensional ones.

Isomorphism classes of its finitely presented objects are nonnegative
elements of Z[1/d]: the class of a module is t * d^(-i) read off from its
stable profile, the twist multiplies by d, and two objects are isomorphic
exactly when their classes agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .af_s import AFMatrix, word_rank
from .errors import CertificateMismatch, NotExactInput, RankNotStabilized, TruncationNotFree
from .fields import QgrClass
from .fpmod import FpModule, FpModuleMorphism, _tail_from
from .freealg import FreeAlgebra, ModuleMap
from .linalg import SparseMatrix, _ratio, rank, solve_left


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


def normalized_rank(module: FpModule, r: int) -> Fraction:
    """dim M_r / d^r for r at or past the stabilization index."""
    profile = module.stable_profile()
    if r < profile.i0:
        raise RankNotStabilized(f"need r >= {profile.i0}, got {r}")
    return Fraction(module.hilbert(r), module.algebra.d**r)


# ---------------------------------------------------------------------------
# the endomorphism tower of the structure object


def tower_morphism(f: AFMatrix) -> FpModuleMorphism:
    """A level-n f as the endomorphism of R_{>= n} = R(-n)^(d^n), generator
    alpha standing for the word w_alpha: e_alpha goes to
    sum_beta f[beta][alpha] e_beta (column convention).  On a word u * w_alpha
    it acts on the suffix, so the module layer's restriction to degree n + k
    is I (x) f, the tower step `AFMatrix.embed`, read without it."""
    free = _tower_module(f.d, f.field, f.level)
    A, n = free.algebra, len(f.rows)
    images = [[A.zero()] * n for _ in range(n)]
    for beta, row in enumerate(f.rows):
        for alpha, v in row.items():
            images[alpha][beta] = A.poly({(): _ratio(v, f.den)})
    return FpModuleMorphism(free, free, ModuleMap(free.F0, free.F0, images))


# R(-level)^(d^level), built once for every f of `tower_morphism` at that level (8 kept)
_tower_module = lru_cache(maxsize=8)(lambda d, field, level: FpModule.free(FreeAlgebra(d, field), [level] * d**level))


# ---------------------------------------------------------------------------
# explicit decomposition of the structure object


class DecompositionPair:
    """Mutually inverse maps between the r-fold twisted sum and the tail.

    source and target are the free FpModules R(-r)^(d^r) and R.  forward is
    the cover map from the source onto the tail R_{>= r} of R (its columns
    are the words of length r); backward realizes the inverse degreewise by
    splitting a word into its prefix and its length-r tail.
    """

    def __init__(self, algebra: FreeAlgebra, r: int = 1):
        if r < 0:
            raise ValueError("r must be nonnegative")
        self.algebra = algebra
        self.r = r
        d = algebra.d
        self.source = FpModule.free(algebra, [r] * d**r)
        self.target = FpModule.free(algebra, [0])
        words = list(algebra.words(r))
        self.words = words
        self.forward = ModuleMap(
            self.source.F0, self.target.F0, [[algebra.monomial(w)] for w in words]
        )

    def backward_matrix(self, j: int) -> SparseMatrix:
        """Degree-j matrix (row convention) of the inverse map on the tail."""
        if j < self.r:
            raise ValueError("the inverse is defined on degrees >= r")
        F = self.algebra.field
        tgt_index = self.source._std_index(j)
        rows = []
        for _, w in self.target.std_basis(j):
            alpha = word_rank(self.algebra.d, w[len(w) - self.r:])
            rows.append({tgt_index[(alpha, w[: len(w) - self.r])]: F.one})
        return SparseMatrix(F, len(rows), len(tgt_index), rows)

    def verify(self, degrees=4) -> bool:
        """Both composites are identity matrices in degrees r..r+degrees-1, degrees >= 1."""
        if degrees < 1:
            raise ValueError("degrees must be at least 1")
        forward = FpModuleMorphism(self.source, self.target, self.forward)
        for j in range(self.r, self.r + degrees):
            U = forward.matrix_in_degree(j)
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

    The data is one exact matrix per degree j from i: sigma_j maps the
    degree-j piece of the quotient back into the middle so that following
    with the surjection is the identity, in every degree `verify` checks.
    """

    __slots__ = ("surjection", "matrices")

    def __init__(self, surjection: FpModuleMorphism, matrices: dict):
        self.surjection = surjection
        self.matrices = dict(matrices)

    def verify(self) -> bool:
        """sigma_j * G_j is the identity in every degree j, on the cached G_j."""
        F = self.surjection.source.algebra.field
        return all(sigma.mul(self.surjection.matrix_in_degree(j)) == SparseMatrix.identity(F, sigma.nrows)
                   for j, sigma in self.matrices.items())


def split_sequence(
    f: FpModuleMorphism, g: FpModuleMorphism, i: int, degrees: int = 4
) -> Section:
    """Section of g on the tail from degree i, for an exact pair (f, g).

    Demands that the quotient tail is free from degree i on, lifts a
    degree-i standard basis of N through g, and extends one letter at a
    time: sigma_j(x_a * n) = x_a * sigma_{j-1}(n).  Past both free bounds
    `FpModule._tail_step` moves the columns of sigma_{j-1} by the two
    layouts; below, sigma_j solves against N's stacked letter matrices out
    of N_{j-1} (square past i), with the images sigma_{j-1} * x_a.

    With n the largest free bound of L, M and N, exactness of
    0 -> L -> M -> N -> 0 is checked on degrees lo..n+1 and sigma_j * G_j = I
    on i..max(i, n)+1, cut at i + degrees: past there each check restates
    the one below (`fpmod._tail_from`).  `Section.verify` checks every degree
    returned.  A negative `degrees` raises ValueError.
    """
    if degrees < 0:
        raise ValueError("degrees must be nonnegative")
    L, M, N = f.source, f.target, g.target
    if not (g.source.F0 == M.F0 and g.source.relations == M.relations):
        raise NotExactInput("the maps are not composable as L -> M -> N")
    composite = f.compose(g)
    for e in composite.map0.row_elements():
        if not N.relation_basis().reduce(e).is_zero():
            raise NotExactInput("g o f is not zero")
    profile = N.stable_profile()
    if i < profile.i0:
        raise TruncationNotFree(f"need i >= {profile.i0}, got {i}")
    lo = min(L.min_degree, M.min_degree, N.min_degree)
    hi, past = i + degrees, _tail_from(L, M, N)
    for j in range(lo, min(hi, past) + 1):
        fr = rank(f.matrix_in_degree(j))
        gr = rank(g.matrix_in_degree(j))
        if fr != L.hilbert(j):
            raise NotExactInput(f"f is not injective in degree {j}")
        if gr != N.hilbert(j):
            raise NotExactInput(f"g is not surjective in degree {j}")
        if M.hilbert(j) - gr != fr:
            raise NotExactInput(f"sequence not exact in the middle in degree {j}")

    field, d = M.algebra.field, M.algebra.d
    t = N.hilbert(i)
    lifts = solve_left(g.matrix_in_degree(i), SparseMatrix.identity(field, t).rows)
    if any(x is None for x in lifts):
        raise NotExactInput("could not lift the degree-i basis through g")
    sigma = SparseMatrix(field, t, M.hilbert(i), lifts)
    matrices, checked = {}, max(i + 1, past)
    for j in range(i, hi + 1):
        # read by the check and by the solve route, which runs only below `past`
        unit = SparseMatrix.identity(field, N.hilbert(j)) if j <= checked else None
        if j > i and (tail := N._tail_step(sigma, M, j)) is not None:
            sigma = tail
        elif j > i:
            T = SparseMatrix(field, d * N.hilbert(j - 1), N.hilbert(j),
                             [r for a in range(d) for r in N.letter_matrix(a, j - 1).rows])
            images = [r for a in range(d) for r in sigma.mul(M.letter_matrix(a, j - 1)).rows]
            coords = solve_left(T, unit.rows)
            if any(c is None for c in coords):
                raise TruncationNotFree(f"quotient tail is not free at degree {j}")
            sigma = SparseMatrix(field, len(coords), len(images), coords).mul(
                SparseMatrix(field, len(images), M.hilbert(j), images))
        if unit is not None and sigma.mul(g.matrix_in_degree(j)) != unit:
            raise CertificateMismatch(f"constructed section fails in degree {j}")
        matrices[j] = sigma
    return Section(g, matrices)


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
    source = FpModule.free(algebra, [0])
    target = FpModule.free(algebra, [-1] * d)
    row = [[algebra.gen(b).reversed() for b in range(d)]]
    phi = FpModuleMorphism(source, target, ModuleMap(source.F0, target.F0, row))
    return target.hilbert(j) - rank(phi.matrix_in_degree(j))
