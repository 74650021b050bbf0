"""The word-level section loop that the one-letter recursion replaced.

`qgr.split_sequence` lifted a degree-i basis of N through g and, in each
degree j, solved against the matrices from N_i of every word of length
j - i, with those words times the lift as the images.  Kept verbatim, less
the exactness checks that stay in `split_sequence`, as the oracle whose
section matrices `split_sequence` must equal.

`solve_split_sequence` is `qgr.split_sequence` as it was before it read the
free-tail lifts off N's layout: in every degree j > i it solved against N's
stacked letter matrices out of N_{j-1}, also where they are the unit-row
permutation of the free tail, and multiplied the solution into the images.
Kept verbatim, as the oracle whose `Section` matrices `split_sequence` must
equal row by row, with the same value types and dict key order.

Both read the matrices of f and g through `morphism_matrix_oracle`, the
per-monomial `matrix_in_degree`, so they run none of the one-letter or
free-tail extension they are compared with.
"""

from morphism_matrix_oracle import matrix_in_degree
from torsion_oracle import word_levels

from freeproj.errors import CertificateMismatch, NotExactInput, TruncationNotFree
from freeproj.fpmod import FpModuleMorphism
from freeproj.linalg import SparseMatrix, rank, solve_left
from freeproj.qgr import Section


def section_matrices(g, i: int, degrees: int = 4) -> dict:
    """{j: sigma_j} for j = i..i+degrees, sigma_j * G_j the identity."""
    M, N = g.source, g.target
    hi = i + degrees
    field = M.algebra.field
    t = N.hilbert(i)
    lifts = solve_left(matrix_in_degree(g, i), SparseMatrix.identity(field, t).rows)
    if any(x is None for x in lifts):
        raise NotExactInput("could not lift the degree-i basis through g")
    lift_mat = SparseMatrix(field, t, M.hilbert(i), lifts)

    matrices = {}
    # level j - i of each module's word products, extended by one letter per degree
    for j, N_words, M_words in zip(range(i, hi + 1), word_levels(N, i), word_levels(M, i)):
        T = SparseMatrix(field, t * len(N_words), N.hilbert(j), [r for m in N_words for r in m.rows])
        images = [r for m in M_words for r in lift_mat.mul(m).rows]
        unit = SparseMatrix.identity(field, N.hilbert(j))
        coords = solve_left(T, unit.rows)
        if any(c is None for c in coords):
            raise TruncationNotFree(f"quotient tail is not free at degree {j}")
        sigma = SparseMatrix(field, len(coords), len(images), coords).mul(
            SparseMatrix(field, len(images), M.hilbert(j), images))
        if sigma.mul(matrix_in_degree(g, j)) != unit:
            raise CertificateMismatch(f"constructed section fails in degree {j}")
        matrices[j] = sigma
    return matrices


def solve_split_sequence(
    f: FpModuleMorphism, g: FpModuleMorphism, i: int, degrees: int = 4
) -> Section:
    """Section of g on the tail from degree i, for an exact pair (f, g).

    Verifies degreewise exactness of 0 -> L -> M -> N -> 0 along the checked
    range, demands that the quotient tail is free from degree i on, lifts a
    degree-i standard basis of N through g, and extends one letter at a
    time: sigma_j(x_a * n) = x_a * sigma_{j-1}(n), solved against N's
    stacked letter matrices out of N_{j-1}, which are square past i.
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
        fr = rank(matrix_in_degree(f, j))
        gr = rank(matrix_in_degree(g, j))
        if fr != L.hilbert(j):
            raise NotExactInput(f"f is not injective in degree {j}")
        if gr != N.hilbert(j):
            raise NotExactInput(f"g is not surjective in degree {j}")
        if M.hilbert(j) - gr != fr:
            raise NotExactInput(f"sequence not exact in the middle in degree {j}")

    field = M.algebra.field
    t = N.hilbert(i)
    lifts = solve_left(matrix_in_degree(g, i), SparseMatrix.identity(field, t).rows)
    if any(x is None for x in lifts):
        raise NotExactInput("could not lift the degree-i basis through g")
    sigma = SparseMatrix(field, t, M.hilbert(i), lifts)
    matrices = {}
    letters = range(M.algebra.d)
    for j in range(i, hi + 1):
        unit = SparseMatrix.identity(field, N.hilbert(j))
        if j > i:
            T = SparseMatrix(field, len(letters) * N.hilbert(j - 1), N.hilbert(j),
                             [r for a in letters for r in N.letter_matrix(a, j - 1).rows])
            images = [r for a in letters for r in sigma.mul(M.letter_matrix(a, j - 1)).rows]
            coords = solve_left(T, unit.rows)
            if any(c is None for c in coords):
                raise TruncationNotFree(f"quotient tail is not free at degree {j}")
            sigma = SparseMatrix(field, len(coords), len(images), coords).mul(
                SparseMatrix(field, len(images), M.hilbert(j), images))
        if sigma.mul(matrix_in_degree(g, j)) != unit:
            raise CertificateMismatch(f"constructed section fails in degree {j}")
        matrices[j] = sigma
    return Section(g, matrices)
