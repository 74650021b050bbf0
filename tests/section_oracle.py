"""The word-level section loop that the one-letter recursion replaced.

`qgr.split_sequence` lifted a degree-i basis of N through g and, in each
degree j, solved against the matrices from N_i of every word of length
j - i, with those words times the lift as the images.  Kept verbatim, less
the exactness checks that stay in `split_sequence`, as the oracle whose
section matrices `split_sequence` must equal.
"""

from torsion_oracle import word_levels

from freeproj.errors import CertificateMismatch, NotExactInput, TruncationNotFree
from freeproj.linalg import SparseMatrix, solve_left


def section_matrices(g, i: int, degrees: int = 4) -> dict:
    """{j: sigma_j} for j = i..i+degrees, sigma_j * G_j the identity."""
    M, N = g.source, g.target
    hi = i + degrees
    field = M.algebra.field
    t = N.hilbert(i)
    lifts = solve_left(g.matrix_in_degree(i), SparseMatrix.identity(field, t).rows)
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
        if sigma.mul(g.matrix_in_degree(j)) != unit:
            raise CertificateMismatch(f"constructed section fails in degree {j}")
        matrices[j] = sigma
    return matrices
