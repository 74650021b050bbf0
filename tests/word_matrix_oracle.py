"""The `FpModule.word_matrix` that one-letter extension replaced.

It rebuilds each word's product from an identity matrix, one letter matrix
at a time.  Kept verbatim, as a function of the module, as the oracle the
matrices of `FpModule.word_matrices` must match exactly: same rows, same
values and value types, same dict key order.
"""

from freeproj.linalg import SparseMatrix


def word_matrix(self, word, j: int) -> SparseMatrix:
    """Multiplication by a word from M_j upward; identity for the empty word."""
    F = self.algebra.field
    out = SparseMatrix.identity(F, self.hilbert(j))
    deg = j
    for letter in reversed(tuple(word)):  # the last letter acts first
        out = out.mul(self.letter_matrix(letter, deg))
        deg += 1
    return out
