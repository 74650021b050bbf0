"""The lookup-built `FpModule.letter_matrix` that the free-tail rows replaced
past the stable bound.

It builds every standard word of degrees j and j+1 and looks up each product
x_i * w in the degree-(j+1) index.  Kept verbatim, as a function of the
module, as the oracle the count-built rows must match exactly: same rows,
same column count, same value types and dict key order.
"""

from freeproj.linalg import SparseMatrix


def letter_matrix(self, i: int, j: int) -> SparseMatrix:
    """Multiplication by x_i from M_j to M_{j+1}, row convention.

    Row k is the class of x_i * w for the k-th standard monomial w.  By
    suffix closure (module docstring) x_i * w is standard unless it is a
    relation leading word: a product found in the degree-(j+1) index is
    a unit row, and only the rest are reduced."""
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
    return SparseMatrix(F, len(rows), self.hilbert(j + 1), rows)
