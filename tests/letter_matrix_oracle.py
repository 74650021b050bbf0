"""The lookup-built `FpModule.letter_matrix` that the free-tail rows replaced
past the stable bound and the lead rows below it, and the rank walk that
the basis test of `FpModule._mult_bijective` replaced in every degree.

`letter_matrix` builds every standard word of degrees j and j+1, looks up
each product x_i * w in the degree-(j+1) index and reduces every product
not found, a relation leading word, with `coords`.  Kept verbatim, as a
function of the module, as the oracle that the count-built rows past the
bound and the lead rows read off the relation basis below it must match
exactly: same rows, same column count, same value types and dict key
order.
`mult_bijective` stacks those rows and runs exact `rank` in every degree:
V tensor M_j -> M_{j+1} is bijective when d * h_j = h_{j+1} is their rank.
The basis test, C_{j+1} square and invertible (`fpmod` module docstring),
builds no word and must give the same answer at every j.
"""

from freeproj.linalg import SparseMatrix, rank


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


def mult_bijective(self, j: int) -> bool:
    """Is V tensor M_j -> M_{j+1} bijective?  Exact rank check of the
    stacked lookup-built letter matrices, in every degree."""
    d = self.algebra.d
    hj, hj1 = self.hilbert(j), self.hilbert(j + 1)
    if d * hj != hj1:
        return False
    if hj1 == 0:
        return True
    stacked = []
    for i in range(d):
        stacked.extend(letter_matrix(self, i, j).rows)
    mat = SparseMatrix(self.algebra.field, d * hj, hj1, stacked)
    return rank(mat) == hj1
