"""The per-monomial `FpModuleMorphism.matrix_in_degree` that one-letter
extension replaced.

It maps every standard word of the source through the cover map and reduces
the image against the target's relation basis.  Kept verbatim, as a
function of the morphism, as the oracle the extended matrices must match
exactly: same rows, same values and value types, same dict key order.
"""

from freeproj.linalg import SparseMatrix


def matrix_in_degree(self, j: int) -> SparseMatrix:
    """The map in degree j in the standard bases."""
    F = self.source.algebra.field
    rows = []
    for mon in self.source.std_basis(j):
        rep = self.source.F0.element({mon: F.one})
        rows.append(self.target.coords(self.map0.apply(rep), j))
    return SparseMatrix(F, len(rows), self.target.hilbert(j), rows)
