"""The one-letter torsion recursion on letter matrices, which the walk on
the relation basis replaced.

`FpModule.torsion` walked every degree below i0 downward from the identity
on M_{i0}, row-reduced the side-by-side blocks letter_matrix(a, j) * Q_{j+1}
and read the torsion of M_j off the transforms of its zero rows.  Kept, as
a function of the module, as a second oracle for the torsion: the walk must
give the same by_degree and, in each degree, the same space, in another
basis.
"""

from freeproj.fpmod import Torsion
from freeproj.linalg import SparseMatrix, row_reduce
from torsion_oracle import element_from_coords


def torsion(self) -> Torsion:
    """The largest finite-dimensional graded submodule, by the one-letter
    recursion of the module docstring.  A finite-dimensional module is all
    torsion: its kernel in each degree is the identity on M_j."""
    profile = self.stable_profile()
    i0 = profile.i0
    F, d = self.algebra.field, self.algebra.d
    if profile.t0 == 0:
        kernels = [(j, [{k: F.one} for k in range(self.hilbert(j))]) for j in range(self.min_degree, i0)]
    else:
        Q = SparseMatrix.identity(F, self.hilbert(i0))
        kernels = []
        for j in range(i0 - 1, self.min_degree - 1, -1):
            n = Q.ncols
            rows = [{} for _ in range(self.hilbert(j))]
            for a in range(d):
                for row, part in zip(rows, self.letter_matrix(a, j).mul(Q).rows):
                    row.update((a * n + c, v) for c, v in part.items())
            pivots, reduced, trans = row_reduce(SparseMatrix(F, len(rows), d * n, rows), want_transform=True)
            kernels.append((j, [t for t, r in zip(trans, reduced) if not r]))
            cols = {c: k for k, (_, c) in enumerate(pivots)}
            Q = SparseMatrix(F, len(rows), len(cols), [{cols[c]: v for c, v in r.items() if c in cols} for r in rows])
        kernels.reverse()
    gens = [element_from_coords(self, t, j) for j, ker in kernels for t in ker]
    return Torsion({j: len(ker) for j, ker in kernels} if gens else {}, gens)
