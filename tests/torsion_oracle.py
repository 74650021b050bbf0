"""The word-product torsion that the one-letter recursion replaced.

`FpModule.torsion` stacked, for each degree j below i0, the matrices from
M_j of every word of length i0 - j, and took the left kernel of that stack.
Kept verbatim, as functions of the module, as the oracle whose per-degree
torsion spaces `FpModule.torsion` must match: the generators may form
another basis, but of the same space in each degree.  It also keeps the
route by which the torsion's dimension in each degree was read: the
Hilbert function of `submodule_presentation` of the generators, returned
as `OracleTorsion.module`.  A kernel row becomes an element of F0 by
`element_from_coords`, the reading `FpModule` had before its torsion held
normal forms.
"""

import itertools
from collections import namedtuple

from freeproj.fpmod import FpModule
from freeproj.linalg import SparseMatrix, row_reduce

OracleTorsion = namedtuple("OracleTorsion", "module dimension generators")


def left_kernel(mat: SparseMatrix) -> SparseMatrix:
    """Basis of {v : v*A = 0}, one row per basis vector."""
    pivots, reduced, trans = row_reduce(mat, want_transform=True)
    null_rows = [trans[i] for i in range(mat.nrows) if not reduced[i]]
    return SparseMatrix(mat.field, len(null_rows), mat.nrows, null_rows)


def element_from_coords(self, row: dict, j: int):
    """The element of F0 with the coordinates row in `std_basis(j)`."""
    std = self.std_basis(j)
    return self.F0.element({std[k]: c for k, c in row.items()})


def word_levels(self, j: int):
    """Yield, for word length 0, 1, 2, ..., the matrices from M_j of the
    words of that length in `FreeAlgebra.words` order, each level built
    from the one below by one-letter extension."""
    yield [SparseMatrix.identity(self.algebra.field, self.hilbert(j))]
    letters = range(self.algebra.d)
    mats = [self.letter_matrix(a, j) for a in letters]
    for k in itertools.count(j + 1):
        yield mats
        mats = [m.mul(self.letter_matrix(a, k)) for a in letters for m in mats]


def word_matrices(self, length: int, j: int) -> list:
    """The level of the given word length in `word_levels(j)`."""
    return next(itertools.islice(word_levels(self, j), length, None))


def torsion(self) -> OracleTorsion:
    """The largest finite-dimensional graded submodule, presented."""
    profile = self.stable_profile()
    i0 = profile.i0
    if profile.t0 == 0:
        one = self.algebra.field.one
        gens = [self.F0.element({mon: one}) for j in range(self.min_degree, i0) for mon in self.std_basis(j)]
        return OracleTorsion(self, len(gens), gens)
    gens = []
    total = 0
    for j in range(self.min_degree, i0):
        hj = self.hilbert(j)
        if hj == 0:
            continue
        length = i0 - j
        blocks = [{} for _ in range(hj)]
        offset = 0
        for m in word_matrices(self, length, j):
            for r, row in enumerate(m.rows):
                for c, v in row.items():
                    blocks[r][offset + c] = v
            offset += m.ncols
        stacked = SparseMatrix(self.algebra.field, hj, offset, blocks)
        ker = left_kernel(stacked)
        total += ker.nrows
        for row in ker.rows:
            gens.append(element_from_coords(self, row, j))
    if not gens:
        zero_mod = FpModule(self.algebra.free_module([]), [])
        return OracleTorsion(zero_mod, 0, [])
    return OracleTorsion(self.submodule_presentation(gens), total, gens)
