"""The torsion certification of the profile path before its one-pass form.

`torsion` certified zero torsion degree by degree with the word test: a
degree passed when every standard word w of M_j keeps a letter (some
x_a * w is in the degree-(j+1) index), and otherwise took the rank of the
letter matrices side by side.  Kept verbatim, as functions of the module,
as the oracles the new form must match exactly: the same verdicts, the
same torsion, and the same letter matrices, standard words and held count
left in the module's caches.
"""

from freeproj.fpmod import Torsion
from freeproj.linalg import SparseMatrix, rank, row_reduce


def words_keep_a_letter(self, j: int) -> bool:
    """Does every standard word w of M_j have a standard product x_a * w?"""
    d, index = self.algebra.d, self._std_index(j + 1)
    return all(any((alpha, (a,) + w) in index for a in range(d)) for alpha, w in self.std_basis(j))


def letters_injective(self, j: int) -> bool:
    """Is m -> (x_a * m)_a injective from M_j to M_{j+1}^d?  Exact: yes
    when every standard word of M_j keeps a letter, else when the rank of
    the letter matrices out of M_j side by side is h_j."""
    if words_keep_a_letter(self, j):
        return True
    return rank(self._letters_side_by_side(j)) == self.hilbert(j)


def torsion(self) -> Torsion:
    """`FpModule.torsion` with the word test in every degree below i0."""
    profile = self.stable_profile()
    i0 = profile.i0
    F = self.algebra.field
    if profile.t0 == 0:
        kernels = [(j, [{k: F.one} for k in range(self.hilbert(j))]) for j in range(self.min_degree, i0)]
    elif all(letters_injective(self, j) for j in range(i0 - 1, self.min_degree - 1, -1)):
        return Torsion({}, [])
    else:
        Q = SparseMatrix.identity(F, self.hilbert(i0))
        kernels = []
        for j in range(i0 - 1, self.min_degree - 1, -1):
            letters = self._letters_side_by_side(j, Q)
            pivots, reduced, trans = row_reduce(letters, want_transform=True)
            kernels.append((j, [t for t, r in zip(trans, reduced) if not r]))
            cols = {c: k for k, (_, c) in enumerate(pivots)}
            Q = SparseMatrix(F, letters.nrows, len(cols),
                             [{cols[c]: v for c, v in r.items() if c in cols} for r in letters.rows])
        kernels.reverse()
    gens = [self.element_from_coords(t, j) for j, ker in kernels for t in ker]
    return Torsion({j: len(ker) for j, ker in kernels} if gens else {}, gens)
