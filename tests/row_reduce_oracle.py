"""The plain Gauss-Jordan kernel that `freeproj.linalg.row_reduce` replaced.

It scans every row for every pivot column.  Kept verbatim as the oracle the
column-indexed kernel must match exactly: same pivots, same reduced rows,
same transform.  Its row update is the field-method loop that the kernel's
`_row_axpy` replaced, so the oracle does its own arithmetic (`field_add`,
`field_sub`).  `determinant` is plain Gaussian elimination on Fractions,
for the tests of the prime route.  `from_dense` reads a dense list of rows
as a `SparseMatrix`, for the tests that state their matrices densely.
"""

from fractions import Fraction

from freeproj.linalg import SparseMatrix


def from_dense(field, dense):
    """The SparseMatrix of the dense rows: row dicts {column: nonzero value},
    columns ascending."""
    rows = [{j: v for j, v in enumerate(row) if v != 0} for row in dense]
    return SparseMatrix(field, len(dense), len(dense[0]) if dense else 0, rows)


def field_add(field, a, b):
    """a + b in the field: reduced mod p over GF(p)."""
    p = field.characteristic
    return (a + b) % p if p else a + b


def field_sub(field, a, b):
    """a - b in the field: reduced mod p over GF(p)."""
    p = field.characteristic
    return (a - b) % p if p else a - b


def row_axpy(field, target: dict, coef, source: dict):
    """target -= coef * source, in place, dropping zeros: the field-method
    loop that `freeproj.linalg._row_axpy` replaced, kept as its oracle."""
    for j, v in source.items():
        s = field_sub(field, target.get(j, field.zero), field.mul(coef, v))
        if s == 0:
            target.pop(j, None)
        else:
            target[j] = s


def row_reduce(mat: SparseMatrix, want_transform=False):
    """Full Gauss-Jordan reduction.

    Returns (pivots, reduced, transform) where pivots is a list of
    (row, column) pairs, reduced holds the RREF rows, and transform (when
    requested) holds rows T with T*A = reduced.
    """
    F = mat.field
    work = [dict(r) for r in mat.rows]
    trans = [{i: F.one} for i in range(mat.nrows)] if want_transform else None
    pivots = []
    r = 0
    cols = sorted({j for row in work for j in row})
    for c in cols:
        pi = next((i for i in range(r, len(work)) if c in work[i]), None)
        if pi is None:
            continue
        work[r], work[pi] = work[pi], work[r]
        if trans is not None:
            trans[r], trans[pi] = trans[pi], trans[r]
        pv = work[r][c]
        if pv != F.one:
            inv = F.invert(pv)
            work[r] = {j: F.mul(inv, v) for j, v in work[r].items()}
            if trans is not None:
                trans[r] = {j: F.mul(inv, v) for j, v in trans[r].items()}
        for i in range(len(work)):
            if i != r and c in work[i]:
                coef = work[i][c]
                row_axpy(F, work[i], coef, work[r])
                if trans is not None:
                    row_axpy(F, trans[i], coef, trans[r])
        pivots.append((r, c))
        r += 1
    return pivots, work, trans


def generalized_inverse(field, A):
    """X with A*X*A = A as the sparse kernel built it before GF(p) rows were
    packed: row c of X is the transform row of the pivot in column c, every
    other row zero.  The oracle of `freeproj.linalg.generalized_inverse`."""
    mat = from_dense(field, A)
    pivots, _, trans = row_reduce(mat, want_transform=True)
    X = [[field.zero] * mat.nrows for _ in range(mat.ncols)]
    for r, c in pivots:
        for j, v in trans[r].items():
            X[c][j] = v
    return X


def determinant(A):
    """det A over QQ by plain Gaussian elimination on Fractions."""
    A = [[Fraction(v) for v in row] for row in A]
    det = Fraction(1)
    for c in range(len(A)):
        pi = next((i for i in range(c, len(A)) if A[i][c]), None)
        if pi is None:
            return 0
        if pi != c:
            A[c], A[pi], det = A[pi], A[c], -det
        det *= A[c][c]
        for i in range(c + 1, len(A)):
            f = A[i][c] / A[c][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    return det
