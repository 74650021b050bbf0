"""The sparse product before one-entry rows were read as scaled rows.

`SparseMatrix.mul` accumulated every row of the left factor, one-entry rows
too, with `_row_axpy` into a fresh dict.  Kept verbatim as the oracle the
product must match exactly: the same rows, the same value types and the
same dict key order.
"""

from freeproj.linalg import SparseMatrix, _row_axpy


def sparse_mul(A: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    if A.ncols != B.nrows:
        raise ValueError("shape mismatch")
    F = A.field
    out = []
    for r in A.rows:
        acc: dict = {}
        for k, a in r.items():
            _row_axpy(F, acc, F.neg(a), B.rows[k])
        out.append(acc)
    return SparseMatrix(F, A.nrows, B.ncols, out)
