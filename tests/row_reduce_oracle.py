"""The plain Gauss-Jordan kernel that `freeproj.linalg.row_reduce` replaced.

It scans every row for every pivot column.  Kept verbatim as the oracle the
column-indexed kernel must match exactly: same pivots, same reduced rows,
same transform.
"""

from freeproj.linalg import SparseMatrix, _row_axpy


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
                _row_axpy(F, work[i], coef, work[r])
                if trans is not None:
                    _row_axpy(F, trans[i], coef, trans[r])
        pivots.append((r, c))
        r += 1
    return pivots, work, trans
