"""Exact linear algebra over a coefficient field.

One kernel does all the elimination: `row_reduce`, Gauss-Jordan kept exact
by working with the field's own arithmetic, optionally recording the
transform T with T*A = RREF(A).  A column index (column -> row positions
that may hold a nonzero there) lets it find each pivot and clear each column
by visiting only the rows that hold it, not every row; the matrices of
degreewise module maps are close to permutation matrices, with a few entries
per column.  Everything else is a view of it:

* `rank` counts its pivots;
* `left_kernel` reads the transform rows of the zero rows;
* `solve_left` reduces each target against the pivot rows;
* `generalized_inverse` places the pivot transform rows at the pivot columns.

`_row_axpy` is the one sparse row update and `SparseMatrix.mul` the one
sparse product.  Two representations are used:

* sparse: a matrix is a list of rows, each row a dict {column: nonzero value},
  plus an explicit column count.  All degreewise module computations use this
  (the matrices realizing graded maps are extremely sparse).
* dense: a list of lists, used for the small leveled matrices of the
  limit algebra.

Row-vector convention throughout: a sparse matrix A represents the map
v -> v*A, so kernels are left kernels {v : v*A = 0}.
"""

from __future__ import annotations


class SparseMatrix:
    """An immutable sparse matrix over a field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(dict(r) for r in rows)
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    @classmethod
    def from_dense(cls, field, dense):
        rows = [{j: v for j, v in enumerate(row) if v != 0} for row in dense]
        ncols = len(dense[0]) if dense else 0
        return cls(field, len(dense), ncols, rows)

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [{i: field.one} for i in range(n)])

    def dense(self):
        z = self.field.zero
        return [[r.get(j, z) for j in range(self.ncols)] for r in self.rows]

    def transpose(self) -> "SparseMatrix":
        rows = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return SparseMatrix(self.field, self.ncols, self.nrows, rows)

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        F = self.field
        out = []
        for r in self.rows:
            acc: dict = {}
            for k, a in r.items():
                for j, b in other.rows[k].items():
                    s = F.add(acc.get(j, F.zero), F.mul(a, b))
                    if s == 0:
                        acc.pop(j, None)
                    else:
                        acc[j] = s
            out.append(acc)
        return SparseMatrix(F, self.nrows, other.ncols, out)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols} over {self.field!r})"


def _row_axpy(field, target: dict, coef, source: dict):
    """target -= coef * source, in place, dropping zeros."""
    for j, v in source.items():
        s = field.sub(target.get(j, field.zero), field.mul(coef, v))
        if s == 0:
            target.pop(j, None)
        else:
            target[j] = s


def row_reduce(mat: SparseMatrix, want_transform=False):
    """Full Gauss-Jordan reduction, driven by a column index.

    Returns (pivots, reduced, transform) where pivots is a list of
    (row, column) pairs, reduced holds the RREF rows, and transform (when
    requested) holds rows T with T*A = reduced.

    The index maps each column not yet eliminated to the set of row
    positions that may hold a nonzero in it.  It may be a superset: row
    swaps and fill only ever add to it, and stale entries are filtered by a
    membership test.  For each column in increasing order the pivot is the
    least position >= r holding the column, and only the rows in the
    column's set are eliminated.  Pivots, rows and transform are exactly
    those of a scan over every row.
    """
    F = mat.field
    work = [dict(r) for r in mat.rows]
    trans = [{i: F.one} for i in range(mat.nrows)] if want_transform else None
    holders: dict = {}
    for i, row in enumerate(work):
        for j in row:
            holders.setdefault(j, set()).add(i)
    pivots = []
    r = 0
    for c in sorted(holders):
        if r == len(work):
            break
        # Rows at positions >= r hold only columns >= c (each earlier column
        # was eliminated or had no holder there), so every column that the
        # swap or a fill below touches is still a key of the index.
        cand = holders.pop(c)
        if c in work[r]:
            pi = r
        else:
            pi = min((i for i in cand if i > r and c in work[i]), default=None)
            if pi is None:
                continue
        if pi != r:
            work[r], work[pi] = work[pi], work[r]
            if trans is not None:
                trans[r], trans[pi] = trans[pi], trans[r]
            for pos in (r, pi):
                for j in work[pos]:
                    if j != c:
                        holders[j].add(pos)
        pv = work[r][c]
        if pv != F.one:
            inv = F.invert(pv)
            work[r] = {j: F.mul(inv, v) for j, v in work[r].items()}
            if trans is not None:
                trans[r] = {j: F.mul(inv, v) for j, v in trans[r].items()}
        prow = work[r]
        pkeys = prow.keys()
        for i in cand:
            row = work[i]
            if i != r and c in row:
                coef = row[c]
                if not pkeys <= row.keys():
                    for j in pkeys - row.keys():
                        holders[j].add(i)
                _row_axpy(F, row, coef, prow)
                if trans is not None:
                    _row_axpy(F, trans[i], coef, trans[r])
        pivots.append((r, c))
        r += 1
    return pivots, work, trans


def rank(mat: SparseMatrix) -> int:
    pivots, _, _ = row_reduce(mat)
    return len(pivots)


def left_kernel(mat: SparseMatrix) -> SparseMatrix:
    """Basis of {v : v*A = 0}, one row per basis vector."""
    pivots, reduced, trans = row_reduce(mat, want_transform=True)
    null_rows = [trans[i] for i in range(mat.nrows) if not reduced[i]]
    return SparseMatrix(mat.field, len(null_rows), mat.nrows, null_rows)


def solve_left(mat: SparseMatrix, targets) -> list:
    """For each target row b, find x with x*A = b, or None if unsolvable."""
    F = mat.field
    pivots, reduced, trans = row_reduce(mat, want_transform=True)
    out = []
    for b in targets:
        res = dict(b)
        x: dict = {}
        for ri, c in pivots:
            if c in res:
                coef = res[c]
                _row_axpy(F, res, coef, reduced[ri])
                _row_axpy(F, x, F.neg(coef), trans[ri])
        out.append(None if res else x)
    return out


# ---------------------------------------------------------------------------
# dense helpers for small matrices


def dense_identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def dense_mul(field, A, B):
    n, m = len(A), len(B[0]) if B else 0
    k = len(B)
    Bt = list(zip(*B)) if B else []
    out = []
    for i in range(n):
        Ai = A[i]
        row = []
        for j in range(m):
            Bj = Bt[j]
            s = field.zero
            for t in range(k):
                a = Ai[t]
                if a != 0:
                    s = field.add(s, field.mul(a, Bj[t]))
            row.append(s)
        out.append(row)
    return out


def dense_scale(field, c, A):
    return [[field.mul(c, v) for v in row] for row in A]


def dense_add(field, A, B):
    return [[field.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def dense_sub(field, A, B):
    return [[field.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def kron(field, A, B):
    """Kronecker product; the A index is the more significant one."""
    if not A or not B:
        return []
    bn, bm = len(B), len(B[0])
    out = []
    for i in range(len(A)):
        for bi in range(bn):
            row = []
            for j in range(len(A[0])):
                a = A[i][j]
                if a == 0:
                    row.extend([field.zero] * bm)
                else:
                    row.extend(field.mul(a, B[bi][bj]) for bj in range(bm))
            out.append(row)
    return out


def dense_rank(field, A) -> int:
    if not A:
        return 0
    return rank(SparseMatrix.from_dense(field, A))


def generalized_inverse(field, A):
    """X with A*X*A = A, from one elimination with transform.

    T*A = [C; 0] with C the k nonzero RREF rows.  Row c of X is transform
    row r for each pivot (r, c), every other row is zero: X = Q*T_k with Q
    selecting the pivot columns.  Then A*X*A = (A*Q)*C = A, because A*Q
    holds the pivot columns of A and C expresses every column over them.
    """
    mat = SparseMatrix.from_dense(field, A)
    pivots, _, trans = row_reduce(mat, want_transform=True)
    X = [[field.zero] * mat.nrows for _ in range(mat.ncols)]
    for r, c in pivots:
        for j, v in trans[r].items():
            X[c][j] = v
    return X
