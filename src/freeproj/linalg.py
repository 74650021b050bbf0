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

Over QQ the field's arithmetic builds a `Fraction`, with a gcd, at every
step, and the denominators of a dense elimination grow to many digits.  So a
row that a pivot other than +-1 touches is kept as integer numerators over
one denominator shared with its transform row, cleared by integer
cross-multiplication and made rational once per entry at the end.  Such a
row is at every step a nonzero multiple of the row that field arithmetic
would hold, so zero pattern, pivots and dict key order do not change, and
the output equals field arithmetic's value for value.  Rows that only +-1
pivots touch, as in the near-permutation module maps, keep field values
throughout.  `dense_mul` likewise takes integer dot products.

`_row_axpy` is the one sparse row update and `SparseMatrix.mul` the one
sparse product.  Next to `_row_axpy`, `_add_terms` (a sum of terms) and
`_add_products` (the pairwise products of two term dicts, placed by a key
function) are the one accumulate loop for every sparse {key: value} dict:
polynomials, module elements, Leavitt elements, parsed terms and the
submodule reduction all add through them.  Two representations are used:

* sparse: a matrix is a list of rows, each row a dict {column: nonzero value},
  plus an explicit column count.  All degreewise module computations use this
  (the matrices realizing graded maps are extremely sparse).
* dense: a list of lists, used for the small leveled matrices of the
  limit algebra.

Row-vector convention throughout: a sparse matrix A represents the map
v -> v*A, so kernels are left kernels {v : v*A = 0}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul


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
                _row_axpy(F, acc, F.neg(a), other.rows[k])
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


def _add_terms(field, acc: dict, terms):
    """acc += terms, in place, for (key, value) pairs; a zero sum drops its
    key, and a later term inserts it again at the end."""
    for k, v in terms:
        s = field.add(acc.get(k, field.zero), v)
        if s == 0:
            acc.pop(k, None)
        else:
            acc[k] = s


def _add_products(field, acc: dict, left: dict, right: dict, key):
    """acc += a*b at key(k, l) for each term (k, a) of left and (l, b) of
    right, in place, in that nested order; a key of None skips the pair and
    a zero sum drops its key as in `_add_terms`."""
    for k, a in left.items():
        for l, b in right.items():
            m = key(k, l)
            if m is not None:
                s = field.add(acc.get(m, field.zero), field.mul(a, b))
                if s == 0:
                    acc.pop(m, None)
                else:
                    acc[m] = s


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

    Over QQ a pivot of +-1 on a row still holding field values clears the
    other field-value rows with the field's arithmetic, as over GF(p).  Any
    other pivot, or a pivot on a lifted row, lifts its row and each row it
    clears to integer numerators over one denominator shared with the
    transform row (`_lift`) and clears by cross-multiplication
    (`_cross_eliminate`); a lifted row stays lifted, and a +-1 pivot row in
    field values clears a lifted row through an integer copy of itself.
    A lifted row is always a nonzero multiple of the field-arithmetic row,
    so zero pattern, pivots and dict key order are unchanged.  Lifted pivot
    rows are left unnormalized; at the end each lifted row is divided by its
    pivot (or, below the pivots, by its denominator), one rational per
    entry, which gives the field-arithmetic output value for value.
    """
    F = mat.field
    work = [dict(r) for r in mat.rows]
    trans = [{i: F.one} for i in range(mat.nrows)] if want_transform else None
    holders: dict = {}
    for i, row in enumerate(work):
        for j in row:
            holders.setdefault(j, set()).add(i)
    # Over QQ: position -> denominator of each lifted row; the rows not in
    # it hold field values.
    den = {} if F.characteristic == 0 else None
    pivots = []
    r = 0
    n = len(work)
    for c in sorted(holders):
        if r == n:
            break
        # Rows at positions >= r hold only columns >= c (each earlier column
        # was eliminated or had no holder there), so every column that the
        # swap or a fill below touches is still a key of the index.
        cand = holders.pop(c)
        if c not in work[r]:
            pi = min((i for i in cand if i > r and c in work[i]), default=None)
            if pi is None:
                continue
            work[r], work[pi] = work[pi], work[r]
            if trans is not None:
                trans[r], trans[pi] = trans[pi], trans[r]
            if den:
                dr, dp = den.pop(r, 0), den.pop(pi, 0)
                if dr:
                    den[pi] = dr
                if dp:
                    den[r] = dp
            for pos in (r, pi):
                for j in work[pos]:
                    if j != c:
                        holders[j].add(pos)
        pv = work[r][c]
        lifted = False
        if pv != F.one or den:
            if den is not None and (r in den or pv != 1 and pv != -1):
                lifted = True
                if r not in den:
                    _lift(work, trans, den, r)
            elif pv != F.one:
                inv = F.invert(pv)
                work[r] = {j: F.mul(inv, v) for j, v in work[r].items()}
                if trans is not None:
                    trans[r] = {j: F.mul(inv, v) for j, v in trans[r].items()}
        # cand holds r (or, after a swap, pi): a single holder clears nothing
        if len(cand) > 1:
            prow = work[r]
            pkeys = prow.keys()
            ptrow = trans[r] if trans is not None else {}
            ipiv = (prow, ptrow, prow[c]) if lifted else None
            for i in cand:
                row = work[i]
                if i != r and c in row:
                    if not pkeys <= row.keys():
                        for j in pkeys - row.keys():
                            holders[j].add(i)
                    if not lifted and not (den and i in den):
                        coef = row[c]
                        _row_axpy(F, row, coef, prow)
                        if trans is not None:
                            _row_axpy(F, trans[i], coef, ptrow)
                        continue
                    if ipiv is None:
                        # a +-1 pivot row in field values meets a lifted
                        # row: clear it by an integer copy of the pivot row
                        d, prow_int, ptrow_int = _integer_rows(prow, ptrow)
                        ipiv = prow_int, ptrow_int, d
                    if i not in den:
                        _lift(work, trans, den, i)
                        row = work[i]
                    den[i] = _cross_eliminate(
                        row, trans[i] if trans is not None else {}, den[i], row[c], *ipiv)
        pivots.append((r, c))
        r += 1
    if den:
        for i, d in den.items():
            q = work[i][pivots[i][1]] if i < len(pivots) else d
            if q != 1:
                work[i] = {j: _ratio(v, q) for j, v in work[i].items()}
                if trans is not None:
                    trans[i] = {j: _ratio(v, q) for j, v in trans[i].items()}
    return pivots, work, trans


_denominator = attrgetter("denominator")


def _integer_rows(row: dict, trow: dict):
    """(d, N, M): integer numerators of the QQ rows `row` and `trow` over
    their least common denominator d, keys in the same order."""
    d = lcm(*map(_denominator, row.values()), *map(_denominator, trow.values()))
    return (
        d,
        {j: v.numerator * (d // v.denominator) for j, v in row.items()},
        {j: v.numerator * (d // v.denominator) for j, v in trow.items()},
    )


def _lift(work, trans, den, i):
    """Replace row i and its transform row by their integer numerators."""
    d, work[i], trow = _integer_rows(work[i], trans[i] if trans is not None else {})
    if trans is not None:
        trans[i] = trow
    den[i] = d


def _cross_eliminate(row: dict, trow: dict, d: int, a: int, prow: dict, ptrow: dict, p: int) -> int:
    """Clear the entry a of the integer row row/d by the integer pivot row
    prow with pivot entry p, in place; trow shares d and follows ptrow.

    With g = gcd(p, a) the rows become (p/g)*row - (a/g)*prow over
    (p/g)*d, then lose the gcd of the denominator and all their entries.
    row/d changes exactly as `_row_axpy` by the normalized pivot row would
    change it, and keys are inserted and dropped in the same order.
    Returns the new denominator.
    """
    g = gcd(p, a)
    f, h = p // g, a // g
    if f != 1:
        for j in row:
            row[j] *= f
        for j in trow:
            trow[j] *= f
        d *= f
    for target, source in ((row, prow), (trow, ptrow)):
        for j, v in source.items():
            s = target.get(j, 0) - h * v
            if s:
                target[j] = s
            else:
                del target[j]
    g = gcd(d, *row.values(), *trow.values())
    if g != 1:
        for j in row:
            row[j] //= g
        for j in trow:
            trow[j] //= g
        d //= g
    return d


def _ratio(n: int, d: int):
    """n/d as an int when d divides n, else as one Fraction."""
    q, m = divmod(n, d)
    return q if not m else Fraction(n, d)


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
    """A*B on integer dot products; a zero row of A gives a zero row.

    Over GF(p) each entry is an integer dot product reduced mod p once.
    Over QQ each row of A and each column of B is lifted to integers over
    the lcm of its denominators (`_integer_vector`), and each entry is an
    integer dot product over the product of the two denominators, made
    rational once; on integer matrices it stays an int.  The values are
    those of the field's own sum of products.
    """
    Bt = list(zip(*B))
    p = field.characteristic
    if p:
        return [[sum(map(mul, Ai, Bj)) % p for Bj in Bt] if any(Ai) else [0] * len(Bt) for Ai in A]
    cols = [_integer_vector(Bj) for Bj in Bt]
    integral = all(db == 1 for db, _ in cols)
    out = []
    for Ai in A:
        if not any(Ai):
            out.append([0] * len(cols))
            continue
        da, ai = _integer_vector(Ai)
        if da == 1 and integral:
            out.append([sum(map(mul, ai, bj)) for _, bj in cols])
        else:
            out.append([_ratio(sum(map(mul, ai, bj)), da * db) for db, bj in cols])
    return out


def _integer_vector(vec):
    """(d, numerators) of a QQ vector over the lcm d of its denominators;
    a vector with d = 1 is its own numerators."""
    d = lcm(*map(_denominator, vec))
    return d, (vec if d == 1 else [v.numerator * (d // v.denominator) for v in vec])


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
