"""Exact linear algebra over a coefficient field.

One kernel does all the elimination: `row_reduce`, exact Gauss-Jordan
(on field values over GF(p), on integer rows over QQ), optionally recording
the transform T with T*A = RREF(A).  A column index (column -> row positions
that may hold a nonzero there) lets it find each pivot and clear each column
by visiting only the rows that hold it, not every row; the matrices of
degreewise module maps are close to permutation matrices, with a few entries
per column.  Everything else is a view of it:

* `rank` counts its pivots, after a pre-pass that counts the columns of the
  rows with a single entry and drops those columns from the other rows, so
  only that residue is eliminated, and with no end pass over QQ;
* `left_kernel` reads the transform rows of the zero rows;
* `solve_left` reduces each target against the pivot rows;
* `generalized_inverse` places the pivot transform rows at the pivot columns.

Over QQ the field's arithmetic builds a `Fraction`, with a gcd, at every
step, and the denominators of a dense elimination grow to many digits.  So
`row_reduce` lifts each row once, at entry, to integer numerators over one
denominator shared with its transform row, clears by integer
cross-multiplication whatever the pivot, and makes each entry rational once
at the end.  Such a row is at every step a nonzero multiple of the row that
field arithmetic would hold, so zero pattern, pivots and dict key order do
not change, and the output equals field arithmetic's value for value.
`dense_mul` likewise takes integer dot products; `_integer_vector` is the
one lift of both.

`_row_axpy` is the one sparse row update and `SparseMatrix.mul` the one
sparse product; it works on the plain values of `fields`, reducing mod p
itself over GF(p), with no field method call per entry.  Next to it,
`_add_terms` (a sum of terms) and `_add_products` (the pairwise products of
two term dicts, placed by a key function) are the one accumulate loop for
every sparse {key: value} dict: polynomials, module elements, Leavitt
elements, parsed terms and the submodule reduction all add through them.
Two representations are used:

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
    """An immutable sparse matrix over a field.  It owns the row dicts it is
    given, uncopied: callers pass fresh rows or rows nobody mutates (such as
    another matrix's), and no function here mutates an input row."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(rows)
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    @classmethod
    def from_dense(cls, field, dense):
        rows = [{j: v for j, v in enumerate(row) if v != 0} for row in dense]
        ncols = len(dense[0]) if dense else 0
        return cls(field, len(dense), ncols, rows)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [{i: field.one} for i in range(n)])

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
    """target -= coef * source, in place, dropping zeros: on plain values,
    target[j] - coef*v, reduced mod p over GF(p)."""
    p = field.characteristic
    for j, v in source.items():
        s = target.get(j, 0) - coef * v
        if p:
            s %= p
        if s:
            target[j] = s
        else:
            target.pop(j, None)


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

    Over GF(p) each pivot row is normalized and clears the other rows with
    `_row_axpy`.  Over QQ each row is written once, at entry, as integer
    numerators over its own denominator d (`_integer_vector`), and its
    transform row starts as {i: d}; every clear, whatever the pivot, is an
    integer cross-multiplication (`_cross_eliminate`), and pivot rows are
    left unnormalized.  An integer row is always a nonzero multiple of the
    field-arithmetic row, so zero pattern, pivots and dict key order are
    unchanged.  At the end each row is divided by its pivot (or, below the
    pivots, by its denominator), one rational per entry, which gives the
    field-arithmetic output value for value.
    """
    pivots, work, trans, den = _eliminate(mat, want_transform)
    if den is not None:
        for i, d in enumerate(den):
            q = work[i][pivots[i][1]] if i < len(pivots) else d
            if q != 1:
                work[i] = {j: _ratio(v, q) for j, v in work[i].items()}
                if trans is not None:
                    trans[i] = {j: _ratio(v, q) for j, v in trans[i].items()}
    return pivots, work, trans


def _eliminate(mat: SparseMatrix, want_transform):
    """The elimination of `row_reduce` without its end pass over QQ:
    (pivots, rows, transform, denominators), the QQ rows still integer
    numerators over their denominators and pivot rows unnormalized (the
    denominators are None over GF(p)).  `rank` reads only the pivots."""
    F = mat.field
    n = mat.nrows
    if F.characteristic:
        den = None
        work = [dict(r) for r in mat.rows]
    else:
        den, work = [], []
        for row in mat.rows:
            d, nums = _integer_vector(row.values())
            den.append(d)
            work.append(dict(zip(row, nums)))
    trans = [{i: d} for i, d in enumerate(den or [F.one] * n)] if want_transform else None
    holders: dict = {}
    for i, row in enumerate(work):
        for j in row:
            holders.setdefault(j, set()).add(i)
    pivots = []
    r = 0
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
            for rows in (work, trans, den):
                if rows is not None:
                    rows[r], rows[pi] = rows[pi], rows[r]
            for pos in (r, pi):
                for j in work[pos]:
                    if j != c:
                        holders[j].add(pos)
        pv = work[r][c]
        if den is None and pv != 1:
            inv = F.invert(pv)
            work[r] = {j: F.mul(inv, v) for j, v in work[r].items()}
            if trans is not None:
                trans[r] = {j: F.mul(inv, v) for j, v in trans[r].items()}
        # cand holds r (or, after a swap, pi): a single holder clears nothing
        if len(cand) > 1:
            prow = work[r]
            pkeys = prow.keys()
            ptrow = trans[r] if trans is not None else {}
            for i in cand:
                row = work[i]
                if i != r and c in row:
                    if not pkeys <= row.keys():
                        for j in pkeys - row.keys():
                            holders[j].add(i)
                    trow = trans[i] if trans is not None else {}
                    if den is None:
                        coef = row[c]
                        _row_axpy(F, row, coef, prow)
                        _row_axpy(F, trow, coef, ptrow)
                    else:
                        den[i] = _cross_eliminate(row, trow, den[i], row[c], prow, ptrow, pv)
        pivots.append((r, c))
        r += 1
    return pivots, work, trans, den


_denominator = attrgetter("denominator")
_numerator = attrgetter("numerator")


def _integer_vector(values):
    """(d, numerators): the QQ values as a list of ints over the lcm d of
    their denominators, in their order; a Fraction(k, 1) becomes the int k."""
    d = lcm(*map(_denominator, values))
    if d == 1:
        return 1, list(map(_numerator, values))
    return d, [v.numerator * (d // v.denominator) for v in values]


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
    if d == 1 or d == -1:  # the content gcd is 1
        return d
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
    """The rank, after a unit-row pre-pass.

    Each row with a single entry {c: v} takes column c: the first such row
    in c is a pivot, and eliminating with it clears column c from every
    other row, further unit rows in c included, and changes nothing else.
    So the rank is the number of taken columns plus the rank of the other
    rows with those columns dropped, and only that residue goes to the
    elimination, `_eliminate`, whose pivots are those of `row_reduce`.  The
    input rows are not modified."""
    taken = set()
    rest = []
    for row in mat.rows:
        if len(row) == 1:
            taken.update(row)
        else:
            rest.append(row)
    if not taken:
        return len(_eliminate(mat, False)[0])
    residue = []
    for row in rest:
        kept = {c: v for c, v in row.items() if c not in taken}
        if kept:
            residue.append(kept)
    pivots = _eliminate(SparseMatrix(mat.field, len(residue), mat.ncols, residue), False)[0]
    return len(taken) + len(pivots)


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
    Over QQ each row of A and each column of B is written as integers over
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


def dense_scale(field, c, A):
    return [[field.mul(c, v) for v in row] for row in A]


def dense_add(field, A, B):
    return [[field.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def dense_sub(field, A, B):
    return [[field.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


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
