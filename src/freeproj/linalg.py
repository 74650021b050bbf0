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
* `solve_left` reduces each target against the pivot rows;
* `generalized_inverse` places the pivot transform rows at the pivot columns.

Over QQ the field's arithmetic builds a `Fraction`, with a gcd, at every
step, and the denominators of a dense elimination grow to many digits.  So
`row_reduce` lifts each row once, at entry, to integer numerators over its
denominator d_i, clears with Bareiss's fraction-free update, and makes each
entry rational once at the end.  Each integer row is q_i times the row that
field arithmetic would hold, q_i = 1 at entry, and a clear by pivot p
divides (p*row - a*prow) by q_i with no gcd: exactly, since the quotient
is, up to sign, a row of minors of the lifted input (Sylvester's identity;
E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968; see `_eliminate`).  Zero
pattern, pivots and dict key order do not change, and the output equals
field arithmetic's value for value.  `dense_mul` likewise takes integer dot
products, on the lift of `_integer_vector`.

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
* dense: a list of lists, used for the leveled matrices of the limit
  algebra: `dense_mul`, `dense_add` and `generalized_inverse`.

Row-vector convention throughout: a sparse matrix A represents the map
v -> v*A, so kernels are left kernels {v : v*A = 0}.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    numerators over its own denominator d_i, and its transform row starts
    as {i: d_i}; every clear is Bareiss's one-step fraction-free update,
    divided exactly by the row's scale q_i (see `_eliminate`), and pivot
    rows are left unnormalized.  An integer row is
    always a nonzero multiple of the field-arithmetic row, so zero pattern,
    pivots and dict key order are unchanged.  At the end each pivot row is
    divided by its pivot, which is its scale, and each zero row's transform
    by d_i*q_i, one rational per entry, which gives the field-arithmetic
    output value for value.
    """
    pivots, work, trans, den, scale = _eliminate(mat, want_transform)
    if den is not None:
        k = len(pivots)
        for i, q in enumerate(scale):
            if i >= k:
                q *= den[i]
            if q != 1:
                work[i] = {j: _ratio(v, q) for j, v in work[i].items()}
                if trans is not None:
                    trans[i] = {j: _ratio(v, q) for j, v in trans[i].items()}
    return pivots, work, trans


def _eliminate(mat: SparseMatrix, want_transform):
    """The elimination of `row_reduce` without its end pass over QQ:
    (pivots, rows, transform, denominators, scales), the last two None over
    GF(p).  Over QQ row i, with its transform row, is q_i = scales[i] times
    the row u_i that field Gauss-Jordan on the lifted input L holds (pivot
    rows normalized), L_i being row i's numerators over d_i =
    denominators[i].  `rank` reads only the pivots.

    A QQ clear is Bareiss's one-step fraction-free update.  Fraction-free
    Gauss-Jordan on L keeps every row at one scale delta_t, the determinant
    of the first t pivot rows and columns, and its entries are minors of L
    and of its transform, so integers.  Here a row that a pivot column
    misses is skipped and keeps the scale q_i of its last update, and the
    update scales from that:

    * the pivot p of a row at scale +-delta_t clears entry a of row i as
      (p*v_i - a*v_k) / q_i, which is +-(row i at scale delta_{t+1}), so an
      exact division (Sylvester's identity), and q_i becomes p;
    * when |p| == |q_i| and p divides a (the +-1 pivots of module maps)
      that is +-(v_i - (a/p)*v_k), the plain axpy, and q_i stays: a row and
      its scale negated together stand for the same u_i;
    * a pivot row at an older scale q_k is first brought to the previous
      pivot's scale last = +-delta_t as v*last/q_k, exact as the result is
      +-(its row at scale delta_t), though last need not be a multiple of
      q_k; a pivot row that clears nothing is left as it is, and last
      becomes its pivot entry at that scale, pv*last/q_k.  A pivot row's
      q_k is its pivot entry, the scale of its normalized row.

    E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22 (1968).
    """
    F = mat.field
    n = mat.nrows
    if F.characteristic:
        den = scale = None
        work = [dict(r) for r in mat.rows]
    else:
        den, work = [], []
        for row in mat.rows:
            d = lcm(*map(_denominator, row.values()))
            den.append(d)
            if d == 1:
                work.append(dict(zip(row, map(_numerator, row.values()))))
            else:
                work.append({j: v.numerator * (d // v.denominator) for j, v in row.items()})
        scale = [1] * n
        last = 1
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
            for rows in (work, trans, den, scale):
                if rows is not None:
                    rows[r], rows[pi] = rows[pi], rows[r]
            for pos in (r, pi):
                for j in work[pos]:
                    if j != c:
                        holders[j].add(pos)
        pv = work[r][c]
        if den is None:
            if pv != 1:
                inv = F.invert(pv)
                work[r] = {j: F.mul(inv, v) for j, v in work[r].items()}
                if trans is not None:
                    trans[r] = {j: F.mul(inv, v) for j, v in trans[r].items()}
        else:
            q = scale[r]
            if q == last or q == -last:
                last = pv
            elif len(cand) == 1:
                # clears nothing: only the next pivot needs its scale
                last = pv * last // q
            else:
                # an older scale: brought to the previous pivot's before it clears
                work[r] = {j: v * last // q for j, v in work[r].items()}
                if trans is not None:
                    trans[r] = {j: v * last // q for j, v in trans[r].items()}
                pv = last = work[r][c]
            scale[r] = pv
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
                    a = row[c]
                    if den is not None:
                        q = scale[i]
                        if pv != q and pv != -q or a % pv:
                            work[i] = _bareiss(row, a, prow, pv, q)
                            if trans is not None:
                                trans[i] = _bareiss(trow, a, ptrow, pv, q)
                            scale[i] = pv
                            continue
                        a //= pv
                    _row_axpy(F, row, a, prow)
                    _row_axpy(F, trow, a, ptrow)
        pivots.append((r, c))
        r += 1
    return pivots, work, trans, den, scale


def _bareiss(row: dict, a: int, prow: dict, p: int, q: int) -> dict:
    """(p*row - a*prow) / q, an exact division, as a new dict: the keys of
    row that stay nonzero in their order, then the fill keys in prow's order,
    which is where an in-place axpy would leave them."""
    get = prow.get
    out = {j: x for j, v in row.items() if (x := (p * v - a * get(j, 0)) // q)}
    for j, w in prow.items():
        if j not in row:
            out[j] = -a * w // q
    return out


_denominator = attrgetter("denominator")
_numerator = attrgetter("numerator")


def _integer_vector(values):
    """(d, numerators): the QQ values as a list of ints over the lcm d of
    their denominators, in their order; a Fraction(k, 1) becomes the int k."""
    d = lcm(*map(_denominator, values))
    if d == 1:
        return 1, list(map(_numerator, values))
    return d, [v.numerator * (d // v.denominator) for v in values]


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


def dense_add(field, A, B):
    return [[field.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


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
