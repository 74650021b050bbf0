"""Exact linear algebra over a coefficient field.

One kernel does all the sparse elimination: `row_reduce`, exact
Gauss-Jordan (on field values over GF(p), on integer rows over QQ),
optionally recording the transform T with T*A = RREF(A).  A column index
(column -> row positions that may hold a nonzero there) lets it find each
pivot and clear each column by visiting only the rows that hold it, not
every row; the matrices of degreewise module maps are close to permutation
matrices, with a few entries per column.  Everything else is a view of it:

* `rank` counts its pivots, after a pre-pass that counts the columns of the
  rows with a single entry and drops those columns from the other rows, so
  only that residue is eliminated, and with no end pass over QQ;
* `solve_left` reduces each target against the pivot rows;
* `generalized_inverse` places the pivot transform rows at the pivot
  columns, each scaled to the lcm of the pivot scales over QQ.

Over QQ `row_reduce` lifts each row once, at entry, to integer numerators
over its denominator, clears with Bareiss's fraction-free update, divided
exactly by the row's scale with no gcd (see `_eliminate`), and makes each
entry rational once at the end: no `Fraction` per step, and the zero
pattern, pivots, dict key order and values of field arithmetic.

A dense matrix's generalized inverse comes from one packed kernel instead,
`_packed_eliminate`: in-place Gauss-Jordan mod p on rows of one int with a
slot per column, the transform kept in the slots of the pivot columns.  It
runs over GF(p), and for a dense square QQ matrix mod primes whose raw
slots the Chinese remainder theorem combines, one multiply-add per entry
and prime, into integer rows over one denominator, |det|: every route of
`generalized_inverse` gives rows of ints over one denominator and makes no
`Fraction`.  `dense_mul` multiplies rows of ints, reduced mod p over GF(p):
a row of A with one nonzero entry as a multiple of a row of B, other rows
as sparse row products or, once B has 8 rows, one bigint multiply-add per
nonzero entry of A on B's rows packed into ints (Kronecker substitution).
Both pack rows through `_codec`, one cached codec per row shape, in 32-bit
slots where the bound fits, else in a multiple of 64 bits (`_slot_width`).

QQ values become integers over a denominator here alone, a {key: value}
dict by `_lift` (back by `_values`); `_ratio` makes each value back, one
exact division.

`_row_axpy` is the one sparse row update and `_row_product`, behind
`SparseMatrix.mul`, `dense_mul` and `fpmod`'s morphism matrices, the one
sparse row product, reading a left row with one entry as a scaled row.
`_add_terms` (a sum of terms) and `_add_products` (the pairwise products of
two term dicts, placed by a key function) are the one accumulate loop for
every sparse {key: value} dict: polynomials, module elements, Leavitt
elements, parsed terms and the submodule reduction.  All of them work on
the plain values of `fields`, reducing mod p themselves, with no field
method call per entry, term or pair.

One representation is used: a list of row dicts {column: nonzero value},
plus a column count where it is needed, for every degreewise module
computation (the matrices realizing graded maps are extremely sparse) and
for the leveled matrices of the limit algebra, whose rows are ints, the
numerators over one denominator, with their columns ascending.  The packed
kernels read such rows into their slots and write their results back as
such rows.  Row-vector convention throughout: a sparse matrix A represents
the map v -> v*A, so kernels are left kernels {v : v*A = 0}.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache
from itertools import count, repeat
from math import lcm
from operator import add, attrgetter, mul

from .fields import GF, is_prime


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
    def identity(cls, field, n):
        return cls(field, n, n, [{i: field.one} for i in range(n)])

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        """self * other, one `_row_product` per row of self."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        F, rows = self.field, other.rows
        return SparseMatrix(F, self.nrows, other.ncols, [_row_product(F, r, rows) for r in self.rows])

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


def _row_product(field, row: dict, rows) -> dict:
    """row * B, B given by its rows (F. G. Gustavson, ACM TOMS 4, 1978): each
    a*v (a at k in row, v in rows[k]) added into an empty row, zeros dropped.
    A row with one entry a at k is a * rows[k] in its key order, as that sum
    gives it: rows[k] itself, unmutated and shared, when a is the int 1."""
    p = field.characteristic
    if len(row) == 1:
        [(k, a)] = row.items()
        if type(a) is int and a == 1:
            return rows[k]
        return {j: a * v % p for j, v in rows[k].items()} if p else {j: a * v for j, v in rows[k].items()}
    acc: dict = {}
    get = acc.get
    for k, a in row.items():
        for j, v in rows[k].items():
            s = get(j, 0) + a * v
            if p:
                s %= p
            if s:
                acc[j] = s
            else:
                acc.pop(j, None)
    return acc


def _add_terms(field, acc: dict, terms):
    """acc += terms, in place, for (key, value) pairs, on plain values as in
    `_row_axpy`; a zero sum drops its key, and a later term inserts it again
    at the end."""
    p = field.characteristic
    get = acc.get
    for k, v in terms:
        s = get(k, 0) + v
        if p:
            s %= p
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def _add_products(field, acc: dict, left: dict, right: dict, key):
    """acc += a*b at key(k, l) for each term (k, a) of left and (l, b) of
    right, in place, in that nested order, on plain values; a key of None
    skips the pair and a zero sum drops its key as in `_add_terms`."""
    p = field.characteristic
    get = acc.get
    pairs = right.items()
    for k, a in left.items():
        for l, b in pairs:
            m = key(k, l)
            if m is not None:
                s = get(m, 0) + a * b
                if p:
                    s %= p
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)


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
            w, d = _lift(F, row)
            work.append(w)
            den.append(d)
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


def _lift(F, terms: dict):
    """(work, W): the values of a {key: value} dict as integer numerators
    over W, the lcm of their denominators, over QQ; reduced mod p, W = 1,
    over GF(p)."""
    if p := F.characteristic:
        return {m: c % p for m, c in terms.items()}, 1
    for c in terms.values():
        if type(c) is not int:
            W = lcm(*map(_denominator, terms.values()))
            return {m: c.numerator * (W // c.denominator) for m, c in terms.items()}, W
    return dict(terms), 1


def _values(nums: dict, W: int) -> dict:
    """The field values of the numerators over W: one exact division each."""
    return nums if W == 1 else {m: _ratio(v, W) for m, v in nums.items()}


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
# the products and witnesses of the limit algebra


def dense_mul(field, A, B, m: int) -> list:
    """A*B for dict rows of ints {column: nonzero int}, B with m columns,
    reduced mod p over GF(p) (ints 1..p-1 there): the rows of A*B, each
    with its columns ascending when B's are.  A zero row of A, or one with
    a single nonzero entry a at column k, is a `_row_product`: an empty
    row, or a times row k of B, so a permutation costs n^2 products, not
    n^3.

    Other rows take one of two routes, over both fields, by the one gate
    measured in README.  While B has fewer than 8 rows, a row is a
    `_row_product` too, the product of `SparseMatrix.mul`, with its columns
    sorted ascending: it reads the stored entries of the rows of B that its
    entries select, and no zero column of B.  From 8 rows on it is
    Kronecker substitution (Dumas, Fousse and Salvy, J. Symb. Comput. 46,
    2011).  Row k of B, packed on first use, is one int with a slot per
    column, each entry plus beta = max|b|.  Row i of A*B is sum_k a_ik*row_k,
    one bigint multiply-add per nonzero a_ik, plus (half - beta*sum_k a_ik)
    times the all-ones row, so each slot reads back as half + its entry, then
    reduced mod p.  half is 0 mod p, where len(B)*(p-1)^2 bounds a slot, and
    len(B)*max|a|*max|b| over the integers, bounding every |entry|; one
    `_codec` packs and reads the rows, in slots as wide as `_slot_width` says.
    """
    p, n = field.characteristic, len(B)
    out = [Ai if len(Ai) > 1 else _row_product(field, Ai, B) for Ai in A]
    many = [i for i, Ai in enumerate(A) if len(Ai) > 1]
    if many and n >= 8:
        beta = 0 if p else max(max(map(abs, row.values()), default=0) for row in B)
        half = 0 if p else n * max(max(map(abs, A[i].values())) for i in many) * beta
        pack, unpack = _codec(m, _slot_width(2 * half or n * (p - 1) ** 2))
        ones, packed = pack([1] * m), [None] * n
        for i in many:
            ai = A[i]
            acc = (half - beta * sum(ai.values())) * ones
            for k, a in ai.items():
                if (row := packed[k]) is None:  # a zero row packs as beta's, not as 0
                    slots = [beta] * m
                    for j, b in B[k].items():
                        slots[j] = b + beta
                    row = packed[k] = pack(slots)
                acc += a * row
            slots = unpack(acc)
            out[i] = {j: x for j, v in enumerate(slots) if (x := v % p)} if p else \
                {j: x for j, v in enumerate(slots) if (x := v - half)}
    else:
        for i in many:
            out[i] = dict(sorted(_row_product(field, A[i], B).items()))
    return out


def generalized_inverse(mat: SparseMatrix):
    """(den, rows): X = rows/den with A*X*A = A for a matrix A of int rows
    (1..p-1 over GF(p)), columns ascending; rows, one per column of A, are
    such rows again, from one elimination with transform; no route makes a
    value rational.

    T*A = [C; 0] with C the k nonzero RREF rows.  Row c of X is transform
    row r for each pivot (r, c), every other row is zero: X = Q*T_k with Q
    selecting the pivot columns.  Then A*X*A = (A*Q)*C = A, because A*Q
    holds the pivot columns of A and C expresses every column over them.
    The sparse kernel `_eliminate` holds pivot row r over QQ at its scale
    q_r, so row c is trans[r] * (den // q_r) over den, the lcm of the pivot
    scales, with no pass that divides a row; over GF(p) den is 1.

    A matrix with at least half its entries nonzero is eliminated on packed
    rows instead (`_packed_eliminate`), to the same X; over QQ a square one
    of side 5 to 64, mod primes (`_crt_inverse`): if det A is nonzero mod
    the first prime, X is the unique A^-1, returned as the integer rows of
    adj(A) over den = |det A|.  Packed rows read n*m slots whatever the
    zeros, so a sparser matrix (a side-256 permutation: 4 ms here, 80 ms
    packed) stays on the sparse kernel.
    """
    F, n, m = mat.field, mat.nrows, mat.ncols
    p, X = F.characteristic, [{} for _ in range(m)]
    if (p or 4 < n == m <= 64) and 2 * sum(map(len, mat.rows)) >= n * m:
        A = [list(map(row.get, range(m), repeat(0))) for row in mat.rows]  # the values the slots are packed from
        if p:
            for c, u, xs in _packed_eliminate(F, A)[0]:
                X[c] = {j: x for j, v in enumerate(xs) if (x := v * u % p)}
            return 1, X
        if (crt := _crt_inverse(A)) is not None:
            return crt
    pivots, _, trans, _, scale = _eliminate(mat, True)
    scale = scale or [1] * n  # GF(p) pivot rows are normalized
    den = lcm(*[scale[r] for r, _ in pivots])
    for r, c in pivots:
        s = den // scale[r]
        X[c] = {j: v * s for j, v in sorted(trans[r].items())}
    return den, X


def _crt_inverse(A):
    """(D, rows) with A^-1 = rows/D for a square integer matrix, by primes
    and the Chinese remainder theorem (S. Cabay, SYMSAC 1971; von zur Gathen
    and Gerhard, Modern Computer Algebra, ch. 5), or None when A is singular
    mod the first prime or outside the size rule.  The rule is sides 5 to
    64, which the caller checks, and H^2 of at most n^2 bits: where
    in-process probes found the route no slower than Bareiss.

    H^2 = prod ||A_i||^2 bounds |det A| and every |adj(A) entry| by H
    (Hadamard).  `_packed_eliminate` mod each prime gives det A and row c of
    A^-1 as u*xs, xs raw slots, so row c of adj(A) = det*A^-1 is det*u*xs
    there; a prime that divides det is skipped.  Once the primes used
    multiply to M with M^2 > 4*H^2, det and adj are their CRT values in the
    symmetric range, one multiply-add per entry and prime.  So D = |det| > 0
    and the rows are the dict rows of ints sign(det)*adj(A).  H^2 is multiplied
    out one row at a time, stopping once it passes the size rule.
    """
    h2 = 1
    for row in A:
        h2 *= sum(map(mul, row, row))
        if h2.bit_length() > len(A) ** 2:
            return None
    M, used = 1, []
    for F in map(_crt_field, count()):
        p = F.characteristic
        pivots, det = _packed_eliminate(F, [[v % p for v in row] for row in A])
        if det:
            used.append((p, pivots, det))
            M *= p
            if M * M > 4 * h2:
                break
        elif not used:
            return None
    # q*t: det times the basis value 1 mod p, 0 mod the others; (x + half) % M - half is x mod M, symmetric
    half, basis = M // 2, [(M // p, det * pow(M // p, -1, p) % p, p) for p, _, det in used]
    det = (sum(q * t for q, t, _ in basis) + half) % M - half
    sign, rows = -1 if det < 0 else 1, []
    for row in zip(*(pivots for _, pivots, _ in used)):
        acc = repeat(half)
        for (q, t, p), (_, u, xs) in zip(basis, row):
            acc = list(map(add, acc, map((sign * q * (t * u % p)).__mul__, xs)))
        rows.append({j: x for j, v in enumerate(acc) if (x := v % M - half)})
    return abs(det), rows


@cache
def _crt_field(k: int):
    """GF(p) for the primes p below 2^29, largest first from k = 0, found on
    first use: 64*(p-1)^2 + p < 2^64 keeps `_packed_eliminate` on 64-bit slots."""
    p = _crt_field(k - 1).characteristic - 2 if k else 2**29 - 1
    while not is_prime(p):
        p -= 2
    return GF(p)


def _packed_eliminate(field, A):
    """(pivots, det): in-place Gauss-Jordan of A over GF(p) on packed rows,
    and det A mod p for a square A (the product of the pivots, negated per
    swap), 0 for any other.  pivots holds (c, u, xs) per pivot column c,
    ascending: row c of X is u*xs mod p, xs raw slots indexed by A's rows.

    Row i is one int with a B-bit slot per column, column c at bit B*c.
    Slot c of the row where row j of A became the pivot of column c holds
    column j of the transform T (T*A = RREF), not c's identity column.  A
    pivot row P of value v, reduced mod p but unscaled, clears each other
    row with one multiply-add and no mod p, R += (p - a/v mod p)*C, for C
    the P with slot c at (1 + v) mod p: slot c of R reads -a/v, T's new
    entry, and each slot gains less than (p-1)^2.  Slot c of P is then 1,
    so row r is v times its normalized row.  A row takes at most k =
    min(rows, cols) clears between reductions, so B is 32 when k*(p-1)^2 + p
    < 2^32, else that bound's bit length rounded up to a multiple of 64
    (Dumas, Giorgi and Pernet, ACM TOMS 35, 2008; packing: Dumas, Fousse and
    Salvy, J. Symb. Comput. 46, 2011).  Pivots follow `row_reduce`: columns
    ascending, the least row >= r nonzero mod p, swapped with row r.
    """
    p = field.characteristic
    n, m = len(A), len(A[0]) if A else 0
    width = _slot_width(min(n, m) * (p - 1) ** 2 + p)
    bits, mask = 8 * width, (1 << 8 * width) - 1
    pack, unpack = _codec(m, width)
    rows, source = list(map(pack, A)), list(range(n))
    pivots, det = [], 1
    for c in range(m):
        r = pi = len(pivots)
        shift = bits * c
        while pi < n and not (v := (rows[pi] >> shift & mask) % p):
            pi += 1
        if pi == n:
            continue
        det = det * (v if pi == r else p - v) % p
        rows[r], rows[pi], source[r], source[pi] = rows[pi], rows[r], source[pi], source[r]
        u = field.invert(v)
        P = pack([x % p for x in unpack(rows[r])]) - (v - 1 << shift)
        C, w = P + ((v + 1) % p - 1 << shift), p - u
        for i, R in enumerate(rows):
            if i != r and (a := (R >> shift & mask) % p):
                rows[i] = R + a * w % p * C
        rows[r] = P
        pivots.append((c, u))
    pivot_of = dict(zip(source, [c for c, _ in pivots]))  # a row never a pivot reads slot m: 0
    at, read = [pivot_of.get(j, m) for j in range(n)], _codec(m + 1, width)[1]
    return [(c, u, list(map(read(R).__getitem__, at))) for R, (c, u) in zip(rows, pivots)], \
        det if len(pivots) == n == m else 0


def _slot_width(bound: int) -> int:
    """The bytes of a slot holding 0..bound: 4 below 2^32, else a multiple of 8."""
    return 4 if bound < 2**32 else -(-bound.bit_length() // 64) * 8


@cache
def _codec(count: int, width: int):
    """(pack, unpack) for rows of count slots of width bytes, values[j] in
    bytes [width*j, width*(j+1)) of a little-endian int: widths 4 and 8 by
    one compiled `struct.Struct`, 16 by pairs of its words, wider by slot."""
    size = width * count
    s = struct.Struct(f"<{count}I" if width == 4 else f"<{size // 8}Q")
    if width <= 8:
        return (lambda values: int.from_bytes(s.pack(*values), "little"),
                lambda row: s.unpack(row.to_bytes(size, "little")))

    def pack(values):
        return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width), repeat("little"))), "little")

    def unpack(row):
        data = row.to_bytes(size, "little")
        if width > 16:
            return [int.from_bytes(data[j:j + width], "little") for j in range(0, size, width)]
        words = s.unpack(data)  # 16 bytes: one pair of words per slot
        return [lo | hi << 64 for lo, hi in zip(words[::2], words[1::2])]
    return pack, unpack
