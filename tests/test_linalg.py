import random
from fractions import Fraction
from math import lcm, prod

import hypothesis
import hypothesis.strategies as st
from af_oracle import mul as oracle_mul
from dense_mul_oracle import dense_mul as oracle_dense_mul
from leavitt_oracle import add_products as oracle_add_products
from leavitt_oracle import add_terms as oracle_add_terms
from row_reduce_oracle import determinant, field_add, from_dense
from row_reduce_oracle import generalized_inverse as oracle_generalized_inverse
from row_reduce_oracle import row_axpy as oracle_row_axpy
from row_reduce_oracle import row_reduce as oracle_row_reduce
from sparse_mul_oracle import sparse_mul as oracle_sparse_mul

from freeproj import linalg
from freeproj.af_s import AFMatrix
from freeproj.fields import GF, QQ, is_prime
from freeproj.linalg import (
    SparseMatrix,
    _add_products,
    _add_terms,
    _row_axpy,
    dense_mul,
    generalized_inverse,
    rank,
    row_reduce,
    solve_left,
)


def M(dense, field=QQ):
    return from_dense(field, dense)


def test_rank_hand_computed():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(M([[1, 0], [0, 1]])) == 2
    assert rank(M([[0, 0], [0, 0]])) == 0
    assert rank(M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_rank_gf():
    # rows are dependent mod 5 but not over the rationals
    assert rank(M([[1, 2], [6, 7]], GF(5))) == 1
    assert rank(M([[1, 2], [6, 7]], QQ)) == 2


def test_left_kernel_annihilates():
    # the left kernel is the transform rows of row_reduce's zero rows
    a = M([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
    _, reduced, trans = row_reduce(a, want_transform=True)
    null = [t for t, r in zip(trans, reduced) if not r]
    assert len(null) == 1
    assert SparseMatrix(a.field, 1, a.nrows, null).mul(a).rows == ({},)


def test_solve_left():
    a = M([[1, 1], [0, 1]])
    (x,) = solve_left(a, [{0: 2, 1: 5}])
    assert x == {0: 2, 1: 3}
    (none,) = solve_left(M([[1, 0]]), [{1: 1}])
    assert none is None


def test_row_reduce_transform_reproduces_rref():
    rng = random.Random(7)
    for _ in range(20):
        dense = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        a = M(dense)
        pivots, reduced, trans = row_reduce(a, want_transform=True)
        T = SparseMatrix(QQ, a.nrows, a.nrows, trans)
        R = SparseMatrix(QQ, a.nrows, a.ncols, reduced)
        assert T.mul(a) == R
        assert len(pivots) == rank(a)


@st.composite
def sparse_matrices(draw):
    """Random sparse matrices over QQ or GF(7), down to 0 rows or 0 columns,
    with zero rows and dependent rows mixed in."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    if field is QQ:
        values = st.fractions(-3, 3, max_denominator=3)
    else:
        values = st.integers(0, 6)
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    dense = [[field.coerce(draw(values)) if ncols and draw(st.booleans()) else field.zero
              for _ in range(ncols)] for _ in range(nrows)]
    if nrows:
        # rank deficiency: append combinations of the rows drawn so far
        for _ in range(draw(st.integers(0, 3))):
            combo = [field.zero] * ncols
            for src in list(dense):
                a = field.coerce(draw(st.integers(-2, 2)))
                combo = [field_add(field, x, field.mul(a, y)) for x, y in zip(combo, src)]
            dense.append(combo)
        dense = draw(st.permutations(dense))
    rows = [{j: v for j, v in enumerate(row) if v != 0} for row in dense]
    return SparseMatrix(field, len(rows), ncols, rows)


def assert_matches_oracle(a, want_transform):
    got = row_reduce(a, want_transform=want_transform)
    want = oracle_row_reduce(a, want_transform=want_transform)
    assert got[0] == want[0]
    # equal rows with equal key order: callers iterate the dicts
    for got_rows, want_rows in zip(got[1:], want[1:]):
        if want_rows is None:
            assert got_rows is None
        else:
            assert [list(r.items()) for r in got_rows] == [list(r.items()) for r in want_rows]


@hypothesis.settings(max_examples=300)
@hypothesis.given(sparse_matrices(), st.booleans())
def test_row_reduce_matches_oracle(a, want_transform):
    assert_matches_oracle(a, want_transform)


@st.composite
def unit_row_matrices(draw):
    """Random sparse matrices over QQ or GF(7) for the unit-row pre-pass of
    `rank`: unit rows, several of them in one column with different scalars,
    zero rows, rows supported only on unit-row columns and general rows in
    random order; or, with no unit rows, only rows of two or more entries."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    if field is QQ:
        nonzero = st.fractions(-3, 3, max_denominator=3).filter(bool)
    else:
        nonzero = st.integers(1, 6)
    ncols = draw(st.integers(2, 7))
    cols = st.integers(0, ncols - 1)

    def row(support):
        return {c: field.coerce(draw(nonzero)) for c in sorted(support)}

    if not draw(st.booleans()):
        supports = draw(st.lists(st.sets(cols, min_size=2), max_size=8))
        rows = [row(s) for s in supports]
    else:
        unit_cols = draw(st.lists(st.integers(0, min(2, ncols - 1)) | cols, min_size=1, max_size=6))
        rows = [row({c}) for c in unit_cols]
        rows += [{} for _ in range(draw(st.integers(0, 2)))]
        peeled = st.sets(st.sampled_from(sorted(set(unit_cols))), min_size=1)
        rows += [row(s) for s in draw(st.lists(peeled, max_size=3))]
        rows += [row(s) for s in draw(st.lists(st.sets(cols, min_size=1), max_size=4))]
        rows = draw(st.permutations(rows))
    return SparseMatrix(field, len(rows), ncols, rows)


@hypothesis.settings(max_examples=300)
@hypothesis.given(unit_row_matrices())
def test_rank_unit_row_pass_matches_row_reduce(a):
    before = [list(r.items()) for r in a.rows]
    assert rank(a) == len(row_reduce(a)[0])
    assert [list(r.items()) for r in a.rows] == before


@hypothesis.settings(max_examples=200)
@hypothesis.given(sparse_matrices() | unit_row_matrices())
def test_operations_leave_input_rows_untouched(a):
    # a SparseMatrix owns the row dicts it is given without copying them,
    # so no operation may mutate the rows of its inputs
    t = SparseMatrix(a.field, a.ncols, a.nrows, [{i: r[j] for i, r in enumerate(a.rows) if j in r}
                                                 for j in range(a.ncols)])
    inputs = [(m, list(m.rows), [list(r.items()) for r in m.rows]) for m in (a, t)]
    rank(a)
    row_reduce(a)
    _, reduced, trans = row_reduce(a, want_transform=True)
    null = [t for t, r in zip(trans, reduced) if not r]  # the left kernel
    assert all(not r for r in SparseMatrix(a.field, len(null), a.nrows, null).mul(a).rows)
    solve_left(a, a.rows)  # its own rows as targets: solvable, and shared
    a.mul(t)
    t.mul(a)
    for m, rows, items in inputs:
        assert all(got is want for got, want in zip(m.rows, rows))
        assert [list(r.items()) for r in m.rows] == items


@st.composite
def non_unit_rational_matrices(draw):
    """Random sparse QQ matrices of `Fraction` entries none of which is 0 or
    +-1, so every pivot is a non-unit and most rows have a denominator, with
    unit rows and dependent rows (combinations of the rows drawn) mixed in."""
    values = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-7, 2), 2, -3])
    ncols = draw(st.integers(1, 6))
    cols = st.integers(0, ncols - 1)
    rows = [{c: draw(values) for c in sorted(s)} for s in draw(st.lists(st.sets(cols, min_size=1), max_size=7))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        combo: dict = {}
        for src in rows:
            a = draw(values)
            for c, v in src.items():
                combo[c] = combo.get(c, 0) + a * v
        rows.append({c: QQ.coerce(v) for c, v in sorted(combo.items()) if v})
    rows = draw(st.permutations(rows))
    return SparseMatrix(QQ, len(rows), ncols, rows)


@hypothesis.settings(max_examples=200)
@hypothesis.given(non_unit_rational_matrices())
def test_rank_without_end_pass_counts_oracle_pivots(a):
    # rank reads the pivots of the elimination before the QQ end pass that
    # divides each row by its pivot or denominator
    assert rank(a) == len(oracle_row_reduce(a)[0])


@st.composite
def fraction_free_matrices(draw):
    """Sparse QQ matrices for each branch of the fraction-free update: pivots
    +-1 next to other integers and Fractions of different denominators, rows
    that miss a non-unit pivot's column and become pivots later at an older
    scale, a last column that is a multiple of another and so holds no
    pivot, and dependent rows that end as zero rows."""
    values = st.sampled_from([1, -1, 1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(3, 7)])
    ncols = draw(st.integers(1, 6))
    supports = draw(st.lists(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=3), min_size=1, max_size=7))
    rows = [{c: draw(values) for c in sorted(s)} for s in supports]
    if draw(st.booleans()):
        src, k = draw(st.integers(0, ncols - 1)), draw(values)
        for row in rows:
            if src in row:
                row[ncols] = QQ.coerce(k * row[src])
        ncols += 1
    for _ in range(draw(st.integers(0, 2))):
        combo: dict = {}
        for src in rows:
            a = draw(st.sampled_from([0, 1, -1, 2, Fraction(1, 3)]))
            for c, v in src.items():
                combo[c] = combo.get(c, 0) + a * v
        rows.append({c: QQ.coerce(v) for c, v in sorted(combo.items()) if v})
    rows = draw(st.permutations(rows))
    return SparseMatrix(QQ, len(rows), ncols, rows)


@hypothesis.settings(max_examples=250)
@hypothesis.given(fraction_free_matrices())
def test_fraction_free_update_matches_oracle(a):
    assert_matches_oracle(a, True)


def test_fraction_free_update_hand_cases():
    # pivot 2 clears row 1 to [0, 1, 0] at scale 2 and row 2 to [0, 0, 2] at
    # scale 2, which column 1 (pivot 1) leaves untouched; the scale is then
    # 1, not a multiple of 2, so row 2 becomes the column-2 pivot, which
    # clears row 3, as 2 * 1 / 2, a division of the product, not of the
    # scales
    for rows in ([[2, 1, 0], [1, 1, 0], [2, 1, 1], [0, 0, 1]],
                 # the column-1 pivot 3, at scale 1, clears nothing: the scale
                 # is then 3 * 2 / 1 = 6, which the column-2 pivot, at scale 2,
                 # is brought to before it clears row 0
                 [[2, 0, 1], [0, 3, 0], [1, 0, 0]],
                 # pivots -1 and 1 only: every clear is the in-place update,
                 # with the row's scale -p or p
                 [[-1, 1, 0], [1, 0, 1], [0, 1, 0], [1, 1, 1]],
                 # the column-1 pivot 2 meets rows at scale 2 whose entry 1 it
                 # does not divide: the general update at |p| == |q_i|
                 [[2, 1, 0], [2, 2, 0], [1, 1, 1]],
                 # rank 2 of 4 rows with denominators 2, 3 and 6: two zero
                 # rows, and column 2 = 3 * column 0 holds no pivot
                 [[Fraction(1, 2), 1, Fraction(3, 2)], [1, Fraction(2, 3), 3],
                  [Fraction(3, 2), Fraction(5, 3), Fraction(9, 2)], [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]]):
        for want_transform in (False, True):
            assert_matches_oracle(M(rows), want_transform)


def test_rank_builds_no_rational_at_the_end(monkeypatch):
    # the QQ end pass of row_reduce divides each row by its non-unit pivot
    # with `_ratio`; rank reads only the pivots and never calls it
    def fail(n, d):
        raise AssertionError("rank ran the end pass")

    monkeypatch.setattr(linalg, "_ratio", fail)
    a = M([[Fraction(1, 2), 3, 0], [2, Fraction(-2, 3), 5], [Fraction(5, 2), Fraction(7, 3), 5]])
    assert rank(a) == 2
    assert rank(M([[Fraction(1, 2), 3, 0], [0, 3, 0], [4, 0, 0]])) == 2


def test_rank_deficient_qq_witness_builds_no_rational(monkeypatch):
    # the sparse route scales each pivot's transform row to the lcm of the
    # pivot scales, and the product check compares (den, rows): no `_ratio`
    # runs and x's values are never made
    def fail(n, d):
        raise AssertionError("a rational was made")

    monkeypatch.setattr(linalg, "_ratio", fail)
    half, third = Fraction(1, 2), Fraction(-2, 3)
    top = [[half, 3, 0, 1], [2, third, 5, 0]]
    a = AFMatrix(2, 2, top + [[3 * u + 2 * v for u, v in zip(*top)], [0, 0, 0, 0]])
    dense = [[Fraction(i + 2 * j + 1, 3 + i % 2) for j in range(8)] for i in range(7)]
    b = AFMatrix(2, 3, dense + [[u - v for u, v in zip(dense[0], dense[1])]])  # rank 2, on the prime route's sides
    dens = []
    for m in (a, b):
        x = m.vn_regular_witness()
        assert m * x * m == m
        assert x._entries is None
        dens.append(x.den)
    assert max(dens) > 1


def test_sparse_matrix_owns_its_rows():
    row = {1: 3}
    a = SparseMatrix(QQ, 1, 2, [row])
    assert a.rows[0] is row


def test_rank_unit_rows_hand_computed():
    # two unit rows in column 0 count once; the row {0, 1} leaves {1: 1}
    assert rank(M([[2, 0, 0], [5, 0, 0], [1, 1, 0], [0, 0, 0]])) == 2
    # a row on peeled columns only adds nothing
    assert rank(M([[1, 0, 0], [0, 3, 0], [4, 5, 0]])) == 2
    # the residue is eliminated: {1: 1, 2: 1} and {1: 2, 2: 2} are dependent
    assert rank(M([[1, 0, 0], [1, 1, 1], [0, 2, 2]])) == 2
    assert rank(M([[0, 0, 0]], GF(7))) == 0


def test_row_reduce_matches_oracle_on_larger_sparse_matrices():
    # shapes the small hypothesis cases miss: long swap and fill chains
    rng = random.Random(11)
    for field in (QQ, GF(7), GF(10007)):
        for _ in range(40):
            nrows, ncols = rng.randint(10, 30), rng.randint(10, 30)
            rows = [
                {j: field.coerce(rng.randint(1, 5)) for j in rng.sample(range(ncols), rng.randint(0, 3))}
                for _ in range(nrows)
            ]
            a = SparseMatrix(field, nrows, ncols, rows)
            for want_transform in (False, True):
                assert_matches_oracle(a, want_transform)


def test_row_reduce_matches_oracle_on_dense_rational_matrices():
    # the dense QQ eliminations of the limit algebra, on integer rows over
    # each row's denominator: full rank, one row the sum of two others, and
    # entries that are non-integral Fractions or Fraction(k, 1)
    # the pivot 2, then the pivot 1 of the row with entry 1/2 (numerator 2
    # over 2), clear by cross-multiplication; the second matrix has a
    # pivot -1
    for rows in ([[2, 1, 0], [0, 1, Fraction(1, 2)], [1, 0, 1]],
                 [[0, -1, 3], [3, 1, 1], [Fraction(2, 3), 1, 0], [1, 1, 1]]):
        for want_transform in (False, True):
            assert_matches_oracle(M(rows), want_transform)
    rng = random.Random(13)
    for n in (16, 27):
        for kind in ("int", "fraction"):
            dense = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if kind == "fraction":
                dense = [[Fraction(v, rng.randint(1, 6)) if rng.random() < 0.3
                          else Fraction(v) if rng.random() < 0.3 else v for v in row] for row in dense]
            deficient = [list(row) for row in dense]
            i, j, k = rng.sample(range(n), 3)
            deficient[i] = [a + b for a, b in zip(dense[j], dense[k])]
            for rows in (dense, deficient):
                for want_transform in (False, True):
                    assert_matches_oracle(M(rows), want_transform)


def triple_loop_mul(field, A, B, m):
    return [[sum_field(field, [field.mul(A[i][t], B[t][j]) for t in range(len(B))])
             for j in range(m)] for i in range(len(A))]


def sum_field(field, values):
    s = field.zero
    for v in values:
        s = field_add(field, s, v)
    return s


def dict_rows(dense):
    """The dict rows {column: nonzero value} of dense rows."""
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def dense_rows(rows, m):
    """Dict rows of nonzero ints, their columns ascending and below m (the
    format of every matrix `dense_mul` and `generalized_inverse` return),
    as dense rows of m entries, the int 0 where a row has no entry."""
    for row in rows:
        assert list(row) == sorted(row) and all(0 <= j < m for j in row)
        assert all(type(v) is int and v != 0 for v in row.values())
    return [[row.get(j, 0) for j in range(m)] for row in rows]


def product(field, A, B, m):
    """`dense_mul` on the dict rows of dense A and of dense B, with m
    columns, read back densely."""
    out = dense_mul(field, dict_rows(A), dict_rows(B), m)
    assert len(out) == len(A)
    return dense_rows(out, m)


def test_dense_mul_matches_triple_loop():
    # int rows: over the integers (p = 0) and mod p
    rng = random.Random(17)
    for field, draw in ((QQ, lambda: rng.randint(-30, 30)), (GF(10007), lambda: rng.randrange(10007))):
        for n, k, m in ((3, 4, 2), (5, 5, 5), (1, 1, 1), (2, 0, 3), (0, 3, 2)):
            A = [[draw() for _ in range(k)] for _ in range(n)]
            B = [[draw() for _ in range(m)] for _ in range(k)]
            if n > 1:
                A[1] = [field.zero] * k
            if k > 1:
                B[0] = [field.zero] * m
            assert product(field, A, B, m) == triple_loop_mul(field, A, B, m)


def test_dense_mul_skips_zero_columns_of_b():
    # a product reads only the stored entries of the rows of B that A's
    # entries select, so B's zero columns and zero entries cost nothing: a
    # row with one entry 1 is row k of B itself and reads nothing, another
    # row reads each selected row once below the gate (a row product) and
    # packs it once from 8 rows of B; the entries are those of the field's
    # own products
    reads = []

    class Watched(dict):
        """Row k of B, recording each (k, column) its items() yields."""

        def __init__(self, k, row):
            super().__init__(row)
            self.k = k

        def items(self):
            for j, v in super().items():
                reads.append((self.k, j))
                yield j, v

    rng = random.Random(29)
    for field, draw in ((QQ, lambda: rng.randint(-6, 6)), (GF(7), lambda: rng.randrange(7))):
        for n, k, m in ((3, 4, 6), (2, 2, 8), (1, 3, 1), (4, 1, 5), (5, 7, 6), (5, 9, 6)):
            A = [[draw() for _ in range(k)] for _ in range(n)]
            A[0] = [int(j == k - 1) for j in range(k)]  # one entry 1: no read
            B = [[draw() for _ in range(m)] for _ in range(k)]
            dead = set(rng.sample(range(m), rng.randint(1, m)))
            B = [[field.zero if j in dead else v for j, v in enumerate(row)] for row in B]
            rows = [Watched(i, row) for i, row in enumerate(dict_rows(B))]
            reads.clear()
            got = dense_rows(dense_mul(field, dict_rows(A), rows, m), m)
            want = triple_loop_mul(field, A, B, m)
            assert [[(type(v), v) for v in row] for row in got] == [[(type(v), v) for v in row] for row in want]
            picks = [[i for i, v in enumerate(row) if v] for row in A]
            scaled = [i for sel, row in zip(picks, A) if len(sel) == 1 and row[sel[0]] != 1 for i in sel]
            many = [i for sel in picks if len(sel) > 1 for i in sel]
            read = scaled + (many if k < 8 else sorted(set(many)))
            assert sorted(reads) == sorted((i, j) for i in read for j in rows[i])


@st.composite
def product_cases(draw):
    """(field, A, B, m) of int rows over the integers (QQ) or a prime field,
    B with m columns, down to 0 rows, inner size or columns: each row of A
    zero, with one nonzero entry (a permutation's rows) or with several,
    and B with zero entries and zero columns."""
    field = draw(st.sampled_from([QQ, GF(2), GF(7), GF(10007)]))
    values = st.integers(-16, 16) if field is QQ else st.integers(0, field.characteristic - 1)
    n, k, m = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    A = []
    for _ in range(n):
        row = [field.zero] * k
        kind = draw(st.sampled_from(("zero", "one", "many")))
        if k and kind != "zero":
            for j in draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=1 if kind == "one" else k)):
                row[j] = draw(values)
        A.append(row)
    B = [[draw(values) for _ in range(m)] for _ in range(k)]
    for j in draw(st.sets(st.integers(0, m - 1), max_size=m)) if m else ():
        for row in B:
            row[j] = field.zero
    return field, A, B, m


@hypothesis.settings(max_examples=200)
@hypothesis.given(product_cases())
def test_dense_mul_matches_frozen_product(case):
    # one-entry rows are a scaled row of B, value and type as before
    field, A, B, m = case
    # with no rows in B the oracle cannot see m: every row is m zeros
    got, want = product(field, A, B, m), oracle_dense_mul(field, A, B) if B else [[0] * m for _ in A]
    assert [[(type(v), v) for v in row] for row in got] == [[(type(v), v) for v in row] for row in want]


def lift(A):
    """(D, L): the QQ matrix A as the int rows L = D*A, D the lcm of the
    denominators of all its entries."""
    D = lcm(*(Fraction(v).denominator for row in A for v in row))
    return D, [[int(v * D) for v in row] for row in A]


def witness(field, A):
    """The values of a generalized inverse X of A, from
    generalized_inverse on the dict rows of the int rows L = D*A: its (den,
    rows), checked for shape and for dict rows of ints over den >= 1 (den 1
    over GF(p)), each entry then read as the value D*rows[i][j]/den, since
    A*X*A = A for X = D*L^-."""
    D, L = lift(A) if field is QQ else (1, A)
    den, rows = generalized_inverse(from_dense(field, L))
    assert type(den) is int and den >= 1 and (field is QQ or den == 1)
    assert len(rows) == len(A[0])
    rows = dense_rows(rows, len(A))
    if D == den == 1:
        return [list(row) for row in rows]
    return [[QQ.coerce(Fraction(D * v, den)) for v in row] for row in rows]


def test_generalized_inverse():
    rng = random.Random(3)
    for field in (QQ, GF(10007)):
        cases = [[[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)] for _ in range(20)]
        for k in range(1, 4):
            # rank-deficient: a 4x5 product through a k-dimensional space
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(4)]
            right = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(k)]
            cases.append(oracle_dense_mul(QQ, left, right))
        cases.append([[0] * 3 for _ in range(3)])
        for dense in cases:
            a = [[field.coerce(v) for v in row] for row in dense]
            x = witness(field, a)
            assert len(x) == len(a[0]) and len(x[0]) == len(a)
            assert oracle_dense_mul(field, oracle_dense_mul(field, a, x), a) == a


# the primes up to 10007 take 32-bit slots at every size drawn here, 65521
# 32-bit ones at one pivot and 64-bit ones past it and in every product,
# 2^31 - 1 64-bit slots up to 3 pivots and wide ones from 4, the two after
# it always wide ones; the last is the largest prime below fields.PRIME_BOUND
PACKED_PRIMES = (2, 3, 7, 10007, 65521, 2**31 - 1, 2**61 - 1, 3317044064679887385961813)


@st.composite
def witness_cases(draw):
    """(field, A) over a prime of PACKED_PRIMES with 1-40 rows and columns:
    full rank (almost surely, at the large primes), rank-deficient, sparse
    (1-60% of entries drawn, which fill in), zero, a permutation or a single
    entry."""
    p = draw(st.sampled_from(PACKED_PRIMES))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("full", "deficient", "sparse", "zero", "permutation", "single")))
    rng = draw(st.randoms(use_true_random=False))
    field = GF(p)
    if kind == "full":
        A = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    elif kind == "sparse":
        density = rng.uniform(0.01, 0.6)
        A = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
    elif kind == "deficient" and min(n, m) > 1:
        # through a space of dimension k < min(n, m); below 2 it is zero
        k = rng.randrange(1, min(n, m))
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
        A = oracle_dense_mul(field, left, [[rng.randrange(p) for _ in range(m)] for _ in range(k)])
    elif kind == "permutation":
        A = [[int(j == i) for j in range(n)] for i in rng.sample(range(n), n)]
    else:
        A = [[0] * m for _ in range(n)]
        if kind == "single":
            A[rng.randrange(n)][rng.randrange(m)] = rng.randrange(1, p)
    return field, A


def packed_inverse(field, A):
    """(X, det) from `_packed_eliminate` on the value rows A, whatever their
    density: X = generalized_inverse's dense GF(p) witness (row c is u*xs
    mod p for each pivot (c, u, xs), every other row zero) as dense rows,
    and det A mod p."""
    pivots, det = linalg._packed_eliminate(field, A)
    p, X = field.characteristic, [[0] * len(A) for _ in A[0]]
    for c, u, xs in pivots:
        X[c] = [v * u % p for v in xs]
    return X, det


def watch_widths(monkeypatch):
    """The set of slot widths that `linalg._codec` is asked for from now on."""
    widths, codec = set(), linalg._codec
    monkeypatch.setattr(linalg, "_codec", lambda count, width: widths.add(width) or codec(count, width))
    return widths


def test_packed_witness_matches_sparse_kernel(monkeypatch):
    widths = watch_widths(monkeypatch)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(witness_cases())
    def check(case):
        # the packed elimination on every kind, and the kernel
        # generalized_inverse picks for it
        field, A = case
        want = [[(type(v), v) for v in row] for row in oracle_generalized_inverse(field, A)]
        for x in (packed_inverse(field, A)[0], witness(field, A)):
            assert [[(type(v), v) for v in row] for row in x] == want
            assert oracle_dense_mul(field, oracle_dense_mul(field, A, x), A) == A

    check()
    # 32-bit, 64-bit and wide slots all ran
    assert {4, 8} <= widths and max(widths) > 8, widths


@st.composite
def packed_kernel_cases(draw):
    """(field, A, kind, shape) for the packed kernel over GF(2), GF(3),
    GF(7), GF(10007) or the first CRT prime, square, wide or tall with 1-18
    rows and columns: dense, rank-deficient (rank below min(rows, cols),
    zero included), or a shuffled staircase, each row zero before a random
    column, whose leading zeros force row swaps and skip zero columns."""
    p = draw(st.sampled_from((2, 3, 7, 10007, prime(0))))
    shape = draw(st.sampled_from(("square", "wide", "tall")))
    k, extra = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    n, m = {"square": (k, k), "wide": (k, k + extra), "tall": (k + extra, k)}[shape]
    kind = draw(st.sampled_from(("dense", "deficient", "staircase")))
    rng = draw(st.randoms(use_true_random=False))
    field = GF(p)
    A = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    if kind == "deficient":
        r = rng.randrange(min(n, m))
        left = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
        A = oracle_dense_mul(field, left, [[rng.randrange(p) for _ in range(m)] for _ in range(r)]) if r else \
            [[0] * m for _ in range(n)]
    elif kind == "staircase":
        for row in A:
            lead = rng.randrange(m + 1)
            row[:lead] = [0] * lead
    return field, A, kind, shape


def test_packed_kernel_matches_oracle():
    # X value for value and type for type, and det A mod p (0 off the square)
    seen = set()

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(packed_kernel_cases())
    def check(case):
        field, A, kind, shape = case
        X, det = packed_inverse(field, A)
        want = oracle_generalized_inverse(field, A)
        assert [[(type(v), v) for v in row] for row in X] == [[(type(v), v) for v in row] for row in want]
        p = field.characteristic
        assert det == (int(determinant(A)) % p if shape == "square" else 0)
        seen.add((kind, shape))
        if A[0][0] == 0 and any(row[0] for row in A):
            seen.add("swap")  # the first pivot is below row 0

    check()
    assert "swap" in seen and len(seen) == 10, seen


@st.composite
def packed_product_cases(draw):
    """(field, A, B, m) of int rows with inner side 1-40, 7 and 8 (the two
    sides of the packing gate) drawn often, B with m columns: over a
    prime of PACKED_PRIMES, or over QQ with negative entries and, in about
    half the cases, entries past 100 bits.  A has zero rows, rows with one
    nonzero entry and rows with several; B has zero rows, zero columns and
    zero entries, and is sparse (a tenth of its entries drawn) or dense.
    p = 0 stands for QQ."""
    p = draw(st.sampled_from((0,) + PACKED_PRIMES))
    field = GF(p) if p else QQ
    n, k, m = draw(st.integers(0, 6)), draw(st.sampled_from((7, 8)) | st.integers(1, 40)), draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = draw(st.sampled_from((4, 110)))

    def row(size, density):
        return [(rng.randrange(p) if p else rng.randint(-2**bits, 2**bits)) if rng.random() < density else 0
                for _ in range(size)]

    A = []
    for _ in range(n):
        kind = draw(st.sampled_from(("zero", "one", "many")))
        A.append(row(k, 0.8) if kind == "many" else [field.zero] * k)
        if kind == "one":
            A[-1][rng.randrange(k)] = rng.randrange(1, p) if p else rng.choice((-1, 1)) * rng.randint(1, 2**bits)
    density = draw(st.sampled_from((0.1, 0.8)))
    B = [row(m, density) if rng.random() < 0.8 else [field.zero] * m for _ in range(k)]
    for j in draw(st.sets(st.integers(0, m - 1), max_size=m - 1)):
        for r in B:
            r[j] = field.zero
    return field, A, B, m


def pinned_product_case(p, k, b):
    """(field, A, B, 3) over GF(p), or QQ for p = 0: one row of A with two
    entries, over k rows of B whose every entry is b."""
    return GF(p) if p else QQ, [[1, 2] + [0] * (k - 2)], [[b] * 3 for _ in range(k)], 3


def test_packed_product_matches_frozen_product(monkeypatch):
    packed, sides = watch_widths(monkeypatch), set()

    # each case a coverage assertion below needs, run at every hypothesis seed
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(packed_product_cases())
    @hypothesis.example(pinned_product_case(7, 8, 6))  # 32-bit slots
    @hypothesis.example(pinned_product_case(65521, 8, 65520))  # 64-bit slots: 8 * 65520^2 > 2^32
    @hypothesis.example(pinned_product_case(0, 8, 2**110))  # wide slots
    @hypothesis.example(pinned_product_case(65521, 7, 65520))
    @hypothesis.example(pinned_product_case(0, 7, -2**110))
    def check(case):
        # value and type, on row products below the gate and packed rows at it
        field, A, B, m = case
        got, want = product(field, A, B, m), oracle_dense_mul(field, A, B)
        assert [[(type(v), v) for v in row] for row in got] == [[(type(v), v) for v in row] for row in want]
        sides.add((field is QQ, len(B)))

    check()
    # 32-bit, 64-bit and wide slots all ran, and each field on both sides of the gate, at 7 and 8 rows of B
    assert {4, 8} <= packed and max(packed) > 8, packed
    assert {(qq, k) for qq in (True, False) for k in (7, 8)} <= sides, sides


def test_product_by_ints_over_a_denominator_matches_frozen_product(monkeypatch):
    # a*x for x the QQ witness of the prime route, ints over den = |det| > 1:
    # value and type of the oracle's product of the values, on row products
    # below the gate (sides 5 and 7), packed rows at it and one-entry rows of a
    packed, routed, crt = watch_widths(monkeypatch), [], linalg._crt_inverse
    monkeypatch.setattr(linalg, "_crt_inverse", lambda A: routed.append(A) or crt(A))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from(((5, 1), (7, 1), (2, 3), (3, 2), (2, 4))), st.integers(0, 2**32), st.booleans())
    def check(shape, seed, fractions):
        (d, level), rng = shape, random.Random(seed)
        n = d**level
        while True:
            rows = [[rng.choice((-2, -1, 1, 2)) for _ in range(n)] for _ in range(n)]
            for i in rng.sample(range(n), n // 2) if fractions else ():
                rows[i] = [Fraction(v, rng.choice((2, 3))) for v in rows[i]]
            if abs(determinant(rows)) > 1:
                break
        del routed[:]
        x = AFMatrix(d, level, rows).vn_regular_witness()
        assert routed and x.den > 1 and x._entries is None
        left = []
        for _ in range(n):
            kind = rng.choice(("zero", "one", "many"))
            left.append([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7))) if kind == "many" else 0
                         for _ in range(n)])
            if kind == "one":
                left[-1][rng.randrange(n)] = Fraction(rng.randint(1, 9), 7)
        a = AFMatrix(d, level, left)
        got = a * x
        assert x._entries is None
        want = oracle_mul(a, x)
        assert (got.level, got.den) == (want.level, want.den)
        assert [[(type(v), v) for v in row] for row in got.entries] == [[(type(v), v) for v in row] for row in want.entries]

    check()
    assert packed


def test_slot_width_at_the_32_and_64_bit_edges():
    assert [linalg._slot_width(b) for b in (2**32 - 1, 2**32, 2**64 - 1, 2**64)] == [4, 8, 8, 16]


def test_packed_elimination_at_the_32_bit_edge(monkeypatch):
    # GF(65521): a slot bound of 65520^2 + 65521 < 2^32 at one row, twice the
    # square past 2^32 at two; entries at p - 1 or drawn, against the oracle
    field, p, rng = GF(65521), 65521, random.Random(11)
    assert (p - 1) ** 2 + p < 2**32 <= 2 * (p - 1) ** 2 + p
    widths = watch_widths(monkeypatch)
    for n, width in ((1, 4), (2, 8)):
        for m in (2, 5, 9):
            drawn = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(m)] for _ in range(n)]
            for A in ([[p - 1] * m for _ in range(n)], drawn):
                widths.clear()
                X, det = packed_inverse(field, A)
                assert widths == {width}, (n, m, widths)
                want = oracle_generalized_inverse(field, A)
                assert [[(type(v), v) for v in row] for row in X] == [[(type(v), v) for v in row] for row in want]
                assert det == (int(determinant(A)) % p if n == m else 0)


def test_packed_qq_product_at_the_32_bit_edge(monkeypatch):
    # 8 rows of B, max|a| = 2^14 and max|b| = beta: 2*half = 16 * 2^14 * beta
    # is 2^32 - 2^18 at beta = 2^14 - 1 and 2^32 at 2^14, and the first row
    # of A reads both ends of the slot, 0 and 2*half
    widths = watch_widths(monkeypatch)
    for beta, width in ((2**14 - 1, 4), (2**14, 8)):
        A = [[2**14] * 8, [2**14, -2**14] * 4, [2**14] + [0] * 6 + [-3], [0] * 7 + [5]]
        B = [[beta, -beta, 0, (-1) ** k, k] for k in range(8)]
        widths.clear()
        got, want = product(QQ, A, B, 5), oracle_dense_mul(QQ, A, B)
        assert widths == {width}, (beta, widths)
        assert [[(type(v), v) for v in row] for row in got] == [[(type(v), v) for v in row] for row in want]
        assert got[0][:2] == [2**14 * 8 * beta, -2**14 * 8 * beta]


def test_generalized_inverse_packs_only_half_nonzero_gfp(monkeypatch):
    packed = []
    eliminate = linalg._packed_eliminate
    monkeypatch.setattr(linalg, "_packed_eliminate", lambda field, A: packed.append(A) or eliminate(field, A))
    half = [[1, 0, 2, 0], [0, 3, 0, 4], [5, 6, 0, 0], [0, 0, 1, 1]]
    below = [row[:] for row in half]
    below[3][3] = 0
    permutation = [[int(j == (3 * i + 1) % 4) for j in range(4)] for i in range(4)]
    for field, A, want in ((GF(7), half, True), (GF(7), below, False), (GF(7), permutation, False), (QQ, half, False)):
        packed.clear()
        x = witness(field, A)
        assert bool(packed) is want, (field, A)
        assert x == oracle_generalized_inverse(field, A)


def forbid_bareiss(monkeypatch):
    def fail(mat, want_transform):
        raise AssertionError("the Bareiss kernel ran")

    monkeypatch.setattr(linalg, "_eliminate", fail)


def hadamard(n):
    """The Sylvester-Hadamard matrix of side n, a power of 2: orthogonal
    +-1 rows, so |det| = n^(n/2), Hadamard's bound."""
    H = [[1]]
    while len(H) < n:
        H = [row + row for row in H] + [row + [-v for v in row] for row in H]
    return H


def prime(k):
    return linalg._crt_field(k).characteristic


def test_crt_primes_descend_below_2_29_on_64_bit_slots():
    primes = [prime(k) for k in range(12)]
    assert all(is_prime(p) for p in primes)
    # every prime below 2^29 from the largest down, none skipped
    assert [p for p in range(2**29 - 1, primes[-1] - 1, -1) if is_prime(p)] == primes
    assert 64 * (primes[0] - 1) ** 2 + primes[0] < 2**64


def assert_inverse_matches_oracle(A):
    # the oracle's field arithmetic may leave an integral Fraction where the
    # Bareiss kernel, and so the prime route, gives an int
    want = [[(type(QQ.coerce(v)), v) for v in row] for row in oracle_generalized_inverse(QQ, A)]
    assert [[(type(v), v) for v in row] for row in witness(QQ, A)] == want


def test_generalized_inverse_routes_dense_qq_through_primes(monkeypatch):
    forbid_bareiss(monkeypatch)
    rng = random.Random(31)

    def dense(n):
        # entries +-1, +-2: H^2 has at most n*log2(4n) bits
        return [[rng.choice((-2, -1, 1, 2)) for _ in range(n)] for _ in range(n)]

    def routed(A):
        try:
            generalized_inverse(from_dense(QQ, lift(A)[1]))
        except AssertionError:
            return False
        return True

    half = [[rng.randint(-3, 3) or 1 for _ in range(6)] for _ in range(6)]
    assert determinant(half)
    below = [row[:] for row in half]
    for i, j in rng.sample([(i, j) for i in range(6) for j in range(6)], 19):
        below[i][j] = 0  # 17 of 36 entries nonzero: one below half
    singular = [row[:] for row in half]
    singular[5] = [a - b for a, b in zip(half[0], half[1])]
    permutation = [[int(j == (5 * i + 2) % 7) for j in range(7)] for i in range(7)]
    # the size rule: sides 5 to 64, and H^2 of at most n^2 bits, here
    # exactly n^2 bits at side 8 and one bit more; with two rows scaled by
    # 2^20 and the others over 2..7, the product passes it at the second row
    inside, outside, early = hadamard(8), hadamard(8), hadamard(8)
    inside[0][0], outside[0][0] = 2**21, 3 * 2**20
    bits = [prod(sum(v * v for v in row) for row in A).bit_length() for A in (inside, outside)]
    assert bits == [64, 65]
    early[0], early[1] = ([2**20 * v for v in row] for row in early[:2])
    for i in range(2, 8):
        early[i] = [QQ.coerce(Fraction(v, i)) for v in early[i]]
    five = dense(5)
    assert determinant(five)
    for A in (half, five, dense(64), inside):
        assert routed(A)
    for A in (singular, below, permutation, dense(4), dense(65), outside, early):
        assert not routed(A)
    monkeypatch.undo()
    for A in (half, below, singular, permutation, inside, outside, early):
        assert_inverse_matches_oracle(A)


class CountedRows(list):
    """A list of rows that counts the rows its iterators hand out."""

    read = 0

    def __iter__(self):
        for row in super().__iter__():
            self.read += 1
            yield row


def test_prime_route_stops_lifting_once_past_the_size_rule():
    # side 8 allows H^2 of 64 bits: with two rows scaled by 2^20 the running
    # product passes it at the second row, and no later row is read; at one
    # bit outside the rule every row is read once, and inside it every row
    # is read again for each prime
    early = hadamard(8)
    early[0], early[1] = ([2**20 * v for v in row] for row in early[:2])
    for i in range(2, 8):
        early[i] = [QQ.coerce(Fraction(v, i)) for v in early[i]]
    inside, outside = hadamard(8), hadamard(8)
    inside[0][0], outside[0][0] = 2**21, 3 * 2**20
    for A, reads, routed in ((early, {2}, False), (inside, range(9, 10**3), True), (outside, {8}, False)):
        L = CountedRows(lift(A)[1])
        assert (linalg._crt_inverse(L) is not None) == routed
        assert L.read in reads
    for A in (early, inside, outside):
        assert_inverse_matches_oracle(A)


@st.composite
def qq_witness_cases(draw):
    """A square QQ matrix of side 1-12: full rank with integer entries or
    rows with fractions, with a negative determinant, rank-deficient, zero,
    or one nonzero entry below the density gate."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("integer", "fractions", "negative", "deficient", "zero", "below")))
    rng = draw(st.randoms(use_true_random=False))
    span = draw(st.sampled_from((2, 9, 1000)))
    A = [[rng.randint(-span, span) or 1 for _ in range(n)] for _ in range(n)]
    if kind == "fractions":
        A = [[QQ.coerce(Fraction(v, rng.choice((1, 2, 3)))) for v in row] if rng.random() < 0.5 else row
             for row in A]
    elif kind == "negative" and determinant(A) > 0:
        A[0] = [-v for v in A[0]]
    elif kind == "deficient" and n > 1:
        k = rng.randrange(1, n)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        A = oracle_dense_mul(QQ, left, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
    elif kind == "zero":
        A = [[0] * n for _ in range(n)]
    elif kind == "below":
        for c in rng.sample(range(n * n), n * n // 2 + 1):
            A[c // n][c % n] = 0
    return A


def test_prime_route_matches_bareiss_oracle(monkeypatch):
    routed, lifts = [], []
    real = linalg._crt_inverse

    def record(L):
        X = real(L)
        if X is not None:
            # den is |det L| for the int rows L it was given
            assert X[0] == abs(determinant(L))
            routed.append(L)
        return X

    monkeypatch.setattr(linalg, "_crt_inverse", record)
    # a routed case of each kind the closing asserts need, whatever the
    # draws: a halved row lifted over a denominator of 2, to det L = -2^19
    signed = hadamard(8)
    signed[0] = [-v for v in signed[0]]
    signed[1] = [QQ.coerce(Fraction(v, 2)) for v in signed[1]]

    @hypothesis.settings(max_examples=250, deadline=None)
    @hypothesis.given(qq_witness_cases())
    @hypothesis.example(signed)
    def check(A):
        before = len(routed)
        assert_inverse_matches_oracle(A)
        if len(routed) > before:
            lifts.append(lift(A)[0])

    check()
    # the route ran on negative determinants and on a fractional matrix,
    # given as int rows over a denominator above 1
    assert any(determinant(L) < 0 for L in routed)
    assert max(lifts) > 1


def test_prime_route_stops_at_twice_hadamards_bound(monkeypatch):
    # |det| = H for orthogonal rows: a Sylvester-Hadamard matrix, and one
    # with a row scaled so that H sits just below the product M of the first
    # k primes, where M > H but M <= 2H must take one prime more
    for n in (2, 4, 8, 16, 32):
        assert_inverse_matches_oracle(hadamard(n))
    forbid_bareiss(monkeypatch)
    for n, k in ((8, 1), (16, 2), (32, 3)):
        M = prod(map(prime, range(k)))
        A = hadamard(n)
        A[1] = [v * ((M - 1) // n ** (n // 2)) for v in A[1]]
        assert M // 2 < abs(determinant(A)) < M
        assert_inverse_matches_oracle(A)


def test_prime_route_skips_primes_that_divide_det(monkeypatch):
    # det = p * (a 15 x 15 minor): p = the first prime takes Bareiss, and
    # p = the second prime is skipped
    dets, eliminated = {}, []
    packed, eliminate = linalg._packed_eliminate, linalg._eliminate

    def record_packed(field, A):
        pivots, det = packed(field, A)
        dets[field.characteristic] = det
        return pivots, det

    monkeypatch.setattr(linalg, "_packed_eliminate", record_packed)
    monkeypatch.setattr(linalg, "_eliminate", lambda mat, t: eliminated.append(mat) or eliminate(mat, t))
    rng = random.Random(61)
    base = [[rng.randint(-2, 2) or 1 for _ in range(16)] for _ in range(16)]
    for k in (0, 1):
        A = [row[:] for row in base]
        A[15] = [a + b for a, b in zip(A[0], A[1])]
        A[15][0] += prime(k)
        assert determinant(A) % prime(k) == 0 and determinant(A) % prime(1 - k)
        dets.clear()
        eliminated.clear()
        assert_inverse_matches_oracle(A)
        if k == 0:
            assert dets == {prime(0): 0} and eliminated
        else:
            assert dets[prime(1)] == 0 and len(dets) > 2 and all(dets[p] for p in dets if p != prime(1))
            assert not eliminated


@st.composite
def axpy_cases(draw):
    """(field, target, coef, source) over QQ, GF(2) or GF(10007): a target
    in random key order that shares some keys with the source, some of them
    holding coef times the source value so that the update cancels them."""
    field = draw(st.sampled_from([QQ, GF(2), GF(10007)]))
    if field is QQ:
        nonzero = st.builds(Fraction, st.integers(1, 8) | st.integers(-8, -1), st.integers(1, 4)).map(QQ.coerce)
    else:
        nonzero = st.integers(1, field.characteristic - 1)
    keys = st.integers(0, 9)
    source = draw(st.dictionaries(keys, nonzero, max_size=8))
    coef = draw(nonzero | st.just(field.zero))
    target = draw(st.dictionaries(keys, nonzero, max_size=8))
    for j in draw(st.sets(st.sampled_from(sorted(source)))) if source else ():
        if field.mul(coef, source[j]):
            target[j] = field.mul(coef, source[j])
    order = draw(st.permutations(sorted(target)))
    return field, {j: target[j] for j in order}, coef, source


@hypothesis.settings(max_examples=300)
@hypothesis.given(axpy_cases())
def test_row_axpy_matches_field_method_loop(case):
    field, target, coef, source = case
    got, want = dict(target), dict(target)
    _row_axpy(field, got, coef, source)
    oracle_row_axpy(field, want, coef, source)
    # same keys in the same order, equal values of the same types
    assert [(j, type(v), v) for j, v in got.items()] == [(j, type(v), v) for j, v in want.items()]
    assert all(v != 0 for v in got.values())
    if field.characteristic:
        assert all(0 < v < field.characteristic for v in got.values())


@st.composite
def sparse_products(draw):
    """(A, B) over QQ, GF(2) or GF(10007): rows of A empty, with one entry
    or with several; over QQ the entries are ints, fractions and the
    uncoerced Fraction(1, 1), which must give Fraction entries."""
    field = draw(st.sampled_from([QQ, GF(2), GF(10007)]))
    if field is QQ:
        nonzero = st.sampled_from([1, -1, 2, Fraction(1, 1), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 1)])
    else:
        nonzero = st.integers(1, field.characteristic - 1)
    inner, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    B = [draw(st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=ncols)) for _ in range(inner)]
    A = [draw(st.dictionaries(st.integers(0, inner - 1), nonzero, max_size=draw(st.sampled_from([0, 1, 1, inner]))))
         for _ in range(draw(st.integers(0, 5)))]
    return SparseMatrix(field, len(A), inner, A), SparseMatrix(field, inner, ncols, B)


@hypothesis.settings(max_examples=300)
@hypothesis.given(sparse_products())
def test_sparse_mul_matches_frozen_product(case):
    A, B = case
    got, want = A.mul(B), oracle_sparse_mul(A, B)
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert [[(j, type(v), v) for j, v in r.items()] for r in got.rows] == \
        [[(j, type(v), v) for j, v in r.items()] for r in want.rows]
    # a one-entry row holding the int 1 shares its row of B, and only it
    for r, out in zip(A.rows, got.rows):
        if len(r) == 1:
            [(k, a)] = r.items()
            assert (out is B.rows[k]) == (type(a) is int and a == 1)


def _typed(acc):
    return [(k, type(v), v) for k, v in acc.items()]


# QQ ints and Fractions, some pairs of them summing to an int or a Fraction
# with denominator 1, and GF(7) values; keys 0..5 so terms meet and cancel
ACC_VALUES = {
    QQ: st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 1)]),
    GF(7): st.integers(0, 6),
}


@st.composite
def accumulate_cases(draw):
    """(field, acc, terms, left, right): an accumulator in random key order,
    (key, value) terms, and two term dicts for a product."""
    field = draw(st.sampled_from(list(ACC_VALUES)))
    values, keys = ACC_VALUES[field], st.integers(0, 5)
    acc = draw(st.dictionaries(keys, values.filter(bool), max_size=5))
    acc = {k: acc[k] for k in draw(st.permutations(list(acc)))}
    terms = draw(st.lists(st.tuples(keys, values), max_size=12))
    left = draw(st.dictionaries(keys, values.filter(bool), max_size=4))
    right = draw(st.dictionaries(keys, values.filter(bool), max_size=4))
    return field, acc, terms, left, right


def _product_key(k, l):
    """None for some pairs; the others meet at a few keys."""
    return None if (k + 2 * l) % 4 == 3 else (k * l) % 5


@hypothesis.settings(max_examples=300)
@hypothesis.given(accumulate_cases())
@hypothesis.example((QQ, {}, [(0, Fraction(1, 2)), (0, Fraction(1, 2))], {}, {}))
@hypothesis.example((QQ, {0: 1, 1: 2}, [(0, -1), (2, 3), (0, 1)], {}, {}))
@hypothesis.example((GF(7), {3: 4}, [(3, 3), (1, 6), (3, 5)], {0: 1, 1: 6}, {1: 1, 2: 1}))
def test_accumulate_helpers_match_field_method_loops(case):
    # same keys in the same order, equal values of the same types: a
    # cancellation drops its key and a later term puts it back at the end
    field, acc, terms, left, right = case
    got, want = dict(acc), dict(acc)
    _add_terms(field, got, terms)
    oracle_add_terms(field, want, terms)
    assert _typed(got) == _typed(want)
    for key in (_product_key, lambda k, l: k + l):
        got, want = dict(acc), dict(acc)
        _add_products(field, got, left, right, key)
        oracle_add_products(field, want, left, right, key)
        assert _typed(got) == _typed(want)
