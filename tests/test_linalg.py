import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
from row_reduce_oracle import row_reduce as oracle_row_reduce

from freeproj.fields import GF, QQ
from freeproj.linalg import (
    SparseMatrix,
    dense_mul,
    dense_rank,
    kron,
    left_kernel,
    generalized_inverse,
    rank,
    row_reduce,
    solve_left,
)


def M(dense, field=QQ):
    return SparseMatrix.from_dense(field, dense)


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
    a = M([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
    k = left_kernel(a)
    assert k.nrows == 1
    assert k.mul(a).rows == ({},)


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
                combo = [field.add(x, field.mul(a, y)) for x, y in zip(combo, src)]
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
    # the dense QQ eliminations of the limit algebra, where rows are lifted
    # to integers: full rank, one row the sum of two others, and entries
    # that are non-integral Fractions or Fraction(k, 1)
    # a pivot 2 lifts rows 0 and 2; then the field-value pivot row 1, with
    # pivot 1 and an entry 1/2, clears both lifted rows; the pivot -1 of
    # the second matrix stays in field values
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


def triple_loop_mul(field, A, B):
    return [[sum_field(field, [field.mul(A[i][t], B[t][j]) for t in range(len(B))])
             for j in range(len(B[0]) if B else 0)] for i in range(len(A))]


def sum_field(field, values):
    s = field.zero
    for v in values:
        s = field.add(s, v)
    return s


def test_dense_mul_matches_triple_loop():
    rng = random.Random(17)
    fractions = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3, 5)]
    for field, draw in ((QQ, lambda: QQ.coerce(rng.choice(fractions))),
                        (GF(10007), lambda: rng.randrange(10007))):
        for n, k, m in ((3, 4, 2), (5, 5, 5), (1, 1, 1), (2, 0, 3), (0, 3, 2)):
            A = [[draw() for _ in range(k)] for _ in range(n)]
            B = [[draw() for _ in range(m)] for _ in range(k)]
            if n > 1:
                A[1] = [field.zero] * k
            if k > 1:
                B[0] = [field.zero] * m
            assert dense_mul(field, A, B) == triple_loop_mul(field, A, B)


def test_generalized_inverse():
    rng = random.Random(3)
    for field in (QQ, GF(10007)):
        cases = [[[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)] for _ in range(20)]
        for k in range(1, 4):
            # rank-deficient: a 4x5 product through a k-dimensional space
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(4)]
            right = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(k)]
            cases.append(dense_mul(QQ, left, right))
        cases.append([[0] * 3 for _ in range(3)])
        for dense in cases:
            a = [[field.coerce(v) for v in row] for row in dense]
            x = generalized_inverse(field, a)
            assert len(x) == len(a[0]) and len(x[0]) == len(a)
            assert dense_mul(field, dense_mul(field, a, x), a) == a
def test_kron_block_structure():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    k = kron(QQ, a, b)
    assert k[0] == [0, 1, 0, 2]
    assert k[3] == [3, 0, 4, 0]
