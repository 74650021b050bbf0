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
