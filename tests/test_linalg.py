import random

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
