import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
from row_reduce_oracle import row_axpy as oracle_row_axpy
from row_reduce_oracle import row_reduce as oracle_row_reduce

from freeproj import linalg
from freeproj.fields import GF, QQ
from freeproj.linalg import (
    SparseMatrix,
    _row_axpy,
    dense_mul,
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
    t = a.transpose()
    inputs = [(m, list(m.rows), [list(r.items()) for r in m.rows]) for m in (a, t)]
    rank(a)
    row_reduce(a)
    row_reduce(a, want_transform=True)
    left_kernel(a)
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
