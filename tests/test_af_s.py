import random
import time
from fractions import Fraction
from math import gcd, lcm

import hypothesis
import hypothesis.strategies as st
import pytest
from af_oracle import canonical as oracle_canonical
from af_oracle import embed as oracle_embed
from af_oracle import mul as oracle_mul
from leavitt_oracle import word_unrank
from row_reduce_oracle import determinant
from row_reduce_oracle import generalized_inverse as oracle_generalized_inverse

from freeproj import af_s, linalg
from freeproj.af_s import AFMatrix, word_rank
from freeproj.errors import BudgetExceeded, LevelDecrease, NotIdempotent, ZeroElement
from freeproj.fields import GF, QQ
from freeproj.leavitt import l0_to_s, s_to_l0
from freeproj.qgr import QgrClass
from freeproj.randgen import make_rng, random_af, random_nonzero_af


def identity(d, level, field=QQ):
    """The identity at a level, written entry by entry."""
    n = d**level
    return AFMatrix(d, level, [[int(i == j) for j in range(n)] for i in range(n)], field)


def normalized_trace(a):
    """tr(a) / d^level, the trace normalized to be invariant under embed."""
    return sum(Fraction(a.entries[i][i]) for i in range(len(a.entries))) / Fraction(a.d) ** a.level


def test_embed_scalar_is_unital():
    c = AFMatrix.scalar(2, Fraction(3, 2))
    e = c.embed(2)
    assert e.entries == tuple(
        tuple(Fraction(3, 2) if i == j else 0 for j in range(4)) for i in range(4)
    )


def test_embed_block_diagonal():
    a = AFMatrix(2, 1, [[1, 0], [0, 0]])
    b = a.embed(2)
    assert [b.entries[i][i] for i in range(4)] == [1, 0, 1, 0]
    assert sum(v != 0 for row in b.entries for v in row) == 2


def test_embed_matrix_unit_expands_over_first_letter():
    e = AFMatrix.matrix_unit(2, (0,), (1,))
    up = e.embed(2)
    expected = AFMatrix.matrix_unit(2, (0, 0), (0, 1)) + AFMatrix.matrix_unit(2, (1, 0), (1, 1))
    assert up == expected


def test_embed_rejects_level_decrease():
    a = identity(2, 2)
    with pytest.raises(LevelDecrease):
        a.embed(1)


def test_mul_matrix_units():
    E01 = AFMatrix.matrix_unit(2, (0,), (1,))
    E10 = AFMatrix.matrix_unit(2, (1,), (0,))
    E00 = AFMatrix.matrix_unit(2, (0,), (0,))
    assert E01 * E10 == E00
    assert (E01 * E01).is_zero()
    one = AFMatrix.scalar(2, 1)
    a = AFMatrix(2, 1, [[1, 2], [3, 4]])
    assert one * a == a and a * one == a


def test_mul_across_levels_matches_embed_oracle():
    rng = make_rng(7)
    for d in (2, 3):
        for _ in range(25):
            la, lb = rng.randint(0, 2), rng.randint(0, 2)
            a = random_af(rng, d, la, QQ)
            b = random_af(rng, d, lb, QQ)
            r = max(la, lb) + 1
            direct = a * b
            embedded = a.embed(r) * b.embed(r)
            assert direct == embedded


def test_canonical_level():
    assert identity(2, 3).canonical().level == 0
    a = AFMatrix(2, 2, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    c = a.canonical()
    assert c.level == 1 and c.entries == ((1, 0), (0, 0))
    e = AFMatrix.matrix_unit(2, (0,), (0,))
    assert e.canonical().level == 1


def test_canonical_after_embed_is_identity():
    rng = make_rng(9)
    for _ in range(30):
        a = random_af(rng, 2, rng.randint(0, 2), QQ).canonical()
        assert a.embed(a.level + 2).canonical() == a


def test_k0_class_examples():
    assert identity(2, 3).k0_class() == QgrClass(1, 0, 2)
    e = AFMatrix.matrix_unit(2, (0,), (0,))
    assert e.k0_class() == QgrClass(1, 1, 2)
    assert AFMatrix.zero(2, 1).k0_class() == QgrClass(0, 0, 2)
    with pytest.raises(NotIdempotent):
        AFMatrix.matrix_unit(2, (0,), (1,)).k0_class()


@pytest.mark.parametrize("field", [QQ, GF(10007)])
def test_k0_class_reads_the_rank_from_the_trace(field, monkeypatch):
    # e = x * a with a * x * a = a is an idempotent of the rank of a; a is
    # u * p * v with p a diagonal 0/1 projection, so that every rank shows
    rng = make_rng(17)
    idempotents, ranks = [], set()
    for d, level in ((2, 2), (3, 1), (2, 3)):
        n = d**level
        for r in range(n + 1):
            p = AFMatrix(d, level, [[int(i == j < r) for j in range(n)] for i in range(n)], field)
            a = random_af(rng, d, level, field) * p * random_af(rng, d, level, field)
            e = a.vn_regular_witness() * a
            assert e * e == e
            idempotents.append((e, e.rank()))
            ranks.add(a.rank())
    assert ranks == set(range(9))
    # over QQ and over GF(p) with p above the side, no elimination runs
    monkeypatch.setattr(AFMatrix, "rank", None)
    for e, r in idempotents:
        assert e.k0_class().value == Fraction(r, e.d**e.level)


def test_k0_class_eliminates_when_the_trace_is_not_the_rank():
    # over GF(2) at side 4 the trace of diag(1, 1, 0, 0) is 0 but its rank 2;
    # over GF(3), diag(1, 1, 1, 0) has trace 0 and rank 3
    e = AFMatrix(2, 2, [[int(i == j < 2) for j in range(4)] for i in range(4)], GF(2))
    assert sum(e.entries[i][i] for i in range(4)) % 2 == 0 and e.rank() == 2
    assert e.k0_class().value == Fraction(1, 2)
    f = AFMatrix(2, 2, [[int(i == j < 3) for j in range(4)] for i in range(4)], GF(3))
    assert f.k0_class().value == Fraction(3, 4)


def test_k0_class_embed_invariant_and_additive():
    e = AFMatrix.matrix_unit(2, (0, 1), (0, 1))
    f = AFMatrix.matrix_unit(2, (1, 0), (1, 0))
    assert e.k0_class() == e.embed(4).k0_class()
    assert (e * f).is_zero()
    assert (e + f).k0_class().value == e.k0_class().value + f.k0_class().value


def test_vn_regular_witness():
    rng = make_rng(3)
    E01 = AFMatrix.matrix_unit(2, (0,), (1,))
    x = E01.vn_regular_witness()
    assert E01 * x * E01 == E01
    assert x == AFMatrix.matrix_unit(2, (1,), (0,))
    inv = AFMatrix(2, 1, [[1, 1], [0, 1]])
    xi = inv.vn_regular_witness()
    assert inv * xi * inv == inv
    assert AFMatrix.zero(2, 1).vn_regular_witness().is_zero()
    for d in (2, 3):
        for level in (0, 1, 2):
            for _ in range(10):
                a = random_af(rng, d, level, QQ)
                w = a.vn_regular_witness()
                assert a * w * a == a


def test_vn_witness_over_qq_reduces_to_gfp_witness():
    # for a of full rank over QQ and over GF(p) both witnesses are a^-1, so
    # the QQ witness reduced mod p is the GF(p) witness
    p = 10007
    F = GF(p)
    rng = random.Random(19)
    checked = 0
    for d, level in ((2, 3), (3, 2)):
        n = d**level
        for _ in range(6):
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            a, a_p = AFMatrix(d, level, rows), AFMatrix(d, level, rows, F)
            if a.rank() < n or a_p.rank() < n:
                continue
            x, x_p = a.vn_regular_witness(), a_p.vn_regular_witness()
            assert a * x == identity(d, level)
            assert a_p * x_p == identity(d, level, F)
            reduced = [[F.coerce(v) for v in row] for row in x.entries]
            assert reduced == [list(row) for row in x_p.entries], f"QQ and GF({p}) witnesses differ at d={d}, level={level}"
            checked += 1
    assert checked >= 10


def test_simplicity_witness_reconstructs_identity():
    rng = make_rng(5)
    one = AFMatrix.scalar(2, 1)
    us, vs = one.simplicity_witness()
    assert len(us) == 1
    total = us[0] * one * vs[0]
    assert total == one

    E01 = AFMatrix.matrix_unit(2, (0,), (1,))
    us, vs = E01.simplicity_witness()
    acc = AFMatrix.zero(2, 1)
    for u, v in zip(us, vs):
        acc = acc + u * E01 * v
    assert acc == one

    scaled = E01.scale(3)
    us, vs = scaled.simplicity_witness()
    assert any(
        Fraction(1, 3) in tuple(val for row in u.entries for val in row) for u in us
    )
    acc = AFMatrix.zero(2, 1)
    for u, v in zip(us, vs):
        acc = acc + u * scaled * v
    assert acc == one

    for d in (2, 3):
        for level in (1, 2):
            for _ in range(10):
                a = random_nonzero_af(rng, d, level, QQ)
                us, vs = a.simplicity_witness()
                acc = AFMatrix.zero(d, 0)
                for u, v in zip(us, vs):
                    acc = acc + u * a * v
                assert acc == AFMatrix.scalar(d, 1)

    with pytest.raises(ZeroElement):
        AFMatrix.zero(2, 2).simplicity_witness()


def test_simplicity_witness_at_d1_is_level_free():
    # at d = 1 every level is the same 1x1 algebra: the level-0 pair, at once
    for field, value in ((QQ, "2/3"), (GF(5), "3")):
        a = AFMatrix.from_json({"d": 1, "level": 10**9, "entries": [[0, 0, value]]}, field)
        start = time.perf_counter()
        us, vs = a.simplicity_witness()
        assert time.perf_counter() - start < 0.1
        assert [(u.level, v.level) for u, v in zip(us, vs)] == [(0, 0)]
        acc = AFMatrix.zero(1, 0, field)
        for u, v in zip(us, vs):
            acc = acc + u * a * v
        assert acc == AFMatrix.scalar(1, 1, field)


def test_embed_is_ring_homomorphism():
    rng = make_rng(11)
    for d in (2, 3):
        for _ in range(40):
            level = rng.randint(0, 2)
            a = random_af(rng, d, level, QQ)
            b = random_af(rng, d, level, QQ)
            r = level + rng.randint(1, 2)
            assert (a * b).embed(r) == a.embed(r) * b.embed(r)
            assert (a + b).embed(r) == a.embed(r) + b.embed(r)
    assert AFMatrix.scalar(2, 1).embed(3) == identity(2, 3)


def test_normalized_trace_embed_invariant():
    rng = make_rng(13)
    for _ in range(20):
        a = random_af(rng, 2, rng.randint(0, 2), QQ)
        assert normalized_trace(a) == normalized_trace(a.embed(a.level + 2))


def test_trace_computes_class_on_idempotents():
    e = AFMatrix.matrix_unit(2, (0, 0), (0, 0))
    assert normalized_trace(e) == Fraction(1, 4) == e.k0_class().value


def test_word_rank_round_trip():
    for d in (2, 3):
        for r in (0, 1, 2, 3):
            for k in range(d**r):
                assert word_rank(d, word_unrank(d, k, r)) == k


def test_json_round_trip():
    a = AFMatrix(2, 1, [[Fraction(1, 2), 0], [3, -1]])
    data = a.to_json()
    assert data["d"] == 2 and data["level"] == 1
    back = AFMatrix.from_json(data)
    assert back == a
    # integral floats and digit strings are still read as integers
    loose = {"d": 2.0, "level": "1", "entries": [[0, 0.0, "1/2"], ["1", 0, 3], [1, 1.0, -1]]}
    assert AFMatrix.from_json(loose) == a


def test_bool_entries_round_trip_through_json():
    a = AFMatrix(2, 1, [[True, 0], [0, 1]])
    data = a.to_json()
    assert [text for _, _, text in data["entries"]] == ["1", "1"]
    assert AFMatrix.from_json(data) == a == AFMatrix.scalar(2, 1)


def test_from_json_builds_the_constructors_matrix():
    # read entries are canonical already, so from_json skips the
    # constructor's second coercion; values and types are the constructor's
    for field, texts in ((QQ, ["5/3", "-6/3", "2/4", "0", "-1/2", "7"]), (GF(7), ["1/2", "9", "-3", "0", "13", "6"])):
        for d, level in ((2, 2), (3, 1), (1, 4)):
            n = d**level
            entries = [[i, (3 * i + 1) % n, texts[i % len(texts)]] for i in range(n)]
            dense = [[field.zero] * n for _ in range(n)]
            for i, j, text in entries:
                dense[i][j] = field.from_str(text)
            got = AFMatrix.from_json({"d": d, "level": level, "entries": entries}, field)
            assert_same_matrix(got, AFMatrix(d, level, dense, field))


def test_gf_field_support():
    F = GF(5)
    a = AFMatrix(2, 1, [[1, 2], [3, 4]], F)
    w = a.vn_regular_witness()
    assert a * w * a == a
    us, vs = a.simplicity_witness()
    acc = AFMatrix.zero(2, 0, F)
    for u, v in zip(us, vs):
        acc = acc + u * a * v
    assert acc == AFMatrix.scalar(2, 1, F)


def _af_value(rng, field):
    """A random entry, zero half the time: over QQ a small fraction whose
    products often come out integral, over GF(p) any int to reduce."""
    if rng.random() < 0.5:
        return 0
    if field is QQ:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return rng.randint(-20, 20)


@st.composite
def block_diagonal_afs(draw):
    """d = 1..3, level 0..3, over QQ or GF(7): a random matrix at a lower
    level embedded by the oracle, then, unless level is 0, one entry set to
    a random value in a diagonal block or an off-diagonal block of the top
    split; the value may leave the matrix unchanged."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    d = draw(st.integers(1, 3))
    level = draw(st.integers(0, 3))
    core = draw(st.integers(0, level))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = d**core
    a = AFMatrix(d, core, [[_af_value(rng, field) for _ in range(n)] for _ in range(n)], field)
    a = oracle_embed(a, level)
    where = draw(st.sampled_from(["none", "diagonal", "off-diagonal"]))
    if level and (where == "diagonal" or where == "off-diagonal" and d > 1):
        size, block = d**level, d ** (level - 1)
        i = draw(st.integers(0, size - 1))
        blocks = [b for b in range(d) if (b == i // block) == (where == "diagonal")]
        j = draw(st.sampled_from(blocks)) * block + draw(st.integers(0, block - 1))
        rows = [list(row) for row in a.entries]
        rows[i][j] = field.coerce(_af_value(rng, field) or 1)
        a = AFMatrix(d, level, rows, field)
    return a


def assert_same_matrix(got, want):
    """Equal d, level and field, tuple rows, and equal values of equal types."""
    assert (got.d, got.level, got.field) == (want.d, want.level, want.field)
    assert type(got.entries) is tuple and all(type(row) is tuple for row in got.entries)
    assert [[(type(v), v) for v in row] for row in got.entries] == [
        [(type(v), v) for v in row] for row in want.entries
    ]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(block_diagonal_afs(), st.integers(0, 2))
def test_embed_and_canonical_match_oracle(a, up):
    assert_same_matrix(a.canonical(), oracle_canonical(a))
    target = min(a.level + up, 3)
    assert_same_matrix(a.embed(target), oracle_embed(a, target))
    assert_same_matrix(a.embed(target).canonical(), oracle_canonical(a))


def assert_canonical_values(m):
    """Tuple rows of canonical values: over QQ an int for every integral
    value and a Fraction only for the others, over GF(p) ints in 0..p-1."""
    assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)
    for row in m.entries:
        for v in row:
            if m.field is QQ:
                assert type(v) is int or type(v) is Fraction and v.denominator != 1, repr(v)
            else:
                assert type(v) is int and 0 <= v < m.field.characteristic, repr(v)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    st.sampled_from([QQ, GF(7), GF(10007)]),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2**32),
)
def test_embed_canonical_and_mul_give_canonical_values(field, d, la, lb, seed):
    rng = random.Random(seed)
    a, b = (
        AFMatrix(d, lv, [[_af_value(rng, field) for _ in range(d**lv)] for _ in range(d**lv)], field)
        for lv in (la, lb)
    )
    r = max(la, lb) + 1
    for m in (a * b, a.embed(r), b.embed(r), a.embed(r).canonical(), a.canonical(), a * a):
        assert_canonical_values(m)


@pytest.mark.parametrize("field", [QQ, GF(10007)])
def test_vn_regular_witness_entries_are_canonical(field):
    # the witness is built on the kernel's values with no coercion, so they
    # must equal what the constructor's coercion would make of them
    rng = random.Random(23)
    for d, level in ((1, 0), (2, 1), (2, 2), (3, 1), (2, 3)):
        n = d**level
        for deficient in (False, True):
            rows = [[_af_value(rng, field) for _ in range(n)] for _ in range(n)]
            if deficient:
                rows[-1] = [2 * u - v for u, v in zip(rows[0], rows[n // 2])]
            a = AFMatrix(d, level, rows, field)
            x = a.vn_regular_witness()
            assert_same_matrix(x, AFMatrix(d, level, x.entries, field))
            assert a * x * a == a


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    st.sampled_from([(1, 0), (1, 4), (2, 0), (2, 1), (2, 3), (2, 5), (3, 1), (3, 3)]),
    st.sampled_from([2, 3, 7, 10007, 2**31 - 1, 2**61 - 1, 3317044064679887385961813]),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_gfp_witness_matches_sparse_kernel(shape, p, rng, deficient):
    # the packed GF(p) witness equals the sparse kernel's, at d = 1 too
    (d, level), field = shape, GF(p)
    n = d**level
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    if deficient:
        rows[-1] = [(2 * u - v) % p for u, v in zip(rows[0], rows[n // 2])]
    a = AFMatrix(d, level, rows, field)
    x = a.vn_regular_witness()
    want = oracle_generalized_inverse(field, [list(row) for row in a.entries])
    assert [[(type(v), v) for v in row] for row in x.entries] == [[(type(v), v) for v in row] for row in want]
    assert a * x * a == a


def test_integral_products_of_fractions_are_ints():
    half = AFMatrix(2, 1, [[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
    two = AFMatrix(2, 1, [[2, 0], [0, Fraction(2, 3)]])
    for m in (half * two, two * half, half.embed(3) * two):
        assert_canonical_values(m)
    assert (half * two).entries == ((1,),)
    assert type((half * two).entries[0][0]) is int


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_d1_levels_match_oracle_and_are_constant_time(field):
    # at d = 1 every level is the same 1x1 algebra: the oracle's loop over
    # levels and the direct answer agree, and a huge level costs nothing
    for v in (0, 3, Fraction(-5, 2)):
        a = AFMatrix.scalar(1, v, field)
        for level in range(0, 40, 7):
            up = a.embed(level)
            assert_same_matrix(up, oracle_embed(a, level))
            assert_same_matrix(up.canonical(), oracle_canonical(up))
            assert up.embed(level) is up
    start = time.perf_counter()
    big = AFMatrix.from_json({"d": 1, "level": 10**9, "entries": [[0, 0, "7/3"]]}, field)
    low = big.canonical()
    high = AFMatrix.scalar(1, Fraction(7, 3), field).embed(10**9)
    assert time.perf_counter() - start < 0.1
    assert_same_matrix(low, AFMatrix.scalar(1, Fraction(7, 3), field))
    assert_same_matrix(high, big)
    assert big == low and (big * big).level == 0


@st.composite
def product_operands(draw):
    """Two elements of one limit algebra, d = 1..3 over QQ (with fractions)
    or GF(7): each a random matrix at level 0..3 (0..2 at d = 3), maybe with
    zero rows, embedded by up to two levels, so often not canonical, and a
    level-0 scalar, embedded or not, on either side about half the time."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    d = draw(st.integers(1, 3))
    top = 2 if d == 3 else 3
    rng = random.Random(draw(st.integers(0, 2**32)))
    out = []
    for _ in range(2):
        core = draw(st.integers(0, top))
        n = d**core
        rows = [[_af_value(rng, field) for _ in range(n)] for _ in range(n)]
        if draw(st.booleans()):
            rows = [row if rng.random() < 0.5 else [0] * n for row in rows]
        a = AFMatrix(d, core, rows, field)
        out.append(a.embed(draw(st.integers(core, min(core + 2, top)))))
    return out


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(product_operands())
def test_mul_matches_embedding_oracle(operands):
    a, b = operands
    got = a * b
    assert_same_matrix(got, oracle_mul(a, b))
    assert_canonical_values(got)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_mul_at_d1_far_level_matches_oracle(field):
    big = AFMatrix.from_json({"d": 1, "level": 10**9, "entries": [[0, 0, "7/3"]]}, field)
    for a, b in ((big, big), (big, AFMatrix.scalar(1, Fraction(3, 5), field)),
                 (AFMatrix.scalar(1, 5, field), big), (big, AFMatrix.scalar(1, 0, field))):
        assert_same_matrix(a * b, oracle_mul(a, b))


def test_product_builds_no_embedding(monkeypatch):
    rng = random.Random(5)
    pairs = []
    for field in (QQ, GF(7)):
        for la, lb in ((0, 2), (2, 0), (1, 3), (3, 1), (2, 2), (1, 2)):
            a, b = (AFMatrix(2, lv, [[_af_value(rng, field) for _ in range(2**lv)] for _ in range(2**lv)], field)
                    for lv in (la, lb))
            pairs.append((a.embed(la + 1), b, oracle_mul(a.embed(la + 1), b)))

    def refuse(self, level):
        raise AssertionError("a product called embed")

    monkeypatch.setattr(AFMatrix, "embed", refuse)
    for a, b, want in pairs:
        assert_same_matrix(a * b, want)


@pytest.mark.parametrize("level", [12, 20])
def test_constructors_refuse_a_side_above_max_side_before_allocating(level):
    # the d**level table is never built: at level 12 it took 2.35 s and
    # 271 MB, at level 20 it would hold 2^40 entries
    start = time.perf_counter()
    for build in (lambda: AFMatrix.zero(2, level), lambda: AFMatrix.matrix_unit(2, (0,) * level, (1,) * level),
                  lambda: AFMatrix(2, level, [])):
        with pytest.raises(BudgetExceeded):
            build()
    assert time.perf_counter() - start < 0.5
    # at d = 1 every level has side 1
    one = AFMatrix.matrix_unit(1, (0,) * level, (0,) * level)
    assert one.entries == ((1,),) and one == AFMatrix.scalar(1, 1)
    assert AFMatrix.zero(1, level).is_zero() and AFMatrix(1, level, [[3]]).level == level


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_product_by_one_is_the_canonical_form_itself(field):
    # a level-0 factor 1 coerces nothing: the canonical form comes back
    rng = random.Random(41)
    one = AFMatrix.scalar(2, 1, field)
    for level in (1, 2):
        a = AFMatrix(2, level, [[_af_value(rng, field) for _ in range(2**level)] for _ in range(2**level)], field)
        c = a.canonical()
        assert c * one is c and one * c is c and c.scale(Fraction(2, 2)) is c
        assert_same_matrix(a * one, oracle_mul(a, one))
        assert_same_matrix(one * a.embed(level + 1), oracle_mul(one, a.embed(level + 1)))


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_a_product_is_scanned_for_its_canonical_form_once(field):
    # a*x*a scans a*x when the product is formed and not again as a factor;
    # every product keeps the oracle's value, embedded factors included
    rng = random.Random(43)
    for la, lx, up in ((1, 1, 0), (2, 1, 1), (1, 2, 1), (2, 2, 0), (0, 2, 2), (3, 1, 0)):
        a, x = (AFMatrix(2, lv, [[_af_value(rng, field) for _ in range(2**lv)] for _ in range(2**lv)], field)
                for lv in (la, lx))
        a = a.embed(la + up)
        for witness in (x, a.vn_regular_witness()):
            ax = a * witness
            assert_same_matrix(ax, oracle_mul(a, witness))
            rows, ax.rows = ax.rows, None  # a second scan would read them
            assert ax.canonical() is ax
            ax.rows = rows
            assert_same_matrix(ax * a, oracle_mul(oracle_mul(a, witness), a))
        assert a * a.vn_regular_witness() * a == a


def routed_witness_cases():
    """Dense QQ matrices that the prime route inverts: sides 5-12 with
    entries +-1, +-2, with and without rows of fractions +-1/2, +-1/3, each
    with a positive and a negative determinant; and d = 2 ones embedded
    from level 2, whose witness is canonical one level down."""
    rng = random.Random(47)

    def dense(n, fractions):
        while True:
            rows = [[rng.choice((-2, -1, 1, 2)) for _ in range(n)] for _ in range(n)]
            for i in rng.sample(range(n), n // 2) if fractions else ():
                q = rng.choice((2, 3))
                rows[i] = [Fraction(rng.choice((-1, 1)), q) for _ in range(n)]
            if determinant(rows):
                return rows

    out = []
    for d, level in ((5, 1), (6, 1), (7, 1), (2, 3), (3, 2), (10, 1), (11, 1), (12, 1)):
        for fractions in (False, True):
            rows = dense(d**level, fractions)
            out.append(AFMatrix(d, level, rows))
            out.append(AFMatrix(d, level, [[-v for v in rows[0]]] + rows[1:]))
    for fractions in (False, True):
        out.append(AFMatrix(2, 2, dense(4, fractions)).embed(3))
    return out


def k0_or_refusal(m):
    try:
        return m.k0_class()
    except NotIdempotent:
        return NotIdempotent


def assert_same_result(got, want):
    if isinstance(want, AFMatrix):
        assert_same_matrix(got, want)
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_result(g, w)
    else:
        assert got == want and type(got) is type(want)


def test_witness_held_as_ints_reads_as_the_oracle():
    # every reader of a witness the prime route keeps as ints over den gives
    # what it gives on the eager oracle matrix, and leaves the entries, read
    # afterwards, equal to the oracle's value for value and type for type
    rng = random.Random(53)
    signs = set()
    for a in routed_witness_cases():
        d, level = a.d, a.level
        want = AFMatrix(d, level, oracle_generalized_inverse(QQ, [list(row) for row in a.entries]))
        half = AFMatrix.scalar(d, Fraction(1, 2))
        readers = [
            lambda x: x.entries,
            lambda x: x.to_json(),
            lambda x: (x == a, a == x, x == want, want == x, x == x),
            lambda x: (x + a, a + x, x + x),
            lambda x: (x.scale(Fraction(-3, 2)), x.scale(1)),
            lambda x: x.rank(),
            k0_or_refusal,
            lambda x: x.canonical(),
            lambda x: (a * x, x * a, x * x, half * x, x * half),
        ]
        if d**level <= 9:  # one level up, at sides up to 27
            n = d ** (level + 1)
            up = AFMatrix(d, level + 1, [[_af_value(rng, QQ) for _ in range(n)] for _ in range(n)])
            readers += [lambda x: x.embed(level + 1), lambda x: (up * x, x * up, a.embed(level + 1) * x)]
        if level > 1:  # diag(low, .., low) * x, row block by row block
            n = d ** (level - 1)
            low = AFMatrix(d, level - 1, [[_af_value(rng, QQ) for _ in range(n)] for _ in range(n)])
            readers.append(lambda x: (low * x, x * low))
        for read in readers:
            x = a.vn_regular_witness()
            assert x.den > 1 and x._entries is None
            signs.add(determinant([list(row) for row in a.entries]) > 0)
            assert_same_result(read(x), read(want))
            assert_same_matrix(x, want)
    assert signs == {False, True}
    # the embedded cases are canonical one level down
    assert [a.vn_regular_witness().canonical().level for a in routed_witness_cases()[-2:]] == [2, 2]


def test_a_x_a_leaves_the_witness_held_as_ints():
    # the certificate and the canonical form of x read only its int rows
    for a in routed_witness_cases():
        x = a.vn_regular_witness()
        low = x.canonical()
        assert a * x * a == a
        assert x._entries is None and low._entries is None
        assert low.den == x.den > 1 and (low is x) == (a.level == low.level)


def assert_lowest_terms(m):
    """rows/den in lowest terms: one dict row {column: nonzero int} per row
    of the side, its columns ascending, and den >= 1 whose gcd with every
    entry is 1; den 1 and ints 1..p-1 over GF(p)."""
    n = m.d**m.level
    assert type(m.den) is int and m.den >= 1 and type(m.rows) is tuple and len(m.rows) == n
    assert all(type(row) is dict and list(row) == sorted(row) and all(type(j) is int and 0 <= j < n for j in row)
               and all(type(v) is int and v != 0 for v in row.values()) for row in m.rows)
    assert gcd(m.den, *(v for row in m.rows for v in row.values())) == 1
    if p := m.field.characteristic:
        assert m.den == 1 and all(0 < v < p for row in m.rows for v in row.values())


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from([QQ, GF(7)]), st.sampled_from([(1, 2), (2, 1), (2, 2), (3, 1)]),
                  st.integers(0, 2**32))
def test_every_operation_returns_lowest_terms(field, shape, seed):
    # whatever constructor or operation made a matrix, it is in lowest
    # terms, so == (on den and rows) agrees with equal entries at a common level
    (d, level), rng = shape, random.Random(seed)
    n = d**level
    a, b = (AFMatrix(d, level, [[_af_value(rng, field) for _ in range(n)] for _ in range(n)], field) for _ in "ab")
    c, x = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))), a.vn_regular_witness()
    made = [a, b, a + b, a + a.scale(-1), a * b, b * a, x, a * x, a * x * a, a.scale(c), a.scale(c).scale(c),
            a.embed(level + 1), a.embed(level + 1).canonical(), AFMatrix.scalar(d, c, field),
            AFMatrix.zero(d, level, field), AFMatrix.from_json(a.to_json(), field), l0_to_s(s_to_l0(a)),
            AFMatrix.matrix_unit(d, word_unrank(d, 0, level), word_unrank(d, n - 1, level), field)]
    if not a.is_zero():
        made += [m for pair in zip(*a.simplicity_witness()) for m in pair][:4]
    for m in made:
        assert_lowest_terms(m)
    same = [a.scale(2).scale(Fraction(1, 2)).embed(level + 1), a * AFMatrix.scalar(d, 1, field), b.embed(level + 1)]
    for u in made[:10]:
        for v in made[:10] + same:
            r = max(u.level, v.level)
            assert (u == v) == (u.embed(r).entries == v.embed(r).entries)
    assert a * x * a == a


def test_deficient_sparse_and_gfp_witnesses_are_eager(monkeypatch):
    # off the prime route: the sparse or packed kernel's int rows, in lowest
    # terms over the lcm of the denominators of the oracle's values
    routed = []
    real = linalg._crt_inverse
    monkeypatch.setattr(linalg, "_crt_inverse", lambda A: routed.append(A) or real(A))
    rng = random.Random(59)
    n = 8
    dense = [[rng.choice((-2, -1, 1, 2)) for _ in range(n)] for _ in range(n)]
    deficient = dense[:-1] + [[u + v for u, v in zip(dense[0], dense[1])]]
    sparse = [[v if (i + j) % 3 == 0 else 0 for j, v in enumerate(row)] for i, row in enumerate(dense)]
    for rows, field in ((deficient, QQ), (sparse, QQ), (dense, GF(10007))):
        a = AFMatrix(2, 3, rows, field)
        x = a.vn_regular_witness()
        want = oracle_generalized_inverse(field, [list(row) for row in a.entries])
        assert x.den == lcm(*(Fraction(v).denominator for row in want for v in row))
        assert [list(row) for row in x.entries] == want
        assert a * x * a == a
    assert all(real(A) is None for A in routed)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_units_are_built_without_coercion(field, monkeypatch):
    # matrix_unit, zero and the simplicity units hold canonical values as
    # they are made: the same matrices as the coercing constructor's
    rng = random.Random(61)
    for d, level in ((2, 1), (2, 2), (3, 2)):
        n = d**level
        a = AFMatrix(d, level, [[_af_value(rng, field) for _ in range(n)] for _ in range(n)], field)
        if a.is_zero():
            continue
        p, q = next((i, j) for i in range(n) for j in range(n) if a.entries[i][j] != 0)
        inv = field.invert(a.entries[p][q])
        words = [word_unrank(d, i, level) for i in range(n)]
        with monkeypatch.context() as patch:
            patch.setattr(type(field), "coerce", lambda *args: pytest.fail("coerce was called"))
            us, vs = a.simplicity_witness()
            units = [AFMatrix.matrix_unit(d, u, v, field) for u in words[:2] for v in words[-2:]]
            zero = AFMatrix.zero(d, level, field)
        for i, (u, v) in enumerate(zip(us, vs)):
            assert_same_matrix(u, AFMatrix(d, level, AFMatrix.matrix_unit(d, words[i], words[p], field).scale(inv).entries, field))
            assert_same_matrix(v, AFMatrix(d, level, AFMatrix.matrix_unit(d, words[q], words[i], field).entries, field))
        for m in units + [zero]:
            assert_same_matrix(m, AFMatrix(d, level, m.entries, field))
        assert zero.is_zero()


def test_a_one_entry_level11_matrix_takes_no_gcd_per_zero_row(monkeypatch):
    # 3/2 at (5, 7) of a side-2048 matrix: lowest terms, its product, its
    # witness and its printing take a gcd over the rows with entries alone,
    # not one per row of the side
    calls = []
    monkeypatch.setattr(af_s, "gcd", lambda *args: calls.append(len(args)) or gcd(*args))
    three = AFMatrix.from_json({"d": 2, "level": 11, "entries": [[5, 7, "3"]]})
    a = AFMatrix._new(2, 11, three.rows, QQ, 2)
    x = a.vn_regular_witness()
    assert a * x * a == a and not (a * x).is_zero() and not x.is_zero()
    assert a.to_json()["entries"] == [[5, 7, "3/2"]] and x.to_json()["entries"] == [[7, 5, "2/3"]]
    assert len(calls) <= 8, len(calls)
