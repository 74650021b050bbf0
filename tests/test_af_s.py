import random
import time
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest
from af_oracle import canonical as oracle_canonical
from af_oracle import embed as oracle_embed
from af_oracle import mul as oracle_mul

from freeproj.af_s import AFMatrix, word_rank, word_unrank
from freeproj.errors import LevelDecrease, NotIdempotent, ZeroElement
from freeproj.fields import GF, QQ
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
