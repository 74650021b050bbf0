import random
from fractions import Fraction

import pytest

from freeproj.af_s import AFMatrix, word_rank, word_unrank
from freeproj.errors import LevelDecrease, NotIdempotent, ZeroElement
from freeproj.fields import GF, QQ
from freeproj.qgr import QgrClass
from freeproj.randgen import make_rng, random_af, random_nonzero_af


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
    a = AFMatrix.identity(2, 2)
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
    assert AFMatrix.identity(2, 3).canonical().level == 0
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
    assert AFMatrix.identity(2, 3).k0_class() == QgrClass(1, 0, 2)
    e = AFMatrix.matrix_unit(2, (0,), (0,))
    assert e.k0_class() == QgrClass(1, 1, 2)
    assert AFMatrix.zero(2, 1).k0_class().is_zero()
    with pytest.raises(NotIdempotent):
        AFMatrix.matrix_unit(2, (0,), (1,)).k0_class()


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
            assert a * x == AFMatrix.identity(d, level)
            assert a_p * x_p == AFMatrix.identity(d, level, F)
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
    assert AFMatrix.scalar(2, 1).embed(3) == AFMatrix.identity(2, 3)


def test_normalized_trace_embed_invariant():
    rng = make_rng(13)
    for _ in range(20):
        a = random_af(rng, 2, rng.randint(0, 2), QQ)
        assert a.normalized_trace() == a.embed(a.level + 2).normalized_trace()


def test_trace_computes_class_on_idempotents():
    e = AFMatrix.matrix_unit(2, (0, 0), (0, 0))
    assert e.normalized_trace() == Fraction(1, 4) == e.k0_class().value


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
