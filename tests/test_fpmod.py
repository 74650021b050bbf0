from fractions import Fraction

import pytest

from freeproj import FreeAlgebra, FpModule
from freeproj.fields import GF
from freeproj.fpmod import FpModuleMorphism
from freeproj.freealg import ModuleMap
from freeproj.randgen import make_rng, random_module_element, random_module_map
from freeproj.submodules import kernel


def quotient_by_first_letter(A):
    return FpModule.cyclic(A, [A.gen(0)])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hilbert_of_free_rank_one(d):
    A = FreeAlgebra(d)
    R = FpModule.free(A, [0])
    for j in range(11):
        assert R.hilbert(j) == d**j


def test_hilbert_of_point(A2):
    k = FpModule.residue(A2)
    assert [k.hilbert(j) for j in range(-1, 4)] == [0, 1, 0, 0, 0]


def test_hilbert_of_letter_quotient(A2):
    # basis of R/Rx0: classes of words not ending in x0
    M = quotient_by_first_letter(A2)
    count = sum(1 for w in A2.words(4) if w[-1] != 0)
    assert count == 8
    assert M.hilbert(4) == 8
    for j in range(1, 8):
        assert M.hilbert(j) == 2 ** (j - 1)


def test_std_basis_matches_enumeration(A2):
    M = quotient_by_first_letter(A2)
    words = [w for _, w in M.std_basis(3)]
    assert words == [w for w in A2.words(3) if w[-1] != 0]


def letter_battery():
    A2, A3, B2 = FreeAlgebra(2), FreeAlgebra(3), FreeAlgebra(2, GF(5))
    x0, x1 = A2.gen(0), A2.gen(1)
    F = A2.free_module([0, 1])
    G = A3.free_module([0, 0])
    rng = make_rng(5)
    return [
        # at j = 0, x0 * 1 is the leading word x0 itself: the reduce path
        FpModule.cyclic(A2, [A2.gen(0)]),
        FpModule.residue(A2),
        FpModule.tail_quotient(A2, 2),
        FpModule(F, [F.from_polys([x0 * x1 - x1 * x0, x1.scale(2)]), F.from_polys([x1 * x1, x0 + x1])]),
        FpModule(G, [random_module_element(rng, G, 2, max_terms=4) for _ in range(3)]),
        FpModule.cyclic(B2, [B2.gen(0) * B2.gen(1) + B2.gen(1) * B2.gen(1).scale(3)]),
    ]


def test_letter_matrix_matches_slow_rows():
    reduced = 0
    for M in letter_battery():
        one = M.algebra.field.one
        for j in range(M.min_degree, M.min_degree + 4):
            std_next = set(M.std_basis(j + 1))
            for i in range(M.algebra.d):
                products = [(alpha, (i,) + w) for alpha, w in M.std_basis(j)]
                slow = [M.coords(M.F0.element({mon: one}), j + 1) for mon in products]
                fast = M.letter_matrix(i, j)
                assert (fast.nrows, fast.ncols) == (len(slow), M.hilbert(j + 1))
                assert [list(r.items()) for r in fast.rows] == [list(r.items()) for r in slow]
                reduced += sum(1 for mon in products if mon not in std_next)
    assert reduced > 0


def test_torsion_of_free_is_zero(A2):
    R = FpModule.free(A2, [0])
    assert R.torsion().dimension == 0


def test_torsion_of_finite_module_is_everything(A2):
    T = FpModule.tail_quotient(A2, 2)
    tors = T.torsion()
    assert tors.dimension == 1 + 2  # degrees 0 and 1
    assert T.is_fdim()


def test_torsion_of_point_plus_free(A2):
    x0, x1 = A2.gen(0), A2.gen(1)
    F = A2.free_module([0, 0])
    M = FpModule(F, [F.from_polys([x0, A2.zero()]), F.from_polys([x1, A2.zero()])])
    tors = M.torsion()
    assert tors.dimension == 1
    assert [tors.module.hilbert(j) for j in range(3)] == [1, 0, 0]
    quot = M.mod_torsion()
    assert quot.torsion().dimension == 0
    assert [quot.hilbert(j) for j in range(4)] == [1, 2, 4, 8]


def test_truncate_free(A2):
    R = FpModule.free(A2, [0])
    for i in (1, 2, 3):
        tr = R.truncate(i)
        assert sorted(tr.F0.shifts) == [i] * 2**i
        assert not tr.relations
        for j in range(i, i + 5):
            assert tr.hilbert(j) == R.hilbert(j)
        assert tr.hilbert(i - 1) == 0


def test_truncate_point_vanishes(A2):
    k = FpModule.residue(A2)
    tr = k.truncate(1)
    assert all(tr.hilbert(j) == 0 for j in range(5))


def test_truncate_keeps_generators_above_the_cut(A2):
    # a summand generated in degree 2 must survive truncation at 1 intact
    M = FpModule.residue(A2).shift(-2).direct_sum(FpModule.free(A2, [0]))
    tr = M.truncate(1)
    for j in range(6):
        assert tr.hilbert(j) == (M.hilbert(j) if j >= 1 else 0)
    assert tr.hilbert(2) == 4 + 1  # words of length 2 plus the shifted point


def test_truncate_letter_quotient_is_shifted_free(A2):
    M = quotient_by_first_letter(A2)
    tr = M.truncate(1)
    free = FpModule.free(A2, [1])
    for j in range(8):
        assert tr.hilbert(j) == (free.hilbert(j) if j >= 1 else 0)
    profile = tr.stable_profile()
    assert (profile.i0, profile.t0) == (1, 1)


def test_stable_profile_examples(A2):
    R = FpModule.free(A2, [0])
    p = R.stable_profile()
    assert (p.i0, p.t0) == (0, 1)
    assert [p.t(i) for i in range(5)] == [1, 2, 4, 8, 16]

    k = FpModule.residue(A2)
    pk = k.stable_profile()
    assert pk.t0 == 0 and pk.i0 == 1

    M = quotient_by_first_letter(A2)
    pm = M.stable_profile()
    assert (pm.i0, pm.t0) == (1, 1)
    assert [pm.t(i) for i in range(1, 6)] == [1, 2, 4, 8, 16]


def test_profile_free_tail_hilbert_identity(A2):
    mods = [
        FpModule.free(A2, [0]),
        FpModule.residue(A2),
        quotient_by_first_letter(A2),
        FpModule.tail_quotient(A2, 3),
        FpModule.free(A2, [2]).direct_sum(quotient_by_first_letter(A2)),
    ]
    for M in mods:
        p = M.stable_profile()
        for j in range(p.i0, p.i0 + 5):
            assert M.hilbert(j) == p.t(j)


def test_is_fdim(A2):
    assert not FpModule.free(A2, [0]).is_fdim()
    assert FpModule.residue(A2).is_fdim()
    assert not quotient_by_first_letter(A2).is_fdim()


def test_k0_class_examples(A2):
    for i in range(5):
        cls = FpModule.free(A2, [i]).k0_class()
        assert cls.value == Fraction(1, 2**i)
    assert FpModule.residue(A2).k0_class().value == 0
    assert quotient_by_first_letter(A2).k0_class().value == Fraction(1, 2)


def test_k0_additive_on_kernel_sequences(A2):
    rng = make_rng(5)
    for _ in range(8):
        phi = random_module_map(rng, A2, [rng.randint(1, 2) for _ in range(3)], [0])
        K = kernel(phi)
        src = FpModule(phi.source, [])
        img = FpModule(phi.source, list(K.elements))
        ker_free = FpModule.free(A2, list(K.degrees()))
        assert (
            src.k0_class().value
            == ker_free.k0_class().value + img.k0_class().value
        )


def test_shift_and_direct_sum(A2):
    M = quotient_by_first_letter(A2)
    S = M.shift(-2)
    # degrees move up by 2
    for j in range(8):
        assert S.hilbert(j) == M.hilbert(j - 2)
    D = S.direct_sum(FpModule.free(A2, [0]))
    for j in range(8):
        assert D.hilbert(j) == S.hilbert(j) + 2**j


def test_morphism_descent_validation(A2):
    M = quotient_by_first_letter(A2)
    R = FpModule.free(A2, [0])
    # identity on covers does not send Rx0 into 0
    with pytest.raises(ValueError):
        FpModuleMorphism(M, R, ModuleMap.identity(M.F0))
    # but the quotient map R -> M is fine
    q = FpModuleMorphism(R, M, ModuleMap.identity(R.F0))
    m1 = q.matrix_in_degree(1)
    assert (m1.nrows, m1.ncols) == (2, 1)


def test_zero_module_edge_cases(A2):
    Z = FpModule.free(A2, [])
    assert Z.hilbert(0) == 0
    p = Z.stable_profile()
    assert (p.i0, p.t0) == (0, 0)
    assert Z.is_fdim()
    assert Z.k0_class().is_zero()
    assert Z.torsion().dimension == 0
    full = FpModule(A2.free_module([0]), [A2.free_module([0]).from_polys([A2.one()])])
    assert all(full.hilbert(j) == 0 for j in range(4))
    assert full.k0_class().is_zero()


def test_morphism_matrix_composes(A2):
    R = FpModule.free(A2, [0])
    M = quotient_by_first_letter(A2)
    q = FpModuleMorphism(R, M, ModuleMap.identity(R.F0))
    idm = FpModuleMorphism.identity(M)
    comp = q.compose(idm)
    for j in range(4):
        assert comp.matrix_in_degree(j) == q.matrix_in_degree(j)
