from fractions import Fraction

import pytest

from freeproj import FreeAlgebra, FpModule
from freeproj.af_s import AFMatrix
from freeproj.errors import (
    NotExactInput,
    NotExpressibleAtTwist,
    RankNotStabilized,
    TruncationNotFree,
)
from freeproj.fpmod import FpModuleMorphism
from freeproj.freealg import ModuleMap
from freeproj.qgr import (
    DecompositionPair,
    QgrClass,
    QgrObject,
    decompose,
    ext1_k_R_dim,
    gamma,
    hom_space,
    induced_endo_matrix,
    is_isomorphic,
    normalized_rank,
    pi_star,
    split_sequence,
    tower_square_commutes,
    tower_transition,
    twist,
)
from freeproj.randgen import make_rng, random_af, random_exact_sequence
from freeproj.submodules import kernel


def letter_quotient(A):
    return FpModule.cyclic(A, [A.gen(0)])


# ---------------------------------------------------------------------------
# classes


def test_class_normal_form():
    assert (QgrClass(4, 0, 2).t, QgrClass(4, 0, 2).i) == (1, -2)
    assert (QgrClass(6, 0, 2).t, QgrClass(6, 0, 2).i) == (3, -1)
    assert (QgrClass(1, 1, 2).t, QgrClass(1, 1, 2).i) == (1, 1)
    assert (QgrClass(2, 1, 2).t, QgrClass(2, 1, 2).i) == (1, 0)
    assert (QgrClass(0, 5, 2).t, QgrClass(0, 5, 2).i) == (0, 0)
    assert QgrClass(7, 0, 1).i == 0


def test_class_equality_cross_multiplied():
    assert QgrClass(2, 1, 2) == QgrClass(1, 0, 2)
    assert QgrClass(1, 2, 2) != QgrClass(1, 1, 2)
    assert QgrClass.from_fraction(Fraction(3, 4), 2).value == Fraction(3, 4)


def test_class_arithmetic():
    half = QgrClass(1, 1, 2)
    one = QgrClass(1, 0, 2)
    assert (half + half) == one
    assert (one - half) == half
    assert half.twisted(1) == one
    assert half.twisted(-2).value == Fraction(1, 8)
    with pytest.raises(ValueError):
        half - one  # classes are nonnegative


def test_class_membership_across_rings():
    half = QgrClass(1, 1, 2)
    assert half.expressible_in(2)
    assert not half.expressible_in(3)
    third = QgrClass(1, 1, 3)
    assert not third.expressible_in(2)
    assert QgrClass(5, 0, 2).expressible_in(3)


# ---------------------------------------------------------------------------
# objects


def test_pi_star_examples(A2):
    assert pi_star(FpModule.free(A2, [0])).cls == QgrClass(1, 0, 2)
    assert pi_star(FpModule.residue(A2)).is_zero()
    assert pi_star(letter_quotient(A2)).cls == QgrClass(1, 1, 2)


def test_pi_star_invariant_under_truncation(A2):
    for M in (FpModule.free(A2, [0]), letter_quotient(A2), FpModule.tail_quotient(A2, 2)):
        F = pi_star(M)
        for i in range(0, 6):
            assert is_isomorphic(F, pi_star(M.truncate(i)))


def test_is_isomorphic_examples(A2):
    O = QgrObject.structure(2)
    assert is_isomorphic(O, QgrObject.twisted_sum(2, -1, 2))
    assert not is_isomorphic(O, QgrObject.twisted_sum(2, 1, 1))
    assert is_isomorphic(QgrObject.zero(2), QgrObject.zero(2))


def test_twist_examples(A2):
    O = QgrObject.structure(2)
    assert twist(O, 1).cls == QgrClass(2, 0, 2)
    assert twist(O, 0) == O
    half = pi_star(letter_quotient(A2))
    assert twist(half, 1).cls == QgrClass(1, 0, 2)
    assert twist(twist(half, 3), -3) == half


def test_decompose_examples():
    O = QgrObject.structure(2)
    assert decompose(O, -1) == 2
    assert decompose(O, -3) == 8
    with pytest.raises(NotExpressibleAtTwist):
        QgrObject(2, QgrClass(1, 1, 2)).decompose(0)
    assert QgrObject.zero(2).decompose(5) == 0


def test_far_classes_use_exponents_only():
    # 2^(10^12) is never formed: normal form, twist and multiplicity read
    # the exponents
    far = QgrClass(12, 10**12, 2)
    assert (far.t, far.i) == (3, 10**12 - 2)
    assert far.twisted(10**12) == QgrClass(3, -2, 2)
    assert far.multiplicity_at(-(10**12)) == 12
    with pytest.raises(NotExpressibleAtTwist):
        far.multiplicity_at(3 - 10**12)
    assert QgrClass(5, 10**12, 1).multiplicity_at(10**12) == 5
    assert QgrObject.twisted_sum(2, -(10**12), 3).cls == QgrClass(3, 10**12, 2)


# ---------------------------------------------------------------------------
# the sections functor


def test_gamma_dimensions(A2):
    R = FpModule.free(A2, [0])
    for r in range(4):
        assert gamma(R, r).dimension() == 2 ** (2 * r)
    k = FpModule.residue(A2)
    assert gamma(k, 1).dimension() == 0
    assert gamma(FpModule.free(A2, [1]), 2).dimension() == 8


def test_gamma_transition_injective_and_equivariant(A2):
    rng = make_rng(17)
    R = FpModule.free(A2, [0])
    for r in (1, 2, 3):
        G = gamma(R, r)
        for _ in range(10):
            rows = [
                {c: rng.randint(-2, 2) for c in range(R.hilbert(r)) if rng.random() < 0.5}
                for _ in range(G.word_count)
            ]
            f = G.element([{c: v for c, v in row.items() if v} for row in rows])
            s = random_af(rng, 2, r, A2.field)
            lhs = f.act(s).transition()
            rhs = f.transition().act(s.embed(r + 1))
            assert lhs == rhs
            if not f.is_zero():
                assert not f.transition().is_zero()


def test_gamma_of_structure_is_matrix_algebra(A2):
    # for the free module of rank one, the level-r sections space has the
    # dimension of the level-r matrix algebra and the action is faithful
    R = FpModule.free(A2, [0])
    G = gamma(R, 2)
    assert G.dimension() == 16
    f = G.basis_element((0, 1), 2)
    e = AFMatrix.matrix_unit(2, (0, 1), (1, 1))
    assert not f.act(e).is_zero()


# ---------------------------------------------------------------------------
# normalized ranks


def test_normalized_rank_examples(A2):
    R = FpModule.free(A2, [0])
    for r in range(4):
        assert normalized_rank(R, r) == 1
    assert normalized_rank(FpModule.free(A2, [1]), 3) == Fraction(1, 2)
    k = FpModule.residue(A2)
    assert normalized_rank(k, 1) == 0
    with pytest.raises(RankNotStabilized):
        normalized_rank(FpModule.free(A2, [2]), 1)


def test_normalized_rank_constant_and_equals_class(A2):
    mods = [
        FpModule.free(A2, [0]),
        letter_quotient(A2),
        FpModule.tail_quotient(A2, 2),
        letter_quotient(A2).shift(-1).direct_sum(FpModule.free(A2, [2])),
    ]
    for M in mods:
        i0 = M.stable_profile().i0
        cls = M.k0_class().value
        for r in range(i0, i0 + 4):
            assert normalized_rank(M, r) == cls


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_space_dimensions(A2):
    O = QgrObject.structure(2)
    for r in range(4):
        assert hom_space(O, O, r).dimension() == 2 ** (2 * r)
    Om1 = QgrObject.twisted_sum(2, -1, 1)
    assert hom_space(Om1, Om1, 2).dimension() == 16
    zero = QgrObject.zero(2)
    assert hom_space(O, zero, 3).dimension() == 0


def test_hom_space_composition_and_identity():
    rng = make_rng(29)
    d = 2
    F = QgrObject.twisted_sum(d, -1, 1)
    G = QgrObject.twisted_sum(d, -1, 2)
    H = QgrObject.twisted_sum(d, -1, 1)
    r = 1
    HF = hom_space(F, G, r)
    HG = hom_space(G, H, r)

    def rand_elem(space):
        return space.element(
            [
                [random_af(rng, d, r, space.field) for _ in range(space.A)]
                for _ in range(space.B)
            ]
        )

    f = rand_elem(HF)
    g = rand_elem(HG)
    h = rand_elem(hom_space(H, F, r))
    assert h.compose(g.compose(f)) == h.compose(g).compose(f)
    assert f.compose(hom_space(F, F, r).identity()) == f
    # G has class 1, so its endomorphism space must be held at twist 1
    # to compose with maps written as sums of copies of O(-1)
    assert hom_space(G, G, r, twist_m=1).identity().compose(f) == f


def test_matrix_unit_embedding_nontrivial_object(A2):
    # a fractional-class object also carries the full level-r matrix algebra
    F = QgrObject(2, QgrClass(3, 1, 2))  # class 3/2, three copies of O(-1)
    H = hom_space(F, F, 2)
    assert (H.A, H.B) == (3, 3)
    e00 = H.matrix_unit_embedding((0, 0), (0, 0))
    e01 = H.matrix_unit_embedding((0, 0), (0, 1))
    e10 = H.matrix_unit_embedding((0, 1), (0, 0))
    assert e01.compose(e10).entries[0][0] == AFMatrix.matrix_unit(2, (0, 0), (0, 0))
    assert e10.compose(e01).entries[0][0] == AFMatrix.matrix_unit(2, (0, 1), (0, 1))
    assert e00.compose(e00) == e00
    total = H.zero()
    for w in A2.words(2):
        total = total + H.matrix_unit_embedding(w, w)
    assert total == H.identity()
    # zero divisors in the endomorphism ring: it is not a division ring
    assert e00.compose(e01.compose(e01)) == H.zero()


def test_matrix_unit_embedding_is_unital_and_multiplicative(A2):
    O = QgrObject.structure(2)
    r = 1
    H = hom_space(O, O, r)
    units = {}
    for u in A2.words(r):
        for v in A2.words(r):
            units[(u, v)] = H.matrix_unit_embedding(u, v)
    total = units[((0,), (0,))] + units[((1,), (1,))]
    assert total == H.identity()
    assert units[((0,), (1,))].compose(units[((1,), (0,))]) != H.zero()
    # E_uv o E_wz = delta_{v w} E_uz, with composition applying the right one first
    prod = units[((0,), (1,))].compose(units[((0,), (0,))])
    assert prod == H.zero()
    prod2 = units[((0,), (1,))].compose(units[((1,), (1,))])
    assert prod2.entries[0][0] == AFMatrix.matrix_unit(2, (0,), (1,))
    # zero divisors exist, so the endomorphism ring is not a division ring
    assert not units[((0,), (1,))].entries[0][0].is_zero()


# ---------------------------------------------------------------------------
# the explicit decomposition of the structure object


@pytest.mark.parametrize("r", [1, 2, 3])
def test_decomposition_pair_composes_to_identities(A2, r):
    pair = DecompositionPair(A2, r)
    assert pair.verify(4)


def test_decomposition_pair_matches_class_arithmetic(A2):
    O = QgrObject.structure(2)
    for r in (1, 2, 3):
        assert decompose(O, -r) == 2**r == len(DecompositionPair(A2, r).words)


# ---------------------------------------------------------------------------
# splitting


def test_split_projection_of_point_sequence(A2):
    x0, x1 = A2.gen(0), A2.gen(1)
    k_mod = FpModule.residue(A2)
    R = FpModule.free(A2, [0])
    L = FpModule.free(A2, [1, 1])
    f = FpModuleMorphism(L, R, ModuleMap(L.F0, R.F0, [[x0], [x1]]))
    g = FpModuleMorphism(R, k_mod, ModuleMap.identity(R.F0))
    sec = split_sequence(f, g, 1)
    assert sec.verify()


def test_split_kernel_sequence(A2):
    x0, x1 = A2.gen(0), A2.gen(1)
    src = A2.free_module([1, 1, 1])
    phi = ModuleMap(src, A2.free_module([0]), [[x0], [x1], [x0]])
    K = kernel(phi)
    M = FpModule(src, [])
    N = FpModule(src, list(K.elements))
    L = FpModule.free(A2, list(K.degrees()))
    f = FpModuleMorphism(L, M, ModuleMap(L.F0, src, [b.polys() for b in K.elements]))
    g = FpModuleMorphism(M, N, ModuleMap.identity(src))
    sec = split_sequence(f, g, 1, degrees=4)
    assert sec.verify()
    assert sorted(sec.matrices) == [1, 2, 3, 4, 5]


def test_split_already_split_sum(A2):
    MA = FpModule.free(A2, [0])
    MB = letter_quotient(A2)
    S = MA.direct_sum(MB)
    fin = FpModuleMorphism(MA, S, ModuleMap(MA.F0, S.F0, [[A2.one(), A2.zero()]]))
    gout = FpModuleMorphism(S, MB, ModuleMap(S.F0, MB.F0, [[A2.zero()], [A2.one()]]))
    sec = split_sequence(fin, gout, MB.stable_profile().i0)
    assert sec.verify()


def test_split_with_non_free_middle(A2):
    # 0 -> R -> (R/Rx0) + R -> R/Rx0 -> 0, inclusion of the free summand
    Q = letter_quotient(A2)
    S = Q.direct_sum(FpModule.free(A2, [0]))
    L = FpModule.free(A2, [0])
    f = FpModuleMorphism(L, S, ModuleMap(L.F0, S.F0, [[A2.zero(), A2.one()]]))
    g = FpModuleMorphism(S, Q, ModuleMap(S.F0, Q.F0, [[A2.one()], [A2.zero()]]))
    sec = split_sequence(f, g, Q.stable_profile().i0, degrees=3)
    assert sec.verify()


def test_gamma_on_a_quotient_module(A2):
    M = letter_quotient(A2)
    G = gamma(M, 2)
    assert G.dimension() == 4 * M.hilbert(2)
    f = G.basis_element((0, 1), 0)
    # equivariance survives the quotient structure
    s = AFMatrix.matrix_unit(2, (1, 1), (0, 1))
    assert f.act(s).transition() == f.transition().act(s.embed(3))


def test_split_rejects_non_exact(A2):
    R = FpModule.free(A2, [0])
    L = FpModule.free(A2, [1])
    f = FpModuleMorphism(L, R, ModuleMap(L.F0, R.F0, [[A2.gen(0)]]))
    g = FpModuleMorphism(R, R, ModuleMap.identity(R.F0))
    with pytest.raises(NotExactInput):
        split_sequence(f, g, 1)


def test_split_rejects_early_truncation(A2):
    f, g = random_exact_sequence(make_rng(4), A2)
    i0 = g.target.stable_profile().i0
    if i0 > 0:
        with pytest.raises(TruncationNotFree):
            split_sequence(f, g, i0 - 1)


def test_split_random_sequences(A2):
    rng = make_rng(41)
    for _ in range(6):
        f, g = random_exact_sequence(rng, A2)
        i0 = g.target.stable_profile().i0
        sec = split_sequence(f, g, i0, degrees=3)
        assert sec.verify()


# ---------------------------------------------------------------------------
# the endomorphism tower diagram


def test_tower_square_commutes_random(A2):
    rng = make_rng(13)
    for level in (0, 1, 2, 3):
        for _ in range(10):
            f = random_af(rng, 2, level, A2.field)
            assert tower_square_commutes(f, 3)


def test_induced_endo_matches_hand_example(A2):
    f = AFMatrix.matrix_unit(2, (0,), (1,))
    m = induced_endo_matrix(f, 2)
    # on degree-2 words, prefix p stays, suffix 1 becomes 0: e.g. x0x1 -> x0x0
    r = {w: i for i, w in enumerate(A2.words(2))}
    assert m[r[(0, 0)]][r[(0, 1)]] == 1
    assert m[r[(1, 0)]][r[(1, 1)]] == 1
    assert sum(v != 0 for row in m for v in row) == 2
    assert tower_transition(f).level == 2


# ---------------------------------------------------------------------------
# Ext^1 dimensions


@pytest.mark.parametrize("d", [2, 3])
def test_ext1_matches_closed_form(d):
    A = FreeAlgebra(d)
    assert ext1_k_R_dim(A, -1) == d
    for j in range(0, 6):
        assert ext1_k_R_dim(A, j) == (d * d - 1) * d**j


def test_ext1_specific_values():
    assert ext1_k_R_dim(FreeAlgebra(2), -1) == 2
    assert ext1_k_R_dim(FreeAlgebra(2), 0) == 3
    assert ext1_k_R_dim(FreeAlgebra(3), 2) == 72
