from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest
from leavitt_oracle import word_unrank
from section_oracle import section_matrices as oracle_section_matrices
from section_oracle import solve_split_sequence
from test_fpmod import assert_morphism_matrix_matches_oracle, coefficients, count_calls, draw_element, typed_rows
from test_submodules import module_maps

from freeproj import fpmod, qgr, verify

from freeproj import FreeAlgebra, FpModule
from freeproj.af_s import AFMatrix
from freeproj.errors import (
    NotExactInput,
    NotExpressibleAtTwist,
    RankNotStabilized,
    TruncationNotFree,
)
from freeproj.fields import GF, QQ
from freeproj.fpmod import FpModuleMorphism
from freeproj.freealg import ModuleMap
from freeproj.linalg import SparseMatrix, rank
from freeproj.qgr import (
    DecompositionPair,
    QgrClass,
    QgrObject,
    ext1_k_R_dim,
    is_isomorphic,
    normalized_rank,
    pi_star,
    split_sequence,
)
from freeproj.randgen import make_rng, random_af, random_exact_sequence
from freeproj.submodules import kernel
from freeproj.verify import run_criterion


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
    assert QgrClass(3, 2, 2).value == Fraction(3, 4)
    assert QgrClass(12, 4, 2) == QgrClass(3, 2, 2)


def test_value_is_the_fraction_of_its_powers():
    # every normal form t * d^(-i) of t = 0..40, i = -4..6 at d = 1..6, in
    # value and in type, against the product of Fractions
    forms = 0
    for d in range(1, 7):
        for t in range(41):
            for i in range(-4, 7):
                cls = QgrClass(t, i, d)
                if (cls.t, cls.i) == (t, i):
                    got, want = cls.value, Fraction(t) * Fraction(d) ** (-i)
                    assert (type(got), got) == (type(want), want)
                    forms += 1
    # at d = 1 and at t = 0 only i = 0 is a normal form; at d >= 2 every i is, for each t > 0 prime to d
    assert forms == 41 + sum(1 + 11 * sum(1 for t in range(1, 41) if t % d) for d in range(2, 7))


def test_class_arithmetic():
    half = QgrClass(1, 1, 2)
    one = QgrClass(1, 0, 2)
    # sums and differences over the common exponent 1: t * 2^-1
    total = QgrClass(half.t + half.t, 1, 2)
    assert total == one and total.value == half.value + half.value
    diff = QgrClass(2 * one.t - half.t, 1, 2)
    assert diff == half and diff.value == one.value - half.value
    quarter = QgrClass(half.t, half.i + 2, 2)
    assert quarter == QgrClass(1, 3, 2) and quarter.value == half.value / 4
    with pytest.raises(ValueError):
        QgrClass(half.t - 2 * one.t, 1, 2)  # classes are nonnegative
    with pytest.raises(ValueError):
        QgrClass(-1, 0, 2)


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
    assert pi_star(FpModule.residue(A2)).cls == QgrClass(0, 0, 2)
    assert pi_star(letter_quotient(A2)).cls == QgrClass(1, 1, 2)


def test_pi_star_invariant_under_truncation(A2):
    for M in (FpModule.free(A2, [0]), letter_quotient(A2), FpModule.tail_quotient(A2, 2)):
        F = pi_star(M)
        for i in range(0, 6):
            assert is_isomorphic(F, pi_star(M.truncate(i)))


def test_is_isomorphic_examples(A2):
    O = pi_star(FpModule.free(A2, [0]))
    assert is_isomorphic(O, pi_star(FpModule.free(A2, [1, 1])))
    assert not is_isomorphic(O, pi_star(FpModule.free(A2, [-1])))
    assert is_isomorphic(QgrObject(2, QgrClass(0, 0, 2)), pi_star(FpModule.residue(A2)))


def test_twist_examples(A2):
    # the twist M(m) of a module multiplies its class by d^m
    O = pi_star(FpModule.free(A2, [0]))
    assert QgrObject(2, QgrClass(1, -1, 2), (0, 2)).cls == QgrClass(2, 0, 2)
    assert QgrObject(2, QgrClass(1, 0, 2)) == O
    assert pi_star(FpModule.free(A2, [0]).shift(1)).cls == QgrClass(2, 0, 2)
    M = letter_quotient(A2)
    half = pi_star(M)
    assert pi_star(M.shift(1)).cls == QgrClass(1, 0, 2)
    assert pi_star(M.shift(3).shift(-3)) == half


def test_decompose_examples(A2):
    O = pi_star(FpModule.free(A2, [0]))
    assert O.decompose(-1) == 2
    assert O.decompose(-3) == 8
    with pytest.raises(NotExpressibleAtTwist):
        QgrObject(2, QgrClass(1, 1, 2)).decompose(0)
    assert QgrObject(2, QgrClass(0, 0, 2)).decompose(5) == 0


def test_far_classes_use_exponents_only():
    # 2^(10^12) is never formed: normal form and multiplicity read the
    # exponents
    far = QgrClass(12, 10**12, 2)
    assert (far.t, far.i) == (3, 10**12 - 2)
    assert far.multiplicity_at(-(10**12)) == 12
    with pytest.raises(NotExpressibleAtTwist):
        far.multiplicity_at(3 - 10**12)
    assert QgrClass(5, 10**12, 1).multiplicity_at(10**12) == 5
    far_sum = QgrObject(2, QgrClass(3, 10**12, 2))
    assert far_sum.witness == (10**12, 3) and far_sum.decompose(-(10**12)) == 3


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
# endomorphisms of the structure object


def test_matrix_unit_embedding_is_unital_and_multiplicative(A2):
    # End(O) is the limit algebra S: the level-r matrix units sit in it
    # unitally, and E_uv * E_wz = delta_{v w} E_uz
    r = 1
    units = {(u, v): AFMatrix.matrix_unit(2, u, v) for u in A2.words(r) for v in A2.words(r)}
    total = units[((0,), (0,))] + units[((1,), (1,))]
    assert total == AFMatrix.scalar(2, 1)
    assert not (units[((0,), (1,))] * units[((1,), (0,))]).is_zero()
    assert (units[((0,), (1,))] * units[((0,), (0,))]).is_zero()
    assert units[((0,), (1,))] * units[((1,), (1,))] == AFMatrix.matrix_unit(2, (0,), (1,))
    # zero divisors exist, so the endomorphism ring is not a division ring
    assert (units[((0,), (1,))] * units[((0,), (1,))]).is_zero()


# ---------------------------------------------------------------------------
# the explicit decomposition of the structure object


@pytest.mark.parametrize("r", [1, 2, 3])
def test_decomposition_pair_composes_to_identities(A2, r):
    pair = DecompositionPair(A2, r)
    assert pair.verify(4)


def test_decomposition_pair_matches_class_arithmetic(A2):
    O = pi_star(FpModule.free(A2, [0]))
    for r in (1, 2, 3):
        assert O.decompose(-r) == 2**r == len(DecompositionPair(A2, r).words)


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


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("d", [2, 3])
def test_sections_match_word_level_oracle(field, d):
    # the one-letter recursion and the word-level loop give equal matrices,
    # in value: their rows may list columns in another order, and
    # test_sections_match_solve_oracle holds the key order
    A = FreeAlgebra(d, field)
    rng = make_rng(100 + d)
    for _ in range(15):
        f, g = random_exact_sequence(rng, A)
        i0 = g.target.stable_profile().i0
        for i in (i0, i0 + 1):
            sec = split_sequence(f, g, i, degrees=3)
            assert sec.matrices == oracle_section_matrices(g, i, degrees=3)


def typed_matrices(matrices):
    """{j: sigma_j} with shapes, row key order and value types made visible;
    SparseMatrix == compares rows as dicts, which ignores key order."""
    return [(j, m.nrows, m.ncols, typed_rows(m)) for j, m in matrices.items()]


def sequence_of(phi):
    """0 -> ker phi -> M -> M / ker phi -> 0 with M free on phi's source, as
    `bench/ops.py` builds it for sections; None when the kernel is zero."""
    K = kernel(phi)
    if not K.elements:
        return None
    A, S = phi.source.algebra, phi.source
    M, N = FpModule(S, []), FpModule(S, list(K.elements))
    L = FpModule(A.free_module(list(K.degrees())), [])
    f = FpModuleMorphism(L, M, ModuleMap(L.F0, S, [b.polys() for b in K.elements]))
    return f, FpModuleMorphism(M, N, ModuleMap.identity(S))


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(module_maps())
def test_sections_match_solve_oracle(phi):
    # QQ with fractions and GF(7), d = 1..3; the oracle gets fresh modules
    seq = sequence_of(phi)
    hypothesis.assume(seq is not None)
    i0 = seq[1].target.stable_profile().i0
    for i in (i0, i0 + 1):
        got = split_sequence(*seq, i, degrees=3)
        want = solve_split_sequence(*sequence_of(phi), i, degrees=3)
        assert typed_matrices(got.matrices) == typed_matrices(want.matrices)
        assert got.verify()


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_sections_at_degrees_8_match_solve_oracle(field):
    # eight degrees past i reach past every free bound, where split_sequence
    # checks no further and builds sigma by moving columns: every matrix is
    # still the solving loop's, which checks each degree, in value, type and
    # key order
    A = FreeAlgebra(2, field)
    for seed in range(800, 804):
        f, g = random_exact_sequence(make_rng(seed), A)
        i = g.target.stable_profile().i0
        got = split_sequence(f, g, i, degrees=8)
        want = solve_split_sequence(*random_exact_sequence(make_rng(seed), A), i, degrees=8)
        assert typed_matrices(got.matrices) == typed_matrices(want.matrices)
        assert got.verify()


def test_free_tail_lifts_solve_nothing(monkeypatch):
    # N = (R + R(-2)) / R (x0 x0, -1), the image R of e0 -> 1, e1 -> x0 x0:
    # i0 = 0 below its free bound 2, so degrees j with j - 1 < 2 solve and
    # the rest are read off the layout
    calls = count_calls(monkeypatch, qgr, ["solve_left"])
    A2 = FreeAlgebra(2)
    x0 = A2.gen(0)
    S = A2.free_module([0, 2])
    phi = ModuleMap(S, A2.free_module([0]), [[A2.one()], [x0 * x0]])
    f, g = sequence_of(phi)
    N = g.target
    assert (N.stable_profile().i0, N._free_bound()) == (0, 2)
    sec = split_sequence(f, g, 0, degrees=4)
    assert sec.verify()
    assert calls["solve_left"] == 3
    assert typed_matrices(sec.matrices) == typed_matrices(solve_split_sequence(*sequence_of(phi), 0, 4).matrices)


# ---------------------------------------------------------------------------
# past both free bounds: morphism and section matrices by moving columns


@st.composite
def tail_presentations(draw):
    """(F, R, K, order) over QQ (with fractions) or GF(5), d = 2 or 3: F free
    on 1-3 coordinates of distinct shifts, M = F / R and N = F / (R + K),
    with order the sign of bound(M) - bound(N).  The order is drawn first:
    equal bounds keep R and K within the top shift s; a K element of degree
    s + 1 lifts N's bound; and a relation of degree s + 1 at the coordinate
    alpha of shift s lifts M's bound, while K holds e_alpha, which cuts it
    from N's relations.  The test rejects the draws whose bounds miss it."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    A = FreeAlgebra(draw(st.sampled_from([2, 3])), field)
    shifts = draw(st.lists(st.integers(0, 4 - A.d), min_size=1, max_size=3, unique=True))
    F = A.free_module(shifts)
    order = draw(st.sampled_from([-1, 0, 1]) if len(shifts) > 1 else st.sampled_from([-1, 0]))
    coef = coefficients(field, fractions=True)
    s, alpha = max(shifts), shifts.index(max(shifts))

    def elements(count, top):
        return [draw_element(draw, F, draw(st.integers(min(shifts), top)), coef) for _ in range(count)]

    R = elements(draw(st.integers(0, 2)), s)
    K = elements(draw(st.integers(order >= 0, 2)), s)
    if order < 0:
        K.append(draw_element(draw, F, s + 1, coef))
    elif order > 0:
        R.append(F.element({(alpha, (draw(st.integers(0, A.d - 1)),)): field.one}))
        K.append(F.gen(alpha))
    hypothesis.assume(any(not k.is_zero() for k in K))
    return F, R, K, order


def bound_gap():
    """(F, R, K, 1) for F = R + R(-1), M = F / (x0 e1) and N = F / (x0 e1, e1):
    bound(M) = 2 > bound(N) = 1 and i0(N) = 0, so a section from 0 reaches
    degree 2, past N's free bound but not past M's."""
    F = FreeAlgebra(2).free_module([0, 1])
    return F, [F.element({(1, (0,)): 1})], [F.gen(1)], 1


def nonzero_tail(d, field, order):
    """(F, R, K, order) for F = R + R(-1) at d letters over field whose L, M
    and N are all nonzero past their free bounds, so that the column moves
    of f, g and the sections act on nonzero matrices; by order:
    0: M = F / (x1 e0 - 3/2 x0 e0), N = M / (x0 e0 - 1/2 e1), L free on the
       K element;
    1: M = F / (x0 e1) with bound 2 > bound(N) = 1, N = F / (x0 e1, e1)
       free on e0, L = R(-1) / R x0;
    -1: M = F, N = F / (x1 x0 e0 - 2/3 x0 e1) with bound 2 > bound(M) = 1,
       L free on the K element."""
    F = FreeAlgebra(d, field).free_module([0, 1])

    def element(terms):
        return F.element({mon: field.coerce(c) for mon, c in terms.items()})

    if order == 0:
        R = [element({(0, (1,)): 1, (0, (0,)): Fraction(-3, 2)})]
        K = [element({(0, (0,)): 1, (1, ()): Fraction(-1, 2)})]
    elif order > 0:
        R, K = [element({(1, (0,)): 1})], [F.gen(1)]
    else:
        R, K = [], [element({(0, (1, 0)): 1, (1, (0,)): Fraction(-2, 3)})]
    return F, R, K, order


# pinned in `test_tail_matrices_and_sections_match_oracles`, the only draws on
# which it asserts the tails nonzero: a random draw is zero there about half
# the time, and a coverage assertion over random draws fails on some seeds
NONZERO_TAILS = (nonzero_tail(2, QQ, 0), nonzero_tail(2, GF(5), 1),
                 nonzero_tail(3, QQ, -1), nonzero_tail(3, GF(5), 0))


def tail_sequence(F, R, K):
    """0 -> L -> F / R -> F / (R + K) -> 0, L the image of K presented, each
    call on fresh modules."""
    K = [k for k in K if not k.is_zero()]
    M, N = FpModule(F, R), FpModule(F, R + K)
    L = M.submodule_presentation(K)
    f = FpModuleMorphism(L, M, ModuleMap(L.F0, F, [k.polys() for k in K]))
    return f, FpModuleMorphism(M, N, ModuleMap.identity(F))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(tail_presentations())
@hypothesis.example(bound_gap())
@hypothesis.example(NONZERO_TAILS[0])
@hypothesis.example(NONZERO_TAILS[1])
@hypothesis.example(NONZERO_TAILS[2])
@hypothesis.example(NONZERO_TAILS[3])
def test_tail_matrices_and_sections_match_oracles(presentation):
    # the inclusion f and the quotient g against the per-monomial oracle, and
    # sections from i0 and from past both bounds against the solving loop run
    # on fresh modules, which reads the oracle's matrices, through two degrees
    # past both bounds: value, type and key order
    F, R, K, order = presentation
    f, g = tail_sequence(F, R, K)
    L, M, N = f.source, g.source, g.target
    bm, bn = M._free_bound(), N._free_bound()
    hypothesis.assume((bm > bn) - (bm < bn) == order)
    if any(presentation is pinned for pinned in NONZERO_TAILS):
        k = fpmod._tail_from(L, M, N)
        assert L.hilbert(k) and M.hilbert(k) and N.hilbert(k)
    hypothesis.event(f"d = {F.algebra.d}, {F.algebra.field}, bound order {order}")
    top = max(bm, bn) + 2
    for phi in (f, g):
        for j in range(phi.source.min_degree - 1, top + 1):
            assert_morphism_matrix_matches_oracle(phi, j)
    i0 = N.stable_profile().i0
    for i in sorted({i0, max(i0, bm, bn)}):
        got = split_sequence(f, g, i, degrees=top - i)
        want = solve_split_sequence(*tail_sequence(F, R, K), i, degrees=top - i)
        assert typed_matrices(got.matrices) == typed_matrices(want.matrices)
        assert got.verify()


def test_section_past_the_quotient_bound_alone_matches_solve_oracle():
    # degree 2 of this section from 0 solves against N's stacked letter
    # matrices, as every degree below both free bounds does; degree 3 on moves columns
    F, R, K, _ = bound_gap()
    f, g = tail_sequence(F, R, K)
    M, N = g.source, g.target
    assert (M._free_bound(), N._free_bound(), N.stable_profile().i0) == (2, 1, 0)
    got = split_sequence(f, g, 0, degrees=4)
    want = solve_split_sequence(*tail_sequence(F, R, K), 0, degrees=4)
    assert typed_matrices(got.matrices) == typed_matrices(want.matrices)
    assert got.verify()


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.sampled_from([QQ, GF(5)]), st.sampled_from([2, 3]), st.integers(1, 3), st.randoms())
def test_tower_tail_matches_oracle(field, d, level, rng):
    # criterion 8's input: a level-n f with Fraction entries over QQ, as an
    # endomorphism of R(-n)^(d^n), whose bound is n, in degrees n..n+2
    n = d**level
    entries = [[field.coerce(Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2, 3]))) for _ in range(n)]
               for _ in range(n)]
    phi = qgr.tower_morphism(AFMatrix(d, level, entries, field))
    for j in range(level, level + 3):
        assert_morphism_matrix_matches_oracle(phi, j)


def swap_letter_blocks(module, out, k):
    """out, the degree-k tail matrix of a map out of module, with the first
    two letter blocks of its first nonempty source block exchanged."""
    s, n, _ = next(block for block in module._free_layout(k - 1) if block[1])
    a, rows = module.algebra.d * s, list(out.rows)
    rows[a:a + 2 * n] = rows[a + n:a + 2 * n] + rows[a:a + n]
    return SparseMatrix(out.field, out.nrows, out.ncols, rows)


def test_swapped_letter_blocks_fail_splitting_and_tower(monkeypatch):
    # a tail map that exchanges the first two letter blocks of its first
    # nonempty source block: criterion 4's sections and criterion 8's tower
    # restrictions both read their tails through it, and both must fail
    assert run_criterion(4).passed and run_criterion(8).passed
    moved = FpModule._tail_matrix
    monkeypatch.setattr(FpModule, "_tail_matrix", lambda self, prev, target, k: swap_letter_blocks(
        self, moved(self, prev, target, k), k))
    splitting, tower = run_criterion(4), run_criterion(8)
    assert not splitting.passed and not tower.passed
    # the sections are built and fail their own check, sigma_j * G_j = I
    assert all("constructed section fails" in why for _, why in splitting.details["failures"])


def test_a_section_wrong_past_the_checked_range_fails_verify(monkeypatch):
    # split_sequence checks sigma_j * G_j = I through max(i, n) + 1, n the
    # largest free bound; a tail map that swaps two letter blocks of sigma
    # only past there, while the section is built, goes past split_sequence,
    # so Section.verify must refuse it, and criterion 4 reports "verify failed"
    moved, split, past, wrong = FpModule._tail_matrix, qgr.split_sequence, [], []

    def late_swap(self, prev, target, k):
        out = moved(self, prev, target, k)
        if past and k > past[0]:
            wrong.append(k)
            return swap_letter_blocks(self, out, k)
        return out

    def split_with_late_swaps(f, g, i, degrees=4):
        past.append(max(i + 1, fpmod._tail_from(f.source, f.target, g.target)))
        try:
            return split(f, g, i, degrees)
        finally:
            past.clear()

    monkeypatch.setattr(FpModule, "_tail_matrix", late_swap)
    monkeypatch.setattr(verify, "split_sequence", split_with_late_swaps)
    f, g = random_exact_sequence(make_rng(7), FreeAlgebra(2))
    i = g.target.stable_profile().i0
    sec = split_with_late_swaps(f, g, i, degrees=6)
    assert wrong and max(i + 1, fpmod._tail_from(f.source, f.target, g.target)) < min(wrong)
    assert not sec.verify()
    splitting = run_criterion(4)
    assert not splitting.passed and splitting.details["failures"]
    assert all(why == "verify failed" for _, why in splitting.details["failures"])


def test_split_sequence_and_decomposition_refuse_to_check_nothing():
    # a negative degree count would return an empty Section whose verify() is
    # True, and a pair checked in no degree would verify; both are refused
    # before any work
    A2 = FreeAlgebra(2)
    f, g = random_exact_sequence(make_rng(3), A2)
    for degrees in (-1, -3):
        with pytest.raises(ValueError, match="degrees must be nonnegative"):
            split_sequence(f, g, 5, degrees=degrees)
    assert g.target._profile is None and not f._matrix_cache and not g._matrix_cache
    assert list(split_sequence(f, g, g.target.stable_profile().i0, degrees=0).matrices) == [g.target._profile.i0]
    pair = DecompositionPair(A2, 1)
    for degrees in (0, -5):
        with pytest.raises(ValueError, match="degrees must be at least 1"):
            pair.verify(degrees)
    assert pair.verify(1)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(tail_presentations())
@hypothesis.example(bound_gap())
def test_tail_moves_scale_ranks_and_carry_products(presentation):
    # the layout lemma split_sequence leans on, past both free bounds of a
    # map: its rank at k is d times its rank at k - 1, as each Hilbert value
    # is, the move of a product is the product of the moves, and the move of
    # an identity is an identity; over QQ and GF(5), d = 2 and 3
    F, R, K, _ = presentation
    f, g = tail_sequence(F, R, K)
    L, M, N = f.source, f.target, g.target
    d, n = F.algebra.d, fpmod._tail_from(L, M, N) - 1
    sec = split_sequence(f, g, max(N.stable_profile().i0, n), degrees=0)
    sigma, = sec.matrices.values()
    k = max(sec.matrices) + 1
    hypothesis.assume(M.hilbert(k))
    hypothesis.event(f"{F.algebra.field}, L and N nonzero: {bool(L.hilbert(k) and N.hilbert(k))}")
    for phi in (f, g):
        assert rank(phi.matrix_in_degree(k)) == d * rank(phi.matrix_in_degree(k - 1))
    for X in (L, M, N):
        assert X.hilbert(k) == d * X.hilbert(k - 1)
    G, Fk = g.matrix_in_degree(k - 1), f.matrix_in_degree(k - 1)
    assert N._tail_matrix(sigma.mul(G), N, k) == N._tail_matrix(sigma, M, k).mul(M._tail_matrix(G, N, k))
    assert L._tail_matrix(Fk.mul(G), N, k) == L._tail_matrix(Fk, M, k).mul(M._tail_matrix(G, N, k))
    unit = SparseMatrix.identity(F.algebra.field, N.hilbert(k - 1))
    assert N._tail_matrix(unit, N, k) == SparseMatrix.identity(F.algebra.field, N.hilbert(k))


# ---------------------------------------------------------------------------
# the endomorphism tower: the module layer against embed


def restriction(f, degree):
    """The degree-`degree` matrix of `tower_morphism(f)` as
    {(target word, source word): value}, the basis element (alpha, u) of
    R(-n)^(d^n) read as the word u * w_alpha."""
    phi = qgr.tower_morphism(f)
    words = [u + word_unrank(f.d, alpha, f.level) for alpha, u in phi.source.std_basis(degree)]
    return {(words[c], words[p]): v
            for p, row in enumerate(phi.matrix_in_degree(degree).rows) for c, v in row.items()}


def tower_cases():
    rng = make_rng(13)
    for field in (QQ, GF(7)):
        for d in (1, 2, 3):
            for level in (0, 1, 2):
                yield pytest.param([random_af(rng, d, level, field) for _ in range(3)], {},
                                   id=f"{field}-d{d}-level{level}")
    # E_{(0),(1)} sends e_1 to e_0: in degree 2, x0x1 -> x0x0 and x1x1 -> x1x0
    yield pytest.param([AFMatrix.matrix_unit(2, (0,), (1,))], {2: {((0, 0), (0, 1)): 1, ((1, 0), (1, 1)): 1}},
                       id="hand-E01")


def assert_tower_routes_agree(fs, pinned):
    """The module layer's restriction of each f to degrees n..n+2 is
    f.embed there (column convention), and matches any pinned matrix."""
    for f in fs:
        for degree in range(f.level, f.level + 3):
            entries = f.embed(degree).entries
            index = {w: i for i, w in enumerate(FreeAlgebra(f.d).words(degree))}
            embedded = {(v, w): entries[index[v]][index[w]] for v in index for w in index
                        if entries[index[v]][index[w]] != 0}
            assert restriction(f, degree) == embedded == pinned.get(degree, embedded)


@pytest.mark.parametrize("fs, pinned", tower_cases())
def test_tower_restriction_is_embed(fs, pinned):
    assert_tower_routes_agree(fs, pinned)


def test_tower_restriction_catches_a_row_reading(monkeypatch):
    # the helper reading f in row convention, e_alpha -> sum_beta f[alpha][beta] e_beta,
    # fails every case that holds an f other than its transpose
    column_reading = qgr.tower_morphism
    monkeypatch.setattr(qgr, "tower_morphism", lambda f: column_reading(
        AFMatrix(f.d, f.level, list(zip(*f.entries)), f.field)))
    checked = 0
    for case in tower_cases():
        fs, pinned = case.values
        if any(f.entries != tuple(zip(*f.entries)) for f in fs):
            with pytest.raises(AssertionError):
                assert_tower_routes_agree(fs, pinned)
            checked += 1
    assert checked >= 5


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
