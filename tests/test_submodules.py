from fractions import Fraction
from math import lcm

import hypothesis
import hypothesis.strategies as st
import pytest

from freeproj import FpModule, FreeAlgebra, kernel, submodules, weak_basis
from freeproj.fields import GF, QQ
from freeproj.freealg import FreeModuleElement, ModuleMap, NcPoly
from freeproj.randgen import make_rng, random_module_map
from freeproj.submodules import _full_reduce, _lift, _values

import cofactor_oracle
from conftest import span_dim
from random_elements import random_module_element
from std_basis_oracle import find_reducer_by_scan
from test_fpmod import coefficients, draw_element, presented_modules


def poly_mul(elem, p):
    """p * elem, the left multiple by a polynomial, word by word."""
    acc = elem.module.element({})
    for u, c in p.terms.items():
        acc = acc + elem.word_mul(u).scale(c)
    return acc


def reduced(B, e):
    """(normal form, cofactors) of e against B by `_full_reduce`, in field
    values, as `kernel` reads them."""
    F, uses = B.ambient.algebra.field, {}
    nf, W = _full_reduce(F, *_lift(F, e.terms), B._ints, B._by_coord, B._lengths, uses)
    return FreeModuleElement(e.module, _values(nf, W)), uses


def rebuilt(B, g):
    """sum q_i * basis_i over the cofactors of g that `kernel` reads from its
    reduction, which must reduce g to zero."""
    nf, uses = reduced(B, g)
    assert nf.is_zero()
    acc = B.ambient.element({})
    for i, q in uses.items():
        acc = acc + poly_mul(B.elements[i], NcPoly(B.ambient.algebra, q))
    return acc


def syzygies(gens):
    """The syzygies of nonzero homogeneous generators: the kernel of the map
    e_i -> g_i out of the free module on their degrees."""
    R = gens[0].module
    cover = R.algebra.free_module([g.degree() for g in gens])
    return kernel(ModuleMap(cover, R, [g.polys() for g in gens]))


def R_of(A):
    return A.free_module([0])


def test_weak_basis_of_degree_one_generators(A2):
    R = R_of(A2)
    B = weak_basis([R.from_polys([A2.gen(0)]), R.from_polys([A2.gen(1)])])
    assert B.rank == 2
    # the generated submodule is the whole tail from degree 1 on
    for j in range(1, 7):
        assert B.submodule_dim(j) == 2**j
        assert span_dim(list(B.elements), j) == 2**j


def test_weak_basis_drops_left_multiple(A2):
    x0 = A2.gen(0)
    R = R_of(A2)
    B = weak_basis([R.from_polys([x0]), R.from_polys([x0 * x0])])
    assert B.rank == 1
    assert [str(b) for b in B.elements] == ["(x0)"]


def test_weak_basis_mixed_generators(A2):
    x0, x1 = A2.gen(0), A2.gen(1)
    R = R_of(A2)
    gens = [R.from_polys([x0 + x1]), R.from_polys([x0])]
    B = weak_basis(gens)
    assert B.rank == 2
    # membership oracle: x0 and x1 lie in the submodule
    assert B.reduce(R.from_polys([x0])).is_zero()
    assert B.reduce(R.from_polys([x1])).is_zero()
    # degreewise dimensions equal those of a rank-2 free module on degree-1 basis
    for j in range(1, 7):
        assert span_dim(gens, j) == 2**j
        assert B.submodule_dim(j) == 2**j


def test_weak_basis_transformations(A2):
    rng = make_rng(11)
    R = R_of(A2)
    for _ in range(20):
        gens = [
            random_module_element(rng, R, rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        ]
        # from_generators, built on the path `kernel` takes: every basis
        # element is a combination of the inputs
        B = weak_basis(gens, ambient=R, _cofactors=True)
        assert weak_basis(gens, ambient=R).from_generators is None
        for b, row in zip(B.elements, B.from_generators):
            acc = R.element({})
            for i, p in row.items():
                acc = acc + poly_mul(gens[i], p)
            assert acc == b
        # every input reduces to zero, and its cofactors over the basis rebuild it
        for g in gens:
            assert rebuilt(B, g) == g


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(presented_modules(fractions=True))
def test_weak_basis_is_interreduced_and_stable(M):
    B = weak_basis(M.relations, ambient=M.F0)
    leads = [cofactor_oracle.leading_term(b)[0] for b in B.elements]
    for i, b in enumerate(B.elements):
        assert b.terms[leads[i]] == M.algebra.field.one
        # no monomial of b is a left multiple of another element's leading word
        for alpha, w in b.terms:
            for j, (beta, v) in enumerate(leads):
                assert j == i or beta != alpha or len(v) > len(w) or w[len(w) - len(v):] != v
    again = weak_basis(B.elements, ambient=M.F0)
    assert [list(b.terms.items()) for b in again.elements] == [list(b.terms.items()) for b in B.elements]
    for g in M.relations:
        assert rebuilt(B, g) == g


def test_reduce_examples(A2):
    x0, x1 = A2.gen(0), A2.gen(1)
    R = R_of(A2)
    B = weak_basis([R.from_polys([x0])])
    assert B.reduce(R.from_polys([x1 * x0])).is_zero()
    nf = B.reduce(R.from_polys([x0 * x1]))
    assert nf == R.from_polys([x0 * x1])
    assert B.reduce(R.element({})).is_zero()


def test_kernel_of_generator_columns_is_zero(A2):
    x0, x1 = A2.gen(0), A2.gen(1)
    phi = ModuleMap(A2.free_module([1, 1]), R_of(A2), [[x0], [x1]])
    assert kernel(phi).rank == 0


def test_kernel_of_identity_is_zero(A2):
    F = A2.free_module([0, 0])
    assert kernel(ModuleMap.identity(F)).rank == 0


def test_kernel_with_repeated_column(A2):
    x0, x1 = A2.gen(0), A2.gen(1)
    src = A2.free_module([1, 1, 1])
    phi = ModuleMap(src, R_of(A2), [[x0], [x1], [x0]])
    K = kernel(phi)
    assert K.rank == 1
    assert K.degrees() == (1,)
    (b,) = K.elements
    assert phi.apply(b).is_zero()
    # spans the same line as (1, 0, -1)
    target = src.element({(0, ()): 1, (2, ()): -1})
    assert K.reduce(target).is_zero()
    # Hilbert identity degreewise, against brute-force dimensions
    for j in range(1, 7):
        src_dim = src.graded_piece_dim(j)
        im_dim = span_dim(phi.row_elements(), j)
        assert span_dim(list(K.elements), j) == src_dim - im_dim
        assert K.submodule_dim(j) == 3 * 2 ** (j - 1) - 2**j  # = 2^(j-1)


def test_syzygies_resolution_of_point(A2):
    R = R_of(A2)
    gens = [R.from_polys([A2.gen(0)]), R.from_polys([A2.gen(1)])]
    assert syzygies(gens).rank == 0


def test_syzygies_equal_generators(A2):
    R = R_of(A2)
    x0 = A2.gen(0)
    gens = [R.from_polys([x0]), R.from_polys([x0])]
    S = syzygies(gens)
    assert S.rank == 1
    (b,) = S.elements
    cover = b.module
    assert S.reduce(cover.element({(0, ()): 1, (1, ()): -1})).is_zero()


def test_syzygies_left_multiple_pair(A2):
    # x1*x0 is a left multiple of x0, so there is one syzygy, in degree 2,
    # and the syzygy module has the Hilbert function of a rank-one free
    # module on a degree-2 generator.
    R = R_of(A2)
    x0, x1 = A2.gen(0), A2.gen(1)
    gens = [R.from_polys([x1 * x0]), R.from_polys([x0])]
    S = syzygies(gens)
    assert S.rank == 1
    assert S.degrees() == (2,)
    (b,) = S.elements
    acc = R.element({})
    for (l, w), c in b.terms.items():
        acc = acc + gens[l].word_mul(w).scale(c)
    assert acc.is_zero()
    for j in range(2, 7):
        assert span_dim(list(S.elements), j) == 2 ** (j - 2)
    # brute-force cross-check of the degreewise syzygy dimension:
    # dim ker_j = dim source_j - dim image_j
    cover = b.module
    for j in range(1, 7):
        src_dim = cover.graded_piece_dim(j)
        assert src_dim - span_dim(gens, j) == (2 ** (j - 2) if j >= 2 else 0)


def test_syzygies_suffix_disjoint_pair_is_zero(A2):
    # x0*x1 does NOT end in x0, so the two generators interlock nowhere and
    # the syzygy module vanishes; brute force confirms degreewise.
    R = R_of(A2)
    x0, x1 = A2.gen(0), A2.gen(1)
    gens = [R.from_polys([x0 * x1]), R.from_polys([x0])]
    S = syzygies(gens)
    assert S.rank == 0
    for j in range(1, 7):
        cover_dim = 2 ** (j - 2) + 2 ** (j - 1) if j >= 2 else (1 if j == 1 else 0)
        assert span_dim(gens, j) == cover_dim


def test_weak_basis_random_freeness(A2, A3):
    rng = make_rng(23)
    for A in (A2, A3):
        R = R_of(A)
        for _ in range(12):
            gens = [
                random_module_element(rng, R, rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            ]
            B = weak_basis(gens, ambient=R)
            for g in gens:
                assert B.reduce(g).is_zero()
            for j in range(0, 7):
                assert span_dim(gens, j) == B.submodule_dim(j)
            # idempotence: a second pass changes nothing essential
            B2 = weak_basis(list(B.elements), ambient=R)
            assert all(B2.reduce(b).is_zero() for b in B.elements)
            assert all(B.reduce(b).is_zero() for b in B2.elements)


def first_reducer(B, mon):
    """(index, prefix) of the basis element `_full_reduce` reduces the single
    monomial mon by, its first cofactor, or (None, None) when mon is normal."""
    uses: dict = {}
    _full_reduce(B.ambient.algebra.field, {mon: 1}, 1, B._ints, B._by_coord, B._lengths, uses)
    if not uses:
        return None, None
    idx = next(iter(uses))
    return idx, next(iter(uses[idx]))


def test_suffix_lookup_matches_scan():
    # random presentations over QQ and GF(5), d = 1..3 (at d = 1 every word
    # is all 0s), with monomial relations among them so that many leads
    # share a coordinate; every monomial of the relations, of the basis, of
    # random elements and of their normal forms, and every word of length
    # <= 5 at each coordinate, gets the same reducer from `_full_reduce`'s
    # suffix lookup as from the scan
    rng = make_rng(2111)
    checked = found = 0
    for field in (QQ, GF(5)):
        for d in (1, 2, 3):
            A = FreeAlgebra(d, field)
            for _ in range(15):
                F = A.free_module(sorted(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))
                rels = [
                    random_module_element(rng, F, rng.randint(0, 4), max_terms=rng.choice((1, 4)))
                    for _ in range(rng.randint(1, 8))
                ]
                B = FpModule(F, rels).relation_basis()
                elems = rels + list(B.elements)
                elems += [random_module_element(rng, F, rng.randint(0, 6), max_terms=6) for _ in range(6)]
                mons = {mon for g in elems + [B.reduce(g) for g in elems] for mon in g.terms}
                mons.update((alpha, w) for alpha in range(F.rank) for n in range(6) for w in A.words(n))
                for alpha, w in mons:
                    got = first_reducer(B, (alpha, w))
                    assert got == find_reducer_by_scan(alpha, w, B._by_coord), (alpha, w)
                    checked += 1
                    found += got[0] is not None
    assert found > checked // 4  # reducible monomials are well represented


def test_kernel_hilbert_identity_random(A2):
    rng = make_rng(31)
    for _ in range(10):
        phi = random_module_map(rng, A2, [rng.randint(1, 2) for _ in range(3)], [0])
        K = kernel(phi)
        for b in K.elements:
            assert phi.apply(b).is_zero()
        for j in range(0, 6):
            src_dim = phi.source.graded_piece_dim(j)
            im_dim = span_dim(phi.row_elements(), j)
            assert K.submodule_dim(j) == src_dim - im_dim


def test_membership_is_complete_both_ways(A2):
    # elements assembled inside the span reduce to zero; an element whose
    # addition enlarges a graded piece (by rank oracle) must not
    rng = make_rng(47)
    F0 = A2.free_module([0, 1])
    for _ in range(15):
        gens = [
            random_module_element(rng, F0, rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        B = weak_basis(gens, ambient=F0)
        for _ in range(3):
            deg = rng.randint(2, 4)
            acc = F0.element({})
            for g in gens:
                if g.degree() > deg:
                    continue
                u = tuple(rng.randrange(2) for _ in range(deg - g.degree()))
                acc = acc + g.word_mul(u).scale(rng.randint(-2, 2))
            assert B.reduce(acc).is_zero()
        cand = random_module_element(rng, F0, rng.randint(1, 3))
        if cand.is_zero():
            continue
        deg = cand.degree()
        enlarges = span_dim(gens + [cand], deg) > span_dim(gens, deg)
        assert B.reduce(cand).is_zero() == (not enlarges)


def test_reduced_basis_is_order_independent(A2):
    # the monic fully reduced basis of a submodule is canonical, so
    # shuffling the generators cannot change it
    rng = make_rng(53)
    F0 = A2.free_module([0, 1])
    for _ in range(10):
        gens = [random_module_element(rng, F0, rng.randint(1, 3)) for _ in range(4)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        shuffled = gens[:]
        rng.shuffle(shuffled)
        one = {frozenset(b.terms.items()) for b in weak_basis(gens, ambient=F0).elements}
        two = {frozenset(b.terms.items()) for b in weak_basis(shuffled, ambient=F0).elements}
        assert one == two


def test_weak_basis_multicoordinate_ambient(A2):
    F = A2.free_module([0, 1])
    x0, x1 = A2.gen(0), A2.gen(1)
    g1 = F.from_polys([x0 * x1, x1])
    g2 = F.from_polys([A2.zero(), A2.one()])
    B = weak_basis([g1, g2])
    assert B.reduce(g1).is_zero() and B.reduce(g2).is_zero()
    for j in range(1, 6):
        assert span_dim([g1, g2], j) == B.submodule_dim(j)


# ---------------------------------------------------------------------------
# against the weak algorithm that built cofactors for every basis


def typed_terms(terms, value=None):
    """(key, type, value) per term in key order; value, when given, maps each
    value first: the oracle's, through `QQ.coerce`, which are field
    arithmetic's and may hold a Fraction(k, 1) where the library gives k."""
    values = terms.values() if value is None else map(value, terms.values())
    return [(k, type(c), c) for k, c in zip(terms, values)]


def typed_element(e, value=None):
    """A module element's terms with key order and value types made visible."""
    return typed_terms(e.terms, value)


def typed_basis(B, value=None):
    """A FreeBasis's elements, lead index and degrees, key order and value
    types made visible."""
    index = [(alpha, list(leads.items())) for alpha, leads in B._by_coord.items()]
    return [typed_element(b, value) for b in B.elements], index, B.degrees()


def typed_uses(uses, value=None):
    """Cofactors {index: {word: coef}} with key order and value types made visible."""
    return [(i, typed_terms(q, value)) for i, q in uses.items()]


def typed_cofactors(B, value=None):
    return [typed_uses({i: p.terms for i, p in row.items()}, value) for row in B.from_generators]


@st.composite
def module_maps(draw):
    """A ModuleMap over QQ (with fractions) or GF(7), d = 1..3, from 1-4
    generators of shift 0..3 to 1-2 generators of shift 0..2; some rows zero."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    A = FreeAlgebra(draw(st.integers(1, 3)), field)
    src = A.free_module(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    tgt = A.free_module(draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)))
    coef = coefficients(field, fractions=True)
    return ModuleMap(src, tgt, [draw_element(draw, tgt, b, coef).polys() for b in src.shifts])


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(presented_modules(fractions=True), st.data())
def test_relation_basis_and_reduce_match_cofactor_oracle(M, data):
    B = FpModule(M.F0, M.relations).relation_basis()
    want = cofactor_oracle.weak_basis(M.relations, ambient=M.F0)
    assert typed_basis(B) == typed_basis(want, QQ.coerce)
    assert B.from_generators is None
    # with cofactors, as `kernel` builds it, the rows are the oracle's too
    C = weak_basis(M.relations, ambient=M.F0, _cofactors=True)
    assert typed_basis(C) == typed_basis(want, QQ.coerce)
    assert typed_cofactors(C) == typed_cofactors(want, QQ.coerce)
    coef = coefficients(M.algebra.field, fractions=True)
    for _ in range(3):
        e = draw_element(data.draw, M.F0, data.draw(st.integers(M.min_degree, M.min_degree + 4)), coef)
        nf, uses = cofactor_oracle._full_reduce(e, want.elements, want._by_coord)
        got, got_uses = reduced(B, e)
        assert typed_element(B.reduce(e)) == typed_element(got) == typed_element(nf, QQ.coerce)
        assert typed_uses(got_uses) == typed_uses(uses, QQ.coerce)


def basis_data(B):
    """A FreeBasis's `_ints`, lead index, lead lengths and degrees, key order
    and value types made visible."""
    ints = [(db, type(db), [(m, type(v), v) for m, v in tail]) for db, tail in B._ints]
    return ints, [(alpha, list(words.items())) for alpha, words in B._by_coord.items()], B._lengths, tuple(B.degrees())


@st.composite
def summand_pairs(draw):
    """Two presented modules over one algebra, as `presented_modules` draws them."""
    M = draw(presented_modules(fractions=True))
    return M, draw(presented_modules(fractions=True, algebra=M.algebra))


def pinned_pair():
    """R / (2 x1 x0 + x0 x1) and R / (x1 + 3 x0) over QQ at d = 2: the right
    summand's basis comes first in the sum, its coordinate first in the
    lead index, and the left one's lead has db = 2."""
    A = FreeAlgebra(2)
    x0, x1 = A.gen(0), A.gen(1)
    return FpModule.cyclic(A, [(x1 * x0).scale(2) + x0 * x1]), FpModule.cyclic(A, [x1 + x0.scale(3)])


def test_twists_and_sums_match_cofactor_oracle():
    # the bases `shift` and `direct_sum` derive from their operands' are the
    # ones the weak algorithm builds on the same relations: `_ints` by value
    # and type, the lead index with its key order, lengths and degrees
    kinds = set()

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(summand_pairs(), st.integers(-3, 3))
    @hypothesis.example(pinned_pair(), 1)
    def check(pair, m):
        M, N = pair
        Z = FpModule(M.algebra.free_module([]))
        for X in (M.shift(m), M.direct_sum(N), N.direct_sum(M), M.direct_sum(Z), Z.direct_sum(M)):
            want = cofactor_oracle.weak_basis(X.relations, ambient=X.F0)
            B = X.relation_basis()
            assert basis_data(B) == basis_data(want)
            assert typed_basis(B) == typed_basis(want, QQ.coerce)
        S = M.direct_sum(N).relation_basis()
        if M.relation_basis().rank and N.relation_basis().rank:
            kinds.add("both summands with relations")
            if min(N.relation_basis().degrees()) < min(M.relation_basis().degrees()):
                kinds.add("right summand first")
        if any(db > 1 for db, _ in S._ints):
            kinds.add("QQ db > 1")
        if M.relation_basis().rank and m:
            kinds.add("twist")

    check()
    assert {"both summands with relations", "right summand first", "QQ db > 1", "twist"} <= kinds, kinds


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(module_maps())
def test_kernel_matches_cofactor_oracle(phi):
    K, want = kernel(phi), cofactor_oracle.kernel(phi)
    assert typed_basis(K) == typed_basis(want, QQ.coerce)
    assert K.from_generators is None
    images = phi.row_elements()
    first = weak_basis(images, ambient=phi.target, _cofactors=True)
    want_first = cofactor_oracle.weak_basis(images, ambient=phi.target)
    assert typed_basis(first) == typed_basis(want_first, QQ.coerce)
    assert typed_cofactors(first) == typed_cofactors(want_first, QQ.coerce)


def test_full_reduce_adds_back_a_cancelled_monomial(A2):
    # against x1 x1 + x0 x1 and x1 x0 - x0 x1: reducing x1 x1 cancels the
    # x0 x1 of x1 x1 + x1 x0 + x0 x1, and reducing x1 x0 adds it back at the
    # end of the work dict
    x0, x1 = A2.gen(0), A2.gen(1)
    R = A2.free_module([0])
    B = weak_basis([R.from_polys([x1 * x1 + x0 * x1]), R.from_polys([x1 * x0 - x0 * x1])], ambient=R)
    assert list(B._by_coord[0]) == [(1, 1), (1, 0)]
    e = R.from_polys([x1 * x1 + x1 * x0 + x0 * x1])
    nf, uses = reduced(B, e)
    want, want_uses = cofactor_oracle._full_reduce(e, B.elements, B._by_coord)
    assert typed_element(nf) == typed_element(want) == [((0, (0, 1)), int, 1)]
    assert typed_uses(uses) == typed_uses(want_uses) == [(0, [((), int, 1)]), (1, [((), int, 1)])]
    # one degree up, with x0 x0 x1 + x0 x0 x0: x0 x0 x1 is cancelled by x0 * b0,
    # added back by x0 * b1 and then reduced itself, so the sorted work holds
    # it twice, and the second entry, whose monomial has left the work, is skipped
    B = weak_basis([R.from_polys([x1 * x1 + x0 * x1]), R.from_polys([x1 * x0 - x0 * x1]),
                    R.from_polys([x0 * x0 * x1 + x0 * x0 * x0])], ambient=R)
    e = R.from_polys([x0 * x1 * x1 + x0 * x1 * x0 + x0 * x0 * x1])
    nf, uses = reduced(B, e)
    want, want_uses = cofactor_oracle._full_reduce(e, B.elements, B._by_coord)
    assert typed_element(nf) == typed_element(want) == [((0, (0, 0, 0)), int, -1)]
    assert typed_uses(uses) == typed_uses(want_uses) == [
        (0, [((0,), int, 1)]), (1, [((0,), int, 1)]), (2, [((), int, 1)])]


def test_full_reduce_tail_meets_a_pending_monomial(A2):
    # reducing x1 x1 by x1 x1 + x0 x1 subtracts x0 x1 from the pending 2 x0 x1,
    # and over QQ from the pending 3/2 x0 x1, against a lead of db = 2 as well
    x0, x1 = A2.gen(0), A2.gen(1)
    R = A2.free_module([0])
    for lead in (1, 2):
        B = weak_basis([R.from_polys([x1 * x1.scale(lead) + x0 * x1])], ambient=R)
        for c in (2, Fraction(3, 2)):
            e = R.from_polys([x1 * x1 + x0 * x1.scale(c)])
            nf, uses = reduced(B, e)
            want, want_uses = cofactor_oracle._full_reduce(e, B.elements, B._by_coord)
            assert typed_element(nf) == typed_element(want, QQ.coerce)
            assert typed_uses(uses) == typed_uses(want_uses, QQ.coerce) == [(0, [((), int, 1)])]
            assert nf.terms == {(0, (0, 1)): c - Fraction(1, lead)}


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(presented_modules(fractions=True), st.data())
def test_full_reduce_matches_cofactor_oracle_on_basis_combinations(M, data):
    # word multiples of basis elements plus a random element, so that
    # reductions cancel monomials and add them back: nf values, types and
    # key order, and the cofactors, as the oracle's max-per-step loop
    B = M.relation_basis()
    hypothesis.assume(B.elements)
    coef = coefficients(M.algebra.field, fractions=True)
    d = M.algebra.d
    for _ in range(3):
        j = data.draw(st.integers(min(B.degrees()), max(B.degrees()) + 2))
        e = draw_element(data.draw, M.F0, j, coef)
        for b, a in zip(B.elements, B.degrees()):
            if a <= j and data.draw(st.booleans()):
                u = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=j - a, max_size=j - a)))
                e = e + b.word_mul(u).scale(data.draw(coef))
        nf, uses = cofactor_oracle._full_reduce(e, B.elements, B._by_coord)
        got, got_uses = reduced(B, e)
        assert typed_element(got) == typed_element(nf, QQ.coerce)
        assert typed_uses(got_uses) == typed_uses(uses, QQ.coerce)


@st.composite
def same_degree_generators(draw):
    """(F, generators): 2-8 generators over QQ (with fractions), GF(2) or
    GF(7), d = 1..3, in a free module of 1-3 coordinates of shift 0..2,
    each of one of two adjacent degrees that every coordinate reaches, so
    that several share a degree across coordinates; some are an earlier
    one's left multiple plus a drawn element, which reduce to short tails."""
    field = draw(st.sampled_from([QQ, GF(2), GF(7)]))
    A = FreeAlgebra(draw(st.integers(1, 3)), field)
    F = A.free_module(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    coef = coefficients(field, fractions=field == QQ)
    low = draw(st.integers(max(F.shifts), max(F.shifts) + 1))
    gens = []
    for _ in range(draw(st.integers(2, 8))):
        j = low + draw(st.integers(0, 1))
        g = draw_element(draw, F, j, coef)
        earlier = [e for e in gens if not e.is_zero() and e.degree() <= j]
        if earlier and draw(st.booleans()):
            e = draw(st.sampled_from(earlier))
            u = tuple(draw(st.lists(st.integers(0, A.d - 1), min_size=j - e.degree(), max_size=j - e.degree())))
            g = g + e.word_mul(u).scale(draw(coef))
        gens.append(g)
    return F, gens


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(same_degree_generators())
def test_same_degree_tails_match_cofactor_oracle(case):
    # the tail pass reduces only a tail that holds a lead, one of a later
    # element of its degree: elements, value types, key order, lead index,
    # degrees and cofactor rows as the oracle's pass over every element
    F, gens = case
    want = cofactor_oracle.weak_basis(gens, ambient=F)
    B = weak_basis(gens, ambient=F)
    C = weak_basis(gens, ambient=F, _cofactors=True)
    assert typed_basis(B) == typed_basis(C) == typed_basis(want, QQ.coerce)
    assert B.from_generators is None
    assert typed_cofactors(C) == typed_cofactors(want, QQ.coerce)


def counting_full_reduce(monkeypatch):
    """A list that receives one entry per `_full_reduce` call `weak_basis` makes."""
    calls, real = [], submodules._full_reduce

    def counted(*args):
        calls.append(args[1:2])
        return real(*args)
    monkeypatch.setattr(submodules, "_full_reduce", counted)
    return calls


def test_tail_pass_reduces_only_a_tail_that_holds_a_lead(A2, monkeypatch):
    # x1 x1 + x0 x0 and x1 x0 + x0 x1 share degree 2, and neither tail is the
    # other's lead: one reduction per generator, and no tail pass.  With
    # x1 x1 + x1 x0 first, its tail is the second lead: one more, for that tail
    x0, x1 = A2.gen(0), A2.gen(1)
    R = A2.free_module([0])
    calls = counting_full_reduce(monkeypatch)
    gens = [R.from_polys([x1 * x1 + x0 * x0]), R.from_polys([x1 * x0 + x0 * x1])]
    B = weak_basis(gens, ambient=R)
    assert len(calls) == 2
    assert typed_basis(B) == typed_basis(cofactor_oracle.weak_basis(gens, ambient=R)) == (
        [[((0, (1, 1)), int, 1), ((0, (0, 0)), int, 1)], [((0, (1, 0)), int, 1), ((0, (0, 1)), int, 1)]],
        [(0, [((1, 1), 0), ((1, 0), 1)])],
        (2, 2),
    )
    calls.clear()
    gens = [R.from_polys([x1 * x1 + x1 * x0]), R.from_polys([x1 * x0 + x0 * x1])]
    B = weak_basis(gens, ambient=R)
    assert len(calls) == 3
    assert typed_basis(B) == typed_basis(cofactor_oracle.weak_basis(gens, ambient=R)) == (
        [[((0, (1, 1)), int, 1), ((0, (0, 1)), int, -1)], [((0, (1, 0)), int, 1), ((0, (0, 1)), int, 1)]],
        [(0, [((1, 1), 0), ((1, 0), 1)])],
        (2, 2),
    )


def test_later_same_degree_lead_rewrites_an_earlier_tail(A2):
    # g1 = e0 x1 x1 + e1 x1 and g2 = e1 x1 + e1 x0 in R + R(-1), both of
    # degree 2: g1 is inserted first, with its lead e0 x1 x1, and only g2's
    # lead e1 x1, at the other coordinate, reduces its tail, to -e1 x0
    F = A2.free_module([0, 1])
    x0, x1 = A2.gen(0), A2.gen(1)
    g1, g2 = F.from_polys([x1 * x1, x1]), F.from_polys([A2.zero(), x1 + x0])
    want = cofactor_oracle.weak_basis([g1, g2], ambient=F)
    B = weak_basis([g1, g2])
    C = weak_basis([g1, g2], _cofactors=True)
    assert typed_basis(B) == typed_basis(C) == typed_basis(want) == (
        [[((0, (1, 1)), int, 1), ((1, (0,)), int, -1)], [((1, (1,)), int, 1), ((1, (0,)), int, 1)]],
        [(0, [((1, 1), 0)]), (1, [((1,), 1)])],
        (2, 2),
    )
    assert typed_cofactors(C) == typed_cofactors(want) == [
        [(0, [((), int, 1)]), (1, [((), int, -1)])],
        [(1, [((), int, 1)])],
    ]


def test_weak_basis_checks_each_generator(A2):
    # homogeneity and the ambient module are checked on every generator, a
    # zero one included; a module equal to the ambient but not it is accepted
    R = R_of(A2)
    x0 = A2.gen(0)
    mixed = R.from_polys([x0 * x0 + x0])
    for gens in ([mixed], [R.from_polys([x0]), mixed], [mixed, R.element({})]):
        with pytest.raises(ValueError, match="generators must be homogeneous"):
            weak_basis(gens, ambient=R)
    with pytest.raises(ValueError, match="different modules"):
        weak_basis([R.from_polys([x0]), A2.free_module([1]).from_polys([x0])])
    B = weak_basis([R.element({}), A2.free_module([0]).from_polys([x0])], ambient=R)
    assert typed_basis(B) == ([[((0, (0,)), int, 1)]], [(0, [((0,), 0)])], (1,))


# ---------------------------------------------------------------------------
# integer numerators: canonical values, and the denominator carried


def canonical(c) -> bool:
    """Is the field value an int exactly when it is integral?"""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(presented_modules(fractions=True), module_maps(), st.data())
def test_values_are_ints_exactly_when_integral(M, phi, data):
    # over QQ, with leads 2..4, 1/2 and -2/3, and over GF(5) and GF(7): the
    # relation basis, normal forms, coordinates, letter matrices below the
    # free bound, torsion generators, kernel elements and cofactor rows
    B = M.relation_basis()
    values = [c for b in B.elements for c in b.terms.values()]
    coef = coefficients(M.algebra.field, fractions=True)
    for _ in range(3):
        j = data.draw(st.integers(M.min_degree, M.min_degree + 4))
        e = draw_element(data.draw, M.F0, j, coef)
        values += B.reduce(e).terms.values()
        values += M.coords(e, j).values()
    for j in range(M.min_degree, M._free_bound()):
        values += [c for i in range(M.algebra.d) for row in M.letter_matrix(i, j).rows for c in row.values()]
    values += [c for g in M.torsion().generators for c in g.terms.values()]
    values += [c for b in kernel(phi).elements for c in b.terms.values()]
    C = weak_basis(phi.row_elements(), ambient=phi.target, _cofactors=True)
    values += [c for row in C.from_generators for poly in row.values() for c in poly.terms.values()]
    assert all(map(canonical, values))


def test_chained_half_leads_carry_the_fractions_lcm():
    # the relations 2 x1 x0^k + x0^(k+1), k = 1..n, are their own basis, each
    # x1 x0^k + 1/2 x0^(k+1) with db = 2; the word x1^m x0^(n+1-m) reduces
    # along x1^(m-1) x0^(n+2-m), ... to a multiple of x0^(n+1), one odd
    # numerator reduced by a db = 2 element per step, which doubles W
    n = 12
    A = FreeAlgebra(2)
    R = A.free_module([0])
    gens = [R.element({(0, (1,) + (0,) * k): 2, (0, (0,) * (k + 1)): 1}) for k in range(1, n + 1)]
    B = weak_basis(gens)
    assert [db for db, _ in B._ints] == [2] * n
    assert typed_basis(B) == typed_basis(cofactor_oracle.weak_basis(gens, ambient=R), QQ.coerce)
    chain = R.element({(0, (1,) * n + (0,)): 1})
    family = R.element({(0, (1,) * m + (0,) * (n + 1 - m)): m for m in range(1, n + 1)})
    for e in (chain, family, family.scale(Fraction(1, 3))):
        want, want_uses = cofactor_oracle._full_reduce(e, B.elements, B._by_coord)
        uses = {}
        nf, W = _full_reduce(QQ, *_lift(QQ, e.terms), B._ints, B._by_coord, B._lengths, uses)
        assert sum(map(len, uses.values())) == n
        assert typed_element(FreeModuleElement(R, _values(nf, W))) == typed_element(want, QQ.coerce)
        assert typed_uses(uses) == typed_uses(want_uses, QQ.coerce)
        fractions = list(want.terms.values()) + [c for q in want_uses.values() for c in q.values()]
        assert W <= lcm(*(c.denominator for c in fractions))
    assert typed_element(B.reduce(chain)) == [((0, (0,) * (n + 1)), Fraction, Fraction((-1) ** n, 2**n))]
