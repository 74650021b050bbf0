import hypothesis

from freeproj import FpModule, FreeAlgebra, kernel, weak_basis
from freeproj.fields import GF, QQ
from freeproj.freealg import ModuleMap, NcPoly
from freeproj.randgen import make_rng, random_module_map
from freeproj.submodules import _find_reducer, _full_reduce

from conftest import span_dim
from random_elements import random_module_element
from std_basis_oracle import find_reducer_by_scan
from test_fpmod import presented_modules


def poly_mul(elem, p):
    """p * elem, the left multiple by a polynomial, word by word."""
    acc = elem.module.element({})
    for u, c in p.terms.items():
        acc = acc + elem.word_mul(u).scale(c)
    return acc


def rebuilt(B, g):
    """sum q_i * basis_i over the cofactors of g that `kernel` reads from its
    reduction, which must reduce g to zero."""
    nf, uses = _full_reduce(g, B.elements, B._by_coord)
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
        B = weak_basis(gens, ambient=R)
        # from_generators: every basis element is a combination of the inputs
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
    leads = [b.leading_term()[0] for b in B.elements]
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


def test_suffix_lookup_matches_scan():
    # random presentations over QQ and GF(5), d = 1..3 (at d = 1 every word
    # is all 0s), with monomial relations among them so that many leads
    # share a coordinate; every monomial of the relations, of the basis, of
    # random elements and of their normal forms, and every word of length
    # <= 5 at each coordinate, gets the same reducer from both searches
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
                    got = _find_reducer(alpha, w, B._by_coord)
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
