import hypothesis

from freeproj import kernel, syzygies, weak_basis
from freeproj.freealg import ModuleMap
from freeproj.randgen import make_rng, random_module_element, random_module_map

from conftest import span_dim
from test_fpmod import presented_modules


def rebuilt(B, g):
    """sum q_i * basis_i over the cofactors of g, which must reduce to zero."""
    nf, row = B.reduce_with_cofactors(g)
    assert nf.is_zero()
    acc = B.ambient.zero()
    for i, p in row.items():
        acc = acc + B.elements[i].poly_mul(p)
    return acc


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
            acc = R.zero()
            for i, p in row.items():
                acc = acc + gens[i].poly_mul(p)
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
    assert B.reduce(R.zero()).is_zero()


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
    acc = R.zero()
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
            acc = F0.zero()
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
