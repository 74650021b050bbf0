import pytest
from leavitt_oracle import word_unrank

from freeproj import FreeAlgebra
from freeproj.af_s import word_rank
from freeproj.fpmod import FpModule, FpModuleMorphism
from freeproj.freealg import ModuleMap, term_key
from freeproj.linalg import SparseMatrix

from freeproj.randgen import make_rng, random_module_map, random_poly


def test_multiply_concatenates(A2):
    x0, x1 = A2.gen(0), A2.gen(1)
    assert x0 * x1 == A2.monomial((0, 1))
    p = A2.poly({(0, 1): 2, (1,): -1})
    assert A2.one() * p == p
    assert p * A2.one() == p
    square = (x0 + x1) * (x0 + x1)
    assert square == A2.poly({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})


def test_multiply_degree_additive(A2):
    rng = make_rng(0)
    for _ in range(50):
        p = random_poly(rng, A2, rng.randint(0, 3))
        q = random_poly(rng, A2, rng.randint(0, 3))
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree() == p.degree() + q.degree()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_graded_piece_dim_free_rank_one(d):
    A = FreeAlgebra(d)
    R = A.free_module([0])
    for j in range(11):
        assert R.graded_piece_dim(j) == d**j
    assert R.graded_piece_dim(-1) == 0


def test_graded_piece_dim_with_shifts(A2):
    # R(-1) + R(-2) in degree 3: count words of lengths 2 and 1
    F = A2.free_module([1, 2])
    by_enumeration = len(list(A2.words(2))) + len(list(A2.words(1)))
    assert by_enumeration == 6
    assert F.graded_piece_dim(3) == 6
    assert F.graded_piece_dim(3) == len(FpModule(F).std_basis(3))


def free_matrix(phi: ModuleMap, j: int) -> SparseMatrix:
    """The degree-j matrix of a map of free modules, through the free FpModules."""
    return FpModuleMorphism(FpModule(phi.source), FpModule(phi.target), phi).matrix_in_degree(j)


def test_monomial_basis_lex(A2):
    # a free module is an FpModule with no relations: its standard basis is
    # every monomial, coordinates in order and words in lex order
    R = FpModule.free(A2, [0])
    assert R.std_basis(1) == ((0, (0,)), (0, (1,)))
    assert R.std_basis(2) == (
        (0, (0, 0)),
        (0, (0, 1)),
        (0, (1, 0)),
        (0, (1, 1)),
    )
    shifted = FpModule.free(A2, [1])
    assert shifted.std_basis(1) == ((0, ()),)


def test_map_in_degree_identity_example(A2):
    x0, x1 = A2.gen(0), A2.gen(1)
    F = A2.free_module([1, 1])
    R = A2.free_module([0])
    phi = ModuleMap(F, R, [[x0], [x1]])
    m = free_matrix(phi, 1)
    assert m == SparseMatrix.identity(A2.field, 2)
    # below every source shift the matrix has no rows
    m0 = free_matrix(phi, 0)
    assert (m0.nrows, m0.ncols) == (0, 1)
    z = free_matrix(ModuleMap(F, R, [[A2.zero()], [A2.zero()]]), 2)
    assert (z.nrows, z.ncols) == (4, 4)
    assert all(not row for row in z.rows)


def test_map_in_degree_respects_composition(A2):
    rng = make_rng(1)
    for _ in range(15):
        phi = random_module_map(rng, A2, [2, 2], [1, 1])
        psi = random_module_map(rng, A2, [1, 1], [0])
        comp = phi.compose(psi)
        for j in range(0, 6):
            lhs = free_matrix(comp, j)
            rhs = free_matrix(phi, j).mul(free_matrix(psi, j))
            assert lhs == rhs


def test_map_degree_validation(A2):
    F = A2.free_module([1])
    R = A2.free_module([0])
    with pytest.raises(ValueError):
        ModuleMap(F, R, [[A2.one()]])  # degree 0 entry where degree 1 is required


def test_multiply_associative_unital(A2, A3):
    rng = make_rng(2)
    for A in (A2, A3):
        for _ in range(500):
            p = random_poly(rng, A, rng.randint(0, 4))
            q = random_poly(rng, A, rng.randint(0, 4))
            r = random_poly(rng, A, rng.randint(0, 4))
            assert (p * q) * r == p * (q * r)
            assert A.one() * p == p


def test_reversal_is_an_antiautomorphism(A2):
    rng = make_rng(3)
    for _ in range(30):
        p = random_poly(rng, A2, rng.randint(0, 3))
        q = random_poly(rng, A2, rng.randint(0, 3))
        assert (p * q).reversed() == q.reversed() * p.reversed()


def test_word_rank_unrank(A3):
    # af_s.word_rank is the one word index; it must follow the enumeration order
    words = list(A3.words(3))
    for k, w in enumerate(words):
        assert word_rank(A3.d, w) == k
        assert word_unrank(A3.d, k, 3) == w


def test_element_degree_and_leading_term(A2):
    F = A2.free_module([0, 1])
    e = F.element({(0, (0, 1)): 1, (1, (1,)): -2})
    assert e.degree() == 2
    mon = max(e.terms, key=term_key)
    assert mon == (0, (0, 1)) and e.terms[mon] == 1  # longer word wins
    mixed = F.element({(0, ()): 1, (0, (0,)): 1})
    assert not mixed.is_homogeneous()


@pytest.mark.parametrize("alpha", [5, -1, 1.0, True])
def test_gen_refuses_what_element_refuses(A2, alpha):
    # on a rank-1 module only the int 0 is a coordinate, for gen as for
    # element; on a rank-2 module a bool or a float equal to a coordinate is
    # still none
    F = A2.free_module([0])
    for make in (F.gen, lambda a: F.element({(a, ()): 1})):
        with pytest.raises(ValueError, match=f"^coordinate {alpha} out of range$"):
            make(alpha)
    if type(alpha) is not int:
        with pytest.raises(ValueError, match=f"^coordinate {alpha} out of range$"):
            A2.free_module([0, 1]).gen(alpha)
