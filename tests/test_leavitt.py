import itertools

import pytest

import leavitt_oracle
from freeproj import FpModule, FreeAlgebra, NcPoly
from freeproj.af_s import AFMatrix
from freeproj.errors import LevelDecrease, NotDegreeZero, NotInFiltrationLevel
from freeproj.fields import GF
from freeproj.leavitt import (
    LeavittElement,
    flat_decompose,
    flat_reassemble,
    l0_to_s,
    mono_mul,
    s_to_l0,
    strongly_graded_witness,
    tensor_vanishes,
)
from freeproj.randgen import (
    make_rng,
    random_filtration_member,
    random_leavitt_monomial,
    random_poly,
)

from random_elements import random_leavitt, star


def gens(A):
    return (
        LeavittElement.one(A),
        [LeavittElement.gen(A, i) for i in range(A.d)],
        [LeavittElement.gen_star(A, i) for i in range(A.d)],
    )


def test_defining_relations(A2):
    one, xs, stars = gens(A2)
    for i in range(2):
        for j in range(2):
            prod = xs[i] * stars[j]
            if i == j:
                assert prod.equals(one)
            else:
                assert prod.is_zero()
    total = LeavittElement.zero(A2)
    for i in range(2):
        total = total + stars[i] * xs[i]
    assert total.equals(one)


def test_mono_mul_junction():
    assert mono_mul(((0,), (1,)), ((1,), (0,))) == ((0,), (0,))
    assert mono_mul(((), (0,)), ((0,), ())) == ((), ())
    assert mono_mul(((), (0,)), ((1,), ())) is None
    # partial cancellation leaving a plain tail and a starred head
    assert mono_mul(((), (0, 1)), ((1,), (0,))) == ((), (0, 0))
    assert mono_mul(((), (1,)), ((0, 1), (1,))) == ((0,), (1,))


def test_mono_mul_matches_letter_loop_exhaustively():
    # every pair of monomials with words of length <= 4 at d = 2
    words = [w for n in range(5) for w in itertools.product(range(2), repeat=n)]
    monomials = list(itertools.product(words, repeat=2))
    for m1 in monomials:
        for m2 in monomials:
            assert mono_mul(m1, m2) == leavitt_oracle.mono_mul(m1, m2)


def test_mono_mul_associative_random(A2, A3):
    rng = make_rng(19)
    for A in (A2, A3):
        for _ in range(300):
            ms = [random_leavitt_monomial(rng, A, 3) for _ in range(3)]
            a, b, c = (LeavittElement.monomial(A, w, v) for w, v in ms)
            assert ((a * b) * c).equals(a * (b * c))


def test_raise_level(A2):
    one = LeavittElement.one(A2)
    raised = one.raise_level(0, 1)
    assert set(raised.terms) == {((0,), (0,)), ((1,), (1,))}
    assert raised.equals(one)
    e = LeavittElement.monomial(A2, (0,), (0,))
    assert e.raise_level(0, 1) == e  # already at level 1
    e2 = e.raise_level(0, 2)
    assert set(e2.terms) == {((0, 0), (0, 0)), ((1, 0), (1, 0))}
    assert e2.equals(e)
    with pytest.raises(LevelDecrease):
        e2.raise_level(0, 1)


def _raise_one_degree(terms, A, degree, r):
    """Reference raise: w* v -> sum_s (s w)* (s v) term by term into one dict."""
    out = {}
    for (w, v), c in terms.items():
        if len(v) - len(w) != degree:
            out[(w, v)] = c
            continue
        for s in A.words(r - len(w)):
            mon = (s + w, s + v)
            out[mon] = out.get(mon, 0) + c
            if out[mon] == 0:
                del out[mon]
    return out


def test_canonical_matches_raising_each_degree_in_turn(A2, A3):
    # canonical raises all components in one pass; raising one degree at a
    # time must give the same terms in the same dict order
    rng = make_rng(17)
    for A in (A2, A3):
        for _ in range(60):
            a = random_leavitt(rng, A, max_terms=8, wmax=3)
            a = a * star(a) - a
            want = a.terms
            for m in a.degrees():
                want = _raise_one_degree(want, A, m, a.level_in_degree(m))
                assert list(a.raise_level(m, a.level_in_degree(m)).terms) == list(
                    _raise_one_degree(a.terms, A, m, a.level_in_degree(m)))
            assert list(a.canonical().terms.items()) == list(want.items())


def test_equals_examples(A2):
    one, xs, stars = gens(A2)
    total = stars[0] * xs[0] + stars[1] * xs[1]
    assert total.equals(one)
    assert not xs[0].equals(xs[1])
    w = LeavittElement.monomial(A2, (0,), (1,))
    raised = w.raise_level(0, 2)
    assert raised.equals(w)


def test_graded_components(A2):
    one, xs, stars = gens(A2)
    mixed = xs[0] + stars[1]
    assert mixed.degrees() == [-1, 1]
    assert mixed.graded_component(1).equals(xs[0])
    assert mixed.graded_component(-1).equals(stars[1])
    assert one.degrees() == [0]
    m = LeavittElement.monomial(A2, (0,), (1, 1))
    assert m.degrees() == [1]


def test_star_is_an_antiinvolution(A2):
    rng = make_rng(2)
    for _ in range(40):
        (w1, v1) = random_leavitt_monomial(rng, A2, 2)
        (w2, v2) = random_leavitt_monomial(rng, A2, 2)
        a = LeavittElement.monomial(A2, w1, v1)
        b = LeavittElement.monomial(A2, w2, v2)
        assert star(a * b).equals(star(b) * star(a))
        assert star(star(a)).equals(a)


def test_grading_multiplicative(A2):
    rng = make_rng(3)
    for _ in range(60):
        (w1, v1) = random_leavitt_monomial(rng, A2, 2)
        (w2, v2) = random_leavitt_monomial(rng, A2, 2)
        a = LeavittElement.monomial(A2, w1, v1)
        b = LeavittElement.monomial(A2, w2, v2)
        ab = a * b
        if not ab.is_zero():
            assert ab.degrees() == [
                (len(v1) - len(w1)) + (len(v2) - len(w2))
            ]


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_strongly_graded_witness(A2, r):
    w = strongly_graded_witness(A2, r)
    assert w.verified
    assert len(w.negative_pairs) == 2**r


def test_l0_to_s_examples(A2):
    one = LeavittElement.one(A2)
    assert l0_to_s(one) == AFMatrix.scalar(2, 1)
    e = LeavittElement.monomial(A2, (0,), (0,))
    m = l0_to_s(e)
    assert m == AFMatrix.matrix_unit(2, (0,), (0,))
    assert m.entries == ((1, 0), (0, 0))
    with pytest.raises(NotDegreeZero):
        l0_to_s(LeavittElement.gen(A2, 0))


def test_l0_to_s_is_an_algebra_isomorphism(A2):
    rng = make_rng(7)
    for r in (1, 2):
        # multiplicativity and additivity on random degree-zero elements
        for _ in range(40):
            a = LeavittElement.zero(A2)
            b = LeavittElement.zero(A2)
            for _ in range(2):
                w = tuple(rng.randrange(2) for _ in range(rng.randint(0, r)))
                v = tuple(rng.randrange(2) for _ in range(len(w)))
                a = a + LeavittElement.monomial(A2, w, v, rng.randint(-2, 2))
                w2 = tuple(rng.randrange(2) for _ in range(rng.randint(0, r)))
                v2 = tuple(rng.randrange(2) for _ in range(len(w2)))
                b = b + LeavittElement.monomial(A2, w2, v2, rng.randint(-2, 2))
            assert l0_to_s(a * b) == l0_to_s(a) * l0_to_s(b)
            assert l0_to_s(a + b) == l0_to_s(a) + l0_to_s(b)
        # bijectivity on the span of level-r monomials: units map to units
        for w in A2.words(r):
            for v in A2.words(r):
                m = l0_to_s(LeavittElement.monomial(A2, w, v), level=r)
                assert m == AFMatrix.matrix_unit(2, w, v)
                back = s_to_l0(AFMatrix.matrix_unit(2, w, v), A2)
                assert back.equals(LeavittElement.monomial(A2, w, v))


def test_l0_to_s_compatible_with_raising(A2):
    rng = make_rng(8)
    for _ in range(20):
        w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        v = tuple(rng.randrange(2) for _ in range(len(w)))
        a = LeavittElement.monomial(A2, w, v)
        r = len(w)
        assert l0_to_s(a.raise_level(0, r + 1)) == l0_to_s(a).embed(r + 1)


def test_s_to_l0_round_trip_random(A2):
    rng = make_rng(9)
    from freeproj.randgen import random_af

    for _ in range(20):
        s = random_af(rng, 2, rng.randint(0, 2), A2.field)
        assert l0_to_s(s_to_l0(s, A2), level=max(s.level, 0)) == s


def test_flat_decompose_examples(A2):
    one = LeavittElement.one(A2)
    out = flat_decompose(one, 1)
    assert {w: str(p) for w, p in out.items()} == {(0,): "x0", (1,): "x1"}
    x0 = LeavittElement.gen(A2, 0)
    assert {w: str(p) for w, p in flat_decompose(x0, 0).items()} == {(): "x0"}
    a = LeavittElement.monomial(A2, (0,), (1,))
    out = flat_decompose(a, 1)
    assert str(out[(0,)]) == "x1" and out[(1,)].is_zero()


def test_flat_decompose_reads_members_written_at_mixed_levels(A2):
    # 2 x0* x0 + 2 x1* x1 - 1 is 1, written with terms at levels 1 and 0
    one = LeavittElement.one(A2)
    a = LeavittElement.monomial(A2, (0,), (0,), 2) + LeavittElement.monomial(A2, (1,), (1,), 2) - one
    assert {w: str(p) for w, p in flat_decompose(a, 0).items()} == {(): "1"}
    assert {w: str(p) for w, p in flat_decompose(a, 1).items()} == {(0,): "x0", (1,): "x1"}
    # a member plus a zero written at two levels is still a member
    rng = make_rng(12)
    zero = LeavittElement.monomial(A2, (0,), (0,)) + LeavittElement.monomial(A2, (1,), (1,)) - one
    for r in (0, 1, 2):
        for _ in range(10):
            b, coeffs = random_filtration_member(rng, A2, r)
            out = flat_decompose(b + zero, r)
            assert {w: p.terms for w, p in out.items()} == {w: p.terms for w, p in coeffs.items()}


def test_flat_decompose_rejects_deep_star(A2):
    bad = LeavittElement.monomial(A2, (0, 0), (0,))
    with pytest.raises(NotInFiltrationLevel):
        flat_decompose(bad, 1)


def test_flat_round_trip_random(A2):
    rng = make_rng(10)
    for r in (0, 1, 2, 3):
        for _ in range(10):
            a, coeffs = random_filtration_member(rng, A2, r)
            out = flat_decompose(a, r)
            assert {w: p.terms for w, p in out.items()} == {
                w: p.terms for w, p in coeffs.items()
            }
            assert flat_reassemble(A2, out).equals(a)


def _items(e):
    return [(k, type(c), c) for k, c in e.terms.items()]


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [(w, _items(p)) for w, p in out.items()]


def test_flat_paths_match_element_products():
    # flat_decompose and flat_reassemble against the per-word element
    # products they replaced: same output, key order and errors
    rng = make_rng(31)
    for A in (FreeAlgebra(2), FreeAlgebra(3, GF(7))):
        for r in (0, 1, 2):
            for _ in range(15):
                a, coeffs = random_filtration_member(rng, A, r)
                assert _items(flat_reassemble(A, coeffs)) == _items(
                    leavitt_oracle.flat_reassemble(A, coeffs))
                # a member, and a sum that usually is not one; the oracle
                # lowers only components written at one level, so it gets b
                # in the canonical form flat_decompose makes first
                for b in (a, a + random_leavitt(rng, A, wmax=3)):
                    assert _outcome(flat_decompose, b, r) == _outcome(
                        leavitt_oracle.flat_decompose, b.canonical(), r)
    # GF(7) values outside 0..6 come out reduced, as the products made them
    A = FreeAlgebra(2, GF(7))
    odd = {(1,): NcPoly(A, {(0,): 9, (1,): -3, (): 7})}
    assert _items(flat_reassemble(A, odd)) == _items(leavitt_oracle.flat_reassemble(A, odd))
    bad = {(0, 2): A.one()}
    with pytest.raises(ValueError) as new:
        flat_reassemble(A, bad)
    with pytest.raises(ValueError) as old:
        leavitt_oracle.flat_reassemble(A, bad)
    assert str(new.value) == str(old.value)


def test_canonical_of_canonical_is_itself():
    # the shortcut for an element already in canonical form must give what
    # raising it again gives, key order included
    rng = make_rng(23)
    for A in (FreeAlgebra(2), FreeAlgebra(3, GF(7))):
        for _ in range(80):
            a = random_leavitt(rng, A, max_terms=6, wmax=3)
            c = (a * star(a) + a).canonical()
            levels = {m: c.level_in_degree(m) for m in c.degrees()}
            assert _items(c.canonical()) == _items(c) == _items(c._raised(levels))


def test_filtration_is_monotone(A2):
    rng = make_rng(12)
    for r in (0, 1, 2):
        for _ in range(8):
            a, _ = random_filtration_member(rng, A2, r)
            # membership at level r implies membership at level r + 1
            out = flat_decompose(a, r + 1)
            assert flat_reassemble(A2, out).equals(a)


def test_unstarred_subalgebra_is_the_free_algebra(A2):
    rng = make_rng(14)
    for _ in range(30):
        p = random_poly(rng, A2, rng.randint(0, 3))
        q = random_poly(rng, A2, rng.randint(0, 3))
        lp, lq = LeavittElement.from_poly(p), LeavittElement.from_poly(q)
        assert (lp * lq).equals(LeavittElement.from_poly(p * q))
        assert lp.equals(lq) == (p == q)


def test_tensor_vanishes(A2):
    vanish, cert = tensor_vanishes(FpModule.residue(A2))
    assert vanish and cert["normalized_rank"] == 0
    vanish, cert = tensor_vanishes(FpModule.free(A2, [0]))
    assert not vanish and cert["normalized_rank"] == 1
    vanish, cert = tensor_vanishes(FpModule.cyclic(A2, [A2.gen(0)]))
    assert not vanish and cert["t0"] == 1
    vanish, _ = tensor_vanishes(FpModule.tail_quotient(A2, 3))
    assert vanish


def test_lowered_reaches_minimal_form(A2):
    one = LeavittElement.one(A2)
    raised = one.raise_level(0, 2)
    assert raised.lowered().terms == one.terms
    e = LeavittElement.monomial(A2, (0,), (0,))
    assert e.lowered().terms == e.terms  # not a raise pattern
