import contextlib
import itertools
import signal
import time
from unittest import mock
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

import leavitt_oracle
from freeproj import FpModule, FreeAlgebra, NcPoly, leavitt
from freeproj.af_s import MAX_SIDE, AFMatrix
from freeproj.errors import BudgetExceeded, LevelDecrease, NotDegreeZero, NotInFiltrationLevel
from freeproj.fields import GF, QQ
from freeproj.parsing import parse_leavitt
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
    random_af,
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


def _top_level(a, m):
    """The largest starred length among a's monomials of degree m."""
    return max(len(w) for w, v in a.terms if len(v) - len(w) == m)


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
                want = _raise_one_degree(want, A, m, _top_level(a, m))
                assert list(a.raise_level(m, _top_level(a, m)).terms) == list(
                    _raise_one_degree(a.terms, A, m, _top_level(a, m)))
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


def _matrix_outcome(fn, *args):
    try:
        m = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return _typed(m), [[(type(v), v) for v in row] for row in m.entries]


def _element_outcome(fn, *args):
    try:
        return _items(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


# the top level drawn at each d, a side of at most 27
TOP_LEVEL = {1: 4, 2: 3, 3: 2}


@st.composite
def placement_cases(draw):
    """(element, level, matrix) at d = 1..3 over QQ or GF(7): a sum of up to
    five monomials w* v with |w| = |v| up to TOP_LEVEL[d], one in twenty of
    degree 1; the level None or 0..TOP_LEVEL[d]; a random matrix at a random
    level for s_to_l0."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    d = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    A = FreeAlgebra(d, field)
    a = LeavittElement.zero(A)
    for _ in range(rng.randint(0, 5)):
        k = rng.randint(0, TOP_LEVEL[d])
        w = tuple(rng.randrange(d) for _ in range(k))
        v = tuple(rng.randrange(d) for _ in range(k + (rng.random() < 0.05)))
        a = a + LeavittElement.monomial(A, w, v, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    level = draw(st.none() | st.integers(0, TOP_LEVEL[d]))
    return a, level, random_af(rng, d, rng.randint(0, TOP_LEVEL[d]), field)


def _check_placement(a, level, matrix=None):
    A = a.algebra
    assert _matrix_outcome(l0_to_s, a, level) == _matrix_outcome(leavitt_oracle.l0_to_s, a, level)
    other = FreeAlgebra(A.d + 1, A.field)
    matrices = [] if matrix is None else [matrix]
    with contextlib.suppress(NotDegreeZero, LevelDecrease):
        matrices.append(l0_to_s(a, level))
    for s in matrices:
        for args in ((s,), (s, A), (s, other)):
            assert _element_outcome(s_to_l0, *args) == _element_outcome(leavitt_oracle.s_to_l0, *args)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(placement_cases())
@hypothesis.example((LeavittElement.monomial(FreeAlgebra(2, GF(7)), (1,), (0,), 3)
                     + LeavittElement.one(FreeAlgebra(2, GF(7))).scale(4), 3, None))
def test_placement_matches_dense_oracle(case):
    # l0_to_s and s_to_l0 against the dense table and unranking they
    # replaced: level, den, rows with key order, each entry's value and
    # type, and errors
    _check_placement(*case)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_l0_to_s_sums_a_unit_reached_from_two_levels(field):
    # 1/2 and 1/2 x0* x0 meet at E_00 of level 1: an int 1, then 0
    A = FreeAlgebra(2, field)
    half = field.coerce(Fraction(1, 2))
    for sign, value in ((1, 1), (-1, 0)):
        a = LeavittElement.one(A).scale(half) + LeavittElement.monomial(A, (0,), (0,), sign * half)
        for level in (None, 1, 2):
            _check_placement(a, level)
        m = l0_to_s(a, 1)
        assert m.level == 1 and type(m.entries[0][0]) is int and m.entries[0][0] == value


def test_l0_to_s_refuses_a_side_above_max_side(A2):
    # refused from d and the level before any table is built; at level 12 a
    # misplaced check would build a 4096^2 table first and still fail here
    for level in (12, 20):
        with pytest.raises(BudgetExceeded, match=f"more than {MAX_SIDE} rows"):
            l0_to_s(LeavittElement.one(A2), level=level)
    with pytest.raises(BudgetExceeded):
        l0_to_s(LeavittElement.monomial(A2, (0,) * 12, (1,) * 12))
    # at d = 1 every level has side 1
    assert l0_to_s(LeavittElement.one(FreeAlgebra(1)), level=20) == AFMatrix.scalar(1, 1)


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


def _by_key(outcome):
    """An `_outcome` with each polynomial's key order dropped."""
    if isinstance(outcome, tuple):
        return outcome
    return [(w, {k: (t, c) for k, t, c in items}) for w, items in outcome]


def test_flat_paths_match_element_products():
    # flat_decompose and flat_reassemble against the per-word element
    # products and lowering they replaced, on both sides of the flat gate: a
    # member, the same member written one level above r, a sum that usually
    # is not one, and a deep star.  On the gate (starred length at most r,
    # at this budget) the output, key order and errors are the same; past it
    # each projection is read in normal form, so its values, their types,
    # keys and errors are the same, in the normal form's key order
    rng = make_rng(31)
    for A in (FreeAlgebra(1), FreeAlgebra(2), FreeAlgebra(3, GF(7))):
        for r in (0, 1, 2, 3):
            for _ in range(6):
                a, coeffs = random_filtration_member(rng, A, r)
                assert _items(flat_reassemble(A, coeffs)) == _items(
                    leavitt_oracle.flat_reassemble(A, coeffs))
                raised = a.raise_level(a.degrees()[0], r + 1) if a.terms else a
                deep = a + LeavittElement.monomial(A, (0,) * (r + 1), (), 2)
                # the oracle lowers only components written at one level,
                # so it gets b in the canonical form flat_decompose makes first
                for b in (a, raised, a + random_leavitt(rng, A, wmax=3), deep):
                    b = b.canonical()
                    got, want = _outcome(flat_decompose, b, r), _outcome(leavitt_oracle.flat_decompose, b, r)
                    if all(len(u) <= r for u, v in b.terms):
                        assert got == want
                    else:
                        assert _by_key(got) == _by_key(want)
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


def test_flat_decompose_past_the_raise_budget_takes_products(monkeypatch):
    # a member whose raise could pass MAX_RAISED_TERMS is read by products
    # and normal forms, as before the flat gate, and never refused
    monkeypatch.setattr(leavitt, "MAX_RAISED_TERMS", 4)
    calls = []
    real = leavitt._normal_form
    monkeypatch.setattr(leavitt, "_normal_form", lambda A, items: calls.append(A) or real(A, items))
    rng = make_rng(37)
    A = FreeAlgebra(2)
    for r in (1, 2):
        for _ in range(10):
            a, _ = random_filtration_member(rng, A, r)
            calls.clear()
            got = _outcome(flat_decompose, a, r)
            assert bool(calls) == (len(a.terms) * 2**r > 4)
            assert _by_key(got) == _by_key(_outcome(leavitt_oracle.flat_decompose, a, r))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_flat_decompose_lowers_an_element_past_the_raise_budget(A2, monkeypatch):
    # 1 written as the 2^14 terms of level 14 is 2^27 monomial products on
    # the product path at r = 13 (at level 17 and r = 16 it ran for minutes);
    # in normal form first, it is 1 on the flat gate
    one = LeavittElement.one(A2)
    with time_limit(30):
        got = _outcome(flat_decompose, one.raise_level(0, 14), 13)
    assert got == _outcome(flat_decompose, one, 13)
    # with the budget cut down so that the product path can run: its values,
    # in the term order of the element's normal form
    x = LeavittElement.monomial(A2, (), (), Fraction(-3, 2)) + LeavittElement.monomial(A2, (1,), (1, 0))
    cases = [(r, x.raise_level(0, r + 1)) for r in (6, 7)]
    wants = [leavitt_oracle.flat_decompose(raised, r) for r, raised in cases]
    monkeypatch.setattr(leavitt, "MAX_RAISED_TERMS", 2**9)
    for (r, raised), want in zip(cases, wants):
        assert len(raised.terms) * 2**r > leavitt.MAX_RAISED_TERMS
        got = flat_decompose(raised, r)
        assert {w: p.terms for w, p in got.items()} == {w: p.terms for w, p in want.items()}
        normal = LeavittElement(A2, leavitt._normal_form(A2, raised.canonical().terms.items()))
        assert _outcome(flat_decompose, raised, r) == _outcome(flat_decompose, normal, r)


def test_flat_decompose_reads_a_short_element_whose_canonical_form_passes_the_budget(A2):
    # x1*^21 x1^21 + the sum over j < 21 of (x0 x1^j)* (x0 x1^j) is 1 in 22
    # terms, but its canonical form raises them all to level 21, 2^21 terms:
    # the gate and the shrink read the element's own terms, and no raise
    # is made outside the gate
    terms = {((1,) * 21, (1,) * 21): 1}
    terms.update({((0,) + (1,) * j, (0,) + (1,) * j): 1 for j in range(21)})
    a = LeavittElement(A2, terms)
    assert len(a.terms) == 22
    with pytest.raises(BudgetExceeded, match="raising emits 2097152 terms"):
        a.canonical()
    out = flat_decompose(a, 0)
    assert {w: p.terms for w, p in out.items()} == {(): {(): 1}}


def test_flat_decompose_refuses_more_words_than_the_raise_budget(A2, monkeypatch):
    # the output holds d^r polynomials: refused from r and the bits of d,
    # before any word or group is built, whatever the element
    monkeypatch.setattr(leavitt, "MAX_RAISED_TERMS", 2**6)
    zero, one = LeavittElement.zero(A2), LeavittElement.one(A2)
    assert len(flat_decompose(zero, 6)) == 2**6
    with time_limit(5):
        for a, r in ((zero, 7), (one, 7), (one, 10**6)):
            with pytest.raises(BudgetExceeded, match=f"holds 2\\^{r} polynomials, above the bound 64"):
                flat_decompose(a, r)
    A3 = FreeAlgebra(3)
    with pytest.raises(BudgetExceeded, match="holds 3\\^4 polynomials"):
        flat_decompose(LeavittElement.zero(A3), 4)  # 81 > 64, though 4 * (bits(3) - 1) < bits(64)
    assert len(flat_decompose(LeavittElement.one(FreeAlgebra(1)), 10**6)) == 1


def test_flat_decompose_at_the_edge_of_the_raise_budget(A2, monkeypatch):
    # x0 + x1 x1 raised to level 7 is exactly the 2^8 terms of the budget:
    # grouped on the flat gate, and its reassembly compared with that raise,
    # not with x0 + x1 x1 raised again beside it
    monkeypatch.setattr(leavitt, "MAX_RAISED_TERMS", 2**8)
    a = LeavittElement.gen(A2, 0) + LeavittElement.monomial(A2, (), (1, 1))
    out = flat_decompose(a, 7)
    assert len(out) == 2**7
    assert all(p.terms == {w + (0,): 1, w + (1, 1): 1} for w, p in out.items())
    monkeypatch.setattr(leavitt, "MAX_RAISED_TERMS", 2**20)
    assert flat_reassemble(A2, out).equals(a)


def test_canonical_of_canonical_is_itself():
    # the shortcut for an element already in canonical form must give what
    # raising it again gives, key order included
    rng = make_rng(23)
    for A in (FreeAlgebra(2), FreeAlgebra(3, GF(7))):
        for _ in range(80):
            a = random_leavitt(rng, A, max_terms=6, wmax=3)
            c = (a * star(a) + a).canonical()
            levels = {m: _top_level(c, m) for m in c.degrees()}
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
        lp, lq = leavitt_oracle.from_poly(p), leavitt_oracle.from_poly(q)
        assert (lp * lq).equals(leavitt_oracle.from_poly(p * q))
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


def test_normal_form_reaches_minimal_form(A2):
    one = LeavittElement.one(A2)
    raised = one.raise_level(0, 2)
    assert leavitt._normal_form(A2, raised.terms.items()) == one.terms
    e = LeavittElement.monomial(A2, (0,), (0,))
    assert leavitt._normal_form(A2, e.terms.items()) == e.terms  # a basis monomial
    # (x1 x1)* x1 x1 x0 = x0 - (x0 x1)* x0 x1 x0 - x0* x0 x0 at d = 2, by
    # x1* x1 = 1 - x0* x0 twice
    m = LeavittElement.monomial(A2, (1, 1), (1, 1, 0), 5)
    assert leavitt._normal_form(A2, m.terms.items()) == {
        ((), (0,)): 5, ((0, 1), (0, 1, 0)): -5, ((0,), (0, 0)): -5}
    # at d = 1 the rule strips the common letters
    A1 = FreeAlgebra(1)
    assert leavitt._normal_form(A1, {((0, 0, 0), (0,)): 2}.items()) == {((0, 0), ()): 2}


# ---------------------------------------------------------------------------
# the product, equality and placement against the element-level oracles


def _typed(m):
    """An AFMatrix's d, level, field, den and rows, with each value's type."""
    return m.d, m.level, m.field, m.den, [[(j, type(v), v) for j, v in row.items()] for row in m.rows]


def _eq_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _monomials(rng, A, count, top=3):
    """A sum of `count` random monomials w* v, |w|, |v| <= top, with
    coefficients in -3/2..3/2 (at most three in a row at one degree)."""
    a = LeavittElement.zero(A)
    for _ in range(count):
        w = tuple(rng.randrange(A.d) for _ in range(rng.randint(0, top)))
        v = tuple(rng.randrange(A.d) for _ in range(rng.randint(0, top)))
        a = a + LeavittElement.monomial(A, w, v, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return a


def _zero_at_two_levels(A, c):
    """c (x0* x0 + .. + x_{d-1}* x_{d-1} - 1): zero, written at levels 1 and 0."""
    z = LeavittElement.one(A).scale(-1)
    for i in range(A.d):
        z = z + LeavittElement.monomial(A, (i,), (i,))
    return z.scale(c)


OTHER = ("copy", "raised", "plus zero", "plus monomial", "random")


@st.composite
def element_pairs(draw):
    """(A, a's terms, b's terms, budget) over QQ, GF(3) or GF(7) at d = 1..3:
    a a sum of up to six monomials; b a's terms in reverse order, a with one
    degree raised one or two levels, a plus zero written at two levels, a
    plus a monomial, or a random element; the raise budget 2^20 or 16.  The
    terms are handed over as dicts, whose repr needs no canonical form."""
    field = draw(st.sampled_from([QQ, GF(3), GF(7)]))
    A = FreeAlgebra(draw(st.integers(1, 3)), field)
    rng = draw(st.randoms(use_true_random=False))
    a = _monomials(rng, A, rng.randint(0, 6))
    kind = draw(st.sampled_from(OTHER))
    if kind == "copy":
        b = LeavittElement(A, dict(reversed(a.terms.items())))
    elif kind == "raised" and a.terms:
        m = rng.choice(a.degrees())
        b = a.raise_level(m, _top_level(a, m) + rng.randint(1, 2))
    elif kind == "plus zero":
        b = a + _zero_at_two_levels(A, rng.randint(1, 3))
    elif kind == "plus monomial":
        b = a + _monomials(rng, A, 1)
    else:
        b = _monomials(rng, A, rng.randint(0, 4))
    return A, a.terms, b.terms, draw(st.sampled_from([2**20, 16]))


def _big_level_pair(other):
    """x0* ^24 x0 ^24 + 1 against other: 2^24 + 1 terms once raised."""
    A = FreeAlgebra(2)
    a = LeavittElement.word_star(A, (0,) * 24) * LeavittElement.monomial(A, (), (0,) * 24) + LeavittElement.one(A)
    return A, a.terms, LeavittElement.one(A).scale(other).terms, 2**20


def _cancelling_pair(field):
    """(x0 + x1) * (3 x0* + 4 x1*), and (x0 + x1) * (x0* - x1*): every
    pair of terms lands on 1, whose sum is 7, so 0 over GF(7), and 1 - 1."""
    A = FreeAlgebra(2, field)
    x = LeavittElement.gen(A, 0) + LeavittElement.gen(A, 1)
    s0, s1 = LeavittElement.gen_star(A, 0), LeavittElement.gen_star(A, 1)
    return A, x.terms, (s0.scale(3) + s1.scale(4) if field == GF(7) else s0 - s1).terms, 2**20


def _sum_to_zero_mod_7():
    """3 x1 + 4 x1 over GF(7), summed term by term to 0, against 0."""
    A = FreeAlgebra(2, GF(7))
    x1 = LeavittElement.gen(A, 1)
    return A, (x1.scale(3) + x1.scale(4)).terms, {}, 2**20


def _answered_in_time(fn, *args):
    """fn(*args), whose best of three runs must take under half a second:
    no route of d^k terms at the levels k of these inputs does."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        answer = fn(*args)
        best = min(best, time.perf_counter() - start)
    assert best < 0.5, best
    return answer


def test_equality_answers_where_the_raise_route_refuses(monkeypatch):
    # x0*^24 x0^24 + 1 differs from 1 in one monomial, at one level: no on
    # both routes; from 0 and 2 in two levels of degree 0, which the raise
    # route refuses (2^24 + 1 terms), and the normal form, its own 2 terms,
    # answers no
    for other in (1, 0, 2):
        A, a_terms, b_terms, _ = _big_level_pair(other)
        a, b = LeavittElement(A, a_terms), LeavittElement(A, b_terms)
        assert _answered_in_time(a.equals, b) is False
        if other == 1:
            assert leavitt_oracle.equals(a, b) is False
        else:
            with pytest.raises(BudgetExceeded, match="raising emits 16777217 terms"):
                leavitt_oracle.equals(a, b)
        assert repr(a).startswith("LeavittElement(1 + x0*")
    # x1*^30 x1^30 - 1 = -x0* x0 - (x0 x1)* x0 x1 - .. - (x0 x1^29)* x0 x1^29
    A = FreeAlgebra(2)
    one = LeavittElement.one(A)
    b = LeavittElement.monomial(A, (1,) * 30, (1,) * 30) - one
    assert _answered_in_time(b.is_zero) is False
    with pytest.raises(BudgetExceeded, match="raising emits 1073741825 terms"):
        leavitt_oracle.equals(b, LeavittElement.zero(A))
    # x1*^400 x1^400 is its 401-term expansion 1 - sum_{j<400} (x0 x1^j)* x0 x1^j
    c = LeavittElement.monomial(A, (1,) * 400, (1,) * 400)
    expansion = {((), ()): 1} | {((0,) + (1,) * j, (0,) + (1,) * j): -1 for j in range(400)}
    e = LeavittElement(A, expansion)
    assert _answered_in_time(c.equals, e) is True and e.equals(c) and (c - e).is_zero()
    assert not c.equals(e + LeavittElement.monomial(A, (0,) + (1,) * 399, (0,) + (1,) * 399))
    assert repr(c).startswith("LeavittElement(x1*")
    # at a budget of 16, x0*^4 x0^4 + 1 against itself plus x0* x0 + x1* x1 - 1
    # is equal on both routes; against 0 the raise route refuses 17 terms
    monkeypatch.setattr(leavitt, "MAX_RAISED_TERMS", 16)
    a = LeavittElement.monomial(A, (0,) * 4, (0,) * 4) + one
    for fn in (LeavittElement.equals, leavitt_oracle.equals):
        assert fn(a, a + _zero_at_two_levels(A, 1)) is True
    assert a.equals(LeavittElement.zero(A)) is False
    with pytest.raises(BudgetExceeded, match="raising emits 17 terms, above the bound 16"):
        leavitt_oracle.equals(a, LeavittElement.zero(A))


def test_repr_prints_the_stored_terms_with_no_raise():
    # str of x0*^24 x0^24 + 1 is its canonical form, a raise of 2^24 + 1
    # terms, refused; repr prints the two stored terms
    A = FreeAlgebra(2)
    a = LeavittElement.monomial(A, (0,) * 24, (0,) * 24) + LeavittElement.one(A)
    with pytest.raises(BudgetExceeded, match="raising emits 16777217 terms"):
        str(a)
    assert repr(a) == f"LeavittElement(1 + {' '.join(['x0*'] * 24 + ['x0'] * 24)})"


def test_is_zero_at_one_level_a_degree_takes_no_normal_form(A2, monkeypatch):
    # a canonical form holds each degree at one level, where its monomials
    # are independent: `leavitt-eval` asks is_zero of one, here of 2^12 - 1
    # terms, and reads no normal form of them to answer
    monkeypatch.setattr(leavitt, "_normal_form", lambda A, items: pytest.fail("a normal form was taken"))
    a = (LeavittElement.monomial(A2, (1,) * 12, (1,) * 12) - LeavittElement.one(A2)).canonical()
    assert len(a.terms) == 2**12 - 1 and a.is_zero() is False
    assert LeavittElement.zero(A2).is_zero() and not (LeavittElement.gen(A2, 0) + LeavittElement.gen_star(A2, 1)).is_zero()


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_equality_makes_no_raise(field, monkeypatch):
    # a = 2 + x0*^4 x0^4 and b = 5 share the monomial 1 with coefficients
    # that differ: the difference on D takes b's one term, and its normal
    # form, its own 2 terms, is summed once; no raise is made, so the answer
    # stands at a budget of 1, where the raise route refuses
    A = FreeAlgebra(2, field)
    a = LeavittElement.one(A).scale(2) + LeavittElement.monomial(A, (0,) * 4, (0,) * 4)
    b = LeavittElement.one(A).scale(5)
    monkeypatch.setattr(leavitt, "MAX_RAISED_TERMS", 1)
    with pytest.raises(BudgetExceeded, match="raising emits 17 terms, above the bound 1"):
        leavitt_oracle.equals(a, b)
    built = []

    def counted(field, acc, terms):
        built.append(len(terms))
        return add_terms(field, acc, terms)

    add_terms = leavitt._add_terms
    monkeypatch.setattr(leavitt, "_add_terms", counted)
    monkeypatch.setattr(LeavittElement, "_raised", lambda self, levels: pytest.fail("a raise was made"))
    assert a.equals(b) is False and built == [1, 2]


def test_product_and_equality_match_oracle():
    # the inline product against `add_products` with one `mono_mul` per
    # pair (values, types, key order), and `equals` against the canonical
    # form of the whole difference where that route answers; where it
    # refuses a raise past the budget, `equals` answers
    kinds = set()

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(element_pairs())
    @hypothesis.example(_cancelling_pair(QQ))
    @hypothesis.example(_cancelling_pair(GF(7)))
    @hypothesis.example(_sum_to_zero_mod_7())
    @hypothesis.example(_big_level_pair(1))
    @hypothesis.example(_big_level_pair(0))
    @hypothesis.example(_big_level_pair(2))
    def check(case):
        A, a_terms, b_terms, budget = case
        a, b = LeavittElement(A, a_terms), LeavittElement(A, b_terms)
        with mock.patch.object(leavitt, "MAX_RAISED_TERMS", budget):
            for x, y in ((a, b), (b, a)):
                if len(x.terms) * len(y.terms) < 100:
                    assert _items(x * y) == _items(leavitt_oracle.product(x, y))
                want = _check_equals(x, y)
                assert (x == y) is x.equals(y)
        kinds.add(_equality_kind(a, b, want))
        if a.algebra.field != QQ:
            kinds.add("GF(p)")
        if len(a.terms) > 1 and not (a * b).terms and a.terms and b.terms:
            kinds.add("product zero")

    check()
    assert {"equal dicts", "one level a degree", "oracle refuses, new route answers", "normal form, equal",
            "normal form, unequal", "GF(p)", "product zero"} <= kinds, kinds


def _check_equals(x, y):
    """x.equals(y) against the raise route, which it must match wherever
    that route answers; where it refuses, equals still answers.  Returns
    the raise route's outcome."""
    got = x.equals(y)
    want = _eq_outcome(leavitt_oracle.equals, x, y)
    if isinstance(want, tuple):
        assert want[0] is BudgetExceeded and isinstance(got, bool)
    else:
        assert got is want
    return want


def _equality_kind(a, b, want):
    """Which route decides a against b, and, past the fast exits, how."""
    levels = {}
    for w, v in (a - b).terms:
        levels.setdefault(len(v) - len(w), set()).add(len(w))
    if a.terms == b.terms:
        return "equal dicts"
    if all(len(s) == 1 for s in levels.values()):
        return "one level a degree"
    if isinstance(want, tuple):
        return "oracle refuses, new route answers"
    return "normal form, equal" if want else "normal form, unequal"


def _normal(A, terms):
    return leavitt._normal_form(A, terms.items())


@st.composite
def normal_form_cases(draw):
    """An `element_pairs` draw, a monomial (w, v) with |w|, |v| <= 3 and a
    coefficient, and a third element over the same algebra."""
    A, a_terms, b_terms, budget = draw(element_pairs())
    rng = draw(st.randoms(use_true_random=False))
    c = _monomials(rng, A, rng.randint(0, 4))
    mon = LeavittElement.monomial(A, *rng.choice(list(c.terms) or [((), ())]), rng.choice((1, 2, Fraction(-1, 2))))
    return A, a_terms, b_terms, budget, mon.terms, c.terms


def _normal_case(a, b, mon=None, c=None, budget=2**20):
    """A `normal_form_cases` draw from a and b, with a monomial and a third
    element over a's algebra, by default x1* x1 x0 times 3 and x1* + (x1 x1)* x1."""
    A = a.algebra
    mon = mon or LeavittElement.monomial(A, (1,), (1, 0), 3)
    c = c or LeavittElement.gen_star(A, 1) + LeavittElement.monomial(A, (1, 1), (1,))
    return A, a.terms, b.terms, budget, mon.terms, c.terms


def test_normal_form_matches_raise_route():
    # the normal form in the basis of monomials w* v whose words do not
    # both start with x_{d-1}: equals against the raise route on every
    # draw that route answers, and against the comparison of the two whole
    # normal forms on every draw; the normal form of a raise
    # sum_i (x_i w)* (x_i v) is that of w* v; and products of normal forms,
    # reduced in either grouping, have the normal form of the product
    kinds = set()
    A2, A3 = FreeAlgebra(2), FreeAlgebra(3, GF(7))
    one, one3 = LeavittElement.one(A2), LeavittElement.one(A3)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(normal_form_cases())
    @hypothesis.example(_normal_case(one, LeavittElement(A2, dict(one.terms))))
    @hypothesis.example(_normal_case(LeavittElement.gen(A2, 0), LeavittElement.gen(A2, 1)))
    @hypothesis.example(_normal_case(one, one.raise_level(0, 2)))
    @hypothesis.example(_normal_case(one, LeavittElement.monomial(A2, (1,), (1,))))
    @hypothesis.example(_big_level_pair(0) + (LeavittElement.monomial(A2, (1, 1), (1, 1)).terms, one.terms))
    @hypothesis.example(_normal_case(one3.raise_level(0, 1), one3.raise_level(0, 2),
                                     mon=LeavittElement.monomial(A3, (2, 2, 1), (2, 2), 6)))
    def check(case):
        A, a_terms, b_terms, budget, mon_terms, c_terms = case
        a, b, c = (LeavittElement(A, t) for t in (a_terms, b_terms, c_terms))
        with mock.patch.object(leavitt, "MAX_RAISED_TERMS", budget):
            want = _check_equals(a, b)
        assert a.equals(b) == (_normal(A, a.terms) == _normal(A, b.terms)) == b.equals(a)
        ((w, v), coeff), = mon_terms.items()
        raised = {((i,) + w, (i,) + v): coeff for i in range(A.d)}
        assert _normal(A, raised) == _normal(A, mon_terms)
        na, nb, nc = (LeavittElement(A, _normal(A, x.terms)) for x in (a, b, c))
        product = _normal(A, (a * (b * c)).terms)
        assert _normal(A, (LeavittElement(A, _normal(A, (na * nb).terms)) * nc).terms) == product
        assert _normal(A, (na * LeavittElement(A, _normal(A, (nb * nc).terms))).terms) == product
        kinds.add(_equality_kind(a, b, want))
        if A.field != QQ:
            kinds.add("GF(p)")

    check()
    assert {"equal dicts", "one level a degree", "normal form, equal", "normal form, unequal",
            "oracle refuses, new route answers", "GF(p)"} <= kinds, kinds


def test_strongly_graded_witness_holds_through_r4():
    for d in (2, 3):
        for r in (1, 2, 3, 4):
            w = strongly_graded_witness(FreeAlgebra(d), r)
            assert w.verified and len(w.negative_pairs) == d**r


def test_strongly_graded_witness_refuses_more_products_than_the_budget(monkeypatch):
    # its d^r products and their d^r-term sum are 2 d^r terms: past
    # MAX_RAISED_TERMS, refused from d and r before any word is
    # enumerated; at the bound, built and verified
    monkeypatch.setattr(leavitt, "MAX_RAISED_TERMS", 2**6)
    assert strongly_graded_witness(FreeAlgebra(2), 5).verified
    monkeypatch.setattr(FreeAlgebra, "words", lambda self, n: pytest.fail("a word was enumerated"))
    A2, A3 = FreeAlgebra(2), FreeAlgebra(3)
    with time_limit(5):
        for A, r in ((A2, 6), (A3, 4), (A2, 10**9)):
            with pytest.raises(BudgetExceeded, match=f"checks 2 \\* {A.d}\\^{r} terms, above 64"):
                strongly_graded_witness(A, r)


def test_words_refuse_letters_that_are_not_ints(A2):
    # 0.5 once printed "x0.5*", True "xTrue*", and 1.0 was stored as a key
    for bad in ((0.5,), (True,), (1.0,), (0, False), ("0",)):
        for make in (lambda w: LeavittElement.monomial(A2, w, ()), lambda w: LeavittElement.monomial(A2, (), w),
                     A2.monomial, lambda w: flat_reassemble(A2, {w: A2.one()}),
                     lambda w: A2.free_module([0]).element({(0, w): 1})):
            with pytest.raises(ValueError, match="has letters outside 0..1"):
                make(bad)
    for bad in (True, 1.0):
        for make in (LeavittElement.gen, LeavittElement.gen_star, FreeAlgebra.gen):
            with pytest.raises(ValueError):
                make(A2, bad)
    # a bad word among good ones is named in the error
    with pytest.raises(ValueError, match=r"word \(0, 2\) has letters"):
        flat_reassemble(A2, {(1,): A2.one(), (0, 2): A2.one()})
    # what is accepted prints as text the parser reads back
    a = LeavittElement.monomial(A2, (1, 0), (0,), Fraction(-1, 2))
    assert str(a) == "-1/2 x0* x1* x0"
    assert _items(parse_leavitt(A2, str(a))) == _items(a)


def test_residue_basis_is_built_once_and_ledgers_stay_apart():
    for A in (FreeAlgebra(2), FreeAlgebra(3, GF(5))):
        k1, k2 = FpModule.residue(A), FpModule.residue(A)
        fresh = FpModule.cyclic(A, [A.gen(i) for i in range(A.d)])
        for k in (k1, k2):
            B, want = k.relation_basis(), fresh.relation_basis()
            assert B.ambient is k.F0
            assert (B._ints, list(B._by_coord.items()), B._lengths, B.degrees()) == \
                (want._ints, list(want._by_coord.items()), want._lengths, want.degrees())
            assert [e.terms for e in B.elements] == [e.terms for e in want.elements]
            assert [r.terms for r in k.relations] == [r.terms for r in fresh.relations]
        assert k1._rel_basis is not k2._rel_basis and k1._rel_basis._ints is k2._rel_basis._ints
        k1.std_basis(0)
        assert k1._held == 1 and k2._held == 0 and k2._std_cache == {}
