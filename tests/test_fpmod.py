import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest
from letter_matrix_oracle import letter_matrix as oracle_letter_matrix
from letter_matrix_oracle import mult_bijective as oracle_mult_bijective
from std_basis_oracle import std_basis as oracle_std_basis
from morphism_matrix_oracle import matrix_in_degree as oracle_matrix_in_degree
from torsion_oracle import torsion as oracle_torsion
from torsion_recursion_oracle import torsion as oracle_torsion_recursion

import freeproj
from freeproj import FreeAlgebra, FpModule, fpmod
from freeproj.errors import BudgetExceeded, CertificateMismatch
from freeproj.fields import GF, QQ
from freeproj.fpmod import MAX_STD_WORDS, FpModuleMorphism
from freeproj.freealg import ModuleMap, NcPoly
from freeproj.linalg import SparseMatrix, rank
from freeproj.parsing import parse_presentation
from freeproj.qgr import QgrClass, split_sequence
from freeproj.randgen import make_rng, random_module_map
from freeproj.submodules import kernel

from random_elements import random_module_element


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


def test_hilbert_is_the_closed_form_cached_per_degree():
    for M in letter_battery():
        degrees = list(range(-2, 11))
        random.Random(3).shuffle(degrees)
        for j in degrees + degrees:
            assert M.hilbert(j) == M.F0.graded_piece_dim(j) - M.relation_basis().submodule_dim(j)
        assert sorted(M._hilbert_cache) == sorted(degrees)


def test_std_basis_matches_enumeration(A2):
    M = quotient_by_first_letter(A2)
    words = [w for _, w in M.std_basis(3)]
    assert words == [w for w in A2.words(3) if w[-1] != 0]


def coefficients(field, fractions=False):
    """Nonzero coefficients 1..4, and with `fractions` also 1/2 and -2/3, so
    that normal forms over QQ hold Fractions."""
    coef = st.integers(1, 4)
    if fractions:
        coef = coef | st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])
    return coef.map(field.coerce)


def draw_element(draw, F, degree, coef):
    """A random degree-`degree` element of the free module F with up to three
    terms; zero when no drawn coordinate reaches the degree."""
    terms = {}
    for alpha in draw(st.lists(st.integers(0, F.rank - 1), min_size=1, max_size=3)):
        length = degree - F.shifts[alpha]
        if length >= 0:
            w = tuple(draw(st.lists(st.integers(0, F.algebra.d - 1), min_size=length, max_size=length)))
            terms[(alpha, w)] = draw(coef)
    return F.element(terms)


@st.composite
def presented_modules(draw, fractions=False, algebra=None):
    """Random presentations over QQ or GF(5), d = 1..3, or over algebra when
    given, with 1-3 generators of shift 0..2 and 0-3 random homogeneous
    relations; optionally a generator killed outright (leading word ()) and
    a coordinate cut off at length 1 or 2, which gives torsion."""
    if algebra is None:
        field = draw(st.sampled_from([QQ, GF(5)]))
        algebra = FreeAlgebra(draw(st.integers(1, 3)), field)
    A, field = algebra, algebra.field
    F = A.free_module(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    coef = coefficients(field, fractions)
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        rels.append(draw_element(draw, F, draw(st.integers(min(F.shifts), max(F.shifts) + 2)), coef))
    if draw(st.booleans()):
        rels.append(F.gen(draw(st.integers(0, F.rank - 1))).scale(draw(coef)))
    if draw(st.booleans()):
        alpha = draw(st.integers(0, F.rank - 1))
        length = draw(st.integers(1, 2))
        rels.extend(F.element({(alpha, w): field.one}) for w in A.words(length))
    return FpModule(F, rels)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(presented_modules(), st.data())
def test_std_basis_matches_enumeration_oracle(M, data):
    # degrees below min_degree included, queried in random order so the
    # extension starts from scratch, from a cached degree and from a gap
    lo, hi = M.min_degree - 2, max(M.F0.shifts) + 4
    degrees = data.draw(st.permutations(range(lo, hi)))
    for j in degrees:
        got = M.std_basis(j)
        assert got == oracle_std_basis(M, j)
        assert M._std_index(j) == {mon: k for k, mon in enumerate(got)}


def test_std_basis_matches_oracle_on_torsion_modules():
    A2, A3 = FreeAlgebra(2), FreeAlgebra(3, GF(5))
    mods = letter_battery() + [
        FpModule.tail_quotient(A3, 2),
        FpModule.residue(A3).shift(-1).direct_sum(FpModule.free(A3, [0])),
        FpModule(A2.free_module([0]), [A2.free_module([0]).from_polys([A2.one()])]),
    ]
    for M in mods:
        for j in range(M.min_degree - 1, M.min_degree + 6):
            assert M.std_basis(j) == oracle_std_basis(M, j)
    assert sum(M.torsion().dimension > 0 for M in mods) >= 4


def test_std_basis_refuses_over_budget_before_building(monkeypatch):
    # R/Rx0 at d=2 has 1 standard word in degree 0 and 2^(j-1) in degree j,
    # so 2^j in degrees 0..j together: degree 19 is the first past the bound
    A2 = FreeAlgebra(2)
    M = quotient_by_first_letter(A2)
    top = next(j for j in itertools.count(1) if sum(map(M.hilbert, range(j + 1))) > MAX_STD_WORDS)
    assert top == 19
    with pytest.raises(BudgetExceeded, match=f"degree {top} would add {M.hilbert(top)} standard words"):
        M.std_basis(top)
    # nothing was built: not even the degrees below the refused one
    assert M._std_cache == {} and M._held == 0
    # a degree below the target over the bound is refused too: R/R_{>=3}
    # has 1, 2, 4 and 0 words in degrees 0..3
    monkeypatch.setattr(fpmod, "MAX_STD_WORDS", 3)
    T = FpModule.tail_quotient(A2, 3)
    with pytest.raises(BudgetExceeded, match="degree 2 would add 4 standard words"):
        T.std_basis(3)
    assert T._std_cache == {}
    # the words of cached degrees count: degrees 0 and 1 keep 3, so a later
    # call for degree 2 alone is refused
    assert len(T.std_basis(1)) == 2
    with pytest.raises(BudgetExceeded, match="degree 2 would add 4 standard words, bringing the module's held words "
                                             "and rows to 7,"):
        T.std_basis(2)
    assert sorted(T._std_cache) == [0, 1]
    # a module with no standard words is never refused
    k = FpModule.residue(A2)
    assert k.std_basis(10 * top) == ()


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
                # by type as well: 2 == Fraction(2) would pass a value test
                assert typed_rows(fast) == typed_rows(SparseMatrix(M.algebra.field, len(slow), fast.ncols, slow))
                reduced += sum(1 for mon in products if mon not in std_next)
    assert reduced > 0


def pinned_lead_module(field, c):
    """R / (c * x1 + x0) at d = 2 over field: the lead x1 has tail x0 / c,
    so its row in the matrix of x1 out of degree 0 is -1/c, a Fraction
    with db = c > 1 over QQ and F.neg of 1/c over GF(p)."""
    A = FreeAlgebra(2, field)
    return FpModule.cyclic(A, [A.gen(1).scale(field.coerce(c)) + A.gen(0)])


def test_lead_rows_match_lookup_oracle():
    # below the bound every product that is a lead is read off the relation
    # basis; the oracle reduces it with `coords`.  Value, type and key order
    kinds = set()

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(presented_modules(fractions=True))
    @hypothesis.example(pinned_lead_module(QQ, 2))  # a lead of db = 2
    @hypothesis.example(pinned_lead_module(GF(7), 3))  # a GF(7) lead with a tail
    def check(M):
        slow, basis = FpModule(M.F0, M.relations), M.relation_basis()
        gfp = M.algebra.field.characteristic != 0
        for j in range(M.min_degree - 1, M._free_bound()):
            for i in range(M.algebra.d):
                assert typed_rows(M.letter_matrix(i, j)) == typed_rows(oracle_letter_matrix(slow, i, j))
                for alpha, w in M.std_basis(j):
                    if (idx := basis._by_coord.get(alpha, {}).get((i,) + w)) is not None:
                        db, tail = basis._ints[idx]
                        kinds.add("GF(p) tail" if gfp and tail else "QQ db > 1" if db > 1 else "other")

    check()
    assert {"QQ db > 1", "GF(p) tail"} <= kinds, kinds


class LookupLetters(FpModule):
    """An FpModule whose letter matrices are all the lookup-built oracle's,
    in every degree, so that its stable profile is certified from them by
    the oracle's rank check."""

    def letter_matrix(self, i, j):
        return oracle_letter_matrix(self, i, j)

    def _mult_bijective(self, j):
        return oracle_mult_bijective(self, j)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(presented_modules(fractions=True), st.data())
def test_free_tail_letter_matrices_match_lookup_oracle(M, data):
    # one degree below the bound b, on the lookup path, and five on the free
    # tail, in random order, so that the tail rows are built before and after
    # the lookup rows and std_basis(b)
    slow = LookupLetters(M.F0, M.relations)
    b = M._free_bound()
    for j in data.draw(st.permutations(range(b - 1, b + 5))):
        for i in data.draw(st.permutations(range(M.algebra.d))):
            fast, want = M.letter_matrix(i, j), oracle_letter_matrix(slow, i, j)
            assert (fast.nrows, fast.ncols) == (want.nrows, want.ncols)
            assert typed_rows(fast) == typed_rows(want)
    # no word past the bound was built for the tail rows
    assert max(M._std_cache, default=b) <= b
    got, want = M.stable_profile(), slow.stable_profile()
    assert (got.i0, got.t0) == (want.i0, want.t0)


def held_in_caches(M):
    """The standard words and letter-matrix rows M's caches hold."""
    return sum(len(std) for std, _ in M._std_cache.values()) + sum(m.nrows for m in M._letter_cache.values())


# The refusal of x0's matrix out of M_29 on R/Rx0 at d = 2, run in a child
# so that a lost row check fails under its address-space limit instead of
# building 2^28 row dicts in the test process.
LETTER_29_REFUSAL = """
import json, time
from freeproj import FreeAlgebra, FpModule
from freeproj.errors import BudgetExceeded
A = FreeAlgebra(2)
M = FpModule.cyclic(A, [A.gen(0)])
M._free_bound()
start = time.perf_counter()
error = None
try:
    M.letter_matrix(0, 29)
except BudgetExceeded as exc:
    error = str(exc)
print(json.dumps({"error": error, "seconds": time.perf_counter() - start,
                  "built": [len(M._letter_cache), len(M._std_cache), M._held]}))
"""


def test_free_tail_letter_matrix_refuses_over_budget_before_building(monkeypatch):
    # R/Rx0 at d = 2 is free past b = 1, with 2^28 words in degree 29: the
    # matrix out of M_29 would hold 2^28 rows, placed by word counts read off
    # the relation leads, and is refused before any row is built; no word is
    # built or counted.  The child runs under a 1.5 GB address-space limit.
    limit = 1_500_000_000

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(freeproj.__file__))
    proc = subprocess.run([sys.executable, "-c", LETTER_29_REFUSAL], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap, timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"] is not None
    assert report["error"].startswith(f"degree 29 would add {2**28} letter-matrix rows, bringing the "
                                      f"module's held words and rows to {2**28},")
    assert report["seconds"] < 1
    assert report["built"] == [0, 0, 0]
    # the same refusals in a budget of 2^10, small enough to build up to it
    # here: the rows out of M_11 fit and those out of M_12 do not
    monkeypatch.setattr(fpmod, "MAX_STD_WORDS", 2**10)
    M = quotient_by_first_letter(FreeAlgebra(2))
    b = M._free_bound()
    top = next(j for j in itertools.count(b) if M.hilbert(j) > fpmod.MAX_STD_WORDS)
    assert top == 12
    assert M.letter_matrix(1, top - 1).nrows == M.hilbert(top - 1) == 2**10
    assert M._std_cache == {}
    with pytest.raises(BudgetExceeded, match=f"degree {top} would add {2**11} letter-matrix rows, bringing "
                                             f"the module's held words and rows to {2**10 + 2**11},"):
        M.letter_matrix(1, top)
    # the rows of every letter matrix are held: x0's out of M_11 would be the
    # second 2^10 beside x1's
    with pytest.raises(BudgetExceeded, match=f"degree {top - 1} would add {2**10} letter-matrix rows, bringing "
                                             f"the module's held words and rows to {2**11},"):
        M.letter_matrix(0, top - 1)
    assert list(M._letter_cache) == [(1, top - 1)] and M._std_cache == {}
    assert M._held == held_in_caches(M) == 2**10


def test_letter_matrix_below_the_bound_refuses_before_building(monkeypatch):
    # R/R_{>=3} at d = 2, b = 3: x0 out of M_1 reads the 1 + 2 + 4 words of
    # degrees 0..2 and holds 2 rows, 9 in all
    T = FpModule.tail_quotient(FreeAlgebra(2), 3)
    monkeypatch.setattr(fpmod, "MAX_STD_WORDS", 8)
    with pytest.raises(BudgetExceeded, match="degree 1 would add 2 letter-matrix rows, bringing the module's held "
                                             "words and rows to 9,"):
        T.letter_matrix(0, 1)
    assert T._std_cache == {} and T._letter_cache == {} and T._held == 0
    # under a budget of 9 it is built, and nothing more fits
    monkeypatch.setattr(fpmod, "MAX_STD_WORDS", 9)
    assert T.letter_matrix(0, 1).nrows == 2
    assert T._held == held_in_caches(T) == 9
    with pytest.raises(BudgetExceeded, match="degree 0 would add 1 letter-matrix rows"):
        T.letter_matrix(1, 0)


def test_torsion_refuses_over_budget_before_building(monkeypatch):
    # R + k(-2) at d = 2: the walk holds normal forms, not words or rows, so
    # it answers under a budget of 0.  A finite-dimensional module's report
    # reads Hilbert values, and its generators, its standard words, are held
    # to the budget on first read: R/R_{>=3} has 1 + 2 + 4 of them, and
    # degree 2 is refused under 6 before any of its words is built
    monkeypatch.setattr(fpmod, "MAX_STD_WORDS", 0)
    M = parse_presentation("field: QQ\nd: 2\ngens: [0, 2]\nrels:\n0, x0\n0, x1\n").module()
    tors = M.torsion()
    assert tors.by_degree == {0: 0, 1: 0, 2: 1} and [g.terms for g in tors.generators] == [{(1, ()): 1}]
    assert M._std_cache == {} and M._letter_cache == {} and M._held == 0
    for budget in (6, 7):
        monkeypatch.setattr(fpmod, "MAX_STD_WORDS", budget)
        T = FpModule.tail_quotient(FreeAlgebra(2), 3)
        tors = T.torsion()
        assert tors.by_degree == {0: 1, 1: 2, 2: 4} and T._held == 0
        if budget == 6:
            with pytest.raises(BudgetExceeded, match="degree 2 would add 4 standard words"):
                tors.generators
            assert sorted(T._std_cache) == [0, 1]
        else:
            assert len(tors.generators) == 7
        assert T._held == held_in_caches(T) <= budget


def test_split_sequence_past_the_bound_refuses_before_building(monkeypatch):
    # 0 -> R -> (R/Rx0) + R -> R/Rx0 -> 0 split at i = 6, past every bound n:
    # past the bounds no word and no letter matrix is built, and each tail
    # degree's rows are held against their source module's ledger, not
    # added to it.  split_sequence builds f through n + 1, where exactness is
    # last checked, and g through max(i, n) + 1 = 7, where sigma * G = I is;
    # Section.verify builds g's degree-9 matrix on top of the middle module
    # S's held words and rows, and refuses degree 8 under a lower bound
    A2 = FreeAlgebra(2)

    def sequence():
        Q = quotient_by_first_letter(A2)
        S = Q.direct_sum(FpModule.free(A2, [0]))
        L = FpModule.free(A2, [0])
        f = FpModuleMorphism(L, S, ModuleMap(L.F0, S.F0, [[A2.zero(), A2.one()]]))
        g = FpModuleMorphism(S, Q, ModuleMap(S.F0, Q.F0, [[A2.one()], [A2.zero()]]))
        return f, g

    f, g = sequence()
    mods = (f.source, f.target, g.target)
    n = max(M._free_bound() for M in mods)
    sec = split_sequence(f, g, 6, degrees=3)
    assert n + 1 < 6 and list(sec.matrices) == [6, 7, 8, 9]
    assert max(f._matrix_cache) == n + 1 and max(g._matrix_cache) == 7
    assert sec.verify() and max(g._matrix_cache) == 9
    assert all(M._held == held_in_caches(M) for M in mods)
    S = f.target
    b = S._free_bound()
    assert b < 6 and max(S._std_cache) == b and max(j for _, j in S._letter_cache) < b
    held = S._held
    monkeypatch.setattr(fpmod, "MAX_STD_WORDS", held + S.hilbert(9))
    assert split_sequence(*sequence(), 6, degrees=3).verify()
    monkeypatch.setattr(fpmod, "MAX_STD_WORDS", held + S.hilbert(8) - 1)
    f, g = sequence()
    sec = split_sequence(f, g, 6, degrees=3)
    with pytest.raises(BudgetExceeded, match=f"degree 8 would add {S.hilbert(8)} tail-map rows, bringing the "
                                             f"module's held words and rows to {held + S.hilbert(8)},"):
        sec.verify()
    assert max(g._matrix_cache) == 7 and max(f._matrix_cache) == n + 1
    assert all(M._held == held_in_caches(M) <= fpmod.MAX_STD_WORDS for M in (f.source, f.target, g.target))


def test_held_count_is_the_cached_words_and_rows():
    for M in letter_battery():
        assert M._held == 0
        M.stable_profile()
        M.torsion()
        b = M._free_bound()
        for j in (b - 1, b, b + 2):
            M.letter_matrix(M.algebra.d - 1, j)
        assert M._held == held_in_caches(M) > 0


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(presented_modules(fractions=True))
def test_free_tail_layout_check_matches_rank_oracle(M):
    # the lemma: the layout at b passes (suffix-free leads, h_b and
    # h_{b+1} = d * h_b), and then V tensor M_j -> M_{j+1} is bijective at
    # every j in b..b+5 by exact rank of the stacked lookup-built letter
    # matrices, on a fresh copy of the module
    b = M._free_bound()
    M._free_layout(b)
    slow = FpModule(M.F0, M.relations)
    for j in range(b, b + 6):
        assert oracle_mult_bijective(slow, j)
    # no letter matrix and no word past b was built for the check
    assert M._letter_cache == {}
    assert max(M._std_cache, default=b) <= b
    if M.hilbert(b) == 0:
        return
    # a wrong count fails its Hilbert value in every degree laid out after
    # it, while the profile and torsion, which lay out nothing, answer
    # (layouts are cached per degree: the counts are read, and the Hilbert
    # values built, through b + 4 by laying out b + 3 alone, and corrupted
    # before the first layout of b..b+2)
    wrong = FpModule(M.F0, M.relations)
    wrong._free_layout(b + 3)
    assert list(wrong._layouts) == [b + 3]
    wrong._bound_counts[next(a for a, n in enumerate(wrong._bound_counts) if n)] += 1
    assert wrong.stable_profile().as_dict() == M.stable_profile().as_dict()
    assert wrong.torsion().by_degree == M.torsion().by_degree
    for j in range(b, b + 3):
        with pytest.raises(CertificateMismatch, match="Hilbert value"):
            wrong._free_layout(j)


@st.composite
def lead_count_modules(draw):
    """Presentations over QQ, GF(2) or GF(5), d = 1..3, with 1-3 generators
    of shift -1..2 and 0-5 random homogeneous relations, and maybe a
    generator killed outright, a leading word ()."""
    field = draw(st.sampled_from([QQ, GF(2), GF(5)]))
    A = FreeAlgebra(draw(st.integers(1, 3)), field)
    F = A.free_module(draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3)))
    coef = coefficients(field)
    rels = [draw_element(draw, F, draw(st.integers(min(F.shifts), max(F.shifts) + 2)), coef)
            for _ in range(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        rels.append(F.gen(draw(st.integers(0, F.rank - 1))))
    return FpModule(F, rels)


def killed_beside_a_relation():
    """R(1) + R + R(-2) at d = 3 over GF(2), the middle generator killed (a
    () lead, no word) and x0 x1 a relation at the last."""
    F = FreeAlgebra(3, GF(2)).free_module([-1, 0, 2])
    return FpModule(F, [F.gen(1), F.element({(2, (0, 1)): 1})])


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(lead_count_modules())
@hypothesis.example(killed_beside_a_relation())
def test_free_layout_counts_match_standard_words(M):
    # the counts read off the leads are the standard words at each
    # coordinate, enumerated by the oracle on a fresh copy, for j = b..b+2;
    # the layout builds no word
    b = M._free_bound()
    slow = FpModule(M.F0, M.relations)
    for j in range(b, b + 3):
        counts = [n for _, n, _ in M._free_layout(j)]
        want = [0] * M.F0.rank
        for alpha, _ in oracle_std_basis(slow, j):
            want[alpha] += 1
        assert counts == want and all(type(n) is int for n in counts)
    assert M._std_cache == {} and M._held == 0


@pytest.mark.parametrize("rename", [((0, 0), (0, 1)), ((1,), ())])
def test_free_layout_refuses_a_lead_ending_in_another(rename):
    # R/(x1, x0 x0) at d = 2 with one lead renamed in its index, keeping its
    # length or not: x1 ends x0 x1, and every word ends in ().  Renamed to
    # x0 x1 the counts still sum to the Hilbert values, so only the suffix
    # certificate refuses it, in the layout of the free tail; the profile
    # reads no lead and answers, and so does torsion, as no degree holds a
    # dead end (`test_torsion_refuses_a_lead_ending_in_another`)
    A2 = FreeAlgebra(2)
    x0, x1 = A2.gen(0), A2.gen(1)
    M = FpModule.cyclic(A2, [x1, x0 * x0])
    old, new = rename
    leads = M.relation_basis()._by_coord[0]
    assert list(leads) == [(1,), (0, 0)]
    leads[new] = leads.pop(old)
    assert M.stable_profile().t0 > 0 and M.torsion().by_degree == {}
    with pytest.raises(CertificateMismatch, match="a relation leading word ends in another at its coordinate"):
        M._free_layout(M._free_bound())
    assert M._bound_counts is None and M._std_cache == {}


def test_torsion_refuses_a_lead_ending_in_another():
    # R/(x0^3, x1 x0 x0, x1^3) at d = 2: x0 x0 is a dead end at degree 2,
    # where the walk lifts all three leads.  With x1^3 renamed to x1 x0^3 in
    # the lead index, that lead ends in x0^3, and the walk refuses it when
    # it lifts it; the profile reads no lead and answers
    A2 = FreeAlgebra(2)
    x0, x1 = A2.gen(0), A2.gen(1)
    M = FpModule.cyclic(A2, [x0 * x0 * x0, x1 * x0 * x0, x1 * x1 * x1])
    assert FpModule(M.F0, M.relations).torsion().by_degree == {0: 0, 1: 0, 2: 1}
    leads = M.relation_basis()._by_coord[0]
    assert list(leads) == [(0, 0, 0), (1, 0, 0), (1, 1, 1)] and M._dead_ends(3) == {2}
    leads[(1, 0, 0, 0)] = leads.pop((1, 1, 1))
    assert M.stable_profile().t0 > 0
    with pytest.raises(CertificateMismatch, match="a relation leading word ends in another at its coordinate"):
        M.torsion()
    assert M._std_cache == {} and M._letter_cache == {}


def test_stable_profile_checks_each_degree_once(mult_checks, A2):
    # R + R(-1) by x0 * e0 = e1 is free from degree 0 < b = 1: the walk down
    # from b checks exactly [i0, b), and i0 - 1 too where it stops above the
    # least degree; every C_{j+1} past b is empty, so no degree >= b is
    # checked and none is laid out
    F = A2.free_module([0, 1])
    M = FpModule(F, [F.from_polys([A2.gen(0), A2.one().scale(-1)])])
    b = M._free_bound()
    p = M.stable_profile()
    assert p.i0 < b
    assert mult_checks == list(range(b - 1, max(p.i0 - 1, M.min_degree) - 1, -1))
    assert list(M._layouts) == []
    # a second call returns the same profile and runs no check
    mult_checks.clear()
    assert M.stable_profile() is p and not mult_checks
    assert list(M._layouts) == []


def free_from_degree_zero():
    """R + R(-1) at d = 2 by x0 * e0 - e1: C_1 is the 1 x 1 matrix (-1)."""
    A2 = FreeAlgebra(2)
    F = A2.free_module([0, 1])
    return FpModule(F, [F.from_polys([A2.gen(0), A2.one().scale(-1)])])


def test_stable_profile_builds_no_free_tail_letter_matrix():
    # the third module is R by x0 * e0 = e1, free from degree 0 < b = 1
    golden = Path(__file__).parent / "golden" / "gf5.pres"
    mods = [
        quotient_by_first_letter(FreeAlgebra(2)),
        parse_presentation(golden.read_text()).module(),
        free_from_degree_zero(),
    ]
    for M in mods:
        M.stable_profile()
        b = M._free_bound()
        # the walk below b reads the relation basis: no letter matrix, no word
        assert M._letter_cache == {} and M._std_cache == {}
        # asked for afterwards, the tail matrices are the oracle's
        slow = FpModule(M.F0, M.relations)
        for j in range(b, b + 3):
            for i in range(M.algebra.d):
                assert typed_rows(M.letter_matrix(i, j)) == typed_rows(oracle_letter_matrix(slow, i, j))


def square_singular_module():
    """R + R(-1) + R(-1) at d = 2 by x0 * e0 - e1 - e2 and x1 * e0 - e1 - e2:
    C_1 is the 2 x 2 matrix of -1s, square and singular."""
    A2 = FreeAlgebra(2)
    F = A2.free_module([0, 1, 1])
    minus = A2.one().scale(-1)
    return FpModule(F, [F.from_polys([A2.gen(a), minus, minus]) for a in range(2)])


def test_mult_bijective_matches_rank_oracle():
    # the basis test (module docstring) against the rank walk of the stacked
    # lookup-built letter matrices on a fresh copy, at every j from
    # min_degree - 1 to b + 1, and (i0, t0) against the oracle's walk;
    # C_{j+1} is drawn empty, not square, square invertible and square singular
    kinds = set()

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(presented_modules())
    @hypothesis.example(FpModule.free(FreeAlgebra(2), [0]))  # C empty in every degree
    @hypothesis.example(quotient_by_first_letter(FreeAlgebra(3, GF(5))))  # C_1 is 1 x 0
    @hypothesis.example(free_from_degree_zero())  # C_1 = (-1)
    @hypothesis.example(square_singular_module())
    def check(M):
        slow, basis = FpModule(M.F0, M.relations), M.relation_basis()
        for j in range(M.min_degree - 1, M._free_bound() + 2):
            want = oracle_mult_bijective(slow, j)
            assert M._mult_bijective(j) == want
            n, g = basis.degrees().count(j + 1), M.F0.shifts.count(j + 1)
            kinds.add("empty" if n == g == 0 else "not square" if n != g else "invertible" if want else "singular")
        got, walk = M.stable_profile(), LookupLetters(M.F0, M.relations).stable_profile()
        assert (got.i0, got.t0) == (walk.i0, walk.t0)
        assert M._letter_cache == {} and M._std_cache == {}

    check()
    assert kinds == {"empty", "not square", "invertible", "singular"}, kinds


def typed_rows(mat):
    """The rows of a SparseMatrix with key order and value types made visible."""
    return [[(c, type(v), v) for c, v in row.items()] for row in mat.rows]


def assert_same_torsion_spaces(M, got, want):
    """Per degree, the generators of got and want span one space of M_j:
    as many of each, independent, and their union has no larger rank."""
    assert got.dimension == want.dimension == len(got.generators) == len(want.generators)
    spaces = [{}, {}]
    for space, tors in zip(spaces, (got, want)):
        for g in tors.generators:
            j = g.degree()
            space.setdefault(j, []).append(M.coords(g, j))
    assert spaces[0].keys() == spaces[1].keys()
    F = M.algebra.field
    for j, rows in spaces[0].items():
        other = spaces[1][j]
        assert len(rows) == len(other) == rank(SparseMatrix(F, len(rows), M.hilbert(j), rows))
        assert rank(SparseMatrix(F, 2 * len(rows), M.hilbert(j), rows + other)) == len(rows)


def assert_torsion_matches_oracle(M):
    """The torsion generators span the word-product oracle's space in each
    degree, and by_degree is the Hilbert function of the presented torsion;
    returns the dimension."""
    got, want = M.torsion(), oracle_torsion(FpModule(M.F0, M.relations))
    assert_same_torsion_spaces(M, got, want)
    presented = range(M.min_degree, M.stable_profile().i0) if want.dimension else ()
    assert got.by_degree == {j: want.module.hilbert(j) for j in presented}
    return got.dimension


def test_torsion_matches_word_product_oracle_on_battery():
    A2, A3 = FreeAlgebra(2), FreeAlgebra(3, GF(5))
    point_plus_free = "field: QQ\nd: 2\ngens: [0, 6]\nrels:\nx0, 0\nx1, 0\n"
    mods = letter_battery() + [
        FpModule.tail_quotient(A3, 2),
        FpModule.residue(A3).shift(-1).direct_sum(FpModule.free(A3, [0])),
        FpModule(A2.free_module([0]), [A2.free_module([0]).from_polys([A2.one()])]),
        FpModule.free(FreeAlgebra(1), [0, 1]),
        parse_presentation(point_plus_free).module(),
    ]
    dims = [assert_torsion_matches_oracle(M) for M in mods]
    assert sum(dim > 0 for dim in dims) >= 4


@st.composite
def twisted_modules(draw):
    """`presented_modules(fractions=True)` twisted down by 0..2, so that
    shifts run negative."""
    return draw(presented_modules(fractions=True)).shift(draw(st.integers(0, 2)))


def torsion_walk_kinds(M, tors) -> set:
    """Where the walk runs (t0 > 0): no torsion, torsion in one degree or
    in several, and torsion beside a generator killed outright (a () lead)."""
    if not M.stable_profile().t0:
        return set()
    degrees = sum(map(bool, tors.by_degree.values()))
    kinds = {"no torsion" if not degrees else "one degree" if degrees == 1 else "several degrees"}
    if degrees and any(() in leads for leads in M.relation_basis()._by_coord.values()):
        kinds.add("killed generator")
    return kinds


def pinned_torsion_modules() -> list:
    """A module of each `torsion_walk_kinds` kind, over QQ and GF(p), d = 1..3."""
    A2, A1, B2, B3 = FreeAlgebra(2), FreeAlgebra(1, GF(5)), FreeAlgebra(2, GF(5)), FreeAlgebra(3, GF(7))
    x0, x1 = A2.gen(0), A2.gen(1)
    return [
        # a dead end at degree 1, x0 x1 and x1 x1 being leads, and no torsion
        FpModule.cyclic(A2, [x1 * x1, x0 * x1 + x0 * x0]),
        # k(-2) + R at d = 3
        FpModule.residue(B3).shift(-2).direct_sum(FpModule.free(B3, [0])),
        # k(-1) + k(-3) + R(-1): torsion in degrees 1 and 3, none between
        FpModule.residue(B2).shift(-1).direct_sum(FpModule.residue(B2).shift(-3)).direct_sum(
            FpModule.free(B2, [1])),
        # k[x]/(x^3) + k[x](-1) at d = 1
        FpModule.cyclic(A1, [A1.gen(0) * A1.gen(0) * A1.gen(0)]).direct_sum(FpModule.free(A1, [1])),
        # e2 = -e1 is killed, e1 = x0 e0 and x1 e0 = 0: a dead end at e0,
        # and no torsion there only because e1 is not one; e3 is a point
        parse_presentation("field: QQ\nd: 2\ngens: [0, 1, 1, 1]\nrels:\n0, 1, 1, 0\nx0, -1, 0, 0\nx1, 0, 0, 0\n"
                           "0, 0, 0, x0\n0, 0, 0, x1\n").module(),
    ]


def test_torsion_matches_word_product_oracle():
    # by_degree and the torsion space in each degree match the word-product
    # oracle on twisted presentations over QQ and GF(5), d = 1..3; each kind
    # of `torsion_walk_kinds` is drawn, and pinned by an example
    kinds = set()
    pinned = pinned_torsion_modules()

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(twisted_modules())
    @hypothesis.example(pinned[0])
    @hypothesis.example(pinned[1])
    @hypothesis.example(pinned[2])
    @hypothesis.example(pinned[3])
    @hypothesis.example(pinned[4])
    def check(M):
        assert_torsion_matches_oracle(M)
        kinds.update(torsion_walk_kinds(M, M.torsion()))

    check()
    assert kinds == {"no torsion", "one degree", "several degrees", "killed generator"}, kinds
    pins = [torsion_walk_kinds(M, M.torsion()) for M in pinned]
    assert pins == [{"no torsion"}, {"one degree"}, {"several degrees"}, {"several degrees"},
                    {"one degree", "killed generator"}], pins


def assert_torsion_matches_recursion(M):
    """M.torsion() has the one-letter recursion's by_degree and, in each
    degree, its space, on fresh copies of M; returns (t0 > 0, dimension)."""
    got = FpModule(M.F0, M.relations).torsion()
    want = oracle_torsion_recursion(FpModule(M.F0, M.relations))
    assert got.by_degree == want.by_degree
    assert_same_torsion_spaces(FpModule(M.F0, M.relations), got, want)
    return M.stable_profile().t0 > 0, got.dimension


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(presented_modules(fractions=True))
def test_torsion_matches_recursion_oracle(M):
    assert_torsion_matches_recursion(M)


def test_torsion_matches_recursion_oracle_on_battery():
    # every branch: no torsion, with no dead end or with one, over several
    # degrees; torsion under a free tail (the walk runs); all torsion
    # (t0 = 0)
    A2, A3 = FreeAlgebra(2), FreeAlgebra(3, GF(5))
    x0, x1 = A2.gen(0), A2.gen(1)
    mods = letter_battery() + [
        FpModule.cyclic(A2, [x0 * x0 * x0 * x0]),
        FpModule.cyclic(A2, [x1 * x1, x0 * x1 + x0 * x0]),
        FpModule.residue(A3).shift(-1).direct_sum(FpModule.free(A3, [0])),
        parse_presentation("field: QQ\nd: 2\ngens: [0, 2]\nrels:\n0, x0\n0, x1\n").module(),
        FpModule.free(FreeAlgebra(1), [0, 1]),
    ]
    kinds = [assert_torsion_matches_recursion(M) for M in mods]
    assert (True, 0) in kinds
    assert any(free and dim for free, dim in kinds)
    assert any(not free for free, _ in kinds)


def count_calls(monkeypatch, module, names) -> dict:
    """{name: calls so far} for functions of a module, counted from now."""
    calls = dict.fromkeys(names, 0)

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_zero_torsion_is_certified_without_elimination(monkeypatch):
    calls = count_calls(monkeypatch, fpmod, ["rank", "row_reduce"])
    A2 = FreeAlgebra(2)
    x0, x1 = A2.gen(0), A2.gen(1)
    # R/R x0^4: i0 = 4 and t0 = 15, no torsion.  No degree holds a dead
    # end, so the walk has nowhere to start: no elimination, no word, no
    # letter matrix
    M = FpModule.cyclic(A2, [x0 * x0 * x0 * x0])
    assert (M.stable_profile().i0, M.stable_profile().t0) == (4, 15)
    profile_ranks = calls["rank"]
    tors = M.torsion()
    assert (tors.by_degree, tors.generators, tors.dimension) == ({}, (), 0)
    assert calls == {"rank": profile_ranks, "row_reduce": 0}
    assert M._letter_cache == {} and M._std_cache == {}
    # R/(x1 x1, x0 x1 + x0 x0): both products of x1 are leading words, so
    # the walk starts at degree 1, with two eliminations there: e_0 tensor
    # (x1 + x0) lies in the lifts' span, e_1 tensor (x1 + x0) does not
    N = FpModule.cyclic(A2, [x1 * x1, x0 * x1 + x0 * x0])
    assert N.stable_profile().i0 == 2
    ranks = calls["rank"]
    assert N.torsion().dimension == 0
    assert calls == {"rank": ranks, "row_reduce": 2}
    # the point k(-2) is the one dead end: one elimination there, whose
    # remainders are zero, and below it one held vector and no basis
    # element, fewer than d, so no elimination
    k = FpModule.residue(A2).shift(-2).direct_sum(M)
    assert k.torsion().by_degree == {j: int(j == 2) for j in range(4)}
    assert calls["row_reduce"] == 3


def words_keep_a_letter(M, j: int) -> bool:
    """The frozen word test: does every standard word w of M_j have a
    standard product x_a * w?"""
    d, index = M.algebra.d, M._std_index(j + 1)
    return all(any((alpha, (a,) + w) in index for a in range(d)) for alpha, w in M.std_basis(j))


def assert_dead_ends_match_word_test(M):
    """On a fresh copy of M, below i0 a degree holds a dead end exactly
    when the frozen word test fails there.  Returns (t0 > 0, dead ends
    below i0)."""
    got = FpModule(M.F0, M.relations)
    p = got.stable_profile()
    if not p.t0:
        return False, set()
    dead = got._dead_ends(p.i0)
    for j in range(got.min_degree, p.i0):
        assert (j in dead) != words_keep_a_letter(got, j)
    return True, dead


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(twisted_modules())
def test_dead_ends_match_frozen_word_test(M):
    assert_dead_ends_match_word_test(M)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(twisted_modules())
def test_dead_end_candidates_are_standard_words(M):
    # on a valid basis `_dead_ends` lists only true dead ends: for a lead v
    # whose d words (a,) + v[1:] are all leads at alpha, v[1:], a proper
    # suffix of a lead, is a standard word, in a degree at or above
    # min_degree
    d, shifts = M.algebra.d, M.F0.shifts
    for alpha, leads in M.relation_basis()._by_coord.items():
        for v in leads:
            if v and all((a,) + v[1:] in leads for a in range(d)):
                j = shifts[alpha] + len(v) - 1
                assert j >= M.min_degree and (alpha, v[1:]) in M.std_basis(j)


def test_dead_ends_match_frozen_word_test_on_golden_and_battery():
    A1, A2, A3 = FreeAlgebra(1), FreeAlgebra(2), FreeAlgebra(3, GF(5))
    x0, x1 = A2.gen(0), A2.gen(1)
    golden = sorted((Path(__file__).parent / "golden").glob("*.pres"))
    mods = [parse_presentation(path.read_text()).module() for path in golden] + letter_battery() + [
        FpModule.cyclic(A2, [x0 * x0 * x0 * x0]),
        FpModule.cyclic(A2, [x1 * x1, x0 * x1 + x0 * x0]).shift(2),
        FpModule.cyclic(A1, [A1.gen(0) * A1.gen(0)]).direct_sum(FpModule.free(A1, [1])),
        FpModule.residue(A3).shift(-1).direct_sum(FpModule.free(A3, [0])),
        FpModule.tail_quotient(A3, 2).direct_sum(FpModule.free(A3, [-1])),
    ]
    kinds = [assert_dead_ends_match_word_test(M) for M in mods]
    assert any(free and not dead for free, dead in kinds)
    assert any(free and dead for free, dead in kinds)
    assert any(not free for free, _ in kinds)


def test_torsion_takes_a_rank_only_at_dead_ends(monkeypatch):
    # while it holds nothing, the walk eliminates only at a degree that
    # holds a dead end, and it starts at the highest one; a step's degree
    # is one below its basis elements'
    steps = []
    real = FpModule._torsion_below

    def recorded(self, held, top):
        steps.extend({self.relation_basis().degrees()[i] - 1 for _, _, i in top})
        return real(self, held, top)

    monkeypatch.setattr(FpModule, "_torsion_below", recorded)
    A2 = FreeAlgebra(2)
    x0, x1 = A2.gen(0), A2.gen(1)
    # R/R x0^4: t0 = 15 > 0 and no dead end, so no step
    M = FpModule.cyclic(A2, [x0 * x0 * x0 * x0])
    profile = M.stable_profile()
    assert profile.t0 > 0 and M._dead_ends(profile.i0) == set()
    assert M.torsion().dimension == 0 and steps == []
    # R/(x1 x1, x0 x1 + x0 x0): both products of x1 are leading words, one
    # dead end at degree 1 < i0 = 2, so one step there
    N = FpModule.cyclic(A2, [x1 * x1, x0 * x1 + x0 * x0])
    assert N.stable_profile().i0 == 2 and N._dead_ends(2) == {1}
    assert N.torsion().dimension == 0 and steps == [1]
    # R + R(-1) + R(-1) by x0 e0 = e1 and x1 e0 = e2 is R, i0 = 0: its dead
    # end () at degree 0 is not below i0 and takes no step
    F = A2.free_module([0, 1, 1])
    one, zero = A2.one(), A2.zero()
    P = FpModule(F, [F.from_polys([x0, -one, zero]), F.from_polys([x1, zero, -one])])
    assert P.stable_profile().i0 == 0 and P._dead_ends(1) == {0} and P._dead_ends(0) == set()
    assert P.torsion().dimension == 0 and steps == [1]
    # k(-1) + k(-3) + R(-1) + R/R x0^4: dead ends at 3 and 1, and the point
    # at 3 held at 2 is one vector beside no basis element, fewer than d
    Q = FpModule.residue(A2).shift(-1).direct_sum(FpModule.residue(A2).shift(-3)).direct_sum(M)
    steps.clear()
    assert Q.torsion().by_degree == {0: 0, 1: 1, 2: 0, 3: 1} and steps == [3, 1]


def test_morphism_matrix_cache_matches_fresh_morphism():
    for M in letter_battery():
        q = FpModuleMorphism(FpModule(M.F0), M, ModuleMap.identity(M.F0))
        for j in range(M.min_degree - 1, M.min_degree + 4):
            first = q.matrix_in_degree(j)
            assert q.matrix_in_degree(j) is first
            fresh = FpModuleMorphism(q.source, M, q.map0).matrix_in_degree(j)
            assert fresh is not first
            assert (first.nrows, first.ncols) == (fresh.nrows, fresh.ncols)
            assert typed_rows(first) == typed_rows(fresh)


@st.composite
def morphisms(draw):
    """Random FpModuleMorphisms from `presented_modules(fractions=True)` M:
    the identity cover onto M; the kernel inclusion or the quotient of a
    random cover map psi, built as `bench/ops.py` builds them for sections;
    or psi itself onto a target whose relations are the images of M's and up
    to two more, so that the cover matrix is not the identity."""
    M = draw(presented_modules(fractions=True))
    A, F = M.algebra, M.F0
    coef = coefficients(A.field, fractions=True)
    kind = draw(st.sampled_from(["quotient", "kernel", "cover"]))
    if kind == "quotient":
        return FpModuleMorphism(FpModule(F), M, ModuleMap.identity(F))
    G = A.free_module(draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)))
    psi = ModuleMap(F, G, [draw_element(draw, G, b, coef).polys() for b in F.shifts])
    if kind == "kernel":
        K = kernel(psi)
        L = FpModule(A.free_module(list(K.degrees())))
        f = FpModuleMorphism(L, FpModule(F), ModuleMap(L.F0, F, [b.polys() for b in K.elements]))
        g = FpModuleMorphism(FpModule(F), FpModule(F, list(K.elements)), ModuleMap.identity(F))
        return draw(st.sampled_from([f, g]))
    extra = [
        draw_element(draw, G, draw(st.integers(min(G.shifts), max(G.shifts) + 2)), coef)
        for _ in range(draw(st.integers(0, 2)))
    ]
    return FpModuleMorphism(M, FpModule(G, [psi.apply(r) for r in M.relations] + extra), psi)


def test_generator_rows_reduce_a_cover_coefficient_mod_p():
    # a ModuleMap built directly over GF(7) may hold 9; the generator row of
    # degree 0 reads its class 2, as every row the letters extend does
    A = FreeAlgebra(2, GF(7))
    M = FpModule.free(A, [0])
    phi = FpModuleMorphism(M, M, ModuleMap(M.F0, M.F0, [[NcPoly(A, {(): 9})]]))
    assert phi.matrix_in_degree(0).rows == ({0: 2},)
    assert phi.matrix_in_degree(1).rows == ({0: 2}, {1: 2})


def assert_morphism_matrix_matches_oracle(phi, j):
    fast, slow = phi.matrix_in_degree(j), oracle_matrix_in_degree(phi, j)
    assert (fast.nrows, fast.ncols) == (slow.nrows, slow.ncols)
    assert typed_rows(fast) == typed_rows(slow)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(morphisms(), st.data())
def test_morphism_matrices_match_oracle(phi, data):
    # degrees from two below the source's lowest generator, queried in random
    # order, so that the extension starts from an empty and a partial cache
    shifts = phi.source.F0.shifts + phi.target.F0.shifts
    degrees = range(phi.source.min_degree - 2, max(shifts, default=0) + 4)
    for j in data.draw(st.permutations(degrees)):
        assert_morphism_matrix_matches_oracle(phi, j)


def test_morphism_matrices_match_oracle_on_sections():
    # the kernel inclusion f and the quotient g of random d = 2 cover maps,
    # as `bench/ops.py` builds them, over QQ and GF(5), through the degrees a
    # section reads
    products = multi = 0
    for seed in range(12):
        rng = make_rng(seed)
        A = FreeAlgebra(2, GF(5) if seed % 3 == 0 else QQ)
        src = [rng.randint(0, 2) for _ in range(rng.randint(2, 3))]
        phi = random_module_map(rng, A, src, [0, 1][: rng.randint(1, 2)], span=1)
        K = kernel(phi)
        S = phi.source
        L = FpModule(A.free_module(list(K.degrees())))
        f = FpModuleMorphism(L, FpModule(S), ModuleMap(L.F0, S, [b.polys() for b in K.elements]))
        g = FpModuleMorphism(FpModule(S), FpModule(S, list(K.elements)), ModuleMap.identity(S))
        for h in (f, g):
            for j in range(h.source.min_degree - 1, h.source.min_degree + 5):
                assert_morphism_matrix_matches_oracle(h, j)
                products += sum(1 for _, w in h.source.std_basis(j) if w)
                multi += sum(1 for row in h.matrix_in_degree(j).rows if len(row) > 1)
    assert products > 0 and multi > 0


def test_sections_leave_cached_letter_rows_unchanged():
    # a one-entry row of a morphism matrix or a product shares its letter
    # row; after split_sequence and Section.verify() every cached letter
    # matrix of the modules still equals a fresh module's, value and type
    checked = 0
    for seed in range(8):
        rng = make_rng(seed)
        A = FreeAlgebra(2, GF(5) if seed % 3 == 0 else QQ)
        src = [rng.randint(0, 2) for _ in range(rng.randint(2, 3))]
        phi = random_module_map(rng, A, src, [0, 1][: rng.randint(1, 2)], span=1)
        K = kernel(phi)
        S = phi.source
        L, M, N = FpModule(A.free_module(list(K.degrees()))), FpModule(S), FpModule(S, list(K.elements))
        f = FpModuleMorphism(L, M, ModuleMap(L.F0, S, [b.polys() for b in K.elements]))
        g = FpModuleMorphism(M, N, ModuleMap.identity(S))
        assert split_sequence(f, g, N.stable_profile().i0, degrees=4).verify()
        for X in (L, M, N):
            fresh = FpModule(X.F0, X.relations)
            for (i, j), mat in X._letter_cache.items():
                assert typed_rows(mat) == typed_rows(fresh.letter_matrix(i, j))
                checked += 1
    assert checked > 0


def test_morphism_rows_list_columns_in_term_order(A2):
    # e -> x0 + x1 onto R/R(x1 x1 - x0 x0): the row of x1*e sums the letter
    # rows of x1 and x0, x1 x1 = x0 x0 first and then x1 x0, but the normal
    # form lists x1 x0 first
    x0, x1 = A2.gen(0), A2.gen(1)
    N = FpModule.cyclic(A2, [x1 * x1 - x0 * x0])
    src = A2.free_module([1])
    phi = FpModuleMorphism(FpModule(src), N, ModuleMap(src, N.F0, [[x0 + x1]]))
    index = N._std_index(2)
    row = phi.matrix_in_degree(2).rows[1]
    assert list(row) == [index[(0, (1, 0))], index[(0, (0, 0))]]
    assert_morphism_matrix_matches_oracle(phi, 2)


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
    assert tors.by_degree == {0: 1}
    assert [M.submodule_presentation(tors.generators).hilbert(j) for j in range(3)] == [1, 0, 0]
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


def test_k0_class_refuses_a_profile_the_presentation_disagrees_with(monkeypatch):
    # R/Rx0: b = 1, n = 2 - 1 = 1 and the profile (i0, t0) = (1, 1).  A
    # genuine relation basis gives n = h_b >= 0, equal to t0 * d^(b - i0),
    # so the refusal is reached only by corrupting one side: t0 or i0 of the
    # profile, or the relation degrees, which make n negative
    A2 = FreeAlgebra(2)
    cases = [
        (fpmod.StableProfile(1, 2, 2), None, "presentation class 1 * 2^-1 != profile class 2 * 2^-1"),
        (fpmod.StableProfile(0, 1, 2), None, "presentation class 1 * 2^-1 != profile class 1 * 2^0"),
        (fpmod.StableProfile(1, 0, 2), None, "presentation class 1 * 2^-1 != profile class 0 * 2^-1"),
        (None, (1, 1, 1), "presentation class -1 * 2^-1 != profile class 1 * 2^-1"),
    ]
    for profile, degrees, message in cases:
        M = quotient_by_first_letter(A2)
        assert (M.stable_profile().i0, M.stable_profile().t0, M._free_bound()) == (1, 1, 1)
        assert M.k0_class() == QgrClass(1, 1, 2)
        if profile is not None:
            monkeypatch.setattr(M, "_profile", profile)
        if degrees is not None:
            monkeypatch.setattr(M.relation_basis(), "_degrees", degrees)
        with pytest.raises(CertificateMismatch) as err:
            M.k0_class()
        assert str(err.value) == message


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


@pytest.mark.parametrize("m", [1.5, "1"])
def test_shifts_and_twists_must_be_integers(A2, m):
    # a float or a string is refused, not truncated or parsed: R(1.5) is not R(1)
    for build in (lambda: A2.free_module([m]), lambda: A2.free_module([0]).shifted(m),
                  lambda: FpModule.free(A2, [0]).shift(m), lambda: FpModule.free(A2, []).shift(m)):
        with pytest.raises(ValueError, match="shifts and twists must be integers"):
            build()


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
    assert Z.k0_class() == QgrClass(0, 0, 2)
    assert Z.torsion().dimension == 0
    full = FpModule(A2.free_module([0]), [A2.free_module([0]).from_polys([A2.one()])])
    assert all(full.hilbert(j) == 0 for j in range(4))
    assert full.k0_class() == QgrClass(0, 0, 2)


def test_morphism_matrix_composes(A2):
    R = FpModule.free(A2, [0])
    M = quotient_by_first_letter(A2)
    q = FpModuleMorphism(R, M, ModuleMap.identity(R.F0))
    idm = FpModuleMorphism(M, M, ModuleMap.identity(M.F0))
    comp = q.compose(idm)
    for j in range(4):
        assert comp.matrix_in_degree(j) == q.matrix_in_degree(j)


def test_relations_are_checked_once_at_construction(A2):
    # the relation basis is built with the module, so a relation that is not
    # homogeneous, or lives in another free module, is refused at once, by
    # weak_basis's own checks
    F = A2.free_module([0, 1])
    x0, x1 = A2.gen(0), A2.gen(1)
    with pytest.raises(ValueError, match="generators must be homogeneous"):
        FpModule(F, [F.from_polys([x0 * x1, A2.zero()]), F.from_polys([x0, x1])])
    other = A2.free_module([1, 1])
    with pytest.raises(ValueError, match="generators live in different modules"):
        FpModule(F, [F.from_polys([x0, A2.one()]), other.from_polys([x0, x1])])
    # a zero relation is dropped, and an equal free module is the same one
    M = FpModule(F, [F.element({}), A2.free_module([0, 1]).from_polys([x0 * x1, x1])])
    assert len(M.relations) == 1 and M.relation_basis().rank == 1


@pytest.mark.parametrize("make", [
    lambda: FpModule.tail_quotient(FreeAlgebra(2), 4),
    lambda: FpModule.tail_quotient(FreeAlgebra(3, GF(5)), 2),
    lambda: parse_presentation("field: QQ\nd: 2\ngens: [0, 1]\nrels:\nx0, 0\nx1, 0\n0, x0\n0, x1\n").module(),
    lambda: parse_presentation("field: QQ\nd: 2\ngens: [0]\nrels:\n1\n").module(),
], ids=["r-mod-r-ge4", "r-mod-r-ge2-gf5", "two-points", "zero"])
def test_finite_dimensional_torsion_builds_no_word(make):
    # the report is read off the Hilbert values: no standard word is built
    # and nothing is held until the generators are read, which then match
    # the word-product oracle in value, value type and order
    M = make()
    tors = M.torsion()
    assert M.is_fdim() and M._std_cache == {} and M._held == 0
    want = oracle_torsion(make())
    assert tors.dimension == want.dimension == sum(tors.by_degree.values())
    typed = [[(mon, type(c), c) for mon, c in g.terms.items()] for g in tors.generators]
    assert typed == [[(mon, type(c), c) for mon, c in g.terms.items()] for g in want.generators]
    assert type(tors.generators) is tuple and tors.generators is tors.generators
