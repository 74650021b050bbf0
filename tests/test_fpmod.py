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

import freeproj
from freeproj import FreeAlgebra, FpModule, fpmod
from freeproj.errors import BudgetExceeded, CertificateMismatch
from freeproj.fields import GF, QQ
from freeproj.fpmod import MAX_STD_WORDS, FpModuleMorphism
from freeproj.freealg import ModuleMap
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
def presented_modules(draw, fractions=False):
    """Random presentations over QQ or GF(5), d = 1..3, with 1-3 generators
    of shift 0..2 and 0-3 random homogeneous relations; optionally a
    generator killed outright (leading word ()) and a coordinate cut off at
    length 1 or 2, which gives torsion."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    A = FreeAlgebra(draw(st.integers(1, 3)), field)
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
    with pytest.raises(BudgetExceeded, match=f"degree {top} would add {M.hilbert(top)} standard words") as err:
        M.std_basis(top)
    assert "--degree-cap" not in str(err.value)
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
                assert [list(r.items()) for r in fast.rows] == [list(r.items()) for r in slow]
                reduced += sum(1 for mon in products if mon not in std_next)
    assert reduced > 0


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
    assert (got.i0, got.t0, got.certified_through) == (want.i0, want.t0, want.certified_through)


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


def test_free_tail_letter_matrix_refuses_over_budget_before_building():
    # R/Rx0 at d = 2 is free past b = 1, with 2^28 words in degree 29: the
    # matrix out of M_29 would hold 2^28 rows, placed from the 2 words of
    # degrees 0..1, and is refused before those words are built.  The child
    # runs under a 1.5 GB address-space limit.
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
                                      f"module's held words and rows to {2**28 + 2},")
    assert report["seconds"] < 1
    assert report["built"] == [0, 0, 0]
    M = quotient_by_first_letter(FreeAlgebra(2))
    b = M._free_bound()
    # beside those 2 words the rows out of M_18 fit and those out of M_19 do not
    top = next(j for j in itertools.count(b) if 2 + M.hilbert(j) > MAX_STD_WORDS)
    assert top == 19
    assert M.letter_matrix(1, top - 1).nrows == M.hilbert(top - 1)
    assert max(M._std_cache) == b
    with pytest.raises(BudgetExceeded, match=f"degree {top} would add"):
        M.letter_matrix(1, top)
    # the rows of every letter matrix are held: x0's out of M_18 would be the
    # second 2^17 beside x1's
    with pytest.raises(BudgetExceeded, match=f"degree {top - 1} would add {2**17} letter-matrix rows, bringing "
                                             f"the module's held words and rows to {2 + 2**18},"):
        M.letter_matrix(0, top - 1)
    assert list(M._letter_cache) == [(1, top - 1)]
    assert M._held == held_in_caches(M) == 2 + 2**17


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
    # R + k(-2) at d = 2: its profile holds the words of degrees 0..3 and no
    # row, and its torsion the rows of both letters out of degrees 0..2
    text = "field: QQ\nd: 2\ngens: [0, 2]\nrels:\n0, x0\n0, x1\n"
    for short in (1, 0):
        M = parse_presentation(text).module()
        M.stable_profile()
        assert M._letter_cache == {}
        need = 2 * sum(map(M.hilbert, range(3)))
        monkeypatch.setattr(fpmod, "MAX_STD_WORDS", M._held + need - short)
        if short:
            with pytest.raises(BudgetExceeded, match="letter-matrix rows"):
                M.torsion()
        else:
            assert M.torsion().dimension == 1
        assert M._held == held_in_caches(M) <= fpmod.MAX_STD_WORDS
    assert M._held == fpmod.MAX_STD_WORDS


def test_split_sequence_past_the_bound_refuses_before_building(monkeypatch):
    # 0 -> R -> (R/Rx0) + R -> R/Rx0 -> 0 split at i = 6, past every bound:
    # the middle module's last build is its free-tail rows out of M_8
    A2 = FreeAlgebra(2)

    def sequence():
        Q = quotient_by_first_letter(A2)
        S = Q.direct_sum(FpModule.free(A2, [0]))
        L = FpModule.free(A2, [0])
        f = FpModuleMorphism(L, S, ModuleMap(L.F0, S.F0, [[A2.zero(), A2.one()]]))
        g = FpModuleMorphism(S, Q, ModuleMap(S.F0, Q.F0, [[A2.one()], [A2.zero()]]))
        return f, g

    f, g = sequence()
    assert split_sequence(f, g, 6, degrees=3).verify()
    mods = (f.source, f.target, g.target)
    assert all(M._held == held_in_caches(M) for M in mods)
    S = f.target
    assert S._held == max(M._held for M in mods) and S._free_bound() < 6
    monkeypatch.setattr(fpmod, "MAX_STD_WORDS", S._held - 1)
    f, g = sequence()
    with pytest.raises(BudgetExceeded, match=f"degree 8 would add {S.hilbert(8)} letter-matrix rows"):
        split_sequence(f, g, 6, degrees=3)
    assert (0, 8) in f.target._letter_cache and (1, 8) not in f.target._letter_cache
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


class MovedLayout(FpModule):
    """An FpModule whose free-tail layout moves one entry of its first
    nonempty coordinate by one: entry 0 is the row start, 2 the column
    offset."""

    def __init__(self, M, which):
        super().__init__(M.F0, M.relations)
        self.moved = which

    def _free_layout(self, j):
        layout = [list(entry) for entry in super()._free_layout(j)]
        next(entry for entry in layout if entry[1])[self.moved] += 1
        return [tuple(entry) for entry in layout]


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(presented_modules(fractions=True))
def test_free_tail_layout_check_matches_rank_oracle(M):
    # the layout check of degrees b..b+4 against exact rank of the stacked
    # lookup-built letter matrices, on a fresh copy of the module
    b = M._free_bound()
    slow = FpModule(M.F0, M.relations)
    for j in range(b, b + 5):
        assert M._mult_bijective(j) == oracle_mult_bijective(slow, j)
    # no letter matrix and no word past b was built for the check
    assert M._letter_cache == {}
    assert max(M._std_cache, default=b) <= b
    if M.hilbert(b) == 0:
        return
    # a corrupted layout is not certified: a moved row start or column
    # offset leaves a gap or an overlap, a wrong count fails its Hilbert value
    for which in (0, 2):
        moved = MovedLayout(M, which)
        assert not any(moved._mult_bijective(j) for j in range(b, b + 3))
    wrong = FpModule(M.F0, M.relations)
    wrong._free_layout(b)
    wrong._bound_counts[next(a for a, n in enumerate(wrong._bound_counts) if n)] += 1
    for j in range(b, b + 3):
        with pytest.raises(CertificateMismatch, match="Hilbert value"):
            wrong._mult_bijective(j)


def test_stable_profile_checks_each_degree_once(mult_checks, A2):
    # R + R(-1) by x0 * e0 = e1 is free from degree 0 < b = 1, so the walk
    # down from b proves degree 0 and the certification loop starts at b
    F = A2.free_module([0, 1])
    M = FpModule(F, [F.from_polys([A2.gen(0), A2.one().scale(-1)])])
    b = M._free_bound()
    for through, want in ((0, b + 4), (b + 2, b + 4), (b + 9, b + 9)):
        mult_checks.clear()
        M._profile = None
        p = M.stable_profile(through)
        assert p.i0 < b and p.certified_through == want
        assert sorted(mult_checks) == list(range(p.i0, want))
    # a profile certified far enough is returned as it is
    mult_checks.clear()
    assert M.stable_profile(b + 5) is p and not mult_checks


def test_stable_profile_builds_no_free_tail_letter_matrix():
    # the third module is R by x0 * e0 = e1, free from degree 0 < b = 1
    A2 = FreeAlgebra(2)
    golden = Path(__file__).parent / "golden" / "gf5.pres"
    F = A2.free_module([0, 1])
    mods = [
        quotient_by_first_letter(A2),
        parse_presentation(golden.read_text()).module(),
        FpModule(F, [F.from_polys([A2.gen(0), A2.one().scale(-1)])]),
    ]
    below = 0
    for M in mods:
        M.stable_profile(M._free_bound() + 6)
        b = M._free_bound()
        assert all(j < b for _, j in M._letter_cache)
        below += len(M._letter_cache)
        # asked for afterwards, the tail matrices are the oracle's
        slow = FpModule(M.F0, M.relations)
        for j in range(b, b + 3):
            for i in range(M.algebra.d):
                assert typed_rows(M.letter_matrix(i, j)) == typed_rows(oracle_letter_matrix(slow, i, j))
    # the rank check below b still builds its letter matrices
    assert below > 0


def typed_rows(mat):
    """The rows of a SparseMatrix with key order and value types made visible."""
    return [[(c, type(v), v) for c, v in row.items()] for row in mat.rows]


def assert_torsion_matches_oracle(M):
    """Per degree, the torsion generators span the word-product oracle's
    space: as many of them, independent, and their union has no larger rank."""
    got, want = M.torsion(), oracle_torsion(FpModule(M.F0, M.relations))
    assert got.dimension == want.dimension == len(got.generators)
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
    # by_degree against the Hilbert function of the presented torsion
    presented = range(M.min_degree, M.stable_profile().i0) if want.dimension else ()
    assert got.by_degree == {j: want.module.hilbert(j) for j in presented}
    return got.dimension


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(presented_modules(fractions=True))
def test_torsion_matches_word_product_oracle(M):
    assert_torsion_matches_oracle(M)


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
