"""The acceptance suites: every headline claim as a checkable run.

CRITERIA declares each criterion once: its number, suite name, title and
check.  A check takes a seeded random generator and returns only its
findings, {"failures": [...]} and any table it reports; run_criterion
passes a criterion when its check finds no failure.  Nothing is
tolerance-based since all arithmetic is exact.  The module also owns the
fixed battery of presentations that several criteria share.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .af_s import AFMatrix, word_rank
from .fields import QQ
from .fpmod import FpModule
from .freealg import FreeAlgebra
from .leavitt import (
    LeavittElement,
    flat_decompose,
    flat_reassemble,
    l0_to_s,
    strongly_graded_witness,
    tensor_vanishes,
)
from .linalg import SparseMatrix, rank
from .qgr import (
    DecompositionPair,
    ext1_k_R_dim,
    normalized_rank,
    split_sequence,
    tower_morphism,
)
from .randgen import (
    make_rng,
    random_af,
    random_exact_sequence,
    random_filtration_member,
    random_leavitt_monomial,
    random_nonzero_af,
)
from .submodules import weak_basis


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = dc_field(default_factory=dict)


def battery(algebra: FreeAlgebra):
    """The fixed battery of presentations used across the suites."""
    A = algebra
    x0, x1 = A.gen(0), A.gen(1)
    R = FpModule.free(A, [0])
    k = FpModule.residue(A)
    letterq = FpModule.cyclic(A, [x0])
    items = [
        ("R", R),
        ("k", k),
        ("R/R>=2", FpModule.tail_quotient(A, 2)),
        ("R/R>=3", FpModule.tail_quotient(A, 3)),
        ("R/Rx0", letterq),
        ("R/R(x0x0)", FpModule.cyclic(A, [x0 * x0])),
        ("R(-2)", FpModule.free(A, [2])),
        ("R(-1)+R", FpModule.free(A, [1, 0])),
        ("R/Rx0 + k", letterq.direct_sum(k)),
        ("(R/Rx0)(-1) + R(-2)", letterq.shift(-1).direct_sum(FpModule.free(A, [2]))),
        ("k(-2) + R", k.shift(-2).direct_sum(R)),
    ]
    F2 = A.free_module([0, 0])
    items.append(
        ("coker(x0,x1 row)", FpModule(F2, [F2.from_polys([x0, x1])]))
    )
    return items


# ---------------------------------------------------------------------------
# criteria


def check_hilbert(rng) -> dict:
    """Free rank-one Hilbert values are d^j, d in {1,2,3}, 0 <= j <= 10."""
    failures = []
    for d in (1, 2, 3):
        R = FpModule.free(FreeAlgebra(d), [0])
        for j in range(11):
            if R.hilbert(j) != d**j:
                failures.append((d, j, R.hilbert(j)))
    return {"failures": failures}


def check_truncation(rng) -> dict:
    """Weak bases of tails are free on d^i degree-i words, dims verified by
    brute-force span ranks, and the truncation R_{>=i} is presented as the
    free module on d^i generators of degree i with no relations."""
    A = FreeAlgebra(2)
    free = FpModule.free(A, [0])
    R = free.F0
    failures = []
    for i in range(0, 6):
        T = free.truncate(i)
        if T.F0.shifts != (i,) * 2**i or T.relations:
            failures.append(("truncate", i, T.F0.shifts, len(T.relations)))
        gens = [R.from_polys([A.monomial(w)]) for w in A.words(i)]
        B = weak_basis(gens, ambient=R)
        if B.rank != 2**i or any(a != i for a in B.degrees()):
            failures.append(("basis", i, B.rank, B.degrees()))
            continue
        for j in range(0, i + 6):
            # the basis spans R_{>=i}: the piece R_j at degree j >= i and
            # nothing below
            want = R.graded_piece_dim(j) if j >= i else 0
            got_formula = B.submodule_dim(j)
            rows = []
            for g in B.elements:
                for u in A.words(j - i):
                    rows.append(free.coords(g.word_mul(u), j))
            got_rank = rank(SparseMatrix(A.field, len(rows), free.hilbert(j), rows))
            if got_formula != want or got_rank != want:
                failures.append(("dims", i, j, got_formula, got_rank))
    return {"failures": failures}


def check_profiles(rng) -> dict:
    """Battery stable profiles: geometric tails, exactly; and M modulo its
    torsion has no torsion and the class of M, as finite-dimensional
    modules vanish in the quotient category."""
    failures = []
    for d in (2, 3):
        A = FreeAlgebra(d)
        items = battery(A) if d == 2 else battery(A)[:6]
        for name, M in items:
            p = M.stable_profile()
            for i in range(p.i0, p.i0 + 5):
                if p.t(i + 1) != d * p.t(i):
                    failures.append((d, name, "ratio", i))
            for j in range(p.i0, p.i0 + 5):
                if M.hilbert(j) != p.t0 * d ** (j - p.i0):
                    failures.append((d, name, "hilbert", j))
            Q = M.mod_torsion()
            if Q.torsion().dimension or Q.k0_class() != M.k0_class():
                failures.append((d, name, "mod torsion"))
    return {"failures": failures}


def check_splitting(rng) -> dict:
    """Sections for 20 random exact sequences, verified degreewise."""
    A = FreeAlgebra(2)
    checked = 0
    failures = []
    while checked < 20:
        f, g = random_exact_sequence(rng, A)
        i0 = g.target.stable_profile().i0
        try:
            sec = split_sequence(f, g, i0, degrees=4)
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            failures.append((checked, repr(exc)))
            checked += 1
            continue
        if not sec.verify():
            failures.append((checked, "verify failed"))
        checked += 1
    return {"failures": failures}


def check_decomposition(rng) -> dict:
    """The structure object decomposes against its twisted powers: for
    every r = 0..5 at d = 2 and 3, the cover R(-r)^(d^r) -> R_{>=r} and the
    inverse that splits off each word's length-r suffix compose to the
    identity both ways in degrees r..r+3."""
    failures = []
    for d in (2, 3):
        A = FreeAlgebra(d)
        for r in range(0, 6):
            if not DecompositionPair(A, r).verify(4):
                failures.append((d, r))
    return {"failures": failures}


def check_k0(rng) -> dict:
    """Grothendieck classes: twisted frees, additivity, rank agreement, and
    the distinctness of the groups for different d."""
    failures = []
    for d in (2, 3):
        A = FreeAlgebra(d)
        for i in range(6):
            if FpModule.free(A, [i]).k0_class().value != Fraction(1, d**i):
                failures.append((d, "twist", i))
    A2 = FreeAlgebra(2)
    for n in range(10):
        f, g = random_exact_sequence(rng, A2)
        total = f.source.k0_class().value + g.target.k0_class().value
        if total != f.target.k0_class().value:
            failures.append(("additivity", n))
    for name, M in battery(A2):
        p = M.stable_profile()
        cls = M.k0_class().value
        for r in range(p.i0, p.i0 + 4):
            if normalized_rank(M, r) != cls:
                failures.append(("rank", name, r))
    half = FpModule.cyclic(A2, [A2.gen(0)]).k0_class()
    third = FpModule.cyclic(FreeAlgebra(3), [FreeAlgebra(3).gen(0)]).k0_class()
    if half.expressible_in(3) or third.value.denominator != 3:
        failures.append(("distinctness", "1/2 vs Z[1/3]"))
    if third.expressible_in(2):
        failures.append(("distinctness", "1/3 vs Z[1/2]"))
    return {"failures": failures}


def check_s_algebra(rng) -> dict:
    """The limit algebra: embeddings are ring maps, regularity and
    simplicity witnesses verify, units have the right classes."""
    failures = []
    pairs = 0
    while pairs < 500:
        d = rng.choice((2, 3))
        max_level = 3 if d == 2 else (3 if rng.random() < 0.1 else 2)
        level = rng.randint(0, max_level)
        a = random_af(rng, d, level, QQ)
        b = random_af(rng, d, level, QQ)
        r = level + 1
        if (a * b).embed(r) != a.embed(r) * b.embed(r):
            failures.append(("hom", pairs))
        pairs += 1
    for d in (2, 3):
        for level in range(4):
            for n in range(100):
                a = random_af(rng, d, level, QQ)
                x = a.vn_regular_witness()
                if a * x * a != a:
                    failures.append(("vn", d, level, n))
                    break
    reconstructed = 0
    while reconstructed < 100:
        d = rng.choice((2, 3))
        level = rng.randint(0, 2)
        a = random_nonzero_af(rng, d, level, QQ)
        us, vs = a.simplicity_witness()
        acc = AFMatrix.zero(d, 0)
        for u, v in zip(us, vs):
            acc = acc + u * a * v
        if acc != AFMatrix.scalar(d, 1):
            failures.append(("simplicity", reconstructed))
        reconstructed += 1
    for d in (2, 3):
        for r in range(4):
            w0 = tuple([0] * r)
            e = AFMatrix.matrix_unit(d, w0, w0) if r else AFMatrix.scalar(d, 1)
            cls = e.k0_class().value
            if cls != Fraction(1, d**r):
                failures.append(("unit class", d, r))
    return {"failures": failures}


def check_tower(rng) -> dict:
    """The tower step of S against the module layer: a random level-n f,
    read as an endomorphism of R_{>=n} = R(-n)^(2^n) by `tower_morphism`,
    is restricted to degree n + k (k = 0..2) by one-letter extension, and
    that matrix, with the source word (alpha, u) read as u * w_alpha at
    index rank(u) * 2^n + alpha, is the transpose of f.embed(n + k)."""
    failures = []
    for level in range(4):
        for n in range(50):
            f = random_af(rng, 2, level, QQ)
            phi = tower_morphism(f)
            for j in range(level, level + 3):
                at = [word_rank(2, u) * 2**level + alpha for alpha, u in phi.source.std_basis(j)]
                restricted = [[0] * len(at) for _ in at]
                for p, row in enumerate(phi.matrix_in_degree(j).rows):
                    for c, v in row.items():
                        restricted[at[c]][at[p]] = v
                if list(map(list, f.embed(j).entries)) != restricted:
                    failures.append((level, n))
                    break
    return {"failures": failures}


def check_leavitt(rng) -> dict:
    """Leavitt rewriting: associativity, defining relations, the matrix
    algebra identification, and strong grading."""
    failures = []
    triples = 0
    while triples < 1000:
        d = rng.choice((2, 3))
        A = FreeAlgebra(d)
        ms = [random_leavitt_monomial(rng, A, 3) for _ in range(3)]
        a, b, c = (LeavittElement.monomial(A, w, v) for w, v in ms)
        if not ((a * b) * c).equals(a * (b * c)):
            failures.append(("assoc", triples, ms))
        triples += 1
    for d in (2, 3):
        A = FreeAlgebra(d)
        one = LeavittElement.one(A)
        total = LeavittElement.zero(A)
        for i in range(d):
            for j in range(d):
                prod = LeavittElement.gen(A, i) * LeavittElement.gen_star(A, j)
                if i == j and not prod.equals(one):
                    failures.append(("relation", d, i))
                if i != j and not prod.is_zero():
                    failures.append(("relation0", d, i, j))
            total = total + LeavittElement.gen_star(A, i) * LeavittElement.gen(A, i)
        if not total.equals(one):
            failures.append(("relation-sum", d))
        for r in range(1, 4):
            if not strongly_graded_witness(A, r).verified:
                failures.append(("grading", d, r))
    for d, max_r in ((2, 3), (3, 2)):
        A = FreeAlgebra(d)
        for r in range(1, max_r + 1):
            # units biject with the matrix units at level r
            for w in A.words(r):
                for v in A.words(r):
                    if l0_to_s(LeavittElement.monomial(A, w, v), level=r) != AFMatrix.matrix_unit(d, w, v):
                        failures.append(("unit", d, r, w, v))
    A2 = FreeAlgebra(2)
    checked = 0
    while checked < 200:
        r = rng.randint(1, 3)
        a = LeavittElement.zero(A2)
        b = LeavittElement.zero(A2)
        for _ in range(2):
            w = tuple(rng.randrange(2) for _ in range(rng.randint(0, r)))
            v = tuple(rng.randrange(2) for _ in range(len(w)))
            a = a + LeavittElement.monomial(A2, w, v, rng.randint(-2, 2))
            w2 = tuple(rng.randrange(2) for _ in range(rng.randint(0, r)))
            v2 = tuple(rng.randrange(2) for _ in range(len(w2)))
            b = b + LeavittElement.monomial(A2, w2, v2, rng.randint(-2, 2))
        if l0_to_s(a * b) != l0_to_s(a) * l0_to_s(b):
            failures.append(("mult", checked))
        # the unit placement against raising and the S embedding
        if l0_to_s(a.raise_level(0, r + 1)) != l0_to_s(a).embed(r + 1):
            failures.append(("raise", checked))
        checked += 1
    return {"failures": failures}


def check_filtration(rng) -> dict:
    """The flat filtration decomposes and reassembles uniquely."""
    failures = []
    done = 0
    while done < 100:
        d = 2 if done % 4 else 3
        A = FreeAlgebra(d)
        r = rng.randint(0, 3 if d == 2 else 2)
        a, coeffs = random_filtration_member(rng, A, r)
        out = flat_decompose(a, r)
        expected = {w: p.terms for w, p in coeffs.items()}
        if {w: p.terms for w, p in out.items()} != expected:
            failures.append(("roundtrip", done))
        elif not flat_reassemble(A, out).equals(a):
            failures.append(("reassemble", done))
        # written one level above r, it decomposes by products and lowering
        elif a.terms and {w: p.terms for w, p in flat_decompose(
                a.raise_level(a.degrees()[0], r + 1), r).items()} != expected:
            failures.append(("raised", done))
        done += 1
    return {"failures": failures}


def check_vanishing(rng) -> dict:
    """Tensoring with the Leavitt algebra kills exactly the finite
    dimensional battery members."""
    failures = []
    A = FreeAlgebra(2)
    for name, M in battery(A):
        vanish, cert = tensor_vanishes(M)
        if vanish != M.is_fdim():
            failures.append((name, "disagrees"))
        if vanish != (cert["normalized_rank"] == 0):
            failures.append((name, "certificate"))
    return {"failures": failures}


def check_ext1(rng) -> dict:
    """First Ext dimensions from the cokernel, matching the closed form."""
    failures = []
    table = {}
    for d in (2, 3):
        A = FreeAlgebra(d)
        dims = [ext1_k_R_dim(A, j) for j in range(-1, 6)]
        table[d] = dims
        if dims[0] != d:
            failures.append((d, -1))
        for j in range(0, 6):
            if dims[j + 1] != (d * d - 1) * d**j:
                failures.append((d, j))
    return {"failures": failures, "dims": table}


CRITERIA = {
    1: ("hilbert", "Hilbert series of the free ring", check_hilbert),
    2: ("truncation", "truncations of the free ring are free", check_truncation),
    3: ("profiles", "stable profiles across the battery", check_profiles),
    4: ("splitting", "short exact sequences split on tails", check_splitting),
    5: ("decomposition", "decomposition against twisted powers", check_decomposition),
    6: ("k0", "Grothendieck classes", check_k0),
    7: ("s-algebra", "limit algebra witnesses", check_s_algebra),
    8: ("tower", "endomorphism tower compatibility", check_tower),
    9: ("leavitt", "Leavitt rewriting and the matrix picture", check_leavitt),
    10: ("filtration", "flat filtration round trips", check_filtration),
    11: ("vanishing", "vanishing criterion", check_vanishing),
    12: ("ext1", "Ext^1 dimension table", check_ext1),
}

SUITE_NAMES = {name: num for num, (name, _, _) in CRITERIA.items()}


def run_criterion(number: int, seed: int = 0) -> CriterionResult:
    """Run criterion `number`'s check on a generator seeded with `seed`; it
    passes when the check finds no failure."""
    _, title, check = CRITERIA[number]
    details = check(make_rng(seed))
    return CriterionResult(number, title, not details["failures"], details)
