"""Randomized cross-validation of the presentation engine against
brute-force degreewise linear algebra (no weak algorithm on the oracle side)."""

import random

from freeproj import FpModule, FreeAlgebra, kernel
from freeproj.qgr import is_isomorphic, normalized_rank, pi_star
from freeproj.randgen import random_module_map

from conftest import span_dim
from random_elements import random_module_element


def random_presentation(rng, A, max_rank=3):
    shifts = sorted(rng.randint(0, 2) for _ in range(rng.randint(1, max_rank)))
    F0 = A.free_module(shifts)
    rels = [
        random_module_element(rng, F0, rng.randint(1, 3))
        for _ in range(rng.randint(0, 3))
    ]
    return FpModule(F0, [r for r in rels if not r.is_zero()])


def test_hilbert_matches_brute_force():
    rng = random.Random(99)
    for _ in range(25):
        A = FreeAlgebra(rng.choice((2, 2, 3)))
        M = random_presentation(rng, A)
        lo = M.min_degree
        for j in range(lo, lo + 5):
            brute = M.F0.graded_piece_dim(j) - span_dim(list(M.relations), j)
            assert M.hilbert(j) == brute


def test_quotient_image_is_truncation_invariant():
    rng = random.Random(100)
    for _ in range(12):
        A = FreeAlgebra(2)
        M = random_presentation(rng, A)
        obj = pi_star(M)
        for i in range(4):
            assert is_isomorphic(obj, pi_star(M.truncate(i)))
        p = M.stable_profile()
        assert normalized_rank(M, p.i0 + 2) == M.k0_class().value


def test_torsion_quotients_are_torsion_free():
    rng = random.Random(101)
    seen_nontrivial = 0
    for _ in range(20):
        A = FreeAlgebra(2)
        M = random_presentation(rng, A)
        tors = M.torsion()
        if tors.dimension:
            seen_nontrivial += 1
            assert M.mod_torsion().torsion().dimension == 0
    assert seen_nontrivial > 0


def test_kernels_of_higher_rank_targets():
    rng = random.Random(102)
    done = 0
    while done < 10:
        A = FreeAlgebra(rng.choice((2, 3)))
        src = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        tgt = [rng.randint(0, 1) for _ in range(rng.randint(1, 2))]
        if min(src) < max(tgt):
            continue
        phi = random_module_map(rng, A, src, tgt)
        K = kernel(phi)
        for b in K.elements:
            assert phi.apply(b).is_zero()
        for j in range(0, 5):
            sdim = phi.source.graded_piece_dim(j)
            idim = span_dim(phi.row_elements(), j)
            assert K.submodule_dim(j) == sdim - idim
            assert span_dim(list(K.elements), j) == sdim - idim
        done += 1
