"""Seeded random generators for elements, maps, and sequences.

Used by the verification suites and the tests; everything is driven by an
explicit random.Random so runs are reproducible from a seed.
"""

from __future__ import annotations

import random

from .af_s import AFMatrix
from .fpmod import FpModule, FpModuleMorphism
from .freealg import FreeAlgebra, ModuleMap, NcPoly
from .submodules import kernel


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_poly(rng, algebra: FreeAlgebra, degree: int, max_terms=3, span=2) -> NcPoly:
    """Random homogeneous polynomial of the given degree (possibly zero)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.randrange(algebra.d) for _ in range(degree))
        terms[w] = rng.randint(-span, span)
    return algebra.poly(terms)


def random_module_map(rng, algebra, src_shifts, tgt_shifts, span=2) -> ModuleMap:
    src = algebra.free_module(src_shifts)
    tgt = algebra.free_module(tgt_shifts)
    rows = []
    for a in src.shifts:
        row = []
        for b in tgt.shifts:
            deg = a - b
            row.append(
                random_poly(rng, algebra, deg, span=span) if deg >= 0 else algebra.zero()
            )
        rows.append(row)
    return ModuleMap(src, tgt, rows)


def random_af(rng, d, level, field, span=2) -> AFMatrix:
    n = d**level
    rows = [[field.coerce(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)]
    return AFMatrix(d, level, rows, field)


def random_nonzero_af(rng, d, level, field, span=2) -> AFMatrix:
    while True:
        a = random_af(rng, d, level, field, span)
        if not a.is_zero():
            return a


def random_leavitt_monomial(rng, algebra, wmax=3):
    w = tuple(rng.randrange(algebra.d) for _ in range(rng.randint(0, wmax)))
    v = tuple(rng.randrange(algebra.d) for _ in range(rng.randint(0, wmax)))
    return (w, v)


def random_filtration_member(rng, algebra, r, max_deg=2, span=2):
    """A random element of the filtration piece, with its defining coefficients."""
    coeffs = {}
    for w in algebra.words(r):
        if rng.random() < 0.5:
            coeffs[w] = algebra.zero()
            continue
        terms = {}
        for _ in range(rng.randint(1, 2)):
            length = rng.randint(0, max_deg)
            u = tuple(rng.randrange(algebra.d) for _ in range(length))
            terms[u] = rng.randint(-span, span)
        coeffs[w] = algebra.poly(terms)
    from .leavitt import flat_reassemble

    return flat_reassemble(algebra, coeffs), coeffs


def random_exact_sequence(rng, algebra, max_gens=3, max_shift=2, span=1):
    """A random short exact sequence 0 -> L -> M -> N -> 0 of graded modules.

    M is free, L is the kernel of a random homogeneous map out of M, and N
    is the image presented by that kernel; f and g are the inclusion and the
    quotient map.
    """
    while True:
        src_shifts = sorted(rng.randint(0, max_shift) for _ in range(rng.randint(2, max_gens)))
        tgt_shifts = [0] if rng.random() < 0.7 else [0, 1]
        phi = random_module_map(rng, algebra, src_shifts, tgt_shifts, span=span)
        if all(p.is_zero() for row in phi.matrix for p in row):
            continue
        K = kernel(phi)
        M = FpModule(phi.source, [])
        N = FpModule(phi.source, list(K.elements))
        if not K.elements:
            # exact sequence 0 -> 0 -> M -> M -> 0 is legal but dull; retry
            continue
        L = FpModule(algebra.free_module(list(K.degrees())), [])
        f = FpModuleMorphism(L, M, ModuleMap(L.F0, M.F0, [b.polys() for b in K.elements]))
        g = FpModuleMorphism(M, N, ModuleMap.identity(M.F0))
        return f, g
