"""The enumerate-and-test `FpModule.std_basis` that one-letter extension
replaced, and the linear reducer scan that suffix lookup replaced.

It runs the suffix test on every degree-j monomial of the free cover, which
it lists itself, coordinate by coordinate and in lex order within each.
Kept as the oracle the extension must match exactly: same standard
monomials, in the same order.
"""

from freeproj.errors import CertificateMismatch


def find_reducer_by_scan(alpha, w, by_coord):
    """(index, prefix) of the first basis element, in index order, whose
    leading word is a suffix of w at alpha; by_coord is the lead index
    {alpha: {leading word: index}} of a `FreeBasis`.  Every leading word at
    alpha is tested, with no use of their being suffix-free."""
    for wb, idx in by_coord.get(alpha, {}).items():
        n = len(wb)
        if n <= len(w) and (n == 0 or w[len(w) - n:] == wb):
            return idx, w[: len(w) - n]
    return None, None


def std_basis(module, j: int):
    """Standard monomials: the degree-j monomials of F0 with no relation
    leading word as a suffix (in the matching coordinate)."""
    by_coord = module.relation_basis()._by_coord
    std = tuple(
        (alpha, w)
        for alpha, b in enumerate(module.F0.shifts) if b <= j
        for w in module.algebra.words(j - b)
        if find_reducer_by_scan(alpha, w, by_coord)[0] is None
    )
    if len(std) != module.hilbert(j):
        raise CertificateMismatch("standard monomial count disagrees with Hilbert value")
    return std
