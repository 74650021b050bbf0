"""The enumerate-and-test `FpModule.std_basis` that one-letter extension
replaced.

It runs the suffix test on every degree-j monomial of the free cover.  Kept
verbatim as the oracle the extension must match exactly: same standard
monomials, in the same order.
"""

from freeproj.errors import CertificateMismatch
from freeproj.submodules import _find_reducer


def std_basis(module, j: int):
    """Standard monomials: the degree-j monomials of F0 with no relation
    leading word as a suffix (in the matching coordinate)."""
    by_coord = module.relation_basis()._by_coord
    std = tuple(
        (alpha, w) for alpha, w in module.F0.monomial_basis(j)
        if _find_reducer(alpha, w, by_coord)[0] is None
    )
    if len(std) != module.hilbert(j):
        raise CertificateMismatch("standard monomial count disagrees with Hilbert value")
    return std
