"""Random module and Leavitt elements, and the Leavitt star, for the tests.

The verification suites draw their inputs from `freeproj.randgen`; these
serve only the tests, so they live here.
"""

from freeproj.leavitt import LeavittElement
from freeproj.randgen import random_leavitt_monomial


def random_module_element(rng, module, degree, max_terms=3, span=2):
    """Random homogeneous element of a graded free module (possibly zero)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = rng.randrange(module.rank)
        length = degree - module.shifts[alpha]
        if length < 0:
            continue
        w = tuple(rng.randrange(module.algebra.d) for _ in range(length))
        terms[(alpha, w)] = rng.randint(-span, span)
    return module.element(terms)


def random_leavitt(rng, algebra, max_terms=3, wmax=2, span=2) -> LeavittElement:
    out = LeavittElement.zero(algebra)
    for _ in range(rng.randint(1, max_terms)):
        w, v = random_leavitt_monomial(rng, algebra, wmax)
        out = out + LeavittElement.monomial(algebra, w, v, rng.randint(-span, span))
    return out


def star(a: LeavittElement) -> LeavittElement:
    """The anti-involution of the Leavitt algebra: w* v -> v* w."""
    return LeavittElement(a.algebra, {(v, w): c for (w, v), c in a.terms.items()})
