import pytest

from freeproj import FpModule, FreeAlgebra
from freeproj.linalg import SparseMatrix, rank


@pytest.fixture
def A2():
    return FreeAlgebra(2)


@pytest.fixture
def A3():
    return FreeAlgebra(3)


@pytest.fixture
def mult_checks(monkeypatch):
    """The degree of every `_mult_bijective` check on any FpModule, in order."""
    checked = []
    real = FpModule._mult_bijective

    def counted(self, j):
        checked.append(j)
        return real(self, j)

    monkeypatch.setattr(FpModule, "_mult_bijective", counted)
    return checked


def span_dim(gens, j):
    """Brute-force dimension of the degree-j piece of the left submodule
    generated by `gens`: rank of all word multiples, no weak algorithm."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return 0
    module = gens[0].module
    A = module.algebra
    # the degree-j monomials of the free module, coordinate by coordinate
    index = {(alpha, w): k for k, (alpha, w) in enumerate(
        (alpha, w) for alpha, b in enumerate(module.shifts) if b <= j for w in A.words(j - b))}
    rows = []
    for g in gens:
        a = g.degree()
        if a > j:
            continue
        for u in A.words(j - a):
            rows.append({index[mon]: c for mon, c in g.word_mul(u).terms.items()})
    if not rows:
        return 0
    return rank(SparseMatrix(A.field, len(rows), len(index), rows))
