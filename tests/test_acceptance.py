"""The acceptance gate: every criterion of the verification suite must pass.

Each test prints one status line so a verbose run reads as a checklist.
All checks are exact; there are no tolerances anywhere.  The mutant tests
show that criteria 5 and 8 fail when the code they check is broken.
"""

import pytest

from freeproj.af_s import AFMatrix, word_rank
from freeproj.linalg import SparseMatrix
from freeproj.qgr import DecompositionPair
from freeproj.verify import CRITERIA, run_criterion


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    result = run_criterion(number, seed=0)
    print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {result.number}: {result.name}")
    assert result.passed, result.details


def test_tower_criterion_fails_on_f_tensor_identity(monkeypatch):
    # embed building f (x) I, the new index last, in place of I (x) f
    def embed_on_the_right(self, level):
        out = self
        while out.level < level:
            zero = out.field.zero
            rows = [[v if b == c else zero for v in row for c in range(out.d)] for row in out.entries for b in range(out.d)]
            out = AFMatrix(out.d, out.level + 1, rows, out.field)
        return out

    monkeypatch.setattr(AFMatrix, "embed", embed_on_the_right)
    assert run_criterion(8, 0).passed is False


def test_decomposition_criterion_fails_on_a_prefix_split(monkeypatch):
    # the inverse splitting off each word's length-r prefix in place of its suffix
    def backward_by_prefix(self, j):
        F = self.algebra.field
        index = self.source._std_index(j)
        rows = [{index[(word_rank(self.algebra.d, w[:self.r]), w[self.r:])]: F.one} for _, w in self.target.std_basis(j)]
        return SparseMatrix(F, len(rows), len(index), rows)

    monkeypatch.setattr(DecompositionPair, "backward_matrix", backward_by_prefix)
    assert run_criterion(5, 0).passed is False
