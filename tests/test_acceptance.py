"""The acceptance gate: every criterion of the verification suite must pass.

Each test prints one status line so a verbose run reads as a checklist.
All checks are exact; there are no tolerances anywhere.
"""

import pytest

from freeproj.verify import CRITERIA, run_criterion


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    result = run_criterion(number, seed=0)
    print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {result.number}: {result.name}")
    assert result.passed, result.details
