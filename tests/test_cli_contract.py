"""The CLI contract table of `cli_contract.py`, one test per row, and the
runner's own check: a row with one field wrong must fail."""

import os

import pytest

from cli_contract import CASES, SLOW_CASES, run_case


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_contract(case):
    assert run_case(case).failures == []


@pytest.mark.parametrize("case", SLOW_CASES, ids=[c.id for c in SLOW_CASES])
def test_contract_slow(case):
    assert run_case(case).failures == []


CHEAP = next(c for c in CASES if c.id == "canonical-fractional-level")


@pytest.mark.parametrize("wrong, needle", [
    ({"code": 1}, "exit code 2, expected 1"),
    ({"expect": {"kind": "BudgetExceeded"}}, "kind = 'parse', expected 'BudgetExceeded'"),
    ({"rss_mb": 1}, "peak RSS"),
    ({"timeout": 0.001}, "timed out"),
], ids=["code", "kind", "rss", "timeout"])
def test_runner_fails_a_row_with_one_field_wrong(wrong, needle):
    # the row itself passes in test_contract
    outcome = run_case(CHEAP._replace(**wrong))
    assert len(outcome.failures) == 1 and needle in outcome.failures[0], outcome.failures
    with pytest.raises(ChildProcessError):  # reaped, the timed-out child too
        os.waitpid(outcome.pid, os.WNOHANG)
