"""Golden CLI corpus: every report must match the committed stdout byte for byte.

The inputs live in tests/golden/ and the commands run from that directory,
so the file names echoed in the reports do not depend on the checkout.
tests/golden/expected.json maps each case id to the exact stdout of
`freeproj <argv>`; a change that alters any report, even its key order or
whitespace, fails here.
"""

import json
from pathlib import Path

import pytest

from freeproj.cli import main

GOLDEN = Path(__file__).parent / "golden"

PRESENTATIONS = ("free", "letterq", "point", "two", "d3", "gf5")

CASES = {}
for _name in PRESENTATIONS:
    _file = f"{_name}.pres"
    CASES[f"hilbert-{_name}-4"] = ["hilbert", _file, "4"]
    for _command in ("profile", "k0", "torsion", "qgr-class"):
        CASES[f"{_command}-{_name}"] = [_command, _file]
for _a, _b in (("free", "two"), ("free", "point"), ("letterq", "free"), ("d3", "d3"), ("gf5", "gf5")):
    CASES[f"iso-{_a}-{_b}"] = ["iso", f"{_a}.pres", f"{_b}.pres"]
CASES.update({
    "leavitt-cancel": ["leavitt-eval", "x0 x0*"],
    "leavitt-zero": ["leavitt-eval", "x0 x1*"],
    "leavitt-sum-level": ["leavitt-eval", "x0* x0 + x1* x1", "--level", "1"],
    "leavitt-mixed": ["leavitt-eval", "2 x0* x1 - 1/3 x1* x0 + x0 x1 x1* - x0", "--level", "2"],
    "leavitt-d3": ["--d", "3", "leavitt-eval", "x2* x2 x0 + x1* x0 x0* - 1/2 x2 x1*"],
    "leavitt-gf7": ["--field", "GF:7", "leavitt-eval", "3 x0* x0 + 5 x1* x1 x1 x1*", "--level", "2"],
})
AF_FILES = ("e01", "e32", "one", "half", "deficient", "d3")
for _field in ("QQ", "GF:7"):
    _tag = _field.replace(":", "")
    for _name in AF_FILES:
        for _sub in ("canonical", "regular"):
            CASES[f"s-calc-{_sub}-{_name}-{_tag}"] = ["--field", _field, "s-calc", _sub, f"{_name}.json"]
    for _a, _b in (("e01", "e32"), ("e32", "one"), ("half", "deficient"), ("deficient", "e01"), ("d3", "d3")):
        CASES[f"s-calc-mul-{_a}-{_b}-{_tag}"] = ["--field", _field, "s-calc", "mul", f"{_a}.json", f"{_b}.json"]
    for _name in ("one", "idem"):
        CASES[f"s-calc-k0-{_name}-{_tag}"] = ["--field", _field, "s-calc", "k0", f"{_name}.json"]
for _suite in ("truncation", "decomposition", "ext1"):
    CASES[f"verify-{_suite}"] = ["verify", "--suite", _suite]


@pytest.fixture(scope="module")
def expected():
    return json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))


def test_corpus_covers_every_case(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, expected, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(CASES[case])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected[case]
