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

from freeproj import FpModule
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
# stars after plain letters, more than once in a term: the parser folds
# these terms with mono_mul instead of reading them as one monomial
_FOLD = "x0 x1 x1* x0* x0* - 2 x1 x0* x1 + x0* x1 x1* + 3 x1* x0 x1 x1* x0 - 1/2 x0* x1 x0 x0* x1*"
CASES["leavitt-fold"] = ["leavitt-eval", _FOLD]
CASES["leavitt-fold-gf7"] = ["--field", "GF:7", "leavitt-eval", _FOLD]
AF_FILES = ("e01", "e32", "one", "half", "deficient", "d3")
for _field in ("QQ", "GF:7"):
    _tag = _field.replace(":", "")
    for _name in AF_FILES:
        for _sub in ("canonical", "regular"):
            CASES[f"s-calc-{_sub}-{_name}-{_tag}"] = ["--field", _field, "s-calc", _sub, f"{_name}.json"]
    for _a, _b in (("e01", "e32"), ("e32", "one"), ("half", "deficient"), ("deficient", "e01"), ("d3", "d3"),
                   ("one", "e32"), ("e01", "deficient"), ("e01", "half")):
        CASES[f"s-calc-mul-{_a}-{_b}-{_tag}"] = ["--field", _field, "s-calc", "mul", f"{_a}.json", f"{_b}.json"]
    for _name in ("one", "idem"):
        CASES[f"s-calc-k0-{_name}-{_tag}"] = ["--field", _field, "s-calc", "k0", f"{_name}.json"]
# a dense side-27 witness (d = 3, level 3): packed GF(p) rows in 32-bit slots
# at p = 10007 and in wide slots at the largest prime below PRIME_BOUND
for _field in ("QQ", "GF:10007", "GF:3317044064679887385961813"):
    _tag = _field.replace(":", "")
    CASES[f"s-calc-regular-dense27-{_tag}"] = ["--field", _field, "s-calc", "regular", "dense27.json"]
    # its square: a side-27 product, past the packed-product gate
    CASES[f"s-calc-mul-dense27-dense27-{_tag}"] = ["--field", _field, "s-calc", "mul", "dense27.json", "dense27.json"]
# a dense side-16 QQ matrix (d = 2, level 4) whose rows have fractions over
# different denominators: a packed QQ product, and a witness
# whose a*x is the identity
for _field in ("QQ", "GF:10007"):
    _tag = _field.replace(":", "")
    CASES[f"s-calc-mul-frac16-frac16-{_tag}"] = ["--field", _field, "s-calc", "mul", "frac16.json", "frac16.json"]
    CASES[f"s-calc-regular-frac16-{_tag}"] = ["--field", _field, "s-calc", "regular", "frac16.json"]
# s-algebra (criterion 7) takes seconds; test_acceptance and the full-suite
# comparison cover it
for _suite in ("hilbert", "truncation", "profiles", "splitting", "decomposition", "k0",
               "tower", "leavitt", "filtration", "vanishing", "ext1"):
    CASES[f"verify-{_suite}"] = ["verify", "--suite", _suite]
CASES["verify-12"] = ["verify", "--suite", "12"]
# R/R_{>=6} at d = 2: 64 monomial relations through the weak algorithm
CASES["torsion-ge6"] = ["torsion", "ge6.pres"]
# R/R x0^4 at d = 2: no torsion, i0 = 4 and t0 = 15, and no dead end, so
# the torsion walk has nowhere to start
for _command in ("torsion", "profile"):
    CASES[f"{_command}-x04"] = [_command, "x04.pres"]


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


@pytest.mark.parametrize("pres", sorted(p.name for p in GOLDEN.glob("*.pres")))
def test_no_report_command_builds_a_word(pres, capsys, monkeypatch):
    # every report command answers off the relation basis and the Hilbert
    # values: none builds a standard word or a letter matrix
    built = []

    def refuse(name):
        def refused(self, *args):
            built.append((name, args))
            raise AssertionError(f"{name}{args} was built")
        return refused

    for name in ("std_basis", "letter_matrix"):
        monkeypatch.setattr(FpModule, name, refuse(name))
    monkeypatch.chdir(GOLDEN)
    for argv in (["hilbert", pres, "4"], ["profile", pres], ["k0", pres], ["torsion", pres], ["qgr-class", pres],
                 ["iso", pres, pres], ["decompose", pres, "-5"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert built == []
