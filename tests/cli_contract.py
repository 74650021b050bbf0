"""The CLI contract as one table: each row is one `freeproj` run and what it
must give.

Run from anywhere, with any Python the package supports:

    python tests/cli_contract.py

It runs every row, prints one line per row with its seconds and peak RSS,
and exits 1 if any row fails.  `tests/test_cli_contract.py` runs the same
rows under pytest.  The name has no `test_` prefix, so pytest does not
collect it, and it needs nothing outside the standard library.

A row runs `python -m freeproj.cli ARGV` with the interpreter that runs this
file and `src/` of this checkout on the child's PYTHONPATH, in a fresh
temporary directory that holds the row's input files.  It passes when the
child exits with the row's code within its timeout, stdout is one JSON
object with the row's values at their dotted paths (`kind` for a refusal),
stderr holds no traceback and contains the row's `stderr` text, and the
command's own peak RSS is under the row's bound.  A timeout of 60 s guards
against a hang; a shorter one is a bound the command must meet.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

# A row's child runs this small program, which spawns the command and
# writes the command's exit code and peak RSS, both read from its os.wait4
# status, to the file _WAIT4.  Linux charges a process with the peak RSS of
# the memory it was exec'd from, so a command spawned straight from a large
# parent, such as a pytest session, would read at least that parent's peak;
# spawned from this small one, it reads its own.
_WAIT4 = ".wait4"
_SPAWN = f"""\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "freeproj.cli", *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
with open({_WAIT4!r}, "w") as fh:
    fh.write(f"{{os.waitstatus_to_exitcode(status)}} {{usage.ru_maxrss}}")
"""


class Case(NamedTuple):
    """One CLI run and what it must give."""

    id: str
    argv: tuple
    code: int  # the exit code
    expect: dict  # dotted JSON path -> value, such as {"kind": "parse"}
    timeout: float  # seconds; the child is killed after them
    files: dict = {}  # file name -> its text, or a function that returns it
    rss_mb: float | None = None  # bound on the child's peak RSS
    stderr: str = ""  # text that stderr must contain


class Outcome(NamedTuple):
    pid: int  # the row's child, reaped
    seconds: float
    rss_mb: float | None  # the command's peak RSS, None if it did not finish
    failures: list  # empty when the row passes


def _golden(name: str) -> Callable[[], str]:
    return lambda: (GOLDEN / name).read_text(encoding="utf-8")


def _dense(side: int, level: int, seed: int, singular: bool = False) -> Callable[[], str]:
    """A d = 2 AF file of the given side, every entry a nonzero integer in
    [-9, 9] drawn by random.Random(seed), row by row; when singular, the
    last row is instead the sum of the first two, its zero sums left out."""
    def text():
        r = random.Random(seed)
        rows = [[r.randint(-9, 9) or 1 for _ in range(side)] for _ in range(side)]
        if singular:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        entries = [[i, j, str(v)] for i, row in enumerate(rows) for j, v in enumerate(row) if v]
        return json.dumps({"d": 2, "level": level, "entries": entries})
    return text


def _permutation(side: int, level: int, seed: int) -> Callable[[], str]:
    """A d = 2 AF file of a permutation matrix of the given side, shuffled by
    random.Random(seed), every entry 1."""
    def text():
        perm = list(range(side))
        random.Random(seed).shuffle(perm)
        return json.dumps({"d": 2, "level": level, "entries": [[i, j, "1"] for i, j in enumerate(perm)]})
    return text


def _tail_quotient(m: int) -> Callable[[], str]:
    """R/R_{>=m} at d = 2: every word of length m is a relation."""
    def text():
        words = itertools.product(range(2), repeat=m)
        return "field: QQ\nd: 2\ngens: [0]\nrels:\n" + "".join(" ".join(f"x{a}" for a in w) + "\n" for w in words)
    return text


def _unit(u) -> str:
    """The text of the Leavitt monomial u* u."""
    return " ".join([f"x{i}*" for i in reversed(u)] + [f"x{i}" for i in u])


def _words(k: int) -> list:
    return list(itertools.product(range(2), repeat=k))


# 1 written out at level 6, x0^7* x0^7 at level 7, and -3/2 at level 0: the
# degree-0 part is raised to level 7, -1/2 u* u at each word u of length 7
# but 0^7, where it is 1/2; the degree-1 term keeps its level 1
MIXED_LEVELS = " + ".join(_unit(u) for u in _words(6)) + f" + {_unit((0,) * 7)} - 3/2 - 3 x1* x0 x0"
MIXED_LEVELS_TEXT = "-3 x1* x0 x0 " + " ".join(("- " if any(u) else "+ ") + "1/2 " + _unit(u) for u in _words(7))

FREE = {"free.pres": _golden("free.pres")}
E01 = {"e01.json": _golden("e01.json")}
BIG10 = '{"d": 2, "level": 10, "entries": [[3, 700, "5/3"]]}\n'
LEVEL11 = "x0* x0 - 2 x1* x0 + 1/2 x1* x0* x0 x1 - 1/2"
K20 = {"k20.pres": "field: QQ\nd: 2\ngens: [0, 20]\nrels:\n0, x0\n0, x1\n"}
WIDE3 = {"wide3.pres": "field: QQ\nd: 3\ngens: [0, 10000]\nrels:\n"}
WIDE2 = {"wide2.pres": "field: QQ\nd: 2\ngens: [%s]\nrels:\n" % ", ".join(["0"] * 20 + ["14280"])}
K9100 = {"k9100.pres": "field: QQ\nd: 3\ngens: [0, 9100]\nrels:\nx0, 0\nx1, 0\nx2, 0\n"}


def _d3_plus(name: str, shift: int, rows: list) -> dict:
    """{name: the text of the golden d3.pres with a fourth generator of the
    given shift, a zero cell added to each relation row, and the given rows}."""
    def text():
        head, rels = (GOLDEN / "d3.pres").read_text(encoding="utf-8").split("rels:\n")
        head = head.replace("gens: [0, 1, 1]", f"gens: [0, 1, 1, {shift}]")
        return head + "rels:\n" + "".join(f"{row}, 0\n" for row in rels.splitlines() if row) + "".join(
            f"{row}\n" for row in rows)
    return {name: text}


def _r_by_power(k: int) -> dict:
    """M_k = (R + R(-k)) / (x0^k * e0 - e1) at d = 2 over QQ, which is R."""
    return {f"m{k}.pres": "field: QQ\nd: 2\ngens: [0, %d]\nrels:\n%s, -1\n" % (k, " ".join(["x0"] * k))}


M20, M1000 = _r_by_power(20), _r_by_power(1000)
ONE1024 = {"one1024.json": '{"d": 2, "level": 10, "entries": [[700, 300, "5"]]}\n'}
HALF2048 = {"half2048.json": '{"d": 2, "level": 11, "entries": [[5, 7, "3/2"]]}\n'}

CASES = [
    # acceptance suites
    Case("verify-hilbert", ("verify", "--suite", "hilbert"), 0, {"result.all_passed": True}, 60),
    Case("verify-splitting", ("verify", "--suite", "splitting"), 0, {"result.all_passed": True}, 60),
    # budgets decided from sizes before the work
    Case("hilbert-digit-budget", ("hilbert", "free.pres", "20000"), 1, {"kind": "BudgetExceeded"}, 60, FREE),
    Case("decompose-digit-budget", ("decompose", "free.pres", "-20000"), 1, {"kind": "BudgetExceeded"}, 60, FREE),
    Case("decompose-far-twist", ("decompose", "free.pres", "1000000000000"), 1,
         {"kind": "NotExpressibleAtTwist"}, 10, FREE),
    Case("qgr-class-far-shift", ("qgr-class", "far.pres"), 0, {"result.class": {"t": 1, "i": 10**12, "d": 2}}, 10,
         {"far.pres": "field: QQ\nd: 2\ngens: [1000000000000]\nrels:\n"}),
    Case("profile-far-spread", ("profile", "spread.pres"), 1, {"kind": "BudgetExceeded"}, 10,
         {"spread.pres": "field: QQ\nd: 2\ngens: [0, 1000000000000]\nrels:\n"}),
    # torsion walked down the relation basis from its highest dead end, with
    # no standard word: R + k(-20) at d = 2, refused by the word budget when
    # torsion read its dead end in the standard words; and at d = 3 two
    # inputs whose h_20 and h_16 letter-matrix rows ran out of memory: d3.pres
    # + k(-20), and d3.pres with e3 in degree 15 and x0^16 e0 - x0 e3
    Case("torsion-point-above-r-k20", ("torsion", "k20.pres"), 0,
         {"result.dimension": 1, "result.by_degree.20": 1}, 1, K20, rss_mb=48),
    Case("torsion-d3-beside-point-k20", ("torsion", "d3k20.pres"), 0,
         {"result.dimension": 2, "result.by_degree.1": 1, "result.by_degree.20": 1}, 1,
         _d3_plus("d3k20.pres", 20, ["0, 0, 0, x0", "0, 0, 0, x1", "0, 0, 0, x2"]), rss_mb=48),
    Case("torsion-d3-hook-15", ("torsion", "d3hook15.pres"), 0, {"result.dimension": 1, "result.by_degree.1": 1},
         1, _d3_plus("d3hook15.pres", 15, [" ".join(["x0"] * 16) + ", 0, 0, -x0"]), rss_mb=48),
    Case("mul-literal-digits", ("s-calc", "mul", "big.json", "big.json"), 1, {"kind": "BudgetExceeded"}, 60,
         {"big.json": '{"d": 1, "level": 0, "entries": [[0, 0, "1e4000"]]}\n'}),
    # a route bound: the witness is 2n one-entry units, counted as 2n^3 dense
    # entries; item 5 (sparse limit algebra) lifts it
    Case("simplicity-level-cap", ("--level-cap", "7", "s-calc", "simplicity", "u8.json"), 1,
         {"kind": "BudgetExceeded"}, 10, {"u8.json": '{"d": 2, "level": 8, "entries": [[0, 0, "1"]]}\n'}),
    # profiles certified past the word budget, in bounded memory; R + k(-20)
    # counts its 2^21 words of degree b = 21 off the relation leads
    Case("profile-word-budget-k20", ("profile", "k20.pres"), 0,
         {"result.profile": {"i0": 21, "t": [2**21, 2**22, 2**23, 2**24, 2**25]}}, 20, K20, rss_mb=48),
    # values past the digit bound, cheap to compute, refused when the report
    # is built: R + R(-10000) at d = 3 has t0 = 3^10000 + 1, and 20 R + R(-14280)
    # at d = 2 has t0 = 20 * 2^14280 + 1, which decompose refuses by its bits
    Case("profile-digits-d3", ("profile", "wide3.pres"), 1, {"kind": "BudgetExceeded"}, 10, WIDE3),
    Case("qgr-class-digits-d3", ("qgr-class", "wide3.pres"), 1, {"kind": "BudgetExceeded"}, 10, WIDE3),
    Case("decompose-digits-d2", ("decompose", "wide2.pres", "0"), 1, {"kind": "BudgetExceeded"}, 10, WIDE2),
    # k + R(-9100) at d = 3: a spread of 9100 degrees with small values
    Case("profile-small-t-wide-spread", ("profile", "k9100.pres"), 0,
         {"result.profile": {"i0": 9100, "t": [1, 3, 9, 27, 81]}}, 10, K9100),
    # a route bound: k + R(-14281) has the same t, but its span from the
    # least shift to b + 4 passes the rule of fpmod._check_span, which bounds
    # rank * d^span and not the dimensions; item 33 would lift it
    Case("profile-small-t-past-span", ("profile", "k14281.pres"), 1, {"kind": "BudgetExceeded"}, 10,
         {"k14281.pres": "field: QQ\nd: 3\ngens: [0, 14281]\nrels:\nx0, 0\nx1, 0\nx2, 0\n"}),
    # its torsion walks from its one dead end, at degree 0: 0.2 s for the
    # whole command on a 2-vCPU VM, 0.31-0.37 s when it walked the 9100
    # degrees below i0 on letter matrices
    Case("torsion-wide-spread", ("torsion", "k9100.pres"), 0, {"result.dimension": 1}, 3, K9100),
    # M_k is R: the walk below b reads C_{j+1} off the relation basis and
    # builds no word, where the rank walk was refused at degree 18 of M_20;
    # 0.16-0.21 s and 17.0-17.7 MB each, whole command, on a 2-vCPU VM
    Case("profile-r-by-power-20", ("profile", "m20.pres"), 0,
         {"result.profile": {"i0": 0, "t": [1, 2, 4, 8, 16]}}, 10, M20, rss_mb=30),
    Case("k0-r-by-power-20", ("k0", "m20.pres"), 0, {"result.k0": {"d": 2, "i": 0, "t": 1}}, 10, M20, rss_mb=30),
    Case("torsion-r-by-power-20", ("torsion", "m20.pres"), 0, {"result.dimension": 0}, 10, M20, rss_mb=30),
    Case("profile-r-by-power-1000", ("profile", "m1000.pres"), 0,
         {"result.profile": {"i0": 0, "t": [1, 2, 4, 8, 16]}}, 10, M1000, rss_mb=30),
    # torsion
    Case("torsion-gf5", ("torsion", "gf5.pres"), 0, {"result.dimension": 3}, 60, {"gf5.pres": _golden("gf5.pres")}),
    Case("torsion-point-beside-r24", ("torsion", "k24.pres"), 0, {"result.dimension": 1}, 10,
         {"k24.pres": "field: QQ\nd: 2\ngens: [0, 24]\nrels:\nx0, 0\nx1, 0\n"}, rss_mb=48),
    Case("torsion-x0-power-8", ("torsion", "x08.pres"), 0, {"result.dimension": 0, "result.by_degree": {}}, 20,
         {"x08.pres": "field: QQ\nd: 2\ngens: [0]\nrels:\nx0 x0 x0 x0 x0 x0 x0 x0\n"}),
    # limit algebra and Leavitt algebra
    Case("leavitt-eval", ("leavitt-eval", "x0 x0*"), 0, {"result.text": "1"}, 60),
    # a route bound: x1*^30 x1^30 - 1 has a normal form of 30 terms, and
    # its zero test reads that form, but the report prints the canonical
    # form, raised to level 30; only printing raises now, and printing the
    # normal form past the raise budget is a report change left open
    Case("leavitt-eval-raise-budget", ("--d", "2", "leavitt-eval", " ".join(["x1*"] * 30 + ["x1"] * 30) + " - 1"), 1,
         {"kind": "BudgetExceeded"}, 10, stderr="raising emits 1073741825 terms"),
    # a 2.9k-character input of three levels, printed as 7.1k characters:
    # 0.21-0.27 s and 17 MB on a 2-vCPU VM
    Case("leavitt-eval-mixed-levels", ("leavitt-eval", MIXED_LEVELS), 0,
         {"result.text": MIXED_LEVELS_TEXT, "result.degrees": [0, 1]}, 3, rss_mb=24),
    # a level-11 matrix of a level-2 element, its units placed directly as
    # the stored entries of sparse rows: 0.2 s and 18 MB on a 2-vCPU VM;
    # 0.5 s and 91 MB through a dense 2048^2 table (1 s through a raised
    # element)
    Case("leavitt-eval-level11", ("--level-cap", "11", "leavitt-eval", "--level", "11", LEVEL11), 0,
         {"result.matrix": {"d": 2, "level": 2, "entries": [
             [0, 0, "1/2"], [1, 0, "-2"], [2, 2, "1/2"], [3, 2, "-2"], [3, 3, "-1/2"]]}}, 10, rss_mb=32),
    Case("leavitt-eval-level11-gf7", ("--level-cap", "11", "--field", "GF:7", "leavitt-eval", "--level", "11",
                                      LEVEL11), 0,
         {"result.matrix": {"d": 2, "level": 2, "entries": [
             [0, 0, "4"], [1, 0, "5"], [2, 2, "4"], [3, 2, "5"], [3, 3, "3"]]}}, 10, rss_mb=32),
    Case("regular-e01", ("s-calc", "regular", "e01.json"), 0, {"result.verified": True}, 60, E01),
    Case("regular-e01-gf7", ("--field", "GF:7", "s-calc", "regular", "e01.json"), 0,
         {"result.verified": True}, 60, E01),
    Case("regular-dense64", ("--level-cap", "6", "s-calc", "regular", "dense64.json"), 0,
         {"result.verified": True}, 60, {"dense64.json": _dense(64, 6, 64)}),
    # a one-entry level-10 witness stays on the sparse kernel: 0.45-0.6 s on
    # a 2-vCPU VM, 4.6 s on packed rows
    Case("regular-one-entry-level10-gfp", ("--level-cap", "10", "--field", "GF:10007", "s-calc", "regular",
                                           "one1024.json"), 0, {"result.verified": True}, 3, ONE1024),
    # and over QQ off the prime route: 0.37 s on a 2-vCPU VM
    Case("regular-one-entry-level10-qq", ("--level-cap", "10", "s-calc", "regular", "one1024.json"), 0,
         {"result.verified": True}, 3, ONE1024),
    # a permutation's product is one scaled row per row: 0.3 s and 18 MB on a
    # 2-vCPU VM, 0.4 s and 50 MB on dense rows, 35-41 s with a dot product
    # per entry
    Case("regular-permutation-level10-gfp", ("--level-cap", "10", "--field", "GF:10007", "s-calc", "regular",
                                             "perm1024.json"), 0, {"result.verified": True}, 5,
         {"perm1024.json": _permutation(1024, 10, 1024)}, rss_mb=32),
    # level-10 products multiply at their own levels, on sparse rows: 17 MB
    # each on a 2-vCPU VM, 24 MB on dense rows
    Case("mul-level0-by-level10", ("--level-cap", "10", "s-calc", "mul", "two.json", "big.json"), 0,
         {"result.element": {"d": 2, "entries": [[3, 700, "10/3"]], "level": 10}}, 10,
         {"two.json": '{"d": 2, "level": 0, "entries": [[0, 0, "2"]]}\n', "big.json": BIG10}, rss_mb=24),
    Case("mul-level1-by-level10", ("--level-cap", "10", "s-calc", "mul", "l1.json", "big.json"), 0,
         {"result.element": {"d": 2, "entries": [[2, 700, "10/3"], [3, 700, "5"]], "level": 10}}, 10,
         {"l1.json": '{"d": 2, "level": 1, "entries": [[0, 0, "1"], [0, 1, "2"], [1, 0, "-1/2"], [1, 1, "3"]]}\n',
          "big.json": BIG10}, rss_mb=24),
    # parse refusals
    # a route bound: a level-16 matrix unit stores one entry, but MAX_SIDE
    # refuses a side above 2048; item 5 (sparse limit algebra) lifts it
    Case("canonical-level16-unit", ("--level-cap", "15", "s-calc", "canonical", "u16.json"), 2, {"kind": "parse"},
         10, {"u16.json": '{"d": 2, "level": 16, "entries": [[0, 0, "1"]]}\n'}, stderr="has more than 2048 rows"),
    Case("canonical-huge-literal", ("s-calc", "canonical", "huge.json"), 2, {"kind": "parse"}, 10,
         {"huge.json": '{"d": 2, "level": 1, "entries": [[0, 0, "1e300000000"]]}\n'}),
    Case("profile-repeated-header", ("profile", "twice.pres"), 2, {"kind": "parse"}, 60,
         {"twice.pres": "field: QQ\nd: 2\nd: 3\ngens: [0]\nrels:\n"}),
    Case("canonical-fractional-level", ("s-calc", "canonical", "frac.json"), 2, {"kind": "parse"}, 60,
         {"frac.json": '{"d": 2, "level": 1.5, "entries": []}\n'}),
    Case("canonical-underscore-literal", ("s-calc", "canonical", "under.json"), 2, {"kind": "parse"}, 60,
         {"under.json": '{"d": 1, "level": 0, "entries": [[0, 0, "1_0"]]}\n'}),
    Case("profile-underscore-shift", ("profile", "typo.pres"), 2, {"kind": "parse"}, 60,
         {"typo.pres": "field: QQ\nd: 2\ngens: [0_0, 1_1]\nrels:\n"}),
    # usage errors report on stdout like parse errors
    Case("usage-underscore-argument", ("hilbert", "free.pres", "1_2"), 2, {"kind": "parse"}, 60, FREE,
         stderr="must be an integer"),
    Case("usage-d-zero", ("--d", "0", "leavitt-eval", "x0"), 2, {"kind": "parse"}, 60, stderr="usage error"),
    Case("usage-leavitt-eval-negative-level", ("leavitt-eval", "--level", "-1", "x0"), 2, {"kind": "parse"}, 60,
         stderr="expected a nonnegative integer"),
    Case("usage-embed-negative-level", ("s-calc", "embed", "--level", "-1", "e01.json"), 2, {"kind": "parse"}, 60,
         E01, stderr="expected a nonnegative integer"),
    Case("usage-unknown-command", ("nope",), 2, {"kind": "parse"}, 60, stderr="usage error"),
    Case("usage-degree-cap", ("--degree-cap", "8", "profile", "free.pres"), 2, {"kind": "parse"}, 60, FREE,
         stderr="usage error"),
]

SLOW_CASES = [
    # the relation front end at scale, all torsion: 0.95-1.3 s and 67 MB for
    # the whole command on a 2-vCPU VM; 1.7-2.5 s and 141 MB when each
    # relation was parsed into polynomials, copied into an element, checked
    # twice, and the report built 65535 generators it does not print
    Case("torsion-r-mod-r-ge16", ("torsion", "ge16.pres"), 0, {"result.dimension": 65535}, 60,
         {"ge16.pres": _tail_quotient(16)}, rss_mb=100),
    # and at 2^18 relations, the most MAX_STD_WORDS admits: 4.0-5.4 s and
    # 233 MB, against 9.8-10.7 s and 536 MB on that path
    Case("torsion-r-mod-r-ge18", ("torsion", "ge18.pres"), 0, {"result.dimension": 262143}, 40,
         {"ge18.pres": _tail_quotient(18)}, rss_mb=300),
    Case("regular-dense256-gfp", ("--level-cap", "8", "--field", "GF:10007", "s-calc", "regular", "dense256.json"),
         0, {"result.verified": True}, 30, {"dense256.json": _dense(256, 8, 256)}),
    # the rank-deficient path of the packed witness at scale, rank 255: about
    # 1.0-1.5 s and 40 MB for the whole command on a 2-vCPU VM
    Case("regular-dense256-singular-gfp", ("--level-cap", "8", "--field", "GF:10007", "s-calc", "regular",
                                           "singular256.json"), 0, {"result.verified": True}, 10,
         {"singular256.json": _dense(256, 8, 256, singular=True)}, rss_mb=64),
    # one fractional entry at level 11, read with no dense 2048^2 table of
    # field values: 0.28-0.36 s and 17 MB for the whole command on a 2-vCPU
    # VM.  Through such a table it took 0.45-0.53 s and 81 MB, and 1.3-1.4 s
    # and 113 MB with the table lifted to integer rows entry by entry
    Case("canonical-one-entry-level11", ("--level-cap", "11", "s-calc", "canonical", "half2048.json"), 0,
         {"result.element": {"d": 2, "entries": [[5, 7, "3/2"]], "level": 11}}, 3, HALF2048, rss_mb=96),
    # and its witness, on the sparse kernel's integer rows, with no pass
    # over zero rows in products, printing or the sparse lift: 0.60-0.76 s
    # and 18 MB.  With those passes it took 1.05-1.54 s and 114 MB; through
    # the table 1.2-1.5 s and 178 MB, and 4.0-4.6 s and 210 MB with the
    # witness lifted from values twice more
    Case("regular-one-entry-level11", ("--level-cap", "11", "s-calc", "regular", "half2048.json"), 0,
         {"result.verified": True, "result.witness": {"d": 2, "entries": [[7, 5, "2/3"]], "level": 11}}, 6,
         HALF2048, rss_mb=48),
    # a side-256 square on packed rows of B
    Case("mul-dense256-gfp", ("--level-cap", "8", "--field", "GF:10007", "s-calc", "mul", "dense256.json",
                              "dense256.json"), 0, {"result.element.level": 8}, 30,
         {"dense256.json": _dense(256, 8, 256)}),
]


def _at(report, path: str):
    for key in path.split("."):
        report = report[key]
    return report


def run_case(case: Case) -> Outcome:
    """Run one row in a fresh temporary directory and check it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        for name, text in case.files.items():
            Path(tmp, name).write_text(text if isinstance(text, str) else text(), encoding="utf-8")
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", _SPAWN, *case.argv],
                                stdout=out, stderr=err, cwd=tmp, env=env, start_new_session=True)
        try:
            proc.wait(case.timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            killed = proc.returncode is None
            if killed:  # the timeout passed, or this run was interrupted
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        seconds = time.monotonic() - start
        if killed:
            return Outcome(proc.pid, seconds, None, [f"timed out after {case.timeout} s"])
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
        try:
            code, rss_kb = map(int, Path(tmp, _WAIT4).read_text().split())
        except FileNotFoundError:
            return Outcome(proc.pid, seconds, None, [f"the command did not run: {stderr!r}"])
    rss_mb = rss_kb / 1024  # ru_maxrss is in kilobytes on Linux
    failures = []
    if code != case.code:
        failures.append(f"exit code {code}, expected {case.code}")
    if "Traceback" in stderr:
        failures.append(f"traceback on stderr:\n{stderr}")
    if case.stderr not in stderr:
        failures.append(f"stderr lacks {case.stderr!r}: {stderr!r}")
    try:
        report = json.loads(stdout)
    except ValueError:
        failures.append(f"stdout is not one JSON object: {stdout[:200]!r}")
    else:
        for path, value in case.expect.items():
            try:
                found = _at(report, path)
            except (KeyError, TypeError):
                failures.append(f"no {path} in {stdout[:200]!r}")
                continue
            if found != value:
                failures.append(f"{path} = {found!r}, expected {value!r}")
    if case.rss_mb is not None and rss_mb >= case.rss_mb:
        failures.append(f"peak RSS {rss_mb:.1f} MB, bound {case.rss_mb} MB")
    return Outcome(proc.pid, seconds, rss_mb, failures)


def main() -> int:
    failed = 0
    for case in CASES + SLOW_CASES:
        outcome = run_case(case)
        failed += bool(outcome.failures)
        rss = "" if outcome.rss_mb is None else f"{outcome.rss_mb:6.1f} MB"
        print(f"{'FAIL' if outcome.failures else 'ok':4} {case.id:32} {outcome.seconds:6.2f} s {rss}", flush=True)
        for failure in outcome.failures:
            print(f"     {failure}")
    total = len(CASES) + len(SLOW_CASES)
    print(f"{total - failed} of {total} rows passed on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
