import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest

import freeproj
from freeproj.af_s import MAX_SIMPLICITY_ENTRIES
from freeproj.cli import main
from freeproj.fields import MAX_LITERAL_DIGITS
from freeproj.fpmod import MAX_STD_WORDS
from freeproj.leavitt import MAX_RAISED_TERMS
from freeproj.randgen import make_rng
from freeproj.verify import CRITERIA, SUITE_NAMES, CriterionResult, run_criterion

FREE = "field: QQ\nd: 2\ngens: [0]\nrels:\n"
LETTERQ = "field: QQ\nd: 2\ngens: [0]\nrels:\nx0\n"
POINT = "field: QQ\nd: 2\ngens: [0]\nrels:\nx0\nx1\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("free", FREE), ("letterq", LETTERQ), ("point", POINT)):
        p = tmp_path / f"{name}.pres"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def test_hilbert_command(files, capsys):
    code, report = run(capsys, "hilbert", files["free"], "5")
    assert code == 0
    assert report["result"]["dim"] == 32


@pytest.mark.parametrize("j", ["20000", str(10**9)])
def test_hilbert_refuses_values_too_long_to_print(capsys, j):
    # 2^20000 has 6021 digits; at 10^9 the bound is decided before 2^j is formed
    free = os.path.join(os.path.dirname(__file__), "golden", "free.pres")
    start = time.perf_counter()
    code, report = run(capsys, "hilbert", free, j)
    assert time.perf_counter() - start < 2
    assert code == 1
    assert report["kind"] == "BudgetExceeded"
    assert f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}" in report["error"]


def test_hilbert_prints_values_up_to_the_digit_bound(capsys):
    # 2^14000 has 4215 digits
    free = os.path.join(os.path.dirname(__file__), "golden", "free.pres")
    code, report = run(capsys, "hilbert", free, "14000")
    assert code == 0
    assert report["result"]["dim"] == 2**14000


def test_profile_command(files, capsys):
    code, report = run(capsys, "profile", files["letterq"])
    assert code == 0
    assert report["result"]["profile"]["i0"] == 1
    assert report["result"]["profile"]["t"] == [1, 2, 4, 8, 16]


def test_profile_command_checks_each_degree_once(capsys, mult_checks, tmp_path):
    # one stable_profile call per report: each degree up to the cap is checked
    # once, also on R + R(-1) by x0 * e0 = e1, where i0 < b
    golden = os.path.join(os.path.dirname(__file__), "golden")
    early = tmp_path / "early.pres"
    early.write_text("field: QQ\nd: 2\ngens: [0, 1]\nrels:\nx0, -1\n")
    for path in [os.path.join(golden, f"{n}.pres") for n in ("d3", "letterq", "gf5", "two")] + [str(early)]:
        mult_checks.clear()
        code, report = run(capsys, "--degree-cap", "12", "profile", path)
        i0 = report["result"]["profile"]["i0"]
        assert code == 0 and report["result"]["profile"]["certified_through"] == 12
        # the walk down from b also checks i0 - 1 when it stops there
        assert len(mult_checks) == len(set(mult_checks))
        assert set(range(i0, 12)) <= set(mult_checks) <= set(range(i0 - 1, 12))


def test_k0_command(files, capsys):
    code, report = run(capsys, "k0", files["point"])
    assert code == 0
    assert report["result"]["k0"] == {"t": 0, "i": 0, "d": 2}


def test_torsion_command(files, capsys):
    code, report = run(capsys, "torsion", files["point"])
    assert code == 0
    assert report["result"]["dimension"] == 1


def test_iso_command(files, capsys, tmp_path):
    doubled = tmp_path / "two.pres"
    doubled.write_text("field: QQ\nd: 2\ngens: [1, 1]\nrels:\n")
    code, report = run(capsys, "iso", files["free"], str(doubled))
    assert code == 0
    assert report["result"]["isomorphic"] is True
    code, report = run(capsys, "iso", files["free"], files["point"])
    assert report["result"]["isomorphic"] is False


def test_decompose_command(files, capsys):
    code, report = run(capsys, "decompose", files["free"], "-3")
    assert code == 0
    assert report["result"]["multiplicity"] == 8


def test_decompose_error_is_json(files, capsys):
    code, report = run(capsys, "decompose", files["letterq"], "0")
    assert code == 1
    assert report["kind"] == "NotExpressibleAtTwist"


@pytest.mark.parametrize("i, kind", [
    ("-20000", "BudgetExceeded"), (str(-10**12), "BudgetExceeded"), (str(10**12), "NotExpressibleAtTwist"),
])
def test_decompose_at_far_twists_is_decided_from_exponents(capsys, i, kind):
    # multiplicity 2^20000 has 6021 digits; at twist 10^12 the class 1 is not
    # integral; both are decided before any power of 2 is formed
    free = os.path.join(os.path.dirname(__file__), "golden", "free.pres")
    start = time.perf_counter()
    code, report = run(capsys, "decompose", free, i)
    assert time.perf_counter() - start < 2
    assert code == 1
    assert report["kind"] == kind


def test_far_shift_class_is_read_from_exponents(tmp_path, capsys):
    far = tmp_path / "far.pres"
    far.write_text(f"field: QQ\nd: 2\ngens: [{10**12}]\nrels:\n")
    start = time.perf_counter()
    code, report = run(capsys, "qgr-class", str(far))
    assert code == 0
    assert report["result"] == {"class": {"t": 1, "i": 10**12, "d": 2}, "witness": [10**12, 1]}
    code, report = run(capsys, "decompose", str(far), str(-10**12 - 3))
    assert code == 0
    assert report["result"]["multiplicity"] == 8
    # the value 1/2^(10^12) is refused before it is formed
    code, report = run(capsys, "k0", str(far))
    assert code == 1
    assert report["kind"] == "BudgetExceeded"
    assert f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}" in report["error"]
    assert time.perf_counter() - start < 2
    # 2^14000 has 4215 digits
    far.write_text("field: QQ\nd: 2\ngens: [14000]\nrels:\n")
    code, report = run(capsys, "k0", str(far))
    assert code == 0
    assert report["result"]["value"] == f"1/{2**14000}"


@pytest.mark.parametrize("argv", [["profile"], ["torsion"], ["k0"], ["qgr-class"], ["decompose", "0"]])
def test_far_shift_spread_is_refused_before_it_is_walked(tmp_path, capsys, argv):
    # the profile would span 10^12 degrees with dimensions up to 2^(10^12);
    # the refusal is read from the degrees alone
    far = tmp_path / "spread.pres"
    far.write_text(f"field: QQ\nd: 2\ngens: [0, {10**12}]\nrels:\n")
    start = time.perf_counter()
    code, report = run(capsys, argv[0], str(far), *argv[1:])
    assert time.perf_counter() - start < 2
    assert code == 1
    assert report["kind"] == "BudgetExceeded"
    assert f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}" in report["error"]


def test_leavitt_eval(capsys):
    code, report = run(capsys, "leavitt-eval", "x0 x0*")
    assert code == 0
    assert report["result"]["text"] == "1"
    code, report = run(capsys, "leavitt-eval", "x0 x1*")
    assert report["result"]["is_zero"] is True


def test_leavitt_eval_matrix_output(capsys):
    code, report = run(capsys, "leavitt-eval", "x0* x0", "--level", "1")
    assert code == 0
    assert report["result"]["matrix"] == {"d": 2, "level": 1, "entries": [[0, 0, "1"]]}


def test_s_calc_roundtrip(tmp_path, capsys):
    e = tmp_path / "e.json"
    e.write_text(json.dumps({"d": 2, "level": 1, "entries": [[0, 1, "3"]]}))
    code, report = run(capsys, "s-calc", "regular", str(e))
    assert code == 0
    assert report["result"]["verified"] is True
    code, report = run(capsys, "s-calc", "embed", str(e), "--level", "2")
    assert report["result"]["element"]["level"] == 2


@pytest.mark.parametrize("entry", [[-1, 0, "1"], [5, 0, "1"], [0, 2, "1"]])
@pytest.mark.parametrize("sub", ["canonical", "k0"])
def test_s_calc_rejects_entry_outside_matrix(tmp_path, capsys, sub, entry):
    e = tmp_path / "e.json"
    e.write_text(json.dumps({"d": 2, "level": 1, "entries": [entry]}))
    code, report = run(capsys, "s-calc", sub, str(e))
    assert code == 2
    assert report["kind"] == "parse"
    assert f"[{entry[0]}, {entry[1]}]" in report["error"]


@pytest.mark.parametrize("data, field_name", [
    ({"d": 2, "level": 1}, "'entries'"),
    ({"level": 1, "entries": []}, "'d'"),
    ({"d": 2, "entries": []}, "'level'"),
    ({"d": "two", "level": 1, "entries": []}, "'d'"),
    ({"d": 2, "level": 1, "entries": [["a", 0, "1"]]}, "entries[0][0]"),
    ({"d": 2, "level": 1, "entries": [[0, 0, "1"], [1, None, "1"]]}, "entries[1][1]"),
    ({"d": 2, "level": 1, "entries": [[0, 1]]}, "entries[0]"),
    ({"d": 2, "level": 1, "entries": [7]}, "entries[0]"),
    ({"d": 2, "level": 1, "entries": {"0": 1}}, "'entries'"),
    ([[0, 0, "1"]], "object"),
    ({"d": 2, "level": 1, "entries": [[0, 0, "1/7"]]}, "'1/7'"),
    ({"d": float("inf"), "level": 1, "entries": []}, "'d'"),
    ({"d": 2, "level": 1, "entries": [[0, 0, "1e300000000"]]}, "'1e300000000'"),
    # d = 1 passes the side bound at any level; the level cap still holds
    ({"d": 1, "level": "100000000", "entries": []}, "--level-cap"),
    # a bool or a fractional float is not an integer, though int() reads it
    ({"d": True, "level": 1, "entries": []}, "'d'"),
    ({"d": 2, "level": 1.7, "entries": []}, "'level'"),
    ({"d": 2, "level": 1, "entries": [[0.9, 0, "1"]]}, "entries[0][0]"),
    ({"d": 2, "level": 1, "entries": [[0, False, "1"]]}, "entries[0][1]"),
    ({"d": 2, "level": 1, "entries": [[0, 0, "1"], [0, 0.0, "2"]]}, "entries[0] and entries[1] both give entry [0, 0]"),
    # underscores, spaces and non-ASCII digits, which int() reads
    ({"d": "0_2", "level": 1, "entries": []}, "field 'd' must be an integer of at most 4300 ASCII digits, got '0_2'"),
    ({"d": 2, "level": " 1", "entries": []}, "field 'level' must be an integer of at most 4300 ASCII digits, got ' 1'"),
    ({"d": 2, "level": 1, "entries": [["\u0661", 0, "1"]]}, "entries[0][0]"),
])
def test_s_calc_rejects_malformed_af_json(tmp_path, capsys, data, field_name):
    e = tmp_path / "e.json"
    e.write_text(json.dumps(data))
    code, report = run(capsys, "--field", "GF:7", "s-calc", "canonical", str(e))
    assert code == 2
    assert report["kind"] == "parse"
    assert field_name in report["error"]


@pytest.mark.parametrize("text", [
    '{"d": 2, "level": 1, "entries": [[0, 0, "1e100000"]]}',
    '{"d": 2, "level": 1, "entries": [[0, 0, "1e300000000"]]}',
    '{"d": 2, "level": 1, "entries": [[0, 0, ' + "7" * 5000 + ']]}',
    "[" * 100000,
], ids=["exp-100000", "exp-300000000", "int-5000-digits", "nested-100000"])
def test_s_calc_refuses_huge_literals_and_deep_json_quickly(tmp_path, capsys, text):
    e = tmp_path / "e.json"
    e.write_text(text)
    start = time.perf_counter()
    code, report = run(capsys, "s-calc", "canonical", str(e))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["kind"] == "parse"


@pytest.mark.parametrize("value", ["1e4000", "-1e4000", "1/" + "9" * 4300])
def test_s_calc_refuses_printing_overlong_values(tmp_path, capsys, value):
    # each factor prints, but a numerator or denominator of the product has
    # over 4300 digits: a typed error, not a ValueError from str()
    e = tmp_path / "e.json"
    e.write_text(json.dumps({"d": 1, "level": 0, "entries": [[0, 0, value]]}))
    code, report = run(capsys, "s-calc", "canonical", str(e))
    assert code == 0
    code, report = run(capsys, "s-calc", "mul", str(e), str(e))
    assert code == 1
    assert report["kind"] == "BudgetExceeded"
    assert "4300 digits" in report["error"]


def test_leavitt_eval_refuses_printing_overlong_values(capsys):
    nines = "9" * 4300
    code, report = run(capsys, "leavitt-eval", nines)
    assert code == 0 and report["result"]["text"] == nines
    # the sum has 4301 digits, in the text and in the level-1 matrix
    for extra in ((), ("--level", "1")):
        code, report = run(capsys, "leavitt-eval", f"{nines} x0 x0* + {nines} x0 x0*", *extra)
        assert code == 1
        assert report["kind"] == "BudgetExceeded"


# options: the command line up to the input file
@pytest.mark.parametrize("options, data, needle", [
    (("s-calc", "canonical"), {"d": 2, "level": 40, "entries": []}, "--level-cap"),
    (("--level-cap", "40", "s-calc", "canonical"), {"d": 2, "level": 40, "entries": []}, "2048 rows"),
    (("--level-cap", "5", "s-calc", "canonical"), {"d": 100, "level": 3, "entries": []}, "2048 rows"),
    (("s-calc", "canonical"), {"d": 2, "level": "40", "entries": []}, "2048 rows"),
    # the side d**level of the target, not the level, is what is too large
    (("s-calc", "embed", "--level", "4"), {"d": 2000, "level": 1, "entries": [[0, 0, "1"]]}, "--level 4"),
    (("s-calc", "embed"), {"d": 2000, "level": 1, "entries": [[0, 0, "1"]]}, "--level 2"),
])
def test_s_calc_bounds_af_size_before_allocating(tmp_path, capsys, options, data, needle):
    # a check after the allocation would fail at once on [0] * 2**40
    e = tmp_path / "e.json"
    e.write_text(json.dumps(data))
    code, report = run(capsys, *options, str(e))
    assert code == 2
    assert report["kind"] == "parse"
    assert needle in report["error"]


def test_leavitt_eval_bounds_matrix_side(capsys):
    # --level 3 is under the cap, but the matrix side 100**3 is not
    code, report = run(capsys, "--d", "100", "leavitt-eval", "x0* x0", "--level", "3")
    assert code == 2
    assert report["kind"] == "parse"
    assert "--level 3" in report["error"] and "2048 rows" in report["error"]


@pytest.mark.parametrize("text", ["x0 -", "x0* x0 + x1 - -"])
def test_leavitt_eval_refuses_a_trailing_sign(capsys, text):
    code, report = run(capsys, "leavitt-eval", text)
    assert code == 2
    assert report["kind"] == "parse"
    assert "ends in a sign" in report["error"]


@pytest.mark.parametrize("sub, count", [
    ("mul", 1), ("mul", 3), ("canonical", 2), ("k0", 2), ("embed", 2), ("regular", 2), ("simplicity", 3),
])
def test_s_calc_checks_the_file_count(capsys, sub, count):
    # mul takes two files and every other subcommand one: a wrong count is a
    # parse error, not a file silently left unread
    e01 = os.path.join(os.path.dirname(__file__), "golden", "e01.json")
    code, report = run(capsys, "s-calc", sub, *[e01] * count)
    assert code == 2
    assert report["kind"] == "parse"
    assert f"s-calc {sub} takes {2 if sub == 'mul' else 1} file" in report["error"]
    assert f"got {count}" in report["error"]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PRESENTATION_COMMANDS = [
    ["hilbert", "{}", "3"], ["profile", "{}"], ["k0", "{}"], ["torsion", "{}"],
    ["qgr-class", "{}"], ["iso", "{}", "{}"], ["decompose", "{}", "-3"],
]


def _on(argv, path):
    return [path if a == "{}" else a for a in argv]


@pytest.mark.parametrize("argv", [
    ["hilbert", "{free}", "1_2"],
    ["decompose", "{free}", " 1"],
    ["--degree-cap", "1_2", "profile", "{free}"],
    ["--d", "\u0662", "leavitt-eval", "x0"],
    ["--level-cap", "+3 ", "leavitt-eval", "x0"],
    ["--seed", "1_0", "verify", "--suite", "hilbert"],
    ["verify", "--suite", "0_1"],
    ["--field", "GF:1_1", "s-calc", "canonical", "{e01}"],
])
def test_integer_arguments_are_sign_and_ascii_digits(capsys, argv):
    # int() reads each of these: j = 12, i = 1, cap 12, d = 2, level cap 3,
    # seed 10, criterion 1 and GF(11)
    argv = [a.format(free=os.path.join(GOLDEN, "free.pres"), e01=os.path.join(GOLDEN, "e01.json")) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert re.search(r"must be an integer|unknown suite '0_1'", captured.err)


@pytest.mark.parametrize("argv", PRESENTATION_COMMANDS, ids=lambda argv: argv[0])
def test_presentation_commands_refuse_an_invalid_field(capsys, argv):
    free = os.path.join(GOLDEN, "free.pres")
    code, report = run(capsys, "--field", "GF:4", *_on(argv, free))
    assert code == 2
    assert report["kind"] == "parse"
    assert "--field GF:4 is not a field" in report["error"] and "field: QQ" in report["error"]


@pytest.mark.parametrize("argv", PRESENTATION_COMMANDS, ids=lambda argv: argv[0])
def test_presentation_commands_refuse_a_disagreeing_field(capsys, argv):
    free = os.path.join(GOLDEN, "free.pres")
    code, report = run(capsys, "--field", "GF:7", *_on(argv, free))
    assert code == 2
    assert report["kind"] == "parse"
    assert "GF(7)" in report["error"] and "field: QQ" in report["error"]


@pytest.mark.parametrize("name, spec", [("free", "QQ"), ("gf5", "GF:5"), ("gf5", "GF(5)")])
@pytest.mark.parametrize("argv", PRESENTATION_COMMANDS, ids=lambda argv: argv[0])
def test_presentation_commands_accept_the_files_own_field(capsys, argv, name, spec):
    path = os.path.join(GOLDEN, f"{name}.pres")
    plain = run(capsys, *_on(argv, path))
    assert plain[0] == 0
    assert run(capsys, "--field", spec, *_on(argv, path)) == plain


def test_iso_rejects_mixed_fields(tmp_path, capsys):
    # a QQ module with the class 11 * 2^-3 of gf5.pres lives in another category
    q = tmp_path / "q.pres"
    q.write_text("field: QQ\nd: 2\ngens: [" + ", ".join(["3"] * 11) + "]\nrels:\n")
    gf5 = os.path.join(GOLDEN, "gf5.pres")
    for pair in ((gf5, str(q)), (str(q), gf5)):
        code, report = run(capsys, "iso", *pair)
        assert code == 2
        assert report["kind"] == "parse"
        assert "presentations have different fields" in report["error"]
        assert "GF(5)" in report["error"] and "QQ" in report["error"]
    code, report = run(capsys, "iso", str(q), str(q))
    assert code == 0 and report["result"]["isomorphic"] is True


@pytest.mark.parametrize("sub", ["canonical", "k0", "mul", "regular", "simplicity"])
def test_s_calc_level_is_read_by_embed_only(capsys, sub):
    # --level means the target of embed; on any other subcommand it would be
    # checked against --level-cap and then ignored
    one = os.path.join(GOLDEN, "one.json")
    files = [one] * (2 if sub == "mul" else 1)
    code, report = run(capsys, "s-calc", sub, *files, "--level", "2")
    assert code == 2
    assert report["kind"] == "parse"
    assert f"--level is read by s-calc embed only, not by s-calc {sub}" in report["error"]
    assert run(capsys, "s-calc", sub, *files)[0] == 0
    code, report = run(capsys, "s-calc", "embed", one, "--level", "2")
    assert code == 0 and report["result"]["element"]["level"] == 2


def test_s_calc_mul_rejects_mixed_d(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"d": 3, "level": 1, "entries": [[0, 0, "1"]]}))
    b.write_text(json.dumps({"d": 2, "level": 1, "entries": [[0, 1, "1"]]}))
    code, report = run(capsys, "s-calc", "mul", str(a), str(b))
    assert code == 2
    assert report["kind"] == "parse"
    assert "d=3" in report["error"] and "d=2" in report["error"]


def test_leavitt_eval_bounds_raising(capsys):
    # x0*^24 x0^24 + 1 raises 1 to level 24: 2**24 terms if it ran.  The
    # child runs under a 1.5 GB address-space limit so a missing bound ends
    # in a MemoryError traceback instead of filling the machine.
    expr = " ".join(["x0*"] * 24 + ["x0"] * 24) + " + 1"
    limit = 1_500_000_000

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(freeproj.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "freeproj.cli", "leavitt-eval", expr],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120,
    )
    assert time.perf_counter() - start < 20
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["kind"] == "BudgetExceeded"
    assert str(MAX_RAISED_TERMS) in report["error"]


# the d = 4 probe of the scale ladder in ROADMAP.md: free past b = 3
D4_PROBE = """field: QQ
d: 4
gens: [0, 1]
rels:
x0 x1 x2 - x3 x3 x3, x0 x0
x1 x1 x0, x2 x0 + 2 x1 x3
0, x3 x2 x1 - 3 x0 x0 x0
"""
# R + k(-20) at d = 2: the profile reads the words of degree b = 21
R_PLUS_K20 = "field: QQ\nd: 2\ngens: [0, 20]\nrels:\n0, x0\n0, x1\n"


def test_profile_certifies_past_the_word_budget(tmp_path):
    # past the stable bound b a profile builds no word and no row, so any cap
    # within the digit rule is certified: R/Rx0 at d=2 would have 2**999
    # standard words in degree 1000.  R + k(-20) still needs the 2**21 words
    # of degree 21 and is refused at degree 18, whatever the cap.  As above,
    # the child runs under a 1.5 GB address-space limit.
    letterq = os.path.join(os.path.dirname(__file__), "golden", "letterq.pres")
    probe, far = tmp_path / "d4.pres", tmp_path / "far.pres"
    probe.write_text(D4_PROBE)
    far.write_text(R_PLUS_K20)
    limit = 1_500_000_000

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(freeproj.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def profile(degree_cap, pres):
        proc = subprocess.run(
            [sys.executable, "-m", "freeproj.cli", "--degree-cap", degree_cap, "profile", str(pres)],
            capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120,
        )
        assert "Traceback" not in proc.stderr
        return proc.returncode, json.loads(proc.stdout)

    start = time.perf_counter()
    for pres in (letterq, probe):
        for degree_cap in ("19", "30", "1000"):
            code, report = profile(degree_cap, pres)
            assert code == 0
            assert report["result"]["profile"]["certified_through"] == int(degree_cap)
    for degree_cap in ("1", "8"):
        code, report = profile(degree_cap, far)
        assert code == 1
        assert report["kind"] == "BudgetExceeded"
        assert report["error"].startswith(f"degree 18 would add {2**18} standard words, bringing the module's "
                                          f"held words and rows to {2**19 - 1},")
        assert str(MAX_STD_WORDS) in report["error"] and "--degree-cap" not in report["error"]
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize("far", [24, 1000])
def test_torsion_of_a_point_beside_a_far_free_summand(tmp_path, far):
    # k + R(-far) at d = 2: torsion walks each degree below i0 = far once,
    # on letter matrices, with no word products.  As above, the child runs
    # under a 1.5 GB address-space limit.
    pres = tmp_path / "point_far.pres"
    pres.write_text(f"field: QQ\nd: 2\ngens: [0, {far}]\nrels:\nx0, 0\nx1, 0\n")
    limit = 1_500_000_000

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(freeproj.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "freeproj.cli", "torsion", str(pres)],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)["result"]
    assert report["dimension"] == 1
    assert report["by_degree"] == {str(j): int(j == 0) for j in range(far)}


@pytest.mark.parametrize("argv", [["verify", "--suite", "hilbert"], ["hilbert", "missing.pres", "3"]])
def test_closed_stdout_exits_1_without_traceback(tmp_path, argv):
    # stdout is a pipe whose read end is already closed, so the first flush
    # fails: once for a success report, once for a parse-error report
    src = os.path.dirname(os.path.dirname(freeproj.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "freeproj.cli", *argv],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_s_calc_simplicity_is_bounded_before_building(tmp_path, capsys):
    # level 7 at d=2 is the last level admitted: 2 * 128**3 = 2**22 entries
    assert 2 * (2**7) ** 3 <= MAX_SIMPLICITY_ENTRIES < 2 * (2**8) ** 3
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"d": 2, "level": 8, "entries": [[3, 5, "2"]]}))
    start = time.perf_counter()
    code, report = run(capsys, "--level-cap", "7", "s-calc", "simplicity", str(a))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert report["kind"] == "BudgetExceeded"
    assert "MAX_SIMPLICITY_ENTRIES" in report["error"]
    # at d=1 every level is one 1x1 algebra, witnessed at level 0
    a.write_text(json.dumps({"d": 1, "level": 10**9, "entries": [[0, 0, "2"]]}))
    code, report = run(capsys, "--level-cap", str(10**9), "s-calc", "simplicity", str(a))
    assert code == 0
    assert report["result"] == {"terms": 1, "verified": True}


def test_verify_has_no_max_degree_option(capsys):
    assert main(["verify", "--suite", "ext1", "--max-degree", "3"]) == 2
    capsys.readouterr()


def test_verify_ignores_d(capsys):
    outputs = []
    for d in ("5", "2"):
        assert main(["--d", d, "verify", "--suite", "ext1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("field: QQ\nd: 2\ngens: [0]\nrels:\nx0 + 1\n")
    code, report = run(capsys, "hilbert", str(bad), "3")
    assert code == 2
    assert "homogeneous" in report["error"]


def test_usage_error_exit_code(capsys):
    assert main(["--d", "0", "verify"]) == 2
    capsys.readouterr()
    assert main(["--d", "0", "leavitt-eval", "x0"]) == 2
    capsys.readouterr()
    assert main(["nope"]) == 2
    capsys.readouterr()
    # JSON is the default output, and --json is not an option
    assert main(["--json", "verify", "--suite", "ext1"]) == 2
    capsys.readouterr()


VERIFY_STDOUT = {
    "splitting": '{"command": "verify", "inputs": {"seed": 0, "suite": "splitting"}, "result": {"all_passed": true, '
                 '"criteria": [{"criterion": 4, "name": "short exact sequences split on tails", "passed": true}]}}\n',
    "ext1": '{"command": "verify", "inputs": {"seed": 0, "suite": "ext1"}, "result": {"all_passed": true, '
            '"criteria": [{"criterion": 12, "details": {"dims": {"2": [2, 3, 6, 12, 24, 48, 96], '
            '"3": [3, 8, 24, 72, 216, 648, 1944]}}, "name": "Ext^1 dimension table", "passed": true}]}}\n',
    "3": '{"command": "verify", "inputs": {"seed": 0, "suite": "3"}, "result": {"all_passed": true, '
         '"criteria": [{"criterion": 3, "name": "stable profiles across the battery", "passed": true}]}}\n',
}


@pytest.mark.parametrize("suite", sorted(VERIFY_STDOUT))
def test_verify_times_each_criterion_on_stderr_only(capsys, suite):
    assert main(["verify", "--suite", suite]) == 0
    captured = capsys.readouterr()
    assert captured.out == VERIFY_STDOUT[suite]
    number = json.loads(captured.out)["result"]["criteria"][0]["criterion"]
    timing = [line for line in captured.err.splitlines() if " criterion " in line]
    assert len(timing) == 1
    assert re.fullmatch(rf"\[freeproj\] criterion {number} \(.+\) took \d+\.\d{{3}}s", timing[0])


def test_verify_all_prints_one_timing_line_per_criterion(capsys, monkeypatch):
    monkeypatch.setattr("freeproj.cli.run_criterion", lambda n, seed: CriterionResult(n, CRITERIA[n][0], True))
    assert main(["verify"]) == 0
    captured = capsys.readouterr()
    assert [c["criterion"] for c in json.loads(captured.out)["result"]["criteria"]] == sorted(CRITERIA)
    timing = re.findall(r"^\[freeproj\] criterion (\d+) \((.+)\) took \d+\.\d{3}s$", captured.err, re.M)
    assert timing == [(str(n), CRITERIA[n][0]) for n in sorted(CRITERIA)]


def test_criteria_table_declares_each_criterion_once(monkeypatch):
    assert sorted(CRITERIA) == list(range(1, 13))
    suites = [CRITERIA[n][0] for n in CRITERIA]
    titles = [CRITERIA[n][1] for n in CRITERIA]
    assert len(set(suites)) == len(suites) and len(set(titles)) == len(titles)
    assert SUITE_NAMES == {suite: n for n, (suite, _, _) in CRITERIA.items()}
    # run_criterion seeds the generator, numbers and titles the result from
    # the table, and passes it exactly when the check finds no failure
    for n, (suite, title, _) in list(CRITERIA.items()):
        draws = {}

        def check(rng):
            draws["first"] = rng.random()
            return {"failures": [n] if n % 2 else [], "table": suite}

        monkeypatch.setitem(CRITERIA, n, (suite, title, check))
        result = run_criterion(n, seed=n)
        assert (result.number, result.name, result.passed) == (n, title, n % 2 == 0)
        assert result.details == {"failures": [n] if n % 2 else [], "table": suite}
        assert draws["first"] == make_rng(n).random()


def test_reports_are_deterministic(files, capsys):
    _, first = run(capsys, "verify", "--suite", "ext1")
    _, second = run(capsys, "verify", "--suite", "ext1")
    assert first == second
    assert first["result"]["all_passed"] is True


def test_text_mode(files, capsys):
    code = main(["--text", "hilbert", files["free"], "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result:" in out and '"dim": 4' in out


def test_degree_cap_extends_certification(files, capsys):
    code, report = run(capsys, "--degree-cap", "9", "profile", files["letterq"])
    assert code == 0
    assert report["certificates"]["certified_through"] >= 9


def test_level_cap_guards_leavitt_eval(capsys):
    code = main(["leavitt-eval", "x0* x0", "--level", "9"])
    capsys.readouterr()
    assert code == 2


def test_qgr_class_command(files, capsys):
    code, report = run(capsys, "qgr-class", files["letterq"])
    assert code == 0
    assert report["result"]["class"] == {"t": 1, "i": 1, "d": 2}
    assert report["result"]["witness"] == [1, 1]


def test_public_surface_is_documented():
    # freeproj.__all__ is the list in the README's "Library surface" section
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8").read()
    section = readme.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\* `([^`]+)`", section, re.M) + re.findall(r"^And `([^`]+)`", section, re.M)
    assert len(documented) == len(set(documented))
    assert set(freeproj.__all__) == set(documented)
    for name in documented:
        assert getattr(freeproj, name) is not None
