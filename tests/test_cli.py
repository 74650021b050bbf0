import json
import os
import resource
import subprocess
import sys
import time

import pytest

import freeproj
from freeproj.cli import main
from freeproj.leavitt import MAX_RAISED_TERMS

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


def test_profile_command(files, capsys):
    code, report = run(capsys, "profile", files["letterq"])
    assert code == 0
    assert report["result"]["profile"]["i0"] == 1
    assert report["result"]["profile"]["t"] == [1, 2, 4, 8, 16]


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
])
def test_s_calc_rejects_malformed_af_json(tmp_path, capsys, data, field_name):
    e = tmp_path / "e.json"
    e.write_text(json.dumps(data))
    code, report = run(capsys, "--field", "GF:7", "s-calc", "canonical", str(e))
    assert code == 2
    assert report["kind"] == "parse"
    assert field_name in report["error"]


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
