"""Fuzz the entry points that read text from outside the program:
`parse_presentation`, `parse_leavitt`, every command that reads a
presentation file, and `leavitt-eval`.  Inputs are arbitrary text and
near-valid presentations and expressions; everything runs in process.  Each call returns a value or
raises a typed `FreeProjError`, and each command exits 0, 1 or 2 with one
JSON object on stdout and no traceback."""

import contextlib
import io
import json

import hypothesis
import hypothesis.strategies as st

from freeproj.cli import main
from freeproj.errors import FreeProjError
from freeproj.fields import GF, QQ
from freeproj.freealg import FreeAlgebra
from freeproj.leavitt import LeavittElement
from freeproj.parsing import PresentationFile, parse_leavitt, parse_presentation

COEFS = st.sampled_from(["", "", "3 ", "1/2 ", "9" * 4300 + " "])
# near misses: letters out of range or with an index too long to read, a
# literal past the 4300-digit bound, a zero denominator, stray punctuation
NEAR = st.sampled_from([
    "x9", "x" + "9" * 4400, "x" + "0" * 4400 + "1*", "9" * 4301, "2/0", "1e3", "/", "*", ",", "#", "(",
    "", "x0**", "-", "+ +", "x1 3",
])


@st.composite
def expressions(draw, d, starred):
    """A sum of terms in the letters of k<x0..x_{d-1}> (and their stars), or
    the same with one token replaced by a near miss."""
    letters = [f"x{i}" for i in range(d)]
    if starred:
        letters += [f"x{i}*" for i in range(d)]
    tokens = []
    for n in range(draw(st.integers(1, 3))):
        if n:
            tokens.append(draw(st.sampled_from(["+", "-"])))
        tokens.append(draw(COEFS) + (" ".join(draw(st.lists(st.sampled_from(letters), max_size=4))) or "1"))
    if draw(st.integers(0, 3)) == 0:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(NEAR)
    return " ".join(tokens)


@st.composite
def presentation_texts(draw):
    """Any text; or a valid presentation at d 1..3 with shifts 0..2 and up
    to three homogeneous rows of degree at most 3; or such a presentation
    with one line replaced by a broken one, a near-miss row or a second
    copy of another, or dropped."""
    how = draw(st.sampled_from(["any", "valid", "valid", "broken"]))
    if how == "any":
        return draw(st.text(max_size=80))
    d = draw(st.integers(1, 3))
    shifts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    letters = st.sampled_from([f"x{i}" for i in range(d)])
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(min(shifts), 3))
        cells = []
        for b in shifts:
            if degree < b or draw(st.booleans()):
                cells.append("0")
                continue
            word = draw(st.lists(letters, min_size=degree - b, max_size=degree - b))
            cells.append(draw(COEFS) + (" ".join(word) or "1"))
        rows.append(", ".join(cells))
    field = draw(st.sampled_from(["QQ", "GF:5", "GF(7)"]))
    lines = [f"field: {field}", f"d: {d}", "gens: [" + ", ".join(map(str, shifts)) + "]", "rels:"] + rows
    if how == "broken":
        k = draw(st.integers(0, len(lines) - 1))
        lines[k:k + 1] = draw(st.sampled_from([
            [], [lines[k], lines[k]], ["junk"], ["bogus: 1"], ["rels: x0"], ["d: 0"], ["d: " + "9" * 5000],
            ["gens: [0,"], ["gens: [" + "9" * 5000 + "]"], ["field: GF:4"], ["field: GF:" + "9" * 30],
            [", ".join(draw(expressions(d + 1, False)) for _ in shifts)],
        ]))
    return "\n".join(lines) + "\n"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert isinstance(report, dict)
    assert ("error" in report) == (code != 0)
    assert "Traceback" not in err.getvalue()
    hypothesis.event(f"exit {code}")
    return code, report


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(presentation_texts())
def test_parse_presentation_returns_a_file_or_raises_typed_error(text):
    try:
        pf = parse_presentation(text)
    except FreeProjError:
        return
    assert isinstance(pf, PresentationFile)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.integers(1, 3), st.sampled_from([QQ, GF(5)]), st.data())
def test_parse_leavitt_returns_an_element_or_raises_typed_error(d, field, data):
    text = data.draw(st.text(max_size=40) | expressions(d, True))
    try:
        elem = parse_leavitt(FreeAlgebra(d, field), text)
    except FreeProjError:
        return
    assert isinstance(elem, LeavittElement)


# the commands that read presentation files, each as a function of the path
PRESENTATION_COMMANDS = (
    st.sampled_from([
        lambda path: ["profile", path],
        lambda path: ["torsion", path],
        lambda path: ["k0", path],
        lambda path: ["qgr-class", path],
        lambda path: ["iso", path, path],
    ])
    | st.integers(-2, 6).map(lambda j: lambda path: ["hilbert", path, str(j)])
    | st.integers(-3, 3).map(lambda i: lambda path: ["decompose", path, str(i)])
)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(presentation_texts(), PRESENTATION_COMMANDS)
def test_profile_ends_in_one_json_object(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("pres") / "m.pres"
    path.write_text(text)
    run_cli(["--degree-cap", "2", *command(str(path))])


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.text(max_size=40) | expressions(2, True), st.sampled_from([[], ["--level", "1"]]))
def test_leavitt_eval_ends_in_one_json_object(text, level):
    # "--" keeps an expression such as "-x0" from being read as an option
    run_cli(["leavitt-eval", *level, "--", text])
