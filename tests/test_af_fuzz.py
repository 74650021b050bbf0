"""Fuzz the entry points that read AF matrices from outside the program:
`AFMatrix.from_json` and every `s-calc` subcommand on a file.  Inputs are
arbitrary JSON values and near-valid matrix objects; everything runs in
process."""

import contextlib
import io
import json

import hypothesis
import hypothesis.strategies as st

from freeproj.af_s import AFMatrix
from freeproj.cli import main
from freeproj.errors import ParseError
from freeproj.fields import GF, QQ

# literals at the edges of what `RationalField.from_str` accepts
LITERALS = st.sampled_from([
    "0", "-3/4", "0.5", "1/0", "1/7", " 7 ", "1_0", "1e4299", "1e4300", "1e-4300",
    "1e300000000", "0e99999999", "1e" + "9" * 30, "-1.5E-2", "NaN", "inf", "", "e5", "1e",
])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | LITERALS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=8,
)


@st.composite
def af_objects(draw):
    """Any JSON value, or a valid {"d", "level", "entries"} object at d 1..3
    and level 0..3 with its values drawn from LITERALS, as it stands or with
    one part replaced by any JSON value, dropped, or joined by other keys."""
    how = draw(st.sampled_from(["any", "valid", "d", "level", "entries", "entry", "drop", "extra"]))
    if how == "any":
        return draw(json_values)
    d, level = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    n = d**level
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, LITERALS).map(list), max_size=4))
    data = {"d": d, "level": level, "entries": entries}
    if how in ("d", "level", "entries"):
        data[how] = draw(json_values | st.integers(-2, 2 * n).map(str))
    elif how == "entry" and entries:
        k = draw(st.integers(0, len(entries) - 1))
        entries[k] = draw(json_values | st.lists(st.integers(-1, n) | LITERALS | json_values, max_size=4))
    elif how == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    elif how == "extra":
        data.update(draw(st.dictionaries(st.text(max_size=4), json_values, min_size=1, max_size=2)))
    return data


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(af_objects(), st.sampled_from([QQ, GF(7)]))
def test_from_json_returns_a_matrix_or_raises_parse_error(data, field):
    try:
        a = AFMatrix.from_json(data, field)
    except ParseError:
        return
    assert isinstance(a, AFMatrix) and a.field == field


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(af_objects(), st.sampled_from(["canonical", "k0", "mul", "embed", "regular", "simplicity"]))
def test_s_calc_canonical_ends_in_one_json_object(tmp_path_factory, data, sub):
    path = tmp_path_factory.mktemp("af") / "a.json"
    path.write_text(json.dumps(data))
    files = [str(path)] * (2 if sub == "mul" else 1)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["s-calc", sub, *files])
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert isinstance(report, dict)
    assert ("error" in report) == (code != 0)
    assert "Traceback" not in err.getvalue()
