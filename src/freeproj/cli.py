"""Command-line front end: parse inputs, run computations, emit JSON reports.

Reports go to stdout and are byte-identical across runs for fixed inputs and
seed; timing diagnostics go to stderr.  Exit codes: 0 success, 1 computation
failure, 2 parse or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .af_s import AFMatrix, _check_side
from .errors import BudgetExceeded, FreeProjError, ParseError
from .fields import _DIGIT_BOUND, MAX_LITERAL_DIGITS, QQ, field_from_spec, read_int
from .freealg import FreeAlgebra
from .leavitt import l0_to_s
from .parsing import parse_leavitt, parse_presentation
from .qgr import is_isomorphic, pi_star
from .verify import CRITERIA, SUITE_NAMES, run_criterion


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(report: dict, args) -> None:
    if args.text:
        for key, value in report.items():
            print(f"{key}: {json.dumps(_jsonable(value), sort_keys=True)}")
    else:
        print(json.dumps(_jsonable(report), sort_keys=True))


def _load_presentation(path: str, field_spec):
    """Read a presentation file.  Its `field:` line names its field; an
    explicit --field must name a field, and the same one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    pf = parse_presentation(text)
    if field_spec is not None:
        try:
            field = field_from_spec(field_spec)
        except ParseError as exc:
            raise ParseError(f"--field {field_spec} is not a field ({exc}); {path} has field: {pf.field.name}") from None
        if field != pf.field:
            raise ParseError(f"--field {field_spec} ({field.name}) disagrees with field: {pf.field.name} in {path}")
    return pf


def _load_af(path: str, field, level_cap: int):
    """Read an AF matrix file; its level obeys the bound on --level."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or a too long int
        raise ParseError(f"bad JSON in {path}: {exc}") from exc
    level = data.get("level") if isinstance(data, dict) else None
    if isinstance(level, int) and level > level_cap + 1:
        raise ParseError(f"level {level} in {path} exceeds --level-cap {level_cap}")
    a = AFMatrix.from_json(data, field)
    if a.level > level_cap + 1:  # a level not given as an int, at a side under MAX_SIDE
        raise ParseError(f"level {a.level} in {path} exceeds --level-cap {level_cap}")
    return a


def _field(args):
    """The --field of the expression commands, QQ when it is not given."""
    return field_from_spec("QQ" if args.field is None else args.field)


# ---------------------------------------------------------------------------
# subcommand handlers


def _check_digits(n: int, d: int, k: int, what: str) -> None:
    """Refuse `what`, the int n * d^k with k >= 0, when it can have more than
    MAX_LITERAL_DIGITS digits, the most JSON prints from an int.  As
    d^k >= 2^(k*(bits(d)-1)), a large k is refused before any power of d is
    formed, and d^k is formed only below 2^(2*bits(_DIGIT_BOUND))."""
    if n and (k * (d.bit_length() - 1) >= _DIGIT_BOUND.bit_length() or n * d**k >= _DIGIT_BOUND):
        raise BudgetExceeded(
            f"{what} {n} * {d}^{k}, which has more than "
            f"fields.MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits")


def cmd_hilbert(args) -> dict:
    pf = _load_presentation(args.file, args.field)
    M = pf.module()
    # dim M_j is at most rank * d^k with k = j - least shift
    shifts = M.F0.shifts
    _check_digits(len(shifts), pf.d, max(args.j - min(shifts, default=args.j), 0), f"dim M_{args.j} can reach")
    return {
        "command": "hilbert",
        "inputs": {"file": args.file, "j": args.j, "d": pf.d, "field": pf.field.name},
        "result": {"dim": M.hilbert(args.j)},
    }


def cmd_profile(args) -> dict:
    pf = _load_presentation(args.file, args.field)
    M = pf.module()
    p = M.stable_profile(args.degree_cap)
    return {
        "command": "profile",
        "inputs": {"file": args.file, "d": pf.d, "field": pf.field.name},
        "result": {"profile": p.as_dict()},
        "certificates": {"certified_through": p.certified_through},
    }


def cmd_k0(args) -> dict:
    pf = _load_presentation(args.file, args.field)
    cls = pf.module().k0_class()
    # the value t * d^(-i) holds the power d^|i|; QQ.to_str decides the rest
    _check_digits(1, cls.d, abs(cls.i), "the value of the class holds")
    return {
        "command": "k0",
        "inputs": {"file": args.file, "d": pf.d, "field": pf.field.name},
        "result": {"k0": cls.to_json(), "value": QQ.to_str(cls.value)},
    }


def cmd_torsion(args) -> dict:
    pf = _load_presentation(args.file, args.field)
    tors = pf.module().torsion()
    by_degree = {str(j): n for j, n in tors.by_degree.items()}
    return {
        "command": "torsion",
        "inputs": {"file": args.file, "d": pf.d, "field": pf.field.name},
        "result": {"dimension": tors.dimension, "by_degree": by_degree},
    }


def cmd_qgr_class(args) -> dict:
    pf = _load_presentation(args.file, args.field)
    return {
        "command": "qgr-class",
        "inputs": {"file": args.file, "d": pf.d, "field": pf.field.name},
        "result": pi_star(pf.module()).to_json(),
    }


def cmd_iso(args) -> dict:
    pa = _load_presentation(args.file_a, args.field)
    pb = _load_presentation(args.file_b, args.field)
    if pa.d != pb.d:
        raise ParseError("presentations have different d")
    if pa.field != pb.field:
        raise ParseError(f"presentations have different fields, {pa.field.name} and {pb.field.name}")
    a = pi_star(pa.module())
    b = pi_star(pb.module())
    return {
        "command": "iso",
        "inputs": {"file_a": args.file_a, "file_b": args.file_b, "d": pa.d},
        "result": {
            "isomorphic": is_isomorphic(a, b),
            "class_a": a.cls.to_json(),
            "class_b": b.cls.to_json(),
        },
    }


def cmd_decompose(args) -> dict:
    pf = _load_presentation(args.file, args.field)
    obj = pi_star(pf.module())
    cls = obj.cls
    # the multiplicity is t * d^(-c-i) when -c-i >= 0, and not integral otherwise
    _check_digits(cls.t, cls.d, max(-cls.i - args.i, 0), f"the multiplicity at twist {args.i} is")
    r = obj.decompose(args.i)
    return {
        "command": "decompose",
        "inputs": {"file": args.file, "i": args.i, "d": pf.d},
        "result": {"multiplicity": r, "at_twist": args.i},
    }


def cmd_leavitt_eval(args) -> dict:
    A = FreeAlgebra(args.d, _field(args))
    if args.level is not None:
        if args.level > args.level_cap:
            raise ParseError(f"level {args.level} exceeds --level-cap {args.level_cap}")
        _check_side(A.d, args.level, f"--level {args.level}: ")
    elem = parse_leavitt(A, args.expr).canonical()
    result = {
        "text": str(elem),
        "is_zero": elem.is_zero(),
        "degrees": elem.degrees(),
    }
    if args.level is not None and result["degrees"] in ([], [0]):
        result["matrix"] = l0_to_s(elem, level=args.level).to_json()
    return {
        "command": "leavitt-eval",
        "inputs": {"expr": args.expr, "d": A.d, "field": A.field.name, "level": args.level},
        "result": result,
    }


def cmd_s_calc(args) -> dict:
    field = _field(args)
    if args.level is not None and args.sub != "embed":
        raise ParseError(f"--level is read by s-calc embed only, not by s-calc {args.sub}")
    if args.level is not None and args.level > args.level_cap + 1:
        raise ParseError(f"level {args.level} exceeds --level-cap {args.level_cap}")
    want = 2 if args.sub == "mul" else 1
    if len(args.inputs) != want:
        raise ParseError(f"s-calc {args.sub} takes {want} file{'s' * (want > 1)}, got {len(args.inputs)}")
    inputs = {"subcommand": args.sub, "field": field.name}
    a = _load_af(args.inputs[0], field, args.level_cap)
    if args.sub == "canonical":
        result = {"element": a.canonical().to_json()}
    elif args.sub == "k0":
        cls = a.k0_class()
        result = {"k0": cls.to_json(), "value": str(cls.value)}
    elif args.sub == "mul":
        b = _load_af(args.inputs[1], field, args.level_cap)
        if a.d != b.d:
            raise ParseError(f"cannot multiply elements with d={a.d} and d={b.d}")
        result = {"element": (a * b).to_json()}
    elif args.sub == "embed":
        level = args.level if args.level is not None else a.level + 1
        _check_side(a.d, level, f"--level {level}: ")
        result = {"element": a.embed(level).to_json()}
    elif args.sub == "regular":
        x = a.vn_regular_witness()
        result = {"witness": x.to_json(), "verified": a * x * a == a}
    else:  # simplicity, the last of the parser's choices
        us, vs = a.simplicity_witness()
        acc = AFMatrix.zero(a.d, 0, field)
        for u, v in zip(us, vs):
            acc = acc + u * a * v
        result = {"terms": len(us), "verified": acc == AFMatrix.scalar(a.d, 1, field)}
    inputs["files"] = list(args.inputs)
    return {"command": "s-calc", "inputs": inputs, "result": result}


def cmd_verify(args) -> dict:
    if args.suite == "all":
        numbers = sorted(CRITERIA)
    elif args.suite in SUITE_NAMES:
        numbers = [SUITE_NAMES[args.suite]]
    else:
        try:
            numbers = [read_int(args.suite, "suite")]
        except ParseError:
            raise ParseError(
                f"unknown suite {args.suite!r}; choose from "
                + ", ".join(sorted(SUITE_NAMES)) + ", all, or a number"
            ) from None
        if numbers[0] not in CRITERIA:
            raise ParseError(f"criterion number out of range: {numbers[0]}")
    results = []
    for number in numbers:
        start = time.perf_counter()
        results.append(run_criterion(number, seed=args.seed))
        print(f"[freeproj] criterion {number} ({results[-1].name}) took "
              f"{time.perf_counter() - start:.3f}s", file=sys.stderr)
    entries = []
    for r in results:
        entry = {"criterion": r.number, "name": r.name, "passed": r.passed}
        extra = {k: v for k, v in r.details.items() if v}
        if extra:
            entry["details"] = extra
        entries.append(entry)
    return {
        "command": "verify",
        "inputs": {"suite": args.suite, "seed": args.seed},
        "result": {
            "criteria": entries,
            "all_passed": all(r.passed for r in results),
        },
    }


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # route argparse usage errors to exit code 2 without killing tests
        raise ParseError(message)


def _integer(text: str) -> int:
    """An integer option or argument, read by `fields.read_int`."""
    try:
        return read_int(text, "the value")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    if (value := _integer(text)) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="freeproj", description=__doc__)
    parser.add_argument("--d", type=_positive_int, default=2, help="number of generators (for expression commands)")
    parser.add_argument("--field", default=None,
                        help="QQ or GF:p (default QQ); a presentation file's field: line must match it")
    parser.add_argument("--degree-cap", type=_integer, default=8, dest="degree_cap")
    parser.add_argument("--level-cap", type=_integer, default=3, dest="level_cap")
    parser.add_argument("--seed", type=_integer, default=0)
    parser.add_argument("--text", action="store_true", help="line-oriented output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="graded dimension of a presented module")
    p.add_argument("file")
    p.add_argument("j", type=_integer)
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("profile", help="stable free-tail profile")
    p.add_argument("file")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("k0", help="class in Z[1/d]")
    p.add_argument("file")
    p.set_defaults(fn=cmd_k0)

    p = sub.add_parser("torsion", help="largest finite-dimensional submodule")
    p.add_argument("file")
    p.set_defaults(fn=cmd_torsion)

    p = sub.add_parser("qgr-class", help="image in the quotient category")
    p.add_argument("file")
    p.set_defaults(fn=cmd_qgr_class)

    p = sub.add_parser("iso", help="are two presentations isomorphic in the quotient?")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("decompose", help="multiplicity against a twisted power")
    p.add_argument("file")
    p.add_argument("i", type=_integer)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("leavitt-eval", help="evaluate a Leavitt expression")
    p.add_argument("expr")
    p.add_argument("--level", type=_integer, default=None)
    p.set_defaults(fn=cmd_leavitt_eval)

    p = sub.add_parser("s-calc", help="limit-algebra calculator on JSON elements")
    p.add_argument("sub", choices=["canonical", "k0", "mul", "embed", "regular", "simplicity"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("--level", type=_integer, default=None)
    p.set_defaults(fn=cmd_s_calc)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", default="all")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command; a reader of stdout that has gone away ends it with
    exit 1 and no traceback."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # as the CPython `signal` docs show: point stdout at devnull, so that
        # the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        report = args.fn(args)
    except ParseError as exc:
        print(json.dumps({"error": str(exc), "kind": "parse"}))
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FreeProjError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}))
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args)
    elapsed = time.perf_counter() - start
    print(f"[freeproj] {report['command']} finished in {elapsed:.3f}s", file=sys.stderr)
    if report["command"] == "verify" and not report["result"]["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
