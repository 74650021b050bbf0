"""Reach probe: which public functions of freeproj do its entry points enter?

Run from the root of a source checkout:

    python tests/reach_probe.py

It records, with `sys.setprofile`, every code object entered while it runs
the entry points of the program:

* the golden CLI corpus (every case of `tests/test_golden.py`), plus
  `decompose`, `s-calc k0`, `s-calc simplicity` and `s-calc embed`;
* `freeproj verify --suite all`;
* the first OPS ops of each bench workload (`bench/gen.py`, `bench/ops.py`).

A public function is a module-level function of `freeproj` whose name has no
leading underscore, or a method, property, classmethod or staticmethod of a
class defined there whose name has no leading underscore or is a dunder.
Every one must be entered, or be named in ALLOWLIST with its reason, one of
the four kinds in KINDS.  The probe prints the unreached names that the
allowlist does not name and exits 1 if there are any, or if an allowlist
entry names no public function or gives another reason.  The name has no
`test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import pkgutil
import sys
import time
from importlib import import_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import freeproj  # noqa: E402

OPS = 150  # ops per bench workload
BENCH_SEED = 1

# The reasons a public function may stay unreached.
DUNDER = "a __repr__, __str__, __eq__ or __hash__ kept for the data model"
ERROR_PATH = "an error path, taken only on input that no entry point gives"
BRANCH = "called by kept src code on a branch the probe does not take"
ORACLE = "called by a tests/*_oracle.py file"
KINDS = (DUNDER, ERROR_PATH, BRANCH, ORACLE)

ALLOWLIST = {
    "af_s.AFMatrix.__repr__": DUNDER,
    "fields.PrimeField.__hash__": DUNDER,
    "fields.RationalField.__hash__": DUNDER,
    "fpmod.FpModule.__repr__": DUNDER,
    "fpmod.FpModuleMorphism.__repr__": DUNDER,
    "fpmod.StableProfile.__repr__": DUNDER,
    "fpmod.Torsion.__repr__": DUNDER,
    "freealg.FreeAlgebra.__hash__": DUNDER,
    "freealg.FreeAlgebra.__repr__": DUNDER,
    "freealg.FreeModuleElement.__eq__": DUNDER,
    "freealg.FreeModuleElement.__repr__": DUNDER,
    "freealg.FreeModuleElement.__str__": DUNDER,
    "freealg.GradedFreeModule.__hash__": DUNDER,
    "freealg.GradedFreeModule.__repr__": DUNDER,
    "freealg.ModuleMap.__eq__": DUNDER,
    "freealg.ModuleMap.__repr__": DUNDER,
    "freealg.NcPoly.__eq__": DUNDER,
    "freealg.NcPoly.__repr__": DUNDER,
    "freealg.NcPoly.__str__": DUNDER,
    "leavitt.LeavittElement.__eq__": DUNDER,
    "leavitt.LeavittElement.__repr__": DUNDER,
    "leavitt.StrongGradingWitness.__repr__": DUNDER,
    "linalg.SparseMatrix.__repr__": DUNDER,
    "qgr.QgrClass.__hash__": DUNDER,
    "qgr.QgrClass.__repr__": DUNDER,
    "qgr.QgrObject.__eq__": DUNDER,
    "qgr.QgrObject.__repr__": DUNDER,
    "submodules.FreeBasis.__repr__": DUNDER,
    "verify.CriterionResult.__eq__": DUNDER,  # generated by @dataclass
    "verify.CriterionResult.__repr__": DUNDER,  # generated by @dataclass
    "cli._Parser.error": ERROR_PATH,  # argparse's usage errors, exit 2
    "errors.ParseError.__init__": ERROR_PATH,
    "freealg.GradedFreeModule.gen": BRANCH,  # FpModule.truncate, generators above the cut
    "leavitt.LeavittElement.graded_component": BRANCH,  # LeavittElement.lowered, a raised component
    "parsing.format_poly": BRANCH,  # NcPoly.__str__
    "fields.PrimeField.sub": ORACLE,  # row_reduce_oracle.py
    "fields.RationalField.sub": ORACLE,  # row_reduce_oracle.py
    "leavitt.LeavittElement.from_poly": ORACLE,  # leavitt_oracle.py
}


def public_functions() -> dict:
    """{dotted name: code object} of every public function of freeproj."""
    out = {}
    for info in pkgutil.iter_modules(freeproj.__path__):
        mod = import_module(f"freeproj.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, val in vars(obj).items():
                    dunder = attr.startswith("__") and attr.endswith("__")
                    if attr.startswith("_") and not dunder:
                        continue
                    if isinstance(val, (classmethod, staticmethod)):
                        val = val.__func__
                    elif isinstance(val, property):
                        val = val.fget
                    if inspect.isfunction(val):
                        out[f"{info.name}.{name}.{attr}"] = val.__code__
    return out


def _cli(argv, cwd):
    """Run one command in cwd; a command that fails reaches nothing it should."""
    from freeproj.cli import main

    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(here)
    if code != 0:
        raise SystemExit(f"reach probe: freeproj {' '.join(argv)} exited {code}")


def run_entry_points():
    """Every entry point the probe covers, in order."""
    from test_golden import CASES, GOLDEN

    for argv in CASES.values():
        _cli(argv, GOLDEN)
    for argv in (["decompose", "letterq.pres", "-1"], ["s-calc", "k0", "one.json"],
                 ["s-calc", "simplicity", "e32.json"], ["s-calc", "embed", "e01.json"]):
        _cli(argv, GOLDEN)
    _cli(["verify", "--suite", "all"], GOLDEN)

    import gen
    import ops

    for workload in gen.WORKLOADS:
        items = ops.build(freeproj, workload, gen.pool(workload, BENCH_SEED, OPS))
        for item in items:
            ops.RUNNERS[workload](freeproj, item)


def main() -> int:
    functions = public_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    start = time.perf_counter()
    sys.setprofile(profile)
    try:
        run_entry_points()
    finally:
        sys.setprofile(None)
    elapsed = time.perf_counter() - start

    unreached = sorted(n for n, code in functions.items() if code not in entered)
    unknown = sorted(n for n in ALLOWLIST if n not in functions)
    bad_reason = sorted(n for n, why in ALLOWLIST.items() if why not in KINDS)
    missing = [n for n in unreached if n not in ALLOWLIST]
    print(f"reach probe: {len(functions)} public functions, {len(functions) - len(unreached)} "
          f"entered, {len(unreached) - len(missing)} unreached on the allowlist, "
          f"{elapsed:.1f}s")
    for n in sorted(n for n in ALLOWLIST if n in functions and n not in unreached):
        print(f"note: allowlisted but entered: {n}")
    for n in unknown:
        print(f"allowlist names no public function: {n}")
    for n in bad_reason:
        print(f"allowlist reason is not one of the four kinds: {n}")
    for n in missing:
        print(f"unreached: {n}")
    return 1 if missing or unknown or bad_reason else 0


if __name__ == "__main__":
    sys.exit(main())
