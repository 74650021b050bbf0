"""Outside-in tracer: spans around the public functions of each layer.

The library has no spans of its own.  ``Tracer.install(fp)`` wraps every
public function and public method defined in the layer modules
(``freeproj.parsing`` ... ``freeproj.leavitt``) and rebinds each wrapper at
every binding site: each ``freeproj.*`` module dict entry that holds the
original object is replaced, so ``fpmod.rank``, ``qgr.solve_left`` and
``linalg.rank`` all record the same span.  Methods are replaced on their
class.

Spans keep a parent link and the op they belong to.  Self time is a span's
duration minus the time covered by its child spans; it is accumulated as the
spans close, and the first ``SPAN_CAP`` spans are kept in memory and written
as JSON lines when the run ends.

One thread, no I/O: no layer waits on another, so there are no wait metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("parsing", "freealg", "linalg", "submodules", "fpmod", "qgr", "af_s", "leavitt")

# Arithmetic dunders are layer work; other dunders (__eq__, __repr__, ...) are not wrapped.
DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__")

# Constant-time helpers called inside inner loops.  Wrapping them would cost
# more than they do; their time stays in the calling span.
SKIP = frozenset({
    "freealg.term_key",
    "freealg.FreeAlgebra.word_rank",
    "freealg.FreeAlgebra.word_unrank",
    "freealg.FreeAlgebra.word_count",
    "freealg.NcPoly.is_zero",
    "freealg.NcPoly.is_homogeneous",
    "freealg.NcPoly.degree",
    "freealg.NcPoly.coefficient",
    "freealg.FreeModuleElement.is_zero",
    "freealg.FreeModuleElement.is_homogeneous",
    "freealg.FreeModuleElement.degree",
    "freealg.FreeModuleElement.leading_term",
    "af_s.word_rank",
    "af_s.word_unrank",
    "qgr.word_rank_of",
    "leavitt.mono_mul",
    "leavitt.mono_degree",
})

# Public elimination entry points; rows and nnz are counted at the outermost one.
ELIM = (
    "linalg.rank", "linalg.left_kernel", "linalg.solve_left", "linalg.dense_rank",
    "linalg.dense_rref", "linalg.rank_factorization", "linalg.dense_solve_left",
    "linalg.row_reduce",
)
REDUCE = (
    "submodules.reduce", "submodules.FreeBasis.reduce",
    "submodules.FreeBasis.reduce_with_cofactors", "submodules.FreeBasis.contains",
)

# metric stem -> span name
SPANS = {
    "linalg.dense_mul": "linalg.dense_mul",
    "linalg.sparse_mul": "linalg.SparseMatrix.mul",
    "fpmod.coords": "fpmod.FpModule.coords",
    "fpmod.letter_matrix": "fpmod.FpModule.letter_matrix",
    "fpmod.std_basis": "fpmod.FpModule.std_basis",
    "fpmod.stable_profile": "fpmod.FpModule.stable_profile",
    "fpmod.torsion": "fpmod.FpModule.torsion",
    "submodules.weak_basis": "submodules.weak_basis",
    "qgr.split_sequence": "qgr.split_sequence",
    "qgr.pi_star": "qgr.pi_star",
    "af_s.mul": "af_s.AFMatrix.__mul__",
    "af_s.embed": "af_s.AFMatrix.embed",
    "af_s.canonical": "af_s.AFMatrix.canonical",
    "af_s.simplicity_witness": "af_s.AFMatrix.simplicity_witness",
    "leavitt.mul": "leavitt.LeavittElement.__mul__",
    "leavitt.canonical": "leavitt.LeavittElement.canonical",
    "leavitt.flat_decompose": "leavitt.flat_decompose",
    "leavitt.l0_to_s": "leavitt.l0_to_s",
    "parsing.parse_presentation": "parsing.parse_presentation",
}
VN = "af_s.AFMatrix.vn_regular_witness"

SPAN_CAP = 100_000


def _wrappable(obj):
    """A plain function; a generator function returns before doing its work."""
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def _matrix_size(args):
    """(rows, nonzeros) of the matrix argument of an elimination entry point."""
    for a in args[:2]:
        if hasattr(a, "rows") and hasattr(a, "nrows"):
            return a.nrows, sum(len(r) for r in a.rows)
        if isinstance(a, list):
            return len(a), sum(1 for row in a for v in row if v != 0)
    return 0, 0


class Tracer:
    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        self.total_s: list = []
        self.errors: list = []
        self._depth: list = []
        self.stack: list = []  # frames [child time, serial]
        self.serial = 0
        self.spans: list = []  # (serial, parent serial, span id, start, end, op)
        self.dropped = 0
        self.op = None  # id of the running op, None outside ops
        self.covered = 0.0  # time of outermost spans inside ops
        self.sites = 0
        self.counters = {
            "linalg.elim.calls": 0, "linalg.elim.rows": 0, "linalg.elim.nnz": 0,
            "submodules.reduce.calls": 0,
            "fpmod.std_basis.kept": 0, "fpmod.std_basis.base": 0,
            "leavitt.canonical.terms_out": 0,
            "vn.qq.self_s": 0.0, "vn.qq.total_s": 0.0,
            "vn.gfp.self_s": 0.0, "vn.gfp.total_s": 0.0,
        }
        self._group_depth = {"elim": 0, "reduce": 0}
        self._std_seen: set = set()
        self._std_keep: list = []

    # -- installation ---------------------------------------------------------

    def install(self, fp):
        """Wrap the public callables of every layer module of the package fp."""
        pkg = fp.__name__
        modules = {n: m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")}
        for layer in LAYERS:
            mod = modules[f"{pkg}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif _wrappable(obj) and f"{layer}.{name}" not in SKIP:
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    for m in modules.values():
                        for key, val in list(vars(m).items()):
                            if val is obj:
                                setattr(m, key, wrapper)
                                self.sites += 1

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if span in SKIP:
                continue
            if isinstance(attr, (classmethod, staticmethod)) and _wrappable(attr.__func__):
                setattr(cls, name, type(attr)(self._wrap(span, attr.__func__)))
            elif _wrappable(attr):
                setattr(cls, name, self._wrap(span, attr))
            else:
                continue
            self.sites += 1

    def _wrap(self, span, fn):
        sid = len(self.names)
        self.names.append(span)
        for arr in (self.calls, self.errors, self._depth):
            arr.append(0)
        for arr in (self.self_s, self.total_s):
            arr.append(0.0)
        hook = self._hook_for(span)
        stack, spans = self.stack, self.spans
        calls, self_s, total_s, errors, depth = (
            self.calls, self.self_s, self.total_s, self.errors, self._depth)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.serial += 1
            serial = tracer.serial
            parent = stack[-1][1] if stack else 0
            frame = [0.0, serial]
            stack.append(frame)
            depth[sid] += 1
            if hook is not None:
                hook(args, None, 0.0, 0.0, True)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                depth[sid] -= 1
                dur = t1 - t0
                calls[sid] += 1
                own = dur - frame[0]
                self_s[sid] += own
                if not depth[sid]:
                    total_s[sid] += dur
                if stack:
                    stack[-1][0] += dur
                elif tracer.op is not None:
                    tracer.covered += dur
                if not ok:
                    errors[sid] += 1
                if len(spans) < SPAN_CAP:
                    spans.append((serial, parent, sid, t0, t1, tracer.op))
                else:
                    tracer.dropped += 1
                if hook is not None:
                    hook(args, result if ok else None, own, dur, False)

        return wrapper

    # -- per-span counters ------------------------------------------------------

    def _hook_for(self, span):
        c = self.counters
        groups = self._group_depth
        if span in ELIM or span in REDUCE:
            group = "elim" if span in ELIM else "reduce"

            def hook(args, result, own, dur, entering):
                if entering:
                    groups[group] += 1
                    return
                groups[group] -= 1
                if groups[group]:
                    return
                c[f"{'linalg.elim' if group == 'elim' else 'submodules.reduce'}.calls"] += 1
                if group == "elim":
                    rows, nnz = _matrix_size(args)
                    c["linalg.elim.rows"] += rows
                    c["linalg.elim.nnz"] += nnz
            return hook
        if span == SPANS["fpmod.std_basis"]:
            def hook(args, result, own, dur, entering):
                if entering or result is None:
                    return
                module, j = args[0], args[1]
                key = (id(module), j)
                if key in self._std_seen:
                    return
                self._std_seen.add(key)
                self._std_keep.append(module)
                F0 = module.F0
                d = F0.algebra.d
                c["fpmod.std_basis.kept"] += len(result)
                c["fpmod.std_basis.base"] += sum(d ** (j - b) for b in F0.shifts if b <= j)
            return hook
        if span == SPANS["leavitt.canonical"]:
            def hook(args, result, own, dur, entering):
                if not entering and result is not None:
                    c["leavitt.canonical.terms_out"] += len(result.terms)
            return hook
        if span == VN:
            def hook(args, result, own, dur, entering):
                if entering:
                    return
                side = "qq" if args[0].field.characteristic == 0 else "gfp"
                c[f"vn.{side}.self_s"] += own
                c[f"vn.{side}.total_s"] += dur
            return hook
        return None

    # -- ops ---------------------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id

    def end_op(self):
        self.op = None
        self._std_seen.clear()
        self._std_keep.clear()

    # -- results -----------------------------------------------------------------

    def span_totals(self, span):
        sid = self.names.index(span)
        return self.calls[sid], self.self_s[sid]

    def layer_metrics(self):
        out = {}
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            out[f"{layer}.self_s"] = sum(self.self_s[i] for i in ids)
            out[f"{layer}.errors"] = sum(self.errors[i] for i in ids)
        return out

    def group_self(self, members):
        return sum(self.self_s[self.names.index(m)] for m in members if m in self.names)

    def write(self, path):
        """The kept spans as JSON lines, then one line with the totals per span."""
        with open(path, "w") as fh:
            for serial, parent, sid, t0, t1, op in self.spans:
                fh.write(json.dumps({
                    "span": serial, "parent": parent, "name": self.names[sid],
                    "op": op, "start": t0, "wall_s": t1 - t0,
                }) + "\n")
            fh.write(json.dumps({
                "dropped_spans": self.dropped,
                "totals": {
                    n: {"calls": self.calls[i], "self_s": self.self_s[i], "errors": self.errors[i]}
                    for i, n in enumerate(self.names) if self.calls[i]
                },
            }) + "\n")
