#!/usr/bin/env python3
"""freeproj benchmark: one seeded closed-loop workload per run.

    python3 bench/run.py --workload modules --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  One process, one thread, one client:
the next op starts when the previous op returns.

``--seconds`` sets the size of a run: it runs the first
``seconds * NOMINAL_RATE / PASSES`` base ops of the workload, where
NOMINAL_RATE is the workload's throughput when the benchmark was defined, so
a run lasts about ``--seconds`` on that machine and every commit does the
same work.  It makes PASSES passes over those ops, each pass with its own
relabelling (see gen.py), so no input repeats.  Each op's wall time is
scaled to the reference speed of speed.py by the machine speed measured
next to it, and an op's latency is the median of its scaled times over the
passes.  Throughput is the op count over the sum of those latencies, as in
a closed loop without think time.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures for half the time untraced, then makes one more pass
over the same base ops under the outside-in tracer and reports the
per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the workload's reason, its parameters and the sample counts.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

import gen  # noqa: E402  (bench/ is on sys.path as the script's directory)
import ops  # noqa: E402
from speed import REF_KERNEL_S, Speedometer  # noqa: E402
from tracer import ELIM, REDUCE, SPANS, Tracer  # noqa: E402

SETUP_REPEATS = 9
SETUP_OPS = 200  # inputs built by one set-up
CHUNK = 200  # inputs built at a time during a run, outside the op timers
WARMUP_SECONDS = 1.0  # of ops at the nominal rate
PASSES = 5
# ops/s of each workload on the machine of record (see README.md)
NOMINAL_RATE = {"modules": 40, "limit_algebra": 60, "leavitt": 3000}
REFERENCE = os.path.join(BENCH, "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> the workload whose ops must make it nonzero.
MOVERS = {
    "modules": [
        "parsing.calls", "parsing.self_s", "freealg.calls", "freealg.self_s",
        "linalg.calls", "linalg.self_s", "submodules.calls", "submodules.self_s",
        "fpmod.calls", "fpmod.self_s", "qgr.calls", "qgr.self_s",
        "linalg.elim.calls", "linalg.elim.self_s", "linalg.elim.rows", "linalg.elim.nnz",
        "linalg.sparse_mul.self_s", "fpmod.coords.calls", "fpmod.coords.self_s",
        "fpmod.letter_matrix.self_s", "fpmod.std_basis.self_s", "fpmod.std_basis.kept_frac",
        "fpmod.stable_profile.self_s", "fpmod.torsion.self_s",
        "submodules.weak_basis.self_s", "submodules.reduce.calls", "submodules.reduce.self_s",
        "qgr.split_sequence.self_s", "qgr.pi_star.self_s", "parsing.parse_presentation.self_s",
    ],
    "limit_algebra": [
        "af_s.calls", "af_s.self_s", "linalg.calls", "linalg.self_s",
        "linalg.elim.calls", "linalg.elim.self_s", "linalg.elim.rows", "linalg.elim.nnz",
        "linalg.dense_mul.self_s",
        "af_s.vn_regular_witness.qq.self_s", "af_s.vn_regular_witness.gfp.self_s",
        "af_s.vn_regular_witness.qq.total_s", "af_s.vn_regular_witness.gfp.total_s",
        "fields.qq_over_gfp", "af_s.mul.self_s", "af_s.embed.self_s", "af_s.canonical.self_s",
        "af_s.simplicity_witness.self_s",
    ],
    "leavitt": [
        "leavitt.calls", "leavitt.self_s", "leavitt.mul.self_s", "leavitt.canonical.self_s",
        "leavitt.flat_decompose.self_s", "leavitt.l0_to_s.self_s", "leavitt.canonical.terms_out",
    ],
}


def import_library():
    """Import freeproj from the checkout's src/, dropping any earlier import."""
    if not os.path.isfile(os.path.join(SRC, "freeproj", "__init__.py")):
        raise SystemExit(f"bench: no freeproj sources under {SRC}; run from a source checkout")
    for name in [n for n in sys.modules if n == "freeproj" or n.startswith("freeproj.")]:
        del sys.modules[name]
    fp = importlib.import_module("freeproj")
    importlib.import_module("freeproj.parsing")
    if not os.path.abspath(fp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: freeproj was imported from {fp.__file__}, not {SRC}")
    return fp


def setup(workload, seed, meter):
    """Median over SETUP_REPEATS of: import freeproj + build the first inputs,
    each time scaled to the reference speed."""
    first = gen.pool(workload, seed, SETUP_OPS)
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        meter.sample()
        t0 = time.perf_counter()
        fp = import_library()
        ops.build(fp, workload, first)
        dt = time.perf_counter() - t0
        meter.sample()
        times.append(dt * meter.factor(t0))
    return fp, statistics.median(times)


def load_reference(workload, seed):
    with open(REFERENCE) as fh:
        ref = json.load(fh)[workload]
    return ref["invariants"] if seed == ref["seed"] else []


class Loop:
    """Closed-loop passes over a workload's ops, with exact checks."""

    def __init__(self, fp, workload, seed, meter, reference=(), salt=""):
        self.fp = fp
        self.meter = meter
        self.workload = workload
        self.seed = seed
        self.salt = salt
        self.run_op = ops.RUNNERS[workload]
        self.reference = reference
        self.passes: list = []  # one array of op wall times per pass
        self.starts: list = []  # one array of op start times per pass
        self.failed = 0
        self.errors: list = []

    @property
    def attempted(self):
        return sum(len(p) for p in self.passes)

    def run_pass(self, count, tracer=None):
        """One pass over the first `count` ops; returns the summed op time."""
        rep = len(self.passes)
        stream = gen.stream(self.workload, self.seed, self.salt, rep)
        lat = array.array("d")
        starts = array.array("d")
        self.passes.append(lat)
        self.starts.append(starts)
        self.meter.sample()
        while len(lat) < count:
            chunk = list(itertools.islice(stream, min(CHUNK, count - len(lat))))
            items = ops.build(self.fp, self.workload, chunk)
            for op, item in zip(chunk, items):
                index = len(lat)
                if tracer is not None:
                    tracer.begin_op(index)
                error = None
                t0 = time.perf_counter()
                try:
                    out = self.run_op(self.fp, item)
                except Exception:  # noqa: BLE001 - a raising op is a failed op
                    error = traceback.format_exc()
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
                lat.append(dt)
                starts.append(t0)
                self.meter.tick()
                if error is None and rep == 0 and index < len(self.reference) \
                        and out != self.reference[index]:
                    error = f"invariants {out!r} != reference {self.reference[index]!r}"
                if error is not None:
                    self.failed += 1
                    if len(self.errors) < 3:
                        self.errors.append(f"pass {rep} op {index} ({op['kind']}):\n{error}")
        self.meter.sample()
        return self.scaled(rep)

    def scaled(self, rep):
        """Op times of pass `rep`, scaled to the reference speed."""
        factor = self.meter.factor
        return [dt * factor(t0) for dt, t0 in zip(self.passes[rep], self.starts[rep])]

    def measure(self, count, passes=PASSES):
        """Per-op median scaled latencies over `passes` passes of `count` ops,
        and the scaled op time of each pass."""
        scaled = [self.run_pass(count) for _ in range(passes)]
        return [statistics.median(p[i] for p in scaled) for i in range(count)], \
            [sum(p) for p in scaled]


def quantile(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  The op times
    of a workload fall in clusters, one per op kind and size, and a plain
    sample quantile that lies between two clusters jumps from one to the
    other when two ops trade places; this estimate moves smoothly."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = []
    for k in range(n * steps):
        u = (k + 0.5) / (n * steps)
        logs.append((a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
    top = max(logs)
    weights = [0.0] * n
    for k, lg in enumerate(logs):
        weights[k // steps] += math.exp(lg - top)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def end_to_end(latencies, setup_s):
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_p90_ms": quantile(latencies, 0.9) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, untraced_busy, traced_busy, traced_wall):
    """Per-layer metrics of the traced pass.  The busy times are scaled op
    times: the untraced one is that of a median untraced pass over the same
    base ops; traced_wall is the traced pass's unscaled op time."""
    c = tracer.counters
    m = tracer.layer_metrics()
    m["linalg.elim.calls"] = c["linalg.elim.calls"]
    m["linalg.elim.self_s"] = tracer.group_self(ELIM)
    m["linalg.elim.rows"] = c["linalg.elim.rows"]
    m["linalg.elim.nnz"] = c["linalg.elim.nnz"]
    for stem in ("linalg.dense_mul", "linalg.sparse_mul", "fpmod.letter_matrix",
                 "fpmod.std_basis", "fpmod.stable_profile", "fpmod.torsion",
                 "submodules.weak_basis", "qgr.split_sequence", "qgr.pi_star",
                 "af_s.mul", "af_s.embed", "af_s.canonical", "af_s.simplicity_witness",
                 "leavitt.mul", "leavitt.canonical", "leavitt.flat_decompose",
                 "leavitt.l0_to_s", "parsing.parse_presentation"):
        m[f"{stem}.self_s"] = tracer.span_totals(SPANS[stem])[1]
    m["fpmod.coords.calls"], m["fpmod.coords.self_s"] = tracer.span_totals(SPANS["fpmod.coords"])
    base = c["fpmod.std_basis.base"]
    m["fpmod.std_basis.kept_frac"] = c["fpmod.std_basis.kept"] / base if base else 0.0
    m["submodules.reduce.calls"] = c["submodules.reduce.calls"]
    m["submodules.reduce.self_s"] = tracer.group_self(REDUCE)
    for side in ("qq", "gfp"):
        m[f"af_s.vn_regular_witness.{side}.self_s"] = c[f"vn.{side}.self_s"]
        m[f"af_s.vn_regular_witness.{side}.total_s"] = c[f"vn.{side}.total_s"]
    gfp = c["vn.gfp.total_s"]
    m["fields.qq_over_gfp"] = c["vn.qq.total_s"] / gfp if gfp else 0.0
    m["leavitt.canonical.terms_out"] = c["leavitt.canonical.terms_out"]
    m["trace.overhead_frac"] = traced_busy / untraced_busy - 1
    m["trace.uncovered_frac"] = 1 - tracer.covered / traced_wall
    return m


def units(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".qq_over_gfp")):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wall0 = time.perf_counter()
    sys.path.insert(0, SRC)
    meter = Speedometer()
    fp, setup_s = setup(args.workload, args.seed, meter)
    reference = load_reference(args.workload, args.seed)

    rate = NOMINAL_RATE[args.workload]
    Loop(fp, args.workload, args.seed, meter, salt="warmup").run_pass(round(WARMUP_SECONDS * rate))
    gc.collect()

    loop = Loop(fp, args.workload, args.seed, meter, reference)
    seconds = args.seconds / 2 if args.trace else args.seconds
    latencies, pass_s = loop.measure(max(2, round(seconds * rate / PASSES)))
    speeds = sorted(meter.kernel_s)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "why": gen.REASONS[args.workload],
        "params": gen.PARAMS[args.workload],
        "loop": "closed, 1 process, 1 thread, 1 client",
        "samples": len(latencies),
        "pass_s": pass_s,
        "pass_wall_s": [sum(p) for p in loop.passes],
        "kernel_ms": {"min": speeds[0] * 1e3, "median": statistics.median(speeds) * 1e3,
                      "max": speeds[-1] * 1e3, "reference": REF_KERNEL_S * 1e3},
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    if args.trace:
        tracer = Tracer()
        tracer.install(fp)
        gc.collect()
        untraced_busy = statistics.median(pass_s)
        traced_busy = sum(loop.run_pass(len(latencies), tracer))
        metrics = per_layer(tracer, untraced_busy, traced_busy, sum(loop.passes[-1]))
        zero = [n for n in MOVERS[args.workload] if not metrics[n]]
        if zero:
            loop.errors.append("per-layer metrics that must be nonzero on this workload: "
                               + ", ".join(zero))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        report.update({
            "trace_file": os.path.relpath(path, ROOT),
            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
            "binding_sites": tracer.sites,
            "waits": "none: one thread and no I/O, so no layer waits on another",
        })
    else:
        metrics = end_to_end(latencies, setup_s)
    attempted, failed, errors = loop.attempted, loop.failed, loop.errors
    report["failed_frac"] = failed / attempted
    report["wall_s"] = time.perf_counter() - wall0

    for e in errors:
        print(e, file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
