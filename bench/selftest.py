#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the root of a source checkout.  It checks that

* the same seed gives byte-identical generated inputs, equal to the digests
  stored in reference.json; another seed gives other inputs, and warm-up
  inputs rarely coincide with timed ones;
* a tiny run of every workload, traced and untraced, reports every metric
  named in BENCHMARK.json with no failed op;
* in a directory that holds only BENCHMARK.json and the benchmark, a run
  exits with an error and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import gen
import run

TINY_SECONDS = "2"
OVERLAP_OPS = 600
MAX_SHARED = 0.05


def check(condition, what, failures):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    failures: list = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)

    for workload in gen.WORKLOADS:
        ref = reference[workload]
        n = ref["digest_ops"]
        first = gen.digest(gen.pool(workload, ref["seed"], n))
        again = gen.digest(gen.pool(workload, ref["seed"], n))
        check(first == again == ref["digest"], f"{workload}: seed {ref['seed']} inputs are byte-identical to the stored digest", failures)
        other = gen.pool(workload, ref["seed"] + 1, n)
        check(gen.digest(other) != first, f"{workload}: another seed gives other inputs", failures)
        # Warm-up draws from a base stream of its own.  Only inputs from tiny
        # spaces (a one-letter relation, a single monomial) can coincide.
        timed = [json.dumps(op, sort_keys=True) for op in gen.pool(workload, ref["seed"], OVERLAP_OPS)]
        warm = {json.dumps(op, sort_keys=True)
                for op in gen.pool(workload, ref["seed"], OVERLAP_OPS, salt="warmup")}
        shared = sum(op in warm for op in timed)
        check(shared <= OVERLAP_OPS * MAX_SHARED, f"{workload}: {shared} of the first "
              f"{OVERLAP_OPS} timed inputs also occur in warm-up", failures)

    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "0",
                                     "--seconds", TINY_SECONDS, "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            label = f"{workload} --trace {trace}"
            check(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: exits 0 with a result line", failures)
            if result is None:
                print(proc.stderr[-2000:])
                continue
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, failed_frac = 0 over {result['attempted']} ops", failures)
            missing = [m for m in names[trace] if m not in result["metrics"]]
            check(not missing and len(result["metrics"]) == len(names[trace]),
                  f"{label}: reports exactly the {len(names[trace])} named metrics {missing or ''}", failures)
            if not result["correct"]:
                print(proc.stderr[-2000:])

    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + ["--workload", gen.WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources: exits nonzero and prints no result", failures)
    shutil.rmtree(bare)

    print("selftest: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
