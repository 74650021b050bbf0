#!/usr/bin/env python3
"""Write bench/reference.json: the invariants of the default seed's first ops.

    python3 bench/make_reference.py

Run from the root of a source checkout.  For each workload it runs the first
ops of pass 0 at the default seed and stores what each op returns: (i0, t0,
class, torsion dimension) for module profiles, rank and class for limit
algebra idempotents, canonical text for Leavitt expressions, and so on.
``run.py`` compares every op of a default-seed run against these values, and
``selftest.py`` compares the digests of the generated inputs.  Regenerate
only when the workloads change, never to make a failing run pass.
"""

from __future__ import annotations

import json
import os
import sys

import gen
import ops
import run

DEFAULT_SEED = 0
COUNTS = {"modules": 200, "limit_algebra": 200, "leavitt": 1000}
DIGEST_OPS = 100


def main():
    sys.path.insert(0, run.SRC)
    fp = run.import_library()
    out = {}
    for workload, n in COUNTS.items():
        pool = gen.pool(workload, DEFAULT_SEED, n)
        runner = ops.RUNNERS[workload]
        invariants = [runner(fp, item) for item in ops.build(fp, workload, pool)]
        out[workload] = {
            "seed": DEFAULT_SEED,
            "digest": gen.digest(gen.pool(workload, DEFAULT_SEED, DIGEST_OPS)),
            "digest_ops": DIGEST_OPS,
            "invariants": invariants,
        }
        print(workload, len(invariants), file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(os.path.relpath(run.REFERENCE, run.ROOT))


if __name__ == "__main__":
    main()
