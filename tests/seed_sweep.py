"""Seed sweep: run the tests that assert coverage over their hypothesis draws
at many seeds, and name each seed at which one fails.

Run from the root of a source checkout:

    python tests/seed_sweep.py [N]

Each test in TESTS checks values on every draw and then asserts that some
kinds of case were drawn.  A kind that no `@hypothesis.example` pins is met
or missed by chance, so the test passes at one seed and fails at another.
The sweep runs TESTS at `--hypothesis-seed` 1..N (default 20), one pytest
process per seed, prints each failing seed with the tests that failed at it,
and exits 1 if any seed failed.  The name has no `test_` prefix, so pytest
does not collect it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TESTS = [f"tests/test_linalg.py::{name}" for name in (
    "test_packed_product_matches_frozen_product",
    "test_packed_witness_matches_sparse_kernel",
    "test_packed_kernel_matches_oracle",
    "test_product_by_ints_over_a_denominator_matches_frozen_product",
    "test_prime_route_matches_bareiss_oracle",
    "test_generalized_inverse_packs_only_half_nonzero_gfp",
)] + ["tests/test_fpmod.py::test_lead_rows_match_lookup_oracle",
     "tests/test_fpmod.py::test_mult_bijective_matches_rank_oracle",
     "tests/test_submodules.py::test_twists_and_sums_match_cofactor_oracle",
     "tests/test_leavitt.py::test_product_and_equality_match_oracle",
     "tests/test_leavitt.py::test_normal_form_matches_raise_route"]


def failures(seed: int, env: dict) -> list:
    """The names of the tests in TESTS that fail at this seed."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", f"--hypothesis-seed={seed}", *TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True)
    failed = re.findall(r"^FAILED \S+::(\w+)", run.stdout, re.M)
    return failed or ([f"pytest exited {run.returncode}"] if run.returncode else [])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    n = int(argv[0]) if argv else 20
    path = [os.path.join(ROOT, "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    failing = 0
    for seed in range(1, n + 1):
        if failed := failures(seed, env):
            failing += 1
            print(f"seed {seed}: {', '.join(failed)}", flush=True)
    print(f"seed sweep: {failing} of {n} seeds failed, {len(TESTS)} tests each")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
