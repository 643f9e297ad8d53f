"""The benchmark's workloads still give their pinned outputs.

A change made for speed must leave every result bit for bit as it was,
unless a key-by-key check against its parent (tests/repin_compare.py) finds
every float within 1e-12 * max(1, |old|) and every iteration count, fallback
count and stop reason equal.  Two changes were re-pinned that way:
- the banded LU for small Newton systems (fem._banded) moved the solver
  workloads' energies by roundoff; fields_geometry, which runs no Newton
  step, kept its digest;
- the matmul quadrature gathers, the Gram-form Hessian and the direct gbsv
  call moved all three: the solver workloads by at most 8.3e-16 relative
  (square_cascade's level energies), fields_geometry by at most 3.3e-16 (its
  mollified sums), with every count and stop reason equal.
perfbench/workloads.py's fingerprint holds a workload's exact energies and
iteration counts (for fields_geometry: mesh sizes, norms, slacks, the
balance total, the log-Holder estimate and the mollified sums); this test
runs each workload at seed 42 the way perfbench/run.py does, without timing
it, and pins a SHA-256 of each fingerprint.  A changed digest means a
changed result: find the key that moved before re-pinning.
"""

import hashlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

FINGERPRINT_DIGESTS = {
    "interval_ground_state":
        "a7baa7268b4a4803d4fb8de2d570cc0e5d92ecf9f3433b25e408dd5a1d14a9bf",
    "square_cascade":
        "3e1261be73d4d2d9cfbbd48be0bb9132cdcacbe328f009ad08310b736a8b1d85",
    "fields_geometry":
        "89155941ce61bef2892a15aaecb73791400a8c4df1e1d9033521b348abacb67e",
}


@pytest.mark.parametrize("workload", FINGERPRINT_DIGESTS)
def test_solver_workload_fingerprint(workload, tmp_path):
    ops = workloads.Ops()
    out = workloads.WORKLOADS[workload](ops, 42, tmp_path)
    assert ops.failed == 0, ops.errors
    fingerprint = json.dumps(workloads.fingerprint(workload, out), sort_keys=True)
    assert hashlib.sha256(fingerprint.encode()).hexdigest() \
        == FINGERPRINT_DIGESTS[workload]
