"""The benchmark's workloads still give their pinned outputs.

A change made for speed must leave every result bit for bit as it was,
unless a key-by-key check against its parent (tests/repin_compare.py) finds
every float within 1e-12 * max(1, |old|) and every iteration count, fallback
count and stop reason equal.  Four changes were re-pinned that way:
- the banded LU for small Newton systems (fem._band_lu) moved the solver
  workloads' energies by roundoff; fields_geometry, which runs no Newton
  step, kept its digest;
- the matmul quadrature gathers, the Gram-form Hessian and the direct gbsv
  call moved all three: the solver workloads by at most 8.3e-16 relative
  (square_cascade's level energies), fields_geometry by at most 3.3e-16 (its
  mollified sums), with every count and stop reason equal;
- the Nehari descent's and l2_project's move to the pattern's band LU
  (fem._factor) moved all three by at most 1.13e-15 relative
  (interval_ground_state's energy), every count and stop reason equal;
- Halley's step on the Luxemburg and Nehari balance roots
  (modular._balance_root), with numpy's pairwise sums in place of every
  long BLAS dot, moved all three by at most 9.0e-16 relative
  (interval_ground_state's level energies), every count and stop reason
  equal.
fields_geometry was re-pinned once more with no code change, when this test
moved into a child interpreter with one BLAS thread (below).
perfbench/workloads.py's fingerprint holds a workload's exact energies and
iteration counts (for fields_geometry: mesh sizes, norms, slacks, the
balance total, the log-Holder estimate and the mollified sums); this test
runs each workload at seed 42 the way perfbench/run.py does, without timing
it: in one fresh interpreter with run.child_env()'s environment, whose
thread variables pin BLAS to one thread (numpy is loaded in this process
before any test runs, too late to pin it here).  It pins a SHA-256 of each
fingerprint.  No long reduction goes through BLAS any more, and
tests/repin_compare.py checks that fields_geometry's digest is the same
with two BLAS threads.  A changed digest means a changed result: find the key that moved
before re-pinning.
"""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402

FINGERPRINT_DIGESTS = {
    "interval_ground_state":
        "129b2bdd395fd1c41cb3599423d674e31eeff69efb7ffbfb98ef89f16dca06fc",
    "square_cascade":
        "224f55e176eae2d708974f483869d7bc0628d0fd8449b69a274f96b9ed6f8aab",
    "fields_geometry":
        "315e4739c08af6288d8c12d6bbf7aed6d7444cf64c14dea682723ba7f3f55416",
}

# Runs the workloads named in argv at seed 42 and prints, as one JSON line,
# each one's failed operations, their errors and its fingerprint's digest.
CHILD = """
import hashlib, json, sys, tempfile
import workloads
out = {}
for name in sys.argv[1:]:
    ops = workloads.Ops()
    with tempfile.TemporaryDirectory() as tmp:
        result = workloads.WORKLOADS[name](ops, 42, tmp)
    fingerprint = json.dumps(workloads.fingerprint(name, result), sort_keys=True)
    out[name] = {"failed": ops.failed, "errors": ops.errors,
                 "digest": hashlib.sha256(fingerprint.encode()).hexdigest()}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def digests():
    proc = subprocess.run([sys.executable, "-c", CHILD, *FINGERPRINT_DIGESTS],
                          cwd=PERFBENCH, env=run.child_env(), capture_output=True,
                          text=True, timeout=run.REP_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", FINGERPRINT_DIGESTS)
def test_solver_workload_fingerprint(workload, digests):
    got = digests[workload]
    assert got["failed"] == 0, got["errors"]
    assert got["digest"] == FINGERPRINT_DIGESTS[workload]
