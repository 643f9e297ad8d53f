"""The benchmark's workloads still give their pinned outputs.

A change made for speed must leave every result bit for bit as it was.
The one exception so far is the banded LU for small Newton systems
(fem._banded): it moves the solver workloads' energies by roundoff.  They
were re-pinned after a key-by-key check against the SuperLU results: every
float within 1e-12 * max(1, |old|), every iteration count, fallback count
and stop reason equal (fields_geometry, which runs no Newton step, kept its
digest).
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
        "611774df701945169af29b2caabecfd0203db703f1b14c72ab4ace61c61f4d9c",
    "square_cascade":
        "294e6f5f70dac4ed6923251dfb54312dcabd407383b7bfa75ace1af77a794e07",
    "fields_geometry":
        "54fa1c9037f0ea19543852d8913a45733267b3cce8d099b938fad7029bad3d87",
}


@pytest.mark.parametrize("workload", FINGERPRINT_DIGESTS)
def test_solver_workload_fingerprint(workload, tmp_path):
    ops = workloads.Ops()
    out = workloads.WORKLOADS[workload](ops, 42, tmp_path)
    assert ops.failed == 0, ops.errors
    fingerprint = json.dumps(workloads.fingerprint(workload, out), sort_keys=True)
    assert hashlib.sha256(fingerprint.encode()).hexdigest() \
        == FINGERPRINT_DIGESTS[workload]
