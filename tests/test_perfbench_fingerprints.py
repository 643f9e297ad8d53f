"""The benchmark's workloads still give their pinned outputs.

A change made for speed must leave every result bit for bit as it was.
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
        "e866e288ee48b43e4b3bbf4ccacee2c699fa4703afeb8f84c2a11bca3d37b8e6",
    "square_cascade":
        "314b50f22128aecf623d88502f704144442173b9092e1c52043b87ab81e1fc84",
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
