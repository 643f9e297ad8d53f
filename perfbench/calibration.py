"""How fast the machine runs right now: a fixed kernel, and steal time.

Usage: python3 perfbench/calibration.py N

prints N timings as JSON, after one untimed warm-up call.

run.py times calibrate() between reps, in a process of its own (so that
the kernel's memory does not count towards a rep's peak: a child inherits
its parent's peak RSS across fork and exec), and divides
each rep's times by the median of the calibrations taken just before and
just after it.  The kernel does not touch vexlab, so a change to vexlab
cannot move it.  It mixes the kinds of work the workloads do, because on a
shared host each slows by its own amount when neighbours load the machine:
an interpreter loop, gathers and scatters on small-mesh-sized arrays,
streaming in place over a 160 MB array and random reads from it.  The
array is about half the 300 MB L3 of the host this was built on, so that
it stays in cache only while neighbours leave the cache alone; a 40 MB
array fitted in some stretches and not in others, and timings over it
swung by 19%.

steal_s() reads the hypervisor's steal time; workloads.py and run.py read
it around each rep's work and set-up, and run.py takes it off those times.
"""

import json
import os
import sys
import time

STREAM_LEN = 20_000_000  # 160 MB of doubles


def calibrate():
    """Seconds taken by the kernel (about 0.19 s on a quiet 2-CPU host)."""
    # Imported here, so that run.py (which imports steal_s) stays small: a
    # rep inherits the runner's peak RSS.
    import numpy as np

    rng = np.random.default_rng(0)
    grads = rng.standard_normal((4000, 3, 2))
    values = rng.standard_normal(3000)
    cells = rng.integers(0, 3000, (4000, 3))
    stream = np.ones(STREAM_LEN)
    picks = rng.integers(0, STREAM_LEN, 1_000_000)

    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    for _ in range(200):
        g = np.einsum("cv,cvd->cd", values[cells], grads)
        out = np.zeros(3000)
        np.add.at(out, cells.ravel(), np.repeat(g[:, :1], 3, axis=1).ravel())
    for _ in range(3):
        np.multiply(stream, 1.0000001, out=stream)
    for _ in range(3):
        total += int(stream[picks].sum())
    return time.perf_counter() - start


def steal_s():
    """Seconds the hypervisor has kept this machine's vCPUs from running
    while they had work (the steal column of /proc/stat); 0.0 where that is
    not reported.  A single-threaded rep is the only thing running, so the
    steal during its span is time its wall clock ran while it could not."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


if __name__ == "__main__":
    calibrate()  # warm-up: the first call in a process runs slow
    print(json.dumps([calibrate() for _ in range(int(sys.argv[1]))]))
