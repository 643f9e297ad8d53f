"""vexlab benchmark runner.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

For one workload, starts a fresh single-threaded interpreter per rep
(perfbench/workloads.py), one after another, while the next rep fits in
--seconds and until at least MIN_REPS ran.  Between reps it times a fixed
calibration kernel (perfbench/calibration.py) and reports the median
rep's times in reference seconds (see summarize) and the median rep's
memory.  With --trace 1 the reps alternate between untraced and traced,
and the run reports the per-layer metrics instead of the end-to-end ones.
The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

--workload all runs every workload in turn and prefixes each metric with
its workload's name.  Exits with code 2, printing no result, when the
vexlab sources are not next to the benchmark."""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from calibration import steal_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("interval_ground_state", "square_cascade", "fields_geometry")
MIN_REPS = 4
REP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER = {
    "solvers.nehari_candidate.s": "s",
    "solvers.nehari_candidate.self_s": "s",
    "solvers.nehari.descent_iterations": "count",
    "solvers.nehari.newton_iterations": "count",
    "solvers.cascade.s": "s",
    "solvers.solve_regularized.s": "s",
    "solvers.solve_regularized.self_s": "s",
    "solvers.solve_regularized.calls": "count",
    "solvers.spsolve.s": "s",
    "solvers.spsolve.calls": "count",
    "solvers.newton_iterations": "count",
    "solvers.max_level_iterations": "count",
    "solvers.unconverged_levels": "count",
    "solvers.useful_iter_frac": "frac",
    "solvers.power_source.s": "s",
    "fem.mollify.s": "s",
    "fem.mollify.calls": "count",
    "fem.mollify.pairs": "count",
    "meshes.build_mesh.s": "s",
    "meshes.boundary_distance.s": "s",
    "meshes.write_mesh.s": "s",
    "meshes.read_mesh.s": "s",
    "meshes.file_bytes": "bytes",
    "meshes.nodes": "count",
    "meshes.cells": "count",
    "modular.verify_modular_relations.s": "s",
    "modular.holder_check.s": "s",
    "modular.gradient_luxemburg_norm.calls": "count",
    "exponents.log_holder_estimate.s": "s",
    "domains.find_star_center.s": "s",
    "pohozaev.pohozaev_terms.s": "s",
    "pohozaev.remainder_R.s": "s",
    "pohozaev.boundary_term.calls": "count",
    "import.vexlab_s": "s",
    "import.scipy_optimize_s": "s",
    "trace.overhead_frac": "frac",
}

# Times are given in reference seconds: a rep's measured seconds times
# CAL_REF_S / the median of the calibrations around it.  The kernel's median
# on a quiet stretch of the 2-CPU machine this was built on was about 0.19 s.
CAL_REF_S = 0.19
# calibrate() runs this many times before the first rep and after each rep.
CAL_SLICES = 3
TIMES = ("wall_s", "cpu_s", "setup_s")
# The hypervisor's steal time over each timed span (see calibration.steal_s);
# CPU time does not count it.
STEAL = {"wall_s": "steal_s", "setup_s": "setup_steal_s"}

# Modules whose cumulative import time `python -X importtime` reports.
IMPORT_METRICS = {"vexlab": "import.vexlab_s",
                  "scipy.optimize": "import.scipy_optimize_s"}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def import_times(stderr):
    """Cumulative seconds per module from `-X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        module = parts[-1].strip()
        if module in IMPORT_METRICS:
            out[IMPORT_METRICS[module]] = int(parts[1]) / 1e6
    return out


def run_rep(workload, seed, traced):
    """One rep in a fresh interpreter; returns its parsed report."""
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "workloads.py"), workload, str(seed),
            "1" if traced else "0"]
    steal0, start = steal_s(), time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} rep exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("import_done") - start
    rep["setup_steal_s"] = rep.pop("import_steal") - steal0
    if traced and "layers" in rep:
        rep["layers"].update(import_times(proc.stderr))
    return rep


def calibrations():
    """CAL_SLICES timings of calibration.calibrate(), in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "calibration.py"), str(CAL_SLICES)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"calibration exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout)


def measure(workload, seed, seconds, trace):
    """Reps one after another while the next one fits in `seconds` (and at
    least MIN_REPS); traced reps alternate with untraced ones when `trace`
    is set.  Each rep carries the calibrations taken just before and just
    after it."""
    start = time.monotonic()
    reps, durations = [], []
    before = calibrations()
    while True:
        began = time.monotonic()
        rep = run_rep(workload, seed, trace and len(reps) % 2 == 1)
        after = calibrations()
        rep["calibration_s"] = before + after
        reps.append(rep)
        before = after
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if (len(reps) >= MIN_REPS
                and elapsed + statistics.median(durations) > seconds):
            return reps


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(reps, trace):
    """(correct, attempted, failed, rows); a row is (name, value, unit,
    samples, q1, q3), the quartiles None where not sampled.

    Every rep does the same work (the fingerprints must agree), so reps
    differ only by how fast the machine ran them, and on a shared host that
    speed drifts by up to 1.6x for seconds to minutes at a time.  So the
    hypervisor's steal time is taken off each rep's wall and set-up times,
    each rep's times are scaled to reference seconds by the calibrations
    around it, CAL_REF_S / median(calibration), and a time is reported as
    the median rep's; the measured medians and quartiles are printed beside
    it.  Memory is the median rep.  The per-layer figures come from the
    traced rep with the median scaled wall time.
    """
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    prints = [json.dumps(r.get("fingerprint"), sort_keys=True) for r in reps]
    correct = all(r["correct"] for r in reps) and len(set(prints)) == 1

    def scale(rep):
        return CAL_REF_S / statistics.median(rep["calibration_s"])

    def steal_free(rep, name):
        return rep[name] - (rep[STEAL[name]] if name in STEAL else 0.0)

    def sampled(name, unit, values):
        return (name, statistics.median(values), unit, len(values),
                *_quartiles(values))

    rows = [sampled(name, "s", [steal_free(r, name) * scale(r) for r in plain])
            for name in TIMES]
    rows.append(sampled("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in plain]))
    rows.append(("ok_frac", 1.0 - failed / attempted, "frac", len(reps),
                 None, None))
    rows.append(("failed_frac", failed / attempted, "frac", len(reps),
                 None, None))
    rows += [sampled("measured_" + name, "s", [r[name] for r in plain])
             for name in TIMES + tuple(STEAL.values())]
    rows.append(sampled("calibration_s", "s",
                        [c for r in plain for c in r["calibration_s"]]))
    if trace:
        by_wall = sorted(traced,
                         key=lambda r: steal_free(r, "wall_s") * scale(r))
        median = by_wall[(len(by_wall) - 1) // 2]
        layers = dict(median.get("layers", {}))
        layers["trace.overhead_frac"] = (
            steal_free(median, "wall_s") * scale(median) / rows[0][1] - 1.0)
        for name, unit in PER_LAYER.items():
            value = layers.get(name, 0) * (scale(median) if unit == "s" else 1)
            rows.append((name, value, unit, len(traced), None, None))
    return correct, attempted, failed, rows


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def print_rows(workload, rows):
    print(f"# {workload}")
    print(f"#   {'metric':40s} {'value':>14s} {'unit':6s} {'n':>3s}"
          f" {'q1':>10s} {'q3':>10s}")
    for name, value, unit, n, q1, q3 in rows:
        quart = "" if q1 is None else f" {q1:10.4g} {q3:10.4g}"
        print(f"#   {name:40s} {value:14.6g} {unit:6s} {n:3d}{quart}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before the runner exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "vexlab", "__init__.py")):
        print(f"perfbench: no vexlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = PER_LAYER if args.trace else END_TO_END
    correct, attempted, failed, metrics = True, 0, 0, {}
    header = None
    for workload in workloads:
        try:
            reps = measure(workload, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if header is None:
            v = reps[0]["versions"]
            header = (f"# perfbench seed={args.seed} seconds={args.seconds:g}"
                      f" trace={args.trace} nproc={os.cpu_count()}"
                      f" python={v['python']} numpy={v['numpy']}"
                      f" scipy={v['scipy']} commit={git_commit()}")
            print(header)
        ok, att, fail, rows = summarize(reps, bool(args.trace))
        print_rows(workload, rows)
        for rep in reps:
            for err in rep["errors"]:
                print(f"#   error: {err}")
            for name, passed in rep["checks"].items():
                if not passed:
                    print(f"#   check failed: {name}")
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, value, unit, *_ in rows:
            if name in wanted:
                metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
