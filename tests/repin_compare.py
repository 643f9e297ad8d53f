"""Compare the pinned outputs of two checkouts key by key, before a re-pin.

A change that moves results by roundoff changes the digests the tier-1 tests
pin.  Before re-pinning them, run

    python tests/repin_compare.py PARENT_CHECKOUT CHANGED_CHECKOUT

(a checkout is a directory holding src/, tests/, configs/ and perfbench/,
say one made with `git archive`).  In a fresh interpreter per checkout, with
that checkout's src/ first on the path and perfbench/run.py's THREAD_VARS
set to 1 (one BLAS thread, as in perfbench's reps and the fingerprint
test), it collects

- every file each shipped configs/*.json writes through the CLI: JSON reports
  with their "meta" counts but not its timestamp, CSV and text files token by
  token;
- the three perfbench workload fingerprints at seed 42, with each epsilon
  level's stop reason and Newton fallbacks;
- the raw values behind the pins of test_solvers.py (TRUNCATED_PINS,
  SOLVER_DIGESTS, ENERGY_PINS), test_modular.py (FIELDS_PINS) and
  test_pohozaev.py (BALANCE_PINS), built by the checkout's own case helpers;
- each side of fem._factor's rule, for one-shot and fixed factors alike:
  six Newton steps on the square at h = 0.1 (BAND_DIRECTION, the band LU)
  and two on the disk at h = 0.04, whose system is too wide for the band
  (SUPERLU_DIRECTION), and l2_project on that disk's 4,096 nodes
  (SUPERLU_FACTOR); the Nehari descent's band factor and the projections
  on the band are in the pins above.

It prints, per output, the worst relative change of its floats,
|new - old| / max(1, |old|), and every count, flag or string that differs,
and exits 1 when a float moved by more than 1e-12 or anything else differs.

A re-pin must also hold at any BLAS thread count.  So in two more fresh
interpreters, with THREAD_VARS set to 1 and then to 2, it collects from the
changed checkout the fields_geometry fingerprint's SHA-256 (the digest
test_perfbench_fingerprints.py pins) and the h = 0.05 disk candidate (p =
1.5 + 0.2x, q = 3, seed 42): its energy's float.hex and its field's SHA-256.
It exits 1 when any of these differs between the two thread counts.
pytest does not collect this file: its name does not start with test_.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FLOAT_BOUND = 1e-12
SEED = 42


def _plain(obj):
    """obj as JSON-ready lists, dicts, floats, ints, bools and strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if hasattr(obj, "values") and hasattr(obj, "mesh"):  # a DiscreteField
        obj = obj.values
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _token(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _config_outputs(checkout, work):
    from vexlab.cli import main

    out = {}
    for path in sorted((checkout / "configs").glob("*.json")):
        scenario = path.stem.rsplit("_", 1)[0].replace("_", "-")
        target = work / path.stem
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([scenario, "--config", str(path), "--out", str(target)])
        out[f"configs/{path.stem}/exit_code"] = code
        for f in sorted(target.iterdir()):
            if f.suffix == ".json":
                data = json.loads(f.read_text())
                data["meta"].pop("created")
            else:
                data = [[_token(t) for t in line.replace(",", " ").split()]
                        for line in f.read_text().splitlines()]
            out[f"configs/{path.stem}/{f.name}"] = data
    return out


def _workload_outputs(work):
    import workloads

    out = {}
    for name, run in workloads.WORKLOADS.items():
        ops = workloads.Ops()
        result = run(ops, SEED, str(work))
        got = {"ops_failed": ops.failed, **workloads.fingerprint(name, result)}
        if "runs" in result:
            levels = [lv for res in result["runs"]
                      for lv in res.diagnostics["eps_runs"]]
            got["level_stops"] = [lv.diagnostics["stop"] for lv in levels]
            got["level_fallbacks"] = [lv.diagnostics["newton_fallbacks"]
                                      for lv in levels]
            got["candidate_stop"] = result["cand"].diagnostics["stop"]
        out[f"fingerprint/{name}"] = got
    return out


def _pinned_test_inputs():
    """The values each pinned test hashes or compares, test by test."""
    import numpy as np
    import test_modular
    import test_pohozaev
    import test_solvers
    import vexlab as vx

    square = vx.Domain.polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    interval = vx.Domain.interval(0.0, 1.0)
    out = {}

    mesh = vx.build_mesh(interval, 0.02)
    for n in (1, 8):  # test_one_level_cascade_is_the_truncated_solve_bit_for_bit
        cfg = vx.SolveConfig(epsilon0=0.5, eps_factor=0.5, eps_min=0.125,
                             n_schedule=(n,))
        res = vx.cascade(3.5 * test_solvers.sin_field(mesh),
                         vx.AffineExponent(2.5, [0.5]), vx.ConstantExponent(4.0),
                         cfg)[0]
        levels = res.diagnostics["eps_runs"]
        out[f"TRUNCATED_PINS/{n}"] = {
            "energies": [lv.energy for lv in levels],
            "iterations": [lv.iterations for lv in levels],
            "stops": [lv.diagnostics["stop"] for lv in levels],
            "field": res.field.values}

    mesh = vx.build_mesh(square, 0.1)  # test_solver_path_bytes_pinned
    v = vx.DiscreteField(mesh, np.full(mesh.nnodes, 10.0), zero_trace=True)
    res = vx.solve_regularized(v, vx.AffineExponent(1.5, [0.2, 0.0]),
                               vx.ConstantExponent(3.0), vx.SolveConfig(epsilon=1e-3))
    cand = vx.nehari_candidate(vx.ConstantExponent(2.0), vx.ConstantExponent(4.0),
                               vx.build_mesh(interval, 0.05), vx.SolveConfig(seed=42))
    out["SOLVER_DIGESTS"] = {
        "iterations": res.iterations, "stop": res.diagnostics["stop"],
        "solve_values": res.field.values,
        "solve_energy_history": res.diagnostics["energy_history"],
        "nehari_energy_history": cand.diagnostics["energy_history"]}

    # pure Newton outputs on each side of the rule, which no pinned test
    # hashes: the square at h = 0.1 on the band LU, the disk at h = 0.04
    # (m bw^2 = 58.2M) on SuperLU (test_large_pattern_keeps_the_superlu_...)
    disk = vx.build_mesh(vx.Domain.disk(), 0.04)
    for key, mesh, steps in (("BAND_DIRECTION", vx.build_mesh(square, 0.1), 6),
                             ("SUPERLU_DIRECTION", disk, 2)):
        v = vx.DiscreteField(mesh, np.full(mesh.nnodes, 10.0), zero_trace=True)
        res = vx.solve_regularized(v, vx.AffineExponent(1.5, [0.2, 0.0]),
                                   vx.ConstantExponent(3.0),
                                   vx.SolveConfig(epsilon=1e-3, max_iters=steps))
        out[key] = {
            "energy": res.energy, "el_residual": res.el_residual,
            "stop": res.diagnostics["stop"], "field": res.field.values,
            "fallbacks": res.diagnostics["newton_fallbacks"],
            "energy_history": res.diagnostics["energy_history"]}
    # a fixed factor above _BAND_WORK: the all-node mass matrix of that disk
    vals = np.random.default_rng(9).standard_normal(disk.quadrature()[1].shape)
    out["SUPERLU_FACTOR"] = vx.l2_project(disk, vals).values

    for kind in ("square", "disk"):  # test_energy_helpers_pinned
        z, v, source, p, q = test_solvers.energy_case(kind, square)
        got = {"source_energy": vx.source_energy(z, source, p, q),
               "power_source": vx.power_source(source, q)}
        for eps in (0.0, 1e-3):
            got[str(eps)] = {
                "phi_energy": vx.phi_energy(z, p, eps),
                "regularized_energy": vx.regularized_energy(z, v, p, q, eps),
                "regularized_energy_no_load": vx.regularized_energy(z, None, p, q, eps),
                "operator_action": vx.operator_action(z, p, eps),
                "operator_action_zero": vx.operator_action(
                    vx.DiscreteField.zeros(z.mesh), p, eps)}
        out[f"ENERGY_PINS/{kind}"] = got

    shape = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]
    mesh = vx.build_mesh(vx.Domain.polygon(shape), 0.1)  # test_fields_layer_pinned
    p = vx.RadialExponent(1.6, 0.1, [0.5, 0.5])
    rng = np.random.default_rng(17)
    u, v, w = (test_modular.random_field(mesh, rng) for _ in range(3))
    out["FIELDS_PINS"] = {"relations": vx.verify_modular_relations(u, p),
                          "holder": vx.holder_check(v, w, p),
                          "samples": p.eval_on_quadrature(mesh)}

    for kind in ("square", "disk"):  # test_balance_layer_pinned
        u, v, p, q, origin = test_pohozaev.balance_case(kind, square)
        rep = vx.pohozaev_terms(u, p, q, origin)
        out[f"BALANCE_PINS/{kind}"] = {
            **{t: getattr(rep, t) for t in ("t1", "t2", "t3", "t4", "identity_gap")},
            "boundary_term": vx.boundary_term(u, p, 1e-3, origin),
            "class_e_integral": vx.class_e_integral(u, p, q, origin),
            "pucci_serrin": vx.verify_pucci_serrin(u, p, q, v, eps=0.01, a=0.3,
                                                   origin=origin),
            "radial_sides": vx.radial_identity_sides(u, q, origin)}
    return out


def _thread_outputs(work):
    """The outputs whose bits the thread check compares, as strings."""
    import hashlib

    import vexlab as vx
    import workloads

    result = workloads.WORKLOADS["fields_geometry"](workloads.Ops(), SEED, str(work))
    fingerprint = json.dumps(workloads.fingerprint("fields_geometry", result),
                             sort_keys=True)
    cand = vx.nehari_candidate(vx.AffineExponent(1.5, [0.2, 0.0]),
                               vx.ConstantExponent(3.0),
                               vx.build_mesh(vx.Domain.disk(), 0.05),
                               vx.SolveConfig(seed=SEED))
    return {"fingerprint/fields_geometry":
                hashlib.sha256(fingerprint.encode()).hexdigest(),
            "disk_candidate/energy": float.hex(cand.energy),
            "disk_candidate/field":
                hashlib.sha256(cand.field.values.tobytes()).hexdigest()}


def collect(checkout, dest, threads_only=False):
    """Write the outputs of checkout (or only its thread outputs) as JSON to
    dest."""
    checkout = Path(checkout).resolve()
    for sub in ("tests", "perfbench", "src"):  # src ends up first
        sys.path.insert(0, str(checkout / sub))
    with tempfile.TemporaryDirectory() as tmp:
        if threads_only:
            out = _thread_outputs(Path(tmp))
        else:
            out = {**_config_outputs(checkout, Path(tmp)),
                   **_workload_outputs(Path(tmp)), **_pinned_test_inputs()}
    Path(dest).write_text(json.dumps(_plain(out)))


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def compare(old, new):
    """Print the comparison of two collections; return the exit code."""
    code = 0
    for output in sorted(set(old) | set(new)):
        if output not in old or output not in new:
            print(f"{output}: only in the {'new' if output in new else 'old'} checkout")
            code = 1
            continue
        a, b = dict(_leaves(old[output])), dict(_leaves(new[output]))
        worst, where, floats, diffs = 0.0, "", 0, []
        for key in sorted(set(a) | set(b)):
            x, y = a.get(key, "<missing>"), b.get(key, "<missing>")
            if type(x) is float and type(y) is float:
                floats += 1
                rel = abs(y - x) / max(1.0, abs(x))
                if rel > worst:
                    worst, where = rel, key
            elif x != y or type(x) is not type(y):
                diffs.append(f"  {key}: {x!r} -> {y!r}")
        flag = "MOVED" if worst > FLOAT_BOUND else "ok"
        print(f"{output}: {floats} floats, worst relative change {worst:.2e}"
              f"{f' at {where}' if where else ''} [{flag}]")
        for line in diffs:
            print(line)
        code |= int(worst > FLOAT_BOUND or bool(diffs))
    return code


def compare_threads(one, two):
    """Print the thread check; return its exit code."""
    code = 0
    for key in sorted(one):
        same = one[key] == two.get(key)
        print(f"threads {key}: 1 thread {one[key]}, 2 threads {two.get(key)} "
              f"[{'ok' if same else 'DIFFERS'}]")
        code |= int(not same)
    return code


def main(argv):
    if len(argv) == 3 and argv[0] in ("--collect", "--collect-threads"):
        collect(argv[1], argv[2], threads_only=argv[0] == "--collect-threads")
        return 0
    if len(argv) != 2:
        print(__doc__)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from run import THREAD_VARS

    runs = [("--collect", checkout, "1") for checkout in argv]
    runs += [("--collect-threads", argv[1], threads) for threads in ("1", "2")]
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (mode, checkout, threads) in enumerate(runs):
            dest = os.path.join(tmp, f"{i}.json")
            env = {**os.environ, **{var: threads for var in THREAD_VARS},
                   "PYTHONPATH": str(Path(checkout).resolve() / "src")}
            subprocess.run([sys.executable, os.path.abspath(__file__), mode,
                            checkout, dest], check=True, cwd=tmp, env=env)
            got.append(json.loads(Path(dest).read_text()))
    return compare(*got[:2]) | compare_threads(*got[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
