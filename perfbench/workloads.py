"""The benchmark's workloads; run.py starts one per fresh interpreter.

Usage: python3 perfbench/workloads.py WORKLOAD SEED TRACE

Each workload calls vexlab's public API the way a user script would, with
the calls looked up on their modules at call time so that a Tracer can
wrap them.  The work is timed; the output checks against reference.json
run afterwards, outside the timed span.  The last line of standard output
is one JSON object: timings, operation counts, check outcomes, a
fingerprint of the outputs (exact energies and counts) and, when TRACE is
1, the per-layer figures.
"""

import time

import vexlab  # noqa: F401  (set-up ends when this import returns)

IMPORT_DONE = time.monotonic()

from calibration import steal_s  # noqa: E402

IMPORT_STEAL = steal_s()

import contextlib  # noqa: E402
from importlib import import_module  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from vexlab import domains, exponents, fem, meshes, pohozaev, solvers  # noqa: E402
from vexlab.domains import Domain  # noqa: E402
from vexlab.exponents import AffineExponent, ConstantExponent, RadialExponent  # noqa: E402
from vexlab.fem import DiscreteField  # noqa: E402
from vexlab.solvers import SolveConfig  # noqa: E402

from tracing import Tracer  # noqa: E402

modular = import_module("vexlab.modular")  # `vexlab.modular` is a function

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The Nehari candidate's seed in both solver workloads.  It stays fixed
# whatever --seed says: which epsilon levels stall at 500 iterations is a
# roundoff lottery over this seed (see README.md), and a stalled level
# doubles the workload's time.
SOLVER_SEED = 42

L_SHAPE = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]
UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


class Aborted(Exception):
    """A public call raised, so the workload cannot go on."""


class Ops:
    """Operations attempted and failed, and the output checks' outcomes.

    An operation is a public call the workload makes, one regularized
    solve (one epsilon level) inside a cascade, or one output check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.errors = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any raise from the library is a failure
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {exc!r}")
            raise Aborted from exc

    def levels(self, runs):
        """Count every epsilon level of a cascade; unconverged ones fail."""
        for res in runs:
            for level in res.diagnostics["eps_runs"]:
                self.attempted += 1
                self.failed += int(not level.converged)

    def check(self, name, ok):
        ok = bool(ok)
        self.attempted += 1
        self.failed += int(not ok)
        self.checks[name] = self.checks.get(name, True) and ok

    @property
    def all_checks_passed(self):
        return all(self.checks.values())


# -- workloads (timed) -------------------------------------------------------


def _ground_state(ops, domain, h, p, q, cfg, origin=None):
    """The pohozaev scenario's calls: candidate, balance terms, cascade,
    remainder and star-shape report."""
    mesh = ops.call(meshes.build_mesh, domain, h)
    if origin is None:
        origin = ops.call(domains.find_star_center, domain)
    cand = ops.call(solvers.nehari_candidate, p, q, mesh, cfg)
    report = ops.call(pohozaev.pohozaev_terms, cand.field, p, q, origin)
    runs = ops.call(solvers.cascade, cand.field, p, q, cfg)
    remainder = ops.call(pohozaev.remainder_R, runs, p, mesh, origin)
    star = ops.call(domains.star_shape_report, domain, origin)
    return {"p": p, "q": q, "cand": cand, "report": report,
            "runs": runs, "remainder": remainder, "star": star}


def interval_ground_state(ops, seed, workdir):
    cfg = SolveConfig(epsilon0=1.0, eps_factor=0.5, eps_min=1e-6,
                      n_schedule=(1, 2, 4, 8), seed=SOLVER_SEED)
    return _ground_state(ops, Domain.interval(0.0, 1.0), 0.005,
                         ConstantExponent(2.0), ConstantExponent(4.0), cfg,
                         origin=np.array([0.5]))


def square_cascade(ops, seed, workdir):
    cfg = SolveConfig(n_schedule=(2, 4), eps_min=1e-4, seed=SOLVER_SEED)
    return _ground_state(ops, Domain.polygon(UNIT_SQUARE), 0.1,
                         AffineExponent(1.5, [0.2, 0.0]), ConstantExponent(3.0),
                         cfg)


def fields_geometry(ops, seed, workdir):
    rng = np.random.default_rng(seed)
    p = RadialExponent(1.6, 0.1, [0.5, 0.5])
    q = ConstantExponent(3.0)

    def noise(mesh):
        return DiscreteField(mesh, rng.standard_normal(mesh.nnodes))

    def bump(mesh, dist):
        scale = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, mesh.nnodes)
        return DiscreteField(mesh, dist / dist.max() * scale, zero_trace=True)

    shape = Domain.polygon(L_SHAPE)
    mesh = ops.call(meshes.build_mesh, shape, 0.025)
    dist = ops.call(mesh.boundary_distance)
    origin = ops.call(domains.find_star_center, shape)
    path = os.path.join(workdir, "l_shape.mesh")
    ops.call(meshes.write_mesh, mesh, path)
    reread = ops.call(meshes.read_mesh, path)
    relations = [ops.call(modular.verify_modular_relations, noise(mesh), p)
                 for _ in range(5)]
    holder = [ops.call(modular.holder_check, noise(mesh), noise(mesh), p)
              for _ in range(5)]
    report = ops.call(pohozaev.pohozaev_terms, bump(mesh, dist), p, q, origin)
    log_holder = ops.call(exponents.log_holder_estimate, p, shape, pairs=500,
                          seed=seed)

    disk = ops.call(meshes.build_mesh, Domain.disk((0.0, 0.0), 1.0), 0.05)
    source = ops.call(solvers.power_source,
                      bump(disk, ops.call(disk.boundary_distance)), q)
    mollified = [ops.call(fem.mollify, source, solvers.mollifier_radius(eps, disk))
                 for eps in SolveConfig().eps_schedule()]
    return {"mesh": mesh, "reread": reread, "relations": relations,
            "holder": holder, "report": report, "log_holder": log_holder,
            "origin": origin, "source": source, "mollified": mollified}


WORKLOADS = {
    "interval_ground_state": interval_ground_state,
    "square_cascade": square_cascade,
    "fields_geometry": fields_geometry,
}


# -- output checks (untimed) -------------------------------------------------


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


def check_candidate(ops, out, ref):
    """Checks of both solver workloads: every epsilon level, the candidate
    energy and its Euler-Lagrange residual."""
    cand = out["cand"]
    ops.levels(out["runs"])
    ops.check("energy", _close(cand.energy, ref["energy"], ref["energy_rtol"]))
    ops.check("el_residual", cand.el_residual <= ref["el_residual_max"])


def check_ground_state(ops, out, ref):
    """check_candidate plus values read off the candidate field, so that a
    corrupted field fails them, and the cascade's end state."""
    check_candidate(ops, out, ref)
    u = out["cand"].field
    ops.check("max_abs_u", _close(float(np.max(np.abs(u.values))),
                                  ref["max_abs_u"], ref["max_abs_u_rtol"]))
    gap = abs(modular.gradient_modular(u, out["p"]).value
              - modular.modular(u, out["q"]).value)
    ops.check("identity_gap", gap <= ref["identity_gap_max"])
    final = out["runs"][-1].diagnostics
    ops.check("cascade_gaps",
              max(final["gap_grad_modular"], final["gap_q_modular"])
              <= ref["cascade_gap_max"])
    ops.check("remainder_finite", math.isfinite(out["remainder"]))


def check_fields(ops, out, ref):
    mesh, reread = out["mesh"], out["reread"]
    ops.check("mesh_round_trip", np.array_equal(mesh.nodes, reread.nodes)
              and np.array_equal(mesh.cells, reread.cells))
    for rel in out["relations"]:
        ops.check("modular_relations", rel.passed)
    for hold in out["holder"]:
        ops.check("holder", hold.passed)
    check_mollified(ops, out["source"], out["mollified"])


# mollify averages with weights normalised per node, (w . f) / sum(w).  At
# radii below the mesh size a node averages only itself, and w * f / w can
# round one ulp above f: at seeds 204 and 206 the sup norm grew by a relative
# 1.8e-16.  The check allows that rounding and nothing more.
SUP_NORM_RTOL = 4 * np.finfo(float).eps


def check_mollified(ops, source, mollified):
    sup = float(np.max(np.abs(source.values)))
    for field in mollified:
        bnodes = field.mesh.boundary_nodes
        ops.check("mollify_zero_trace", np.all(field.values[bnodes] == 0.0))
        ops.check("mollify_sup_norm", float(np.max(np.abs(field.values)))
                  <= sup * (1.0 + SUP_NORM_RTOL))


CHECKS = {
    "interval_ground_state": check_ground_state,
    "square_cascade": check_candidate,
    "fields_geometry": check_fields,
}


# -- what a run reports ------------------------------------------------------


def level_stats(runs):
    """Newton work of the cascade's epsilon levels."""
    levels = [lv for res in runs for lv in res.diagnostics["eps_runs"]]
    iters = [lv.iterations for lv in levels]
    useful = sum(lv.iterations for lv in levels if lv.converged)
    return {
        "solvers.newton_iterations": sum(iters),
        "solvers.max_level_iterations": max(iters, default=0),
        "solvers.unconverged_levels": sum(not lv.converged for lv in levels),
        "solvers.useful_iter_frac": useful / sum(iters) if sum(iters) else 0.0,
    }


def fingerprint(workload, out):
    """Exact energies and counts; equal across reps of one seed, traced or
    not."""
    if workload == "fields_geometry":
        return {
            "nodes": out["mesh"].nnodes,
            "cells": out["mesh"].ncells,
            "origin": out["origin"].tolist(),
            "norms": [rel.norm for rel in out["relations"]],
            "holder_slack": [hold.slack for hold in out["holder"]],
            "balance_total": out["report"].total,
            "log_holder": out["log_holder"].c_hat,
            "mollified_sum": [float(f.values.sum()) for f in out["mollified"]],
        }
    cand = out["cand"]
    levels = [lv for res in out["runs"] for lv in res.diagnostics["eps_runs"]]
    return {
        "energy": cand.energy,
        "descent_iterations": cand.diagnostics["descent_iterations"],
        "newton_iterations": cand.diagnostics["newton_iterations"],
        "level_iterations": [lv.iterations for lv in levels],
        "level_energies": [lv.energy for lv in levels],
        "balance_total": out["report"].total,
        "remainder": out["remainder"],
    }


def layer_stats(workload, out, tracer):
    stats = tracer.layer_metrics()
    if workload != "fields_geometry":
        diag = out["cand"].diagnostics
        stats["solvers.nehari.descent_iterations"] = diag["descent_iterations"]
        stats["solvers.nehari.newton_iterations"] = diag["newton_iterations"]
        stats.update(level_stats(out["runs"]))
    return stats


def run(workload, seed, trace):
    ops = Ops()
    tracer = Tracer() if trace else contextlib.nullcontext()
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        with tracer:
            steal0 = steal_s()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                out = WORKLOADS[workload](ops, seed, workdir)
            except Aborted:
                out = None
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            steal = steal_s() - steal0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "import_done": IMPORT_DONE,
        "import_steal": IMPORT_STEAL,
        "wall_s": wall,
        "cpu_s": cpu,
        "steal_s": steal,
        "peak_rss_mb": peak_rss_mb,
        "traced": bool(trace),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if out is not None:
        CHECKS[workload](ops, out, load_reference().get(workload, {}))
        result["fingerprint"] = fingerprint(workload, out)
        if trace:
            result["layers"] = layer_stats(workload, out, tracer)
    result.update(attempted=ops.attempted, failed=ops.failed,
                  checks=ops.checks, errors=ops.errors,
                  correct=out is not None and ops.all_checks_passed)
    return result


if __name__ == "__main__":
    name, seed_arg, trace_arg = sys.argv[1:4]
    print(json.dumps(run(name, int(seed_arg), trace_arg == "1")))
