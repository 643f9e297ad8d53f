"""Tests of the benchmark itself.

Run with: PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import re

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer
from vexlab import (ConstantExponent, DiscreteField, Domain, build_mesh, mollify,
                    power_source, solvers)
from vexlab.solvers import SolveResult

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_match_the_manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in manifest["end_to_end"] + manifest["per_layer"]}
    emitted = {**run.END_TO_END, **run.PER_LAYER}
    assert declared == emitted
    for name in list(emitted) + ["failed_frac"] + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def ground_state():
    ops = workloads.Ops()
    out = workloads.interval_ground_state(ops, seed=0, workdir=None)
    return out, workloads.load_reference()["interval_ground_state"]


def test_interval_outputs_pass_their_reference_checks(ground_state):
    out, ref = ground_state
    ops = workloads.Ops()
    workloads.check_ground_state(ops, out, ref)
    assert ops.all_checks_passed and ops.failed == 0
    assert set(ops.checks) == {"energy", "max_abs_u", "el_residual",
                               "identity_gap", "cascade_gaps",
                               "remainder_finite"}


def test_corrupted_candidate_fails_its_reference_check(ground_state):
    out, ref = ground_state
    field = out["cand"].field
    saved = field.values.copy()
    field.values *= 1.0 + 1e-6
    try:
        ops = workloads.Ops()
        workloads.check_ground_state(ops, out, ref)
    finally:
        field.values[:] = saved
    assert not ops.checks["max_abs_u"]
    assert not ops.checks["identity_gap"]
    assert not ops.all_checks_passed and ops.failed >= 2


def test_corrupted_mollified_field_fails_its_check():
    mesh = build_mesh(Domain.disk((0.0, 0.0), 1.0), 0.2)
    bump = DiscreteField(mesh, mesh.boundary_distance(), zero_trace=True)
    source = power_source(bump, ConstantExponent(3.0))
    smooth = mollify(source, 0.3)

    ops = workloads.Ops()
    workloads.check_mollified(ops, source, [smooth])
    assert ops.all_checks_passed

    on_boundary = smooth.copy()
    on_boundary.values[mesh.boundary_nodes[0]] = 1e-12
    too_large = smooth.copy()
    too_large.values[mesh.interior_nodes[0]] = (1.0 + 1e-12) * np.abs(
        source.values).max()
    ops = workloads.Ops()
    workloads.check_mollified(ops, source, [on_boundary, too_large])
    assert not ops.checks["mollify_zero_trace"]
    assert not ops.checks["mollify_sup_norm"]
    assert ops.failed == 2


def test_unconverged_level_raises_failed_frac():
    def level(converged):
        return SolveResult(field=None, energy=0.0, el_residual=1.0,
                           iterations=500, converged=converged)

    final = level(True)
    final.diagnostics["eps_runs"] = [level(True), level(False), final]
    ops = workloads.Ops()
    ops.levels([final])
    assert (ops.attempted, ops.failed) == (3, 1)
    stats = workloads.level_stats([final])
    assert stats["solvers.unconverged_levels"] == 1
    assert stats["solvers.max_level_iterations"] == 500

    rep = {"traced": False, "attempted": ops.attempted, "failed": ops.failed,
           "correct": True, "fingerprint": {}, "peak_rss_mb": 1.0,
           "calibration_s": [0.1], "wall_s": 1.0, "cpu_s": 1.0, "setup_s": 1.0,
           "steal_s": 0.0, "setup_steal_s": 0.0}
    _, _, failed, rows = run.summarize([rep], trace=False)
    values = {row[0]: row[1] for row in rows}
    assert failed == 1
    assert values["failed_frac"] == pytest.approx(1 / 3)
    assert values["ok_frac"] == pytest.approx(2 / 3)


def test_tracer_counts_nested_calls_and_restores_the_library():
    mesh = build_mesh(Domain.interval(0.0, 1.0), 0.1)
    load = DiscreteField(mesh, np.ones(mesh.nnodes))
    p = q = ConstantExponent(2.0)
    original = solvers.solve_regularized
    with Tracer() as tracer:
        traced = solvers.solve_regularized(load, p, q)
    assert solvers.solve_regularized is original
    plain = solvers.solve_regularized(load, p, q)
    assert traced.energy == plain.energy

    layers = tracer.layer_metrics()
    assert layers["solvers.solve_regularized.calls"] == 1
    assert layers["solvers.spsolve.calls"] == plain.iterations
    assert layers["solvers.solve_regularized.self_s"] == pytest.approx(
        layers["solvers.solve_regularized.s"] - layers["solvers.spsolve.s"])
