"""The benchmark's tracer still sees every layer it wraps.

perfbench/tracing.py wraps named module attributes.  A layer whose calls
move to another name reads 0 in every benchmark run without any error, so
this test runs one tiny flow through every wrapped layer and checks the
counts.
"""

import os
import sys
from importlib import import_module

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402
from vexlab import domains, exponents, fem, meshes, pohozaev, solvers  # noqa: E402

modular = import_module("vexlab.modular")  # `vexlab.modular` is a function


def test_tracer_reaches_every_layer(tmp_path):
    p, q = exponents.ConstantExponent(2.0), exponents.ConstantExponent(4.0)
    # 3 epsilon levels (1, 0.5, 0.25) at each of 2 truncation levels
    cfg = solvers.SolveConfig(n_schedule=(1, 2), eps_min=0.25)
    domain = domains.Domain.interval(0.0, 1.0)
    rng = np.random.default_rng(0)
    with tracing.Tracer() as tracer:
        mesh = meshes.build_mesh(domain, 0.05)
        origin = domains.find_star_center(domain)
        cand = solvers.nehari_candidate(p, q, mesh, cfg)
        pohozaev.pohozaev_terms(cand.field, p, q, origin)
        runs = solvers.cascade(cand.field, p, q, cfg)
        pohozaev.remainder_R(runs, p, mesh, origin)
        mesh.boundary_distance()
        path = str(tmp_path / "interval.mesh")
        meshes.write_mesh(mesh, path)
        meshes.read_mesh(path)

        def noise():
            return fem.DiscreteField(mesh, rng.standard_normal(mesh.nnodes))

        modular.verify_modular_relations(noise(), p)
        modular.holder_check(noise(), noise(), p)
        exponents.log_holder_estimate(p, domain, pairs=10)
    for name, _, _ in tracing.WRAPPED:
        assert tracer.calls[name] >= 1, name
    for name in ("pohozaev.boundary_term", "fem.mollify",
                 "solvers.solve_regularized"):
        assert tracer.calls[name] == 6, name

