"""Per-layer spans recorded from outside vexlab.

A Tracer replaces module attributes (the names one vexlab module calls in
another, or that the benchmark calls) with timing wrappers, and restores
them on exit.  Each wrapped call adds to its layer's total time, self time
(total minus the time of wrapped calls made inside it) and call count.
Spans live in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from importlib import import_module
from time import perf_counter

from vexlab import domains, exponents, fem, meshes, pohozaev, solvers

# The package re-exports the function `modular`, which hides the submodule
# of the same name as an attribute of `vexlab`.
modular = import_module("vexlab.modular")


def _note_mesh(tracer, args, mesh):
    tracer.counts["meshes.nodes"] += mesh.nnodes
    tracer.counts["meshes.cells"] += mesh.ncells


def _note_mesh_file(tracer, args, result):
    tracer.counts["meshes.file_bytes"] += os.path.getsize(args[1])


def _note_mollify(tracer, args, result):
    tracer.mollify_calls.append((args[0].mesh, float(args[1])))


# (layer name, [(owner, attribute), ...], optional note taken after each call).
# Every owner of one layer gets the same wrapper, so a call counts once
# whichever module it is reached through.
WRAPPED = [
    ("domains.find_star_center", [(domains, "find_star_center")], None),
    ("exponents.log_holder_estimate", [(exponents, "log_holder_estimate")], None),
    ("meshes.build_mesh", [(meshes, "build_mesh")], _note_mesh),
    ("meshes.boundary_distance", [(meshes.Mesh, "boundary_distance")], None),
    ("meshes.write_mesh", [(meshes, "write_mesh")], _note_mesh_file),
    ("meshes.read_mesh", [(meshes, "read_mesh")], None),
    ("modular.verify_modular_relations",
     [(modular, "verify_modular_relations")], None),
    ("modular.holder_check", [(modular, "holder_check")], None),
    ("modular.gradient_luxemburg_norm",
     [(modular, "gradient_luxemburg_norm"), (solvers, "gradient_luxemburg_norm")],
     None),
    ("fem.mollify", [(fem, "mollify"), (solvers, "mollify")], _note_mollify),
    ("solvers.power_source", [(solvers, "power_source")], None),
    ("solvers.nehari_candidate", [(solvers, "nehari_candidate")], None),
    ("solvers.cascade", [(solvers, "cascade")], None),
    ("solvers.solve_regularized", [(solvers, "solve_regularized")], None),
    ("solvers.spsolve", [(solvers, "spsolve")], None),
    ("pohozaev.pohozaev_terms", [(pohozaev, "pohozaev_terms")], None),
    ("pohozaev.remainder_R", [(pohozaev, "remainder_R")], None),
    ("pohozaev.boundary_term", [(pohozaev, "boundary_term")], None),
]


class Tracer:
    """Context manager that wraps every layer in WRAPPED while active."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.mollify_calls = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = self._stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - children
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += dt
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def __enter__(self):
        for name, targets, note in WRAPPED:
            wrapper = self._wrap(name, getattr(*targets[0]), note)
            for owner, attr in targets:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def mollify_pairs(self):
        """Kernel pairs (i, j) with |x_i - x_j| <= radius summed over the
        mollify calls seen, i.e. the work of mollify's inner loop.  Computed
        after the traced work, outside every span."""
        from scipy.spatial import cKDTree

        trees = {}
        total = 0
        for mesh, radius in self.mollify_calls:
            tree = trees.setdefault(id(mesh), cKDTree(mesh.nodes))
            total += int(tree.count_neighbors(tree, radius))
        return total

    def layer_metrics(self):
        """Seconds, self seconds and call counts keyed by metric name."""
        out = {}
        for name, _, _ in WRAPPED:
            out[name + ".s"] = self.total[name]
            out[name + ".self_s"] = self.self_time[name]
            out[name + ".calls"] = self.calls[name]
        out.update(self.counts)
        out["fem.mollify.pairs"] = self.mollify_pairs()
        return out
