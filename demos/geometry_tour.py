# Star-shape diagnostics and mesh bookkeeping on a few planar domains.

import os
import tempfile

import numpy as np

import vexlab as vx

L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
C_SHAPE = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)]

disk = vx.Domain.disk((0.0, 0.0), 1.0)
rep = vx.star_shape_report(disk, np.zeros(2))
print(f"disk about its center: star = {rep.is_star}, "
      f"min (x - o) . nu = {rep.min_xdotnu:.6f}")

# The L-shape is star-shaped, but only about points that see both arms.
ell = vx.Domain.polygon(L_SHAPE)
for o in ([0.5, 0.5], [1.5, 0.5]):
    rep = vx.star_shape_report(ell, o)
    print(f"L-shape about {o}: star = {rep.is_star}, "
          f"min (x - o) . nu = {rep.min_xdotnu:+.4f}")

best = vx.find_star_center(ell)
rep = vx.star_shape_report(ell, best)
print(f"best origin found: ({best[0]:.4f}, {best[1]:.4f}), "
      f"margin {rep.min_xdotnu:.4f}")

# The C-shape has no admissible origin at all.
try:
    vx.find_star_center(vx.Domain.polygon(C_SHAPE))
except vx.NotStarShaped as exc:
    print(f"C-shape: {exc}")

# Mesh the L-shape and check the discrete divergence theorem: the integral
# of div(x, y) = 2 over the area must match the flux of (x, y) through the
# boundary facets.
mesh = vx.build_mesh(ell, 0.1)
area = float(mesh.cell_volumes.sum())
flux = vx.boundary_integral(mesh, lambda x, nu: np.sum(x * nu, axis=1))
print(f"L-shape mesh: {mesh.ncells} cells, area {area:.8f} (exact 3)")
print(f"divergence check: boundary flux {flux:.8f} vs 2 * area {2 * area:.8f}")

_, _, defect = mesh.divergence_check()
print(f"divergence-theorem relative defect {defect:.2e}")

# Meshes round-trip through a plain text format.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "lshape_mesh.txt")
    vx.write_mesh(mesh, path)
    back = vx.read_mesh(path)
print(f"round trip: {back.nnodes} nodes, {back.ncells} cells, "
      f"nodes identical = {np.array_equal(back.nodes, mesh.nodes)}")
