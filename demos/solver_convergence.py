# Manufactured-solution order study for the regularized solver.
#
# With p = q = 2 the problem is linear and u(x) = sin(pi x) solves it for
# the source v = (1 + pi^2) sin(pi x), so the discrete error should drop
# by a factor of four per mesh halving.

import numpy as np

import vexlab as vx

p = vx.ConstantExponent(2.0)
hs = [0.04, 0.02, 0.01, 0.005]
errs = []

for h in hs:
    mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), h)
    v = vx.DiscreteField.interpolate(
        mesh, lambda x: (1 + np.pi**2) * np.sin(np.pi * x[:, 0]))
    res = vx.solve_regularized(v, p, p, vx.SolveConfig(epsilon=1e-6))
    exact = vx.DiscreteField.interpolate(
        mesh, lambda x: np.sin(np.pi * x[:, 0]), zero_trace=True)
    err = vx.mesh_l2(res.field - exact)
    errs.append(err)
    print(f"h = {h:<6g} iters = {res.iterations:<3d} "
          f"residual = {res.el_residual:.2e}  error = {err:.4e}")

print()
for i in range(1, len(hs)):
    order = np.log2(errs[i - 1] / errs[i])
    print(f"observed order {hs[i - 1]} -> {hs[i]}: {order:.3f}")

# Same study, now genuinely nonlinear: p(x) = 2 + x with a fixed source.
# No closed-form solution, so compare against a fine-mesh reference.
p_var = vx.AffineExponent(2.0, [1.0])
ref_mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.00125)
v_ref = vx.DiscreteField.interpolate(
    ref_mesh, lambda x: 4.0 * np.sin(2 * np.pi * x[:, 0]))
ref = vx.solve_regularized(v_ref, p_var, p, vx.SolveConfig(epsilon=1e-5))

print()
prev = None
for h in hs:
    mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), h)
    v = vx.DiscreteField.interpolate(
        mesh, lambda x: 4.0 * np.sin(2 * np.pi * x[:, 0]))
    res = vx.solve_regularized(v, p_var, p, vx.SolveConfig(epsilon=1e-5))
    on_ref = vx.DiscreteField.interpolate(
        ref_mesh, lambda x: np.interp(x[:, 0], mesh.nodes[:, 0],
                                      res.field.values), zero_trace=True)
    err = vx.mesh_l2(on_ref - ref.field)
    tag = "" if prev is None else f"  ratio = {prev / err:.2f}"
    print(f"p = 2+x, h = {h:<6g} error vs reference = {err:.4e}{tag}")
    prev = err
