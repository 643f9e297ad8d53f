"""Energies, the regularized operator, the solver ladder, and the
scaling-manifold candidate generator."""

import hashlib
from math import inf, nan

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad

import vexlab as vx
from vexlab.solvers import _nehari_scale


P2 = vx.ConstantExponent(2.0)


def sin_field(mesh, k=1):
    return vx.DiscreteField.interpolate(
        mesh, lambda x: np.sin(k * np.pi * x[:, 0]), zero_trace=True)


def random_interior(mesh, rng, scale=1.0):
    vals = scale * rng.standard_normal(mesh.nnodes)
    return vx.DiscreteField(mesh, vals, zero_trace=True)


# -- configuration ---------------------------------------------------------


def test_config_from_dict_round_trip():
    cfg = vx.SolveConfig.from_dict({
        "epsilon0": 1.0, "eps_factor": 0.5, "eps_min": 1e-6,
        "grad_tol": 1e-8, "max_iters": 20000, "n_schedule": [1, 2, 4, 8],
        "seed": 42,
    })
    assert cfg.n_schedule == (1, 2, 4, 8)
    assert cfg.max_iters == 20000


def test_config_rejects_unknown_keys():
    with pytest.raises(vx.ConfigError):
        vx.SolveConfig.from_dict({"grad_toll": 1e-8})
    with pytest.raises(vx.ConfigError):
        vx.SolveConfig.from_dict({"eps_factor": 1.5})
    with pytest.raises(vx.ConfigError):
        vx.SolveConfig.from_dict({"method": "sorcery"})
    for knob in ("armijo_c1", "armijo_shrink"):  # line-search constants
        with pytest.raises(vx.ConfigError):
            vx.SolveConfig.from_dict({knob: 0.5})


@pytest.mark.parametrize("data", [
    {"epsilon0": inf}, {"eps_min": nan}, {"epsilon": -inf}, {"grad_tol": nan},
    {"n_schedule": []}, {"n_schedule": [1, 0]}, {"n_schedule": [1, 2.5]},
    {"n_schedule": [True]}, {"n_schedule": "12"},
    {"eps_factor": 1 - 1e-9}, {"seed": -1},
], ids=["epsilon0_infinity", "eps_min_nan", "epsilon_minus_infinity",
        "grad_tol_nan", "n_schedule_empty", "n_schedule_zero",
        "n_schedule_fraction", "n_schedule_bool", "n_schedule_string",
        "eps_factor_near_one", "seed_negative"])
def test_config_rejects_unrunnable_schedules(data):
    with pytest.raises(vx.ConfigError):
        vx.SolveConfig.from_dict(data)


def test_eps_schedule_level_cap():
    cap = vx.solvers._MAX_EPS_LEVELS
    at_cap = vx.SolveConfig.from_dict(
        {"epsilon0": 1.0, "eps_factor": 0.5, "eps_min": 0.5 ** (cap - 1)})
    assert len(at_cap.eps_schedule()) == cap
    with pytest.raises(vx.ConfigError):
        vx.SolveConfig.from_dict(
            {"epsilon0": 1.0, "eps_factor": 0.5, "eps_min": 0.5 ** cap})
    with pytest.raises(vx.ConfigError):  # built in code, not from a dict
        vx.SolveConfig(epsilon0=inf).eps_schedule()


def test_eps_schedule_terminates_at_floor():
    cfg = vx.SolveConfig(epsilon0=1.0, eps_factor=0.5, eps_min=0.25)
    assert cfg.eps_schedule() == [1.0, 0.5, 0.25]
    cfg = vx.SolveConfig(epsilon0=1.0, eps_factor=0.5, eps_min=0.3)
    assert cfg.eps_schedule() == [1.0, 0.5, 0.3]


# -- energies --------------------------------------------------------------


def test_regularized_energy_at_zero(interval_mesh):
    z = vx.DiscreteField.zeros(interval_mesh)
    v = vx.DiscreteField.zeros(interval_mesh)
    p = vx.AffineExponent(2.0, [1.0])
    q = P2
    eps = 0.3
    got = vx.regularized_energy(z, v, p, q, eps)
    oracle = quad(lambda x: eps ** ((2 + x) / 2) / (2 + x), 0.0, 1.0)[0]
    assert got == pytest.approx(oracle, rel=1e-8)
    # constant exponent closed form
    got2 = vx.regularized_energy(z, v, P2, q, eps)
    assert got2 == pytest.approx(eps / 2.0, abs=1e-14)


def test_phi_energy_p2_closed_form(interval_mesh, rng):
    z = random_interior(interval_mesh, rng)
    eps = 0.07
    got = vx.phi_energy(z, P2, eps)
    expected = 0.5 * vx.gradient_modular(z, P2).value + eps / 2.0
    assert got == pytest.approx(expected, rel=1e-13)


def test_energy_monotone_in_eps(interval_mesh, rng):
    z = random_interior(interval_mesh, rng)
    v = random_interior(interval_mesh, rng)
    p = vx.AffineExponent(2.0, [0.5])
    vals = [vx.regularized_energy(z, v, p, P2, e) for e in (1e-4, 1e-2, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_source_energy_examples(interval_mesh, rng):
    p = vx.AffineExponent(2.0, [1.0])
    q4 = vx.ConstantExponent(4.0)
    zero = vx.DiscreteField.zeros(interval_mesh)
    src = random_interior(interval_mesh, rng)
    assert vx.source_energy(zero, src, p, q4) == 0.0

    z = sin_field(interval_mesh)
    got = vx.source_energy(z, z, P2, P2)
    expected = (0.5 * vx.gradient_modular(z, P2).value
                - 1.5 * vx.modular(z, P2).value)
    assert got == pytest.approx(expected, rel=1e-12)


def test_energy_midpoint_convexity(interval_mesh, rng):
    p = vx.AffineExponent(2.0, [0.75])
    q = vx.AffineExponent(2.0, [0.25])
    v = random_interior(interval_mesh, rng)
    for eps in (1e-6, 0.1):
        for _ in range(10):
            z1 = random_interior(interval_mesh, rng, scale=2.0)
            z2 = random_interior(interval_mesh, rng, scale=2.0)
            mid = 0.5 * (z1 + z2)
            f_mid = vx.regularized_energy(mid, v, p, q, eps)
            f_avg = 0.5 * (vx.regularized_energy(z1, v, p, q, eps)
                           + vx.regularized_energy(z2, v, p, q, eps))
            assert f_mid <= f_avg + 1e-10 * (1 + abs(f_avg))


# -- the regularized operator ----------------------------------------------


def test_operator_action_zero_field(interval_mesh):
    z = vx.DiscreteField.zeros(interval_mesh)
    out = vx.operator_action(z, vx.AffineExponent(2.0, [1.0]), 0.5)
    assert np.all(out.values == 0.0)


def test_operator_action_affine_interior_free(interval_mesh):
    z = vx.DiscreteField.interpolate(interval_mesh, lambda x: 0.7 * x[:, 0])
    out = vx.operator_action(z, vx.ConstantExponent(2.5), 1e-3)
    assert np.max(np.abs(out.values[interval_mesh.interior_nodes])) <= 1e-12
    assert np.all(out.values[interval_mesh.boundary_nodes] == 0.0)


def test_operator_action_p2_is_stiffness(square_mesh, rng):
    z = random_interior(square_mesh, rng)
    a = vx.operator_action(z, P2, 1e-6).values
    b = vx.operator_action(z, P2, 10.0).values
    assert np.max(np.abs(a - b)) <= 1e-12  # eps drops out at p = 2

    # independent stiffness assembly
    mesh = square_mesh
    elem = np.einsum("c,cvd,cwd->cvw", mesh.cell_volumes,
                     mesh.basis_grads, mesh.basis_grads)
    nv = mesh.cells.shape[1]
    rows = np.repeat(mesh.cells, nv, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, nv)).ravel()
    K = sparse.coo_matrix((elem.ravel(), (rows, cols)),
                          shape=(mesh.nnodes, mesh.nnodes)).tocsr()
    kz = K @ z.values
    free = mesh.interior_nodes
    assert np.max(np.abs(a[free] - kz[free])) <= 1e-12


def test_operator_action_is_phi_derivative(interval_mesh, square_mesh, rng):
    p1 = vx.AffineExponent(2.0, [1.0])
    p2 = vx.RadialExponent(2.0, 0.5, [0.5, 0.5])
    h = 1e-6
    for mesh, p in ((interval_mesh, p1), (square_mesh, p2)):
        for _ in range(10):
            z = random_interior(mesh, rng)
            d = random_interior(mesh, rng)
            eps = 10.0 ** rng.uniform(-4, 0)
            pairing = float(vx.operator_action(z, p, eps).values @ d.values)
            fd = (vx.phi_energy(z + h * d, p, eps)
                  - vx.phi_energy(z - h * d, p, eps)) / (2 * h)
            assert pairing == pytest.approx(fd, rel=1e-5, abs=1e-10)


# -- solve_regularized -----------------------------------------------------


def test_solve_zero_load(interval_mesh):
    v = vx.DiscreteField.zeros(interval_mesh)
    p = vx.AffineExponent(2.0, [1.0])
    res = vx.solve_regularized(v, p, P2, epsilon=0.2)
    assert res.converged
    assert np.all(res.field.values == 0.0)
    oracle = quad(lambda x: 0.2 ** ((2 + x) / 2) / (2 + x), 0.0, 1.0)[0]
    assert res.energy == pytest.approx(oracle, rel=1e-8)


def test_solve_linear_problem_manufactured(fine_interval_mesh):
    mesh = fine_interval_mesh
    v = vx.DiscreteField.interpolate(
        mesh, lambda x: (1 + np.pi**2) * np.sin(np.pi * x[:, 0]))
    res = vx.solve_regularized(v, P2, P2, epsilon=1e-6)
    assert res.converged and res.el_residual <= 1e-8
    exact = sin_field(mesh)
    assert vx.mesh_l2(res.field - exact) <= 2e-3


def test_solve_energy_history_monotone(fine_interval_mesh, rng):
    mesh = fine_interval_mesh
    v = random_interior(mesh, rng, scale=5.0)
    p = vx.AffineExponent(2.0, [1.0])
    res = vx.solve_regularized(v, p, vx.AffineExponent(2.0, [0.5]),
                               epsilon=1e-3)
    hist = np.asarray(res.diagnostics["energy_history"])
    assert res.converged
    assert np.all(np.diff(hist) <= 1e-12 * (1 + np.abs(hist[:-1])))


def test_solve_init_independence(fine_interval_mesh):
    mesh = fine_interval_mesh
    v = vx.DiscreteField.interpolate(
        mesh, lambda x: 4.0 * np.sin(2 * np.pi * x[:, 0]), zero_trace=True)
    p = vx.AffineExponent(2.0, [1.0])
    q = vx.AffineExponent(2.0, [0.5])
    a = vx.solve_regularized(v, p, q, epsilon=1e-4)
    warm = vx.DiscreteField.interpolate(
        mesh, lambda x: np.sin(np.pi * x[:, 0]), zero_trace=True)
    b = vx.solve_regularized(v, p, q, epsilon=1e-4, z0=warm)
    assert a.converged and b.converged
    assert vx.mesh_l2(a.field - b.field) <= 1e-7


def test_solve_rejects_bad_epsilon(interval_mesh):
    v = vx.DiscreteField.zeros(interval_mesh)
    with pytest.raises(vx.ConfigError):
        vx.solve_regularized(v, P2, P2, epsilon=0.0)


def test_solve_reports_non_convergence(fine_interval_mesh, rng):
    v = random_interior(fine_interval_mesh, rng, scale=5.0)
    cfg = vx.SolveConfig(max_iters=1, grad_tol=1e-16)
    res = vx.solve_regularized(v, P2, P2, cfg=cfg, epsilon=1e-3)
    assert not res.converged
    assert res.el_residual > cfg.grad_tol
    assert res.diagnostics["stop"] == "max_iters"


def test_solve_stalls_below_roundoff(unit_square):
    # No residual reaches 1e-300: once Newton has reached the roundoff floor,
    # neither the energy nor the residual norm can see a decrease, and the
    # solve must say so instead of spending all max_iters.
    mesh = vx.build_mesh(unit_square, 0.1)
    v = vx.DiscreteField(mesh, np.full(mesh.nnodes, 10.0), zero_trace=True)
    cfg = vx.SolveConfig(epsilon=1e-3, grad_tol=1e-300)
    res = vx.solve_regularized(v, vx.AffineExponent(1.5, [0.2, 0.0]),
                               vx.ConstantExponent(3.0), cfg)
    assert res.diagnostics["stop"] == "stalled"
    assert not res.converged
    assert res.iterations <= 20 < cfg.max_iters
    assert res.el_residual <= 1e-12


# -- the truncated ladder --------------------------------------------------


def test_solve_truncated_linear_limit(fine_interval_mesh):
    mesh = fine_interval_mesh
    u = sin_field(mesh)
    cfg = vx.SolveConfig(epsilon0=1.0, eps_factor=0.25, eps_min=1e-6)
    res = vx.solve_truncated(u, P2, P2, n=2, cfg=cfg)
    assert res.converged
    assert not res.diagnostics["truncation_active"]
    exact = vx.DiscreteField.interpolate(
        mesh, lambda x: 2.0 * np.sin(np.pi * x[:, 0]) / (1 + np.pi**2),
        zero_trace=True)
    assert vx.mesh_l2(res.field - exact) <= 2e-3

    series = res.diagnostics["series"]
    phi = np.asarray(series["phi_modular"])
    assert np.all(np.diff(phi) <= 1e-9 * (1 + np.abs(phi[:-1])))
    assert phi[-1] == pytest.approx(series["grad_modular"][-1], rel=1e-4)
    deltas = series["l2_delta"]
    assert np.isnan(deltas[0]) and deltas[-1] < deltas[1]


def test_solve_truncated_flags_active_truncation(interval_mesh):
    u = 3.0 * sin_field(interval_mesh)
    cfg = vx.SolveConfig(epsilon0=0.5, eps_factor=0.5, eps_min=0.125)
    res = vx.solve_truncated(u, P2, P2, n=1, cfg=cfg)
    assert res.diagnostics["truncation_active"]
    assert res.diagnostics["n"] == 1


def test_cascade_levels_converge_without_stalling(fine_interval_mesh):
    # At eps = 1 the residual is still ~1e-7 when the Newton slope falls
    # below the energy's roundoff: a line search on the energy alone stalls
    # there until max_iters.
    mesh = fine_interval_mesh
    u = vx.DiscreteField.interpolate(
        mesh, lambda x: 3.5 * np.sin(np.pi * x[:, 0]) * (1 + 0.3 * x[:, 0]),
        zero_trace=True)
    cfg = vx.SolveConfig(epsilon0=1.0, eps_factor=0.5, eps_min=0.25,
                         n_schedule=(8,))
    runs = vx.cascade(u, vx.ConstantExponent(3.0), vx.ConstantExponent(4.0), cfg)
    levels = runs[0].diagnostics["eps_runs"]
    assert len(levels) == 3
    for level in levels:
        assert level.converged and level.diagnostics["stop"] == "converged"
        assert level.iterations <= 15


def test_cascade_zero_candidate(interval_mesh):
    u = vx.DiscreteField.zeros(interval_mesh)
    cfg = vx.SolveConfig(epsilon0=0.5, eps_factor=0.5, eps_min=0.25,
                         n_schedule=(1, 2))
    runs = vx.cascade(u, P2, P2, cfg=cfg)
    assert len(runs) == 2
    for res in runs:
        assert res.diagnostics["gap_grad_modular"] == pytest.approx(0.0,
                                                                    abs=1e-14)
        assert res.diagnostics["gap_q_modular"] == pytest.approx(0.0,
                                                                 abs=1e-14)


# -- candidate generation --------------------------------------------------


def test_nehari_candidate_ground_state(fine_interval_mesh):
    q4 = vx.ConstantExponent(4.0)
    res = vx.nehari_candidate(P2, q4, fine_interval_mesh)
    assert res.converged
    assert res.el_residual <= 1e-8
    assert res.diagnostics["identity_gap"] <= 1e-6
    peak = np.max(np.abs(res.field.values))
    assert 3.5 <= peak <= 3.9
    hist = np.asarray(res.diagnostics["energy_history"])
    assert np.all(np.diff(hist) <= 1e-12 * (1 + np.abs(hist[:-1])))


def test_nehari_seed_invariance(interval_mesh):
    q4 = vx.ConstantExponent(4.0)
    energies = []
    for seed in range(5):
        cfg = vx.SolveConfig(seed=seed)
        res = vx.nehari_candidate(P2, q4, interval_mesh, cfg=cfg)
        energies.append(res.energy)
    spread = max(energies) - min(energies)
    assert spread <= 1e-4 * (1 + abs(np.mean(energies)))


def test_nehari_rejects_subcritical_pairing(interval_mesh):
    with pytest.raises(vx.NoScalingRoot):
        vx.nehari_candidate(P2, P2, interval_mesh)
    with pytest.raises(vx.NoScalingRoot):
        vx.nehari_candidate(vx.AffineExponent(2.0, [1.0]),
                            vx.AffineExponent(2.5, [1.0]), interval_mesh)


def test_nehari_collapse_guard(interval_mesh):
    q4 = vx.ConstantExponent(4.0)
    cfg = vx.SolveConfig(collapse_tol=1e3)
    with pytest.raises(vx.CollapseToZero):
        vx.nehari_candidate(P2, q4, interval_mesh, cfg=cfg)


def scale_samples(mesh, p, q, z):
    """|grad z|, |z| at the quadrature points, log w, p and q there."""
    _, w, bary = mesh.quadrature()
    gmag = np.linalg.norm(vx.gradient(vx.DiscreteField(mesh, z)),
                          axis=1)[:, None]
    zq = np.einsum("qv,cv->cq", bary, z[mesh.cells])
    return (gmag, np.abs(zq), np.log(w), p.eval_on_quadrature(mesh),
            q.eval_on_quadrature(mesh))


def nehari_bisection(gmag, zq_abs, logw, pq, qq):
    """Bisection on sum w t^p |grad u|^p = sum w t^q |u|^q to relative
    width 1e-14: the oracle for the log-domain root."""
    w = np.exp(logw)

    def balance(t):
        return float(np.sum(w * gmag**pq * t**pq) - np.sum(w * zq_abs**qq * t**qq))

    lo = hi = 1.0
    while balance(hi) > 0.0:
        hi *= 2.0
    while balance(lo) < 0.0:
        lo *= 0.5
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if balance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_nehari_scale_constant_closed_form(square_mesh, rng):
    for pv, qv in ((2.0, 4.0), (1.5, 3.0)):
        p, q = vx.ConstantExponent(pv), vx.ConstantExponent(qv)
        for _ in range(5):
            z = 10.0 ** rng.uniform(-3, 3) * rng.uniform(0, 1, square_mesh.nnodes)
            gmag, zq_abs, logw, pq, qq = scale_samples(square_mesh, p, q, z)
            w = np.exp(logw)
            ratio = np.sum(w * gmag**pv) / np.sum(w * zq_abs**qv)
            assert _nehari_scale(gmag, zq_abs, logw, pq, qq) == pytest.approx(
                ratio ** (1.0 / (qv - pv)), rel=1e-14)


def test_nehari_scale_matches_bisection(square_mesh, rng):
    p = vx.AffineExponent(1.5, [0.2, 0.0])
    for q in (vx.ConstantExponent(3.0), vx.RadialExponent(2.5, 1.0, [0.5, 0.5])):
        for _ in range(5):
            z = 10.0 ** rng.uniform(-2, 2) * rng.uniform(0, 1, square_mesh.nnodes)
            samples = scale_samples(square_mesh, p, q, z)
            assert _nehari_scale(*samples) == pytest.approx(
                nehari_bisection(*samples), rel=1e-13)


def test_nehari_scale_extreme(square_mesh, rng):
    # t(c u) = t(u) / c for p = 2, q = 4; t ~ 1e150 overflows t**q.
    z = rng.uniform(0, 1, square_mesh.nnodes)
    base = _nehari_scale(*scale_samples(square_mesh, P2, vx.ConstantExponent(4.0), z))
    for c in (1e-150, 1e150):
        samples = scale_samples(square_mesh, P2, vx.ConstantExponent(4.0), c * z)
        got = _nehari_scale(*samples)
        assert np.isfinite(got)
        assert got == pytest.approx(base / c, rel=1e-13)


def test_nehari_scale_rejects_bad_fields(square_mesh, rng):
    q4 = vx.ConstantExponent(4.0)
    z = rng.uniform(0, 1, square_mesh.nnodes)
    for bad in (np.nan, np.inf):
        zb = z.copy()
        zb[len(z) // 2] = bad
        with pytest.raises(vx.NoScalingRoot):
            _nehari_scale(*scale_samples(square_mesh, P2, q4, zb))
    with pytest.raises(vx.NoScalingRoot):
        _nehari_scale(*scale_samples(square_mesh, P2, q4, np.zeros_like(z)))


def test_nehari_variable_exponent_square(unit_square):
    res = vx.nehari_candidate(vx.AffineExponent(1.5, [0.2, 0.0]),
                              vx.ConstantExponent(3.0),
                              vx.build_mesh(unit_square, 0.1), vx.SolveConfig(seed=42))
    assert res.energy == pytest.approx(27.6965679553, rel=1e-9)
    assert res.diagnostics["stop"] == "converged"
    assert res.el_residual <= 1e-8


def test_nehari_descent_stop_reasons(interval, fine_interval_mesh):
    q4 = vx.ConstantExponent(4.0)
    capped = vx.nehari_candidate(P2, q4, fine_interval_mesh, vx.SolveConfig(seed=42))
    assert capped.diagnostics["descent_stop"] == "max_iters"
    assert capped.diagnostics["descent_iterations"] == 400
    coarse = vx.nehari_candidate(P2, q4, vx.build_mesh(interval, 0.05),
                                 vx.SolveConfig(seed=42))
    assert coarse.diagnostics["descent_stop"] == "tolerance"
    assert coarse.diagnostics["descent_iterations"] < 400


def sha256(values):
    data = np.ascontiguousarray(values, dtype=float).tobytes()
    return hashlib.sha256(data).hexdigest()


# Which epsilon levels of a cascade stall at max_iters turns on the last bits
# of the energy, gradient and Hessian, so a change that moves one bit of the
# solver path must fail here, not silently change the solver benchmarks.
SOLVER_DIGESTS = {
    "solve_values":
        "8c9ee8d1e5280bcd7316a0aafcda6212c709e61ef07f47473fb49c0df97cf706",
    "solve_energy_history":
        "69dd1f0a9ea0a02b498e80923f8f6ee6242dfd3b112aeb515365f5a95161064a",
    "nehari_energy_history":
        "e11da3c2dbac868a3a22516a4ecac75a2200d93b224c6dc7746d8a37e51d9c6e",
}


def test_solver_path_bytes_pinned(unit_square, interval):
    mesh = vx.build_mesh(unit_square, 0.1)
    v = vx.DiscreteField(mesh, np.full(mesh.nnodes, 10.0), zero_trace=True)
    res = vx.solve_regularized(v, vx.AffineExponent(1.5, [0.2, 0.0]),
                               vx.ConstantExponent(3.0), vx.SolveConfig(epsilon=1e-3))
    cand = vx.nehari_candidate(P2, vx.ConstantExponent(4.0),
                               vx.build_mesh(interval, 0.05), vx.SolveConfig(seed=42))
    assert res.iterations == 6
    assert {
        "solve_values": sha256(res.field.values),
        "solve_energy_history": sha256(res.diagnostics["energy_history"]),
        "nehari_energy_history": sha256(cand.diagnostics["energy_history"]),
    } == SOLVER_DIGESTS
