"""Energies, the regularized operator, the solver ladder, and the
scaling-manifold candidate generator."""

import dataclasses
import hashlib
import warnings
from math import inf, nan

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import spilu, splu, spsolve

import vexlab as vx
from vexlab import fem, solvers
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


@pytest.mark.parametrize("failure", ["raises", "nan"])
def test_newton_falls_back_to_steepest_descent(failure, interval, monkeypatch):
    # a sparse solve that raises or returns NaNs leaves the damped step on
    # -g, which still lowers the energy at every step
    mesh = vx.build_mesh(interval, 0.1)
    v = vx.DiscreteField(mesh, np.full(mesh.nnodes, 4.0))
    q = vx.ConstantExponent(3.0)
    plain = vx.solve_regularized(v, P2, q, vx.SolveConfig(epsilon=1e-3, max_iters=5))
    assert plain.diagnostics["newton_fallbacks"] == 0
    rhs = []

    def broken_spsolve(H, b, **options):
        rhs.append(b)
        if failure == "raises":
            raise RuntimeError("singular matrix")
        return np.full(len(b), np.nan)

    monkeypatch.setattr(solvers, "spsolve", broken_spsolve)
    first = vx.solve_regularized(v, P2, q, vx.SolveConfig(epsilon=1e-3, max_iters=1))
    step = first.field.values[mesh.interior_nodes]  # from z0 = 0
    s = float(step @ rhs[0] / (rhs[0] @ rhs[0]))
    assert s > 0 and np.array_equal(step, s * rhs[0])  # b = -g, s = 2^-k
    assert first.diagnostics["newton_fallbacks"] == 1

    rhs.clear()
    res = vx.solve_regularized(v, P2, q, vx.SolveConfig(epsilon=1e-3, max_iters=5))
    hist = np.asarray(res.diagnostics["energy_history"])
    assert len(rhs) == res.iterations == res.diagnostics["newton_fallbacks"] == 5
    assert res.diagnostics["stop"] == "max_iters"
    assert np.all(np.diff(hist) < 0)
    assert res.energy == pytest.approx(-0.5432, abs=1e-4)


def test_newton_lets_other_solver_errors_through(interval, monkeypatch):
    # only SuperLU's RuntimeError means "no Newton direction"; anything else
    # the solve raises is a fault and must not turn into a -g step
    mesh = vx.build_mesh(interval, 0.1)
    v = vx.DiscreteField(mesh, np.full(mesh.nnodes, 4.0))

    def broken_spsolve(H, b, **options):
        raise MemoryError("out of memory")

    monkeypatch.setattr(solvers, "spsolve", broken_spsolve)
    with pytest.raises(MemoryError):
        vx.solve_regularized(v, P2, vx.ConstantExponent(3.0),
                             vx.SolveConfig(epsilon=1e-3))


UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def half_clockwise_square():
    # every other cell given clockwise, so that Mesh._setup reorders it
    mesh = vx.build_mesh(vx.Domain.polygon(UNIT_SQUARE), 0.1)
    cells = mesh.cells.copy()
    cells[::2] = cells[::2, ::-1]
    return vx.Mesh(mesh.nodes, cells)


HESS_MESHES = {
    "interval-0.005": lambda: vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.005),
    "square-0.1": lambda: vx.build_mesh(vx.Domain.polygon(UNIT_SQUARE), 0.1),
    "disk-0.1": lambda: vx.build_mesh(vx.Domain.disk(), 0.1),
    "square-half-clockwise": half_clockwise_square,
    "one-interior-node": lambda: vx.Mesh(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]],
        [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]),
    "no-interior-node": lambda: vx.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                        [[0, 1, 2]]),
}


@pytest.mark.parametrize("q_sign", [1.0, -1.0])
@pytest.mark.parametrize("name", HESS_MESHES)
def test_hess_is_the_sliced_coo_assembly_bit_for_bit(name, q_sign, monkeypatch,
                                                     coo_assembly):
    # the cached free-node pattern must add each entry's cell terms in the
    # order COO -> CSR adds them: one ulp off moves pinned digests
    mesh = HESS_MESHES[name]()
    elems = []

    def spy(mesh, elem, free):
        elems.append(elem)
        return fem._assemble(mesh, elem, free)

    monkeypatch.setattr(solvers, "_assemble", spy)
    p = vx.AffineExponent(1.5, [0.2] + [0.0] * (mesh.dim - 1))
    prob = solvers._EnergyProblem(mesh, p, vx.ConstantExponent(3.0), 1e-3,
                                  q_sign=q_sign)
    free = mesh.interior_nodes
    z = np.zeros(mesh.nnodes)
    z[free] = np.random.default_rng(7).standard_normal(len(free))
    H, perm = prob.hess(z)  # the columns in SuperLU's order
    ref = coo_assembly(mesh, elems[0], free)[:, np.argsort(perm)]
    assert H.format == "csc" and H.dtype == float
    assert H.shape == (len(free), len(free))
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(H, attr), getattr(ref, attr))

    pattern = mesh._patterns[free.tobytes()]
    again, _ = prob.hess(z)
    assert list(mesh._patterns) == [free.tobytes()]
    assert mesh._patterns[free.tobytes()] is pattern
    assert np.array_equal(again.data, H.data)


def einsum_blocks(prob, z):
    """The Hessian's element blocks with G A G^T by einsum, the reference for
    hess's term-by-term product."""
    mesh = prob.mesh
    g, zq = fem.sample(mesh, z)
    g2 = np.sum(g * g, axis=1)
    s = np.maximum(g2[:, None] + prob.eps, solvers._TINY)
    a1 = np.sum(prob.w * s ** ((prob.pq - 2.0) / 2.0), axis=1)
    a2 = np.sum(prob.w * (prob.pq - 2.0) * s ** ((prob.pq - 4.0) / 2.0), axis=1)
    a2 = np.where(g2 > solvers._TINY, a2, 0.0)
    A = (a1[:, None, None] * np.eye(mesh.dim)
         + a2[:, None, None] * np.einsum("cd,ce->cde", g, g))
    G = mesh.basis_grads
    m = prob.w * prob.q_sign * (prob.qq - 1.0) * np.maximum(np.abs(zq), 1e-14) ** (
        prob.qq - 2.0)
    return np.einsum("cvd,cde,cwe->cvw", G, A, G) + fem._cell_mass(mesh, m)


@pytest.mark.parametrize("q_sign", [1.0, -1.0])
@pytest.mark.parametrize("name", HESS_MESHES)
def test_hess_element_blocks_are_the_einsum_bit_for_bit(name, q_sign, monkeypatch):
    mesh = HESS_MESHES[name]()
    elems = []

    def spy(mesh, elem, free):
        elems.append(elem)
        return fem._assemble(mesh, elem, free)

    monkeypatch.setattr(solvers, "_assemble", spy)
    p = vx.AffineExponent(1.5, [0.2] + [0.0] * (mesh.dim - 1))
    prob = solvers._EnergyProblem(mesh, p, vx.ConstantExponent(3.0), 1e-3,
                                  q_sign=q_sign)
    z = np.zeros(mesh.nnodes)
    z[mesh.interior_nodes] = np.random.default_rng(7).standard_normal(
        len(mesh.interior_nodes))
    prob.hess(z)
    assert np.array_equal(elems[0], einsum_blocks(prob, z))


# -- SuperLU's column order, found once per node set --------------------


def random_hessians(mesh, seeds):
    """(H, perm) of the p < 2, q = 3 Hessian at one random z per seed."""
    p = vx.AffineExponent(1.5, [0.2] + [0.0] * (mesh.dim - 1))
    prob = solvers._EnergyProblem(mesh, p, vx.ConstantExponent(3.0), 1e-3)
    for seed in seeds:
        z = np.zeros(mesh.nnodes)
        z[mesh.interior_nodes] = np.random.default_rng(seed).standard_normal(
            len(mesh.interior_nodes))
        yield prob.hess(z)


@pytest.mark.parametrize("name", HESS_MESHES)
def test_ordered_newton_solve_is_the_colamd_solve_bit_for_bit(name):
    # H[:, perm] is the natural matrix, which spsolve ordered by COLAMD itself
    mesh = HESS_MESHES[name]()
    for seed, (H, perm) in enumerate(random_hessians(mesh, range(3))):
        b = np.random.default_rng(100 + seed).standard_normal(H.shape[0])
        x = spsolve(H, b, permc_spec="NATURAL", use_umfpack=False)[perm]
        assert np.array_equal(x, spsolve(H[:, perm], b, use_umfpack=False))
        assert np.all(np.isfinite(x))


@pytest.mark.parametrize("name", HESS_MESHES)
def test_ordered_stiffness_factor_is_the_colamd_factor_bit_for_bit(name):
    mesh = HESS_MESHES[name]()
    free, elem = mesh.interior_nodes, fem._cell_stiffness(mesh)
    K, perm = fem._assemble(mesh, elem, free)
    r = np.random.default_rng(3).standard_normal(len(free))
    d = splu(K, permc_spec="NATURAL").solve(r)[perm]
    assert np.array_equal(d, splu(K[:, perm]).solve(r))
    assert np.array_equal(perm, splu(K[:, perm]).perm_c)  # the default order


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_singular_hessian_falls_back_as_the_colamd_solve_does(monkeypatch):
    # zero blocks on the cells around one interior node leave its row and
    # column empty; the ordered solve fails exactly where the natural one does
    mesh = HESS_MESHES["square-0.1"]()
    dead = np.any(mesh.cells == mesh.interior_nodes[20], axis=1)[:, None, None]
    natural, failed = [], []

    def spy(mesh, elem, free):
        M, perm = fem._assemble(mesh, np.where(dead, 0.0, elem), free)
        natural.append(M[:, perm])
        return M, perm

    def both(H, b, **options):
        x = spsolve(H, b, **options)
        failed.append(not np.all(np.isfinite(spsolve(natural[-1], b,
                                                     use_umfpack=False))))
        assert np.all(np.isfinite(x)) != failed[-1]
        return x

    monkeypatch.setattr(solvers, "_assemble", spy)
    monkeypatch.setattr(solvers, "spsolve", both)
    v = vx.DiscreteField(mesh, np.full(mesh.nnodes, 10.0), zero_trace=True)
    res = vx.solve_regularized(v, vx.AffineExponent(1.5, [0.2, 0.0]),
                               vx.ConstantExponent(3.0),
                               vx.SolveConfig(epsilon=1e-3, max_iters=5))
    assert res.diagnostics["newton_fallbacks"] == sum(failed) == len(failed) == 5


def test_column_order_is_built_once_per_node_set(monkeypatch):
    # one probe factor per node set; new values never reorder the pattern
    mesh = HESS_MESHES["square-0.1"]()
    free, every = mesh.interior_nodes, np.arange(mesh.nnodes)
    probes = []

    def counting_spilu(A, **options):
        probes.append(A.shape[0])
        return spilu(A, **options)

    monkeypatch.setattr(fem, "spilu", counting_spilu)
    perms = [perm for _, perm in random_hessians(mesh, range(4))]
    assert probes == [len(free)] and all(perm is perms[0] for perm in perms)
    rng = np.random.default_rng(5)
    for _ in range(2):
        vx.l2_project(mesh, rng.standard_normal(mesh.quadrature()[1].shape))
    vx.mass_matrix(mesh), fem.stiffness_matrix(mesh)
    assert probes == [len(free), mesh.nnodes]
    assert list(mesh._patterns) == [free.tobytes(), every.tobytes()]
    vx.nehari_candidate(vx.AffineExponent(1.5, [0.2, 0.0]),
                        vx.ConstantExponent(3.0), mesh)
    assert probes == [len(free), mesh.nnodes]


class _FrozenPatterns(dict):
    def __setitem__(self, key, value):
        raise AssertionError("a Newton or descent path rebuilt a CSC pattern")


def test_newton_and_descent_never_assemble_through_coo(unit_square):
    # the Newton Hessians and the descent's stiffness factor fill the pattern
    # one Hessian primes; neither path builds a pattern, the only COO step
    mesh = vx.build_mesh(unit_square, 0.1)
    p, q = vx.AffineExponent(1.5, [0.2, 0.0]), vx.ConstantExponent(3.0)
    solvers._EnergyProblem(mesh, p, q, 1e-3).hess(np.zeros(mesh.nnodes))
    assert list(mesh._patterns) == [mesh.interior_nodes.tobytes()]
    mesh._patterns = _FrozenPatterns(mesh._patterns)
    v = vx.DiscreteField(mesh, np.full(mesh.nnodes, 10.0), zero_trace=True)
    assert vx.solve_regularized(v, p, q, vx.SolveConfig(epsilon=1e-3)).converged
    assert vx.nehari_candidate(p, q, mesh).converged


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

    # the regularized modular int (|grad z|^2 + eps)^(p/2) of each level
    levels = res.diagnostics["eps_runs"]
    pq, w = P2.eval_on_quadrature(mesh), mesh.quadrature()[1]
    phi = np.array([np.sum(w * (np.sum(vx.gradient(lv.field) ** 2, axis=1)[:, None]
                                + lv.diagnostics["epsilon"]) ** (pq / 2.0))
                    for lv in levels])
    assert np.all(np.diff(phi) <= 1e-9 * (1 + np.abs(phi[:-1])))
    assert phi[-1] == pytest.approx(vx.gradient_modular(res.field, P2).value,
                                    rel=1e-4)
    deltas = [vx.mesh_l2(b.field - a.field) for a, b in zip(levels, levels[1:])]
    assert deltas[-1] < deltas[0]


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


def counting(monkeypatch, module, name):
    """Wrap module.name so that each call appends its args to the returned
    list."""
    calls, fn = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_cascade_reuses_an_equal_truncation_level(interval_mesh, monkeypatch):
    # max |u| = 3 < 4: cutoff(u, 4) = cutoff(u, 8) = u, one problem
    u = 3.0 * sin_field(interval_mesh)
    q4 = vx.ConstantExponent(4.0)
    cfg = vx.SolveConfig(epsilon0=0.5, eps_factor=0.5, eps_min=0.125,
                         n_schedule=(4, 8))
    fresh = vx.cascade(u, P2, q4, dataclasses.replace(cfg, n_schedule=(8,)))[0]
    solves = counting(monkeypatch, solvers, "solve_regularized")
    runs = vx.cascade(u, P2, q4, cfg)
    assert len(solves) == 3
    first, second = (res.diagnostics["eps_runs"] for res in runs)
    assert second[-1] is runs[1] and len(vx.cascade_levels(runs)) == 6
    for a, b, ref in zip(first, second, fresh.diagnostics["eps_runs"]):
        for lv in (a, ref):
            assert b.field.values.tobytes() == lv.field.values.tobytes()
            assert (b.energy, b.el_residual, b.iterations, b.converged) \
                == (lv.energy, lv.el_residual, lv.iterations, lv.converged)
            assert b.diagnostics["energy_history"] == lv.diagnostics["energy_history"]
        assert b.diagnostics["n"] == 8 and a.diagnostics["n"] == 4
        assert b.diagnostics["reused_from_n"] == 4
        assert "reused_from_n" not in a.diagnostics
        assert b.diagnostics["epsilon"] == a.diagnostics["epsilon"]
        assert b.field is not a.field and b.diagnostics is not a.diagnostics
    for key in ("gap_grad_modular", "gap_q_modular", "truncation_active"):
        assert runs[1].diagnostics[key] == runs[0].diagnostics[key] \
            == fresh.diagnostics[key]
    assert first is not second  # each run has its own eps_runs list

    kept = first[0].field.values.copy()
    second[0].field.values[:] = 7.0
    second[0].diagnostics["energy_history"].append(0.0)
    assert np.array_equal(first[0].field.values, kept)
    assert first[0].diagnostics["energy_history"] \
        == fresh.diagnostics["eps_runs"][0].diagnostics["energy_history"]


def test_cascade_builds_each_mollifier_kernel_once(interval_mesh, monkeypatch):
    # both levels truncate, so both are solved, at the same three radii
    u = 3.0 * sin_field(interval_mesh)
    cfg = vx.SolveConfig(epsilon0=0.5, eps_factor=0.5, eps_min=0.125,
                         n_schedule=(1, 2))
    mollified = counting(monkeypatch, solvers, "mollify")
    kernels = counting(monkeypatch, fem, "_mollifier_slices")
    runs = vx.cascade(u, P2, P2, cfg)
    assert len(mollified) == 6 and len(kernels) == 3
    assert not any("reused_from_n" in lv.diagnostics
                   for lv in vx.cascade_levels(runs))
    assert interval_mesh._mollifiers is None


def test_cascade_drops_its_kernels_when_a_level_raises(interval_mesh, monkeypatch):
    def fails(*args, **kwargs):
        assert interval_mesh._mollifiers  # the level's kernel is kept
        raise vx.NoScalingRoot("injected")

    monkeypatch.setattr(solvers, "solve_regularized", fails)
    with pytest.raises(vx.NoScalingRoot, match="injected"):
        vx.cascade(sin_field(interval_mesh), P2, P2, vx.SolveConfig())
    assert interval_mesh._mollifiers is None


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


# Meshes whose nodes all lie on the boundary: one cell of [0, 1], and a
# triangle meshed with h above its longest edge.
NO_INTERIOR = {"one_cell": (vx.Domain.interval(0.0, 1.0), 1.0),
               "one_triangle": (vx.Domain.polygon([(0, 0), (1, 0), (0, 1)]), 2.0)}


@pytest.mark.parametrize("name", sorted(NO_INTERIOR))
def test_nehari_without_interior_node_has_no_root(name):
    mesh = vx.build_mesh(*NO_INTERIOR[name])
    assert mesh.interior_nodes.size == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = fem._bump_profile(mesh)
        with pytest.raises(vx.NoScalingRoot, match="zero field"):
            vx.nehari_candidate(P2, vx.ConstantExponent(4.0), mesh)
    assert profile.tobytes() == np.zeros(mesh.nnodes).tobytes()


def test_nehari_collapse_guard(interval_mesh, monkeypatch):
    q4 = vx.ConstantExponent(4.0)
    monkeypatch.setattr(solvers, "_COLLAPSE_TOL", 1e3)
    with pytest.raises(vx.CollapseToZero):
        vx.nehari_candidate(P2, q4, interval_mesh)


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


def test_nehari_descent_stop_reasons(interval, fine_interval_mesh, monkeypatch):
    # every descent_stop the nehari_candidate docstring lists
    q4 = vx.ConstantExponent(4.0)
    fine = vx.nehari_candidate(P2, q4, fine_interval_mesh, vx.SolveConfig(seed=42))
    assert fine.diagnostics["descent_stop"] == "tolerance"
    assert fine.diagnostics["descent_iterations"] == 1
    coarse_mesh = vx.build_mesh(interval, 0.05)
    coarse = vx.nehari_candidate(P2, q4, coarse_mesh, vx.SolveConfig(seed=42))
    assert coarse.diagnostics["descent_stop"] == "tolerance"
    assert coarse.diagnostics["descent_iterations"] == 70

    monkeypatch.setattr(solvers, "_DESCENT_STEPS", 5)
    capped = vx.nehari_candidate(P2, q4, coarse_mesh, vx.SolveConfig(seed=42))
    assert capped.diagnostics["descent_stop"] == "max_iters"
    assert capped.diagnostics["descent_iterations"] == 5
    assert capped.diagnostics["stop"] == "converged"

    # no exit residual and no floor: the descent runs into roundoff
    monkeypatch.setattr(solvers, "_DESCENT_STEPS", 400)
    monkeypatch.setattr(solvers, "_DESCENT_EXITS", (0.0,))
    floor = vx.nehari_candidate(P2, q4, vx.build_mesh(interval, 0.25),
                                vx.SolveConfig(seed=42, grad_tol=0.0))
    assert floor.diagnostics["descent_stop"] == "no_decrease"
    assert floor.diagnostics["descent_iterations"] < 400


@pytest.mark.parametrize("h, energy", [(0.2, 9.979304049), (0.1, 9.862052956),
                                       (0.05, 9.826277088)])
def test_nehari_descent_steps_do_not_grow_with_refinement(h, energy):
    # unit disk, p = 1.5, q = 3: the Euclidean descent ran 297, 400 and 400
    # steps here, the H^1_0 descent 16, 21 and 15
    res = vx.nehari_candidate(vx.ConstantExponent(1.5), vx.ConstantExponent(3.0),
                              vx.build_mesh(vx.Domain.disk(), h), vx.SolveConfig(seed=42))
    assert res.diagnostics["descent_stop"] == "tolerance"
    assert res.diagnostics["descent_iterations"] <= 25
    assert res.diagnostics["stop"] == "converged"
    assert res.energy == pytest.approx(energy, rel=1e-9)


def test_nehari_critical_disk_converges():
    # p = 1.5, q = 6 = p*: the Euclidean descent's polish walked to E 4,918
    res = vx.nehari_candidate(vx.ConstantExponent(1.5), vx.ConstantExponent(6.0),
                              vx.build_mesh(vx.Domain.disk(), 0.1), vx.SolveConfig(seed=42))
    assert res.diagnostics["stop"] == "converged"
    assert res.energy == pytest.approx(3.613397227, rel=1e-9)
    assert res.el_residual <= 1e-8


# p = 1.4 + 0.1|x|^2 and q = 5.5 + |x|^2 on the unit disk: q > p* everywhere
VARIABLE_DISK = (vx.RadialExponent(1.4, 0.1, [0.0, 0.0]),
                 vx.RadialExponent(5.5, 1.0, [0.0, 0.0]))


def test_nehari_variable_disk_keeps_its_energy():
    res = vx.nehari_candidate(*VARIABLE_DISK, vx.build_mesh(vx.Domain.disk(), 0.2),
                              vx.SolveConfig(seed=42))
    assert res.diagnostics["stop"] == "converged"
    assert res.energy == pytest.approx(3.773139762, rel=1e-9)


def test_nehari_guard_ends_a_wandering_polish():
    # At h = 0.1 the polish walks off the Nehari level (to E 2,866 at
    # max_iters after the Euclidean descent); the guard ends it instead.
    cfg = vx.SolveConfig(seed=42)
    res = vx.nehari_candidate(*VARIABLE_DISK, vx.build_mesh(vx.Domain.disk(), 0.1), cfg)
    diag = res.diagnostics
    level = diag["energy_history"][-1]
    assert diag["descent_iterations"] <= 400
    assert diag["newton_iterations"] < cfg.max_iters
    assert diag["stop"] in ("converged", "left_nehari")
    if diag["stop"] == "converged":
        assert res.energy <= level
    else:
        assert 0.0 < res.energy <= (1.0 + solvers._NEHARI_SLACK) * level
    assert diag["stop"] == "left_nehari"  # at this seed
    assert not res.converged


def test_minimize_refuses_a_step_out_of_bounds(interval):
    # interval h = 0.1, p = 2, q = 3, constant load 4, eps 1e-3: every step
    # lowers the energy from 0, so a floor at 0 refuses the first one
    mesh = vx.build_mesh(interval, 0.1)
    load = vx.DiscreteField(mesh, np.full(mesh.nnodes, 4.0))
    prob = solvers._EnergyProblem(mesh, P2, vx.ConstantExponent(3.0), 1e-3,
                                  load_q=vx.field_on_quadrature(load))
    z0 = np.zeros(mesh.nnodes)
    free = mesh.interior_nodes
    z, hist, _, iters, stop = solvers._minimize(prob, z0, free, vx.SolveConfig(),
                                                bounds=(0.0, np.inf))
    assert (stop, iters, hist) == ("left_nehari", 0, [prob.energy(z0)])
    assert np.array_equal(z, z0)
    free_run = solvers._minimize(prob, z0, free, vx.SolveConfig())
    assert free_run[4] == "converged"


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
        "9bd65e47700e0896fddffb580e13775e8a9d1c64a4c406700d7d690d9b3c6feb",
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


# float.hex of the energies and sha256 of the nodal actions and sources on
# two 2D cases with variable exponents.  Pinned before the energy layer was
# restructured; a change here means a result moved by at least one ulp.
ENERGY_PINS = {
    "square": {
        "source_energy": "0x1.16ae903219d0ap+7",
        "power_source":
            "7729527966309c0765e61aee755fb9c82eb774804b79c77c67799e619d563946",
        0.0: {
            "phi_energy": "0x1.163ca918e28fdp+7",
            "regularized_energy": "0x1.16e5fba1e7e9cp+7",
            "regularized_energy_no_load": "0x1.168c255e4b9b1p+7",
            "operator_action":
                "dd8cde32a40c7b24f7420f97e7fe5f7bda957e092f5dd7f5c406009cb7431efe",
            "operator_action_zero":
                "35956830dc0e1c6938923d39e417eba774c6b059bb38a8a8de026da72f74da51",
        },
        1e-3: {
            "phi_energy": "0x1.163cc43453234p+7",
            "regularized_energy": "0x1.16e616bd587d3p+7",
            "regularized_energy_no_load": "0x1.168c4079bc2e8p+7",
            "operator_action":
                "a95d4258c24cc5272e1ef60a41bfda4647c4b17905ef3c69ec28de6c0262e4d8",
            "operator_action_zero":
                "35956830dc0e1c6938923d39e417eba774c6b059bb38a8a8de026da72f74da51",
        },
    },
    "disk": {
        "source_energy": "0x1.ef978fe4f45efp+8",
        "power_source":
            "352daba102e7dcc0ba204109550a2e14f7a8ed4f1d291b5bd4204addfd28c1fa",
        0.0: {
            "phi_energy": "0x1.ef4c7a639aa4ap+8",
            "regularized_energy": "0x1.f00ecb5a55bfep+8",
            "regularized_energy_no_load": "0x1.efbfd3f754543p+8",
            "operator_action":
                "df8704dd7db970bbfd8bc2444fd0a787bba8fdec08b0b9f665bccf2288e3217d",
            "operator_action_zero":
                "87e73173911851df7ffc3c115b18ef03f5431aad77193fe47e6c14827fe8ac66",
        },
        1e-3: {
            "phi_energy": "0x1.ef4cb2ed8f7eap+8",
            "regularized_energy": "0x1.f00f03e44a99ep+8",
            "regularized_energy_no_load": "0x1.efc00c81492e3p+8",
            "operator_action":
                "d63c51a132692318309d01192571a2fbf37f0f0baeb02cbfabb34a0d6668969d",
            "operator_action_zero":
                "87e73173911851df7ffc3c115b18ef03f5431aad77193fe47e6c14827fe8ac66",
        },
    },
}


def energy_case(kind, unit_square):
    """(z, v, source, p, q): a seeded random zero-trace field, a load and a
    sign-changing source on the unit square at h = 0.1 with affine p and q,
    or on the unit disk at h = 0.1 with radial p and q."""
    if kind == "square":
        mesh = vx.build_mesh(unit_square, 0.1)
        p = vx.AffineExponent(1.5, [0.2, 0.1])
        q = vx.AffineExponent(3.0, [0.5, -0.25])
    else:
        mesh = vx.build_mesh(vx.Domain.disk(), 0.1)
        p = vx.RadialExponent(1.6, 0.3, [0.2, 0.1])
        q = vx.RadialExponent(3.0, 0.5, [-0.1, 0.0])
    z = random_interior(mesh, np.random.default_rng(7))
    v = vx.DiscreteField.interpolate(mesh, lambda x: np.cos(x[:, 0]) + x[:, 1])
    source = vx.DiscreteField.interpolate(
        mesh, lambda x: x[:, 0] - 0.3 + 0.5 * x[:, 1])
    return z, v, source, p, q


@pytest.mark.parametrize("kind", ["square", "disk"])
def test_energy_helpers_pinned(kind, unit_square):
    z, v, source, p, q = energy_case(kind, unit_square)
    zero = vx.DiscreteField.zeros(z.mesh)
    pins = ENERGY_PINS[kind]
    assert vx.source_energy(z, source, p, q) == float.fromhex(pins["source_energy"])
    assert sha256(vx.power_source(source, q).values) == pins["power_source"]
    for eps in (0.0, 1e-3):
        got = {
            "phi_energy": vx.phi_energy(z, p, eps).hex(),
            "regularized_energy": vx.regularized_energy(z, v, p, q, eps).hex(),
            "regularized_energy_no_load":
                vx.regularized_energy(z, None, p, q, eps).hex(),
            "operator_action": sha256(vx.operator_action(z, p, eps).values),
            "operator_action_zero": sha256(vx.operator_action(zero, p, eps).values),
        }
        assert got == pins[eps], eps
