"""P1 fields: gradients, integration, truncation, mollification, projection."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

import vexlab as vx


def test_field_construction(interval_mesh):
    u = vx.DiscreteField.interpolate(interval_mesh, lambda x: x[:, 0],
                                     zero_trace=True)
    assert np.all(u.values[interval_mesh.boundary_nodes] == 0.0)
    with pytest.raises(vx.ConfigError):
        vx.DiscreteField(interval_mesh, np.zeros(3))


def test_field_algebra(interval_mesh, rng):
    a = vx.DiscreteField(interval_mesh, rng.standard_normal(interval_mesh.nnodes))
    b = vx.DiscreteField(interval_mesh, rng.standard_normal(interval_mesh.nnodes))
    s = a + b - 2.0 * a
    assert np.allclose(s.values, b.values - a.values, atol=1e-15)
    assert np.allclose((-a).values, -a.values)
    other = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.5)
    with pytest.raises(vx.ConfigError):
        a + vx.DiscreteField.zeros(other)


def test_gradient_exact_for_linears(square_mesh):
    u = vx.DiscreteField.interpolate(square_mesh,
                                     lambda x: 3.0 * x[:, 0] - 2.0 * x[:, 1])
    g = vx.gradient(u)
    assert np.max(np.abs(g - np.array([3.0, -2.0]))) <= 1e-12
    assert np.linalg.norm(vx.gradient(u), axis=1) == pytest.approx(
        np.full(square_mesh.ncells, np.sqrt(13.0)), abs=1e-12)


def test_mesh_l2(interval_mesh):
    u = vx.DiscreteField.interpolate(interval_mesh,
                                     lambda x: np.sin(np.pi * x[:, 0]))
    assert vx.mesh_l2(u) == pytest.approx(np.sqrt(0.5), rel=1e-3)


def test_integrate_with_and_without_field(interval_mesh):
    val = vx.integrate(interval_mesh, lambda x, u, gu: x[:, 0] ** 2)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-14)

    w = vx.DiscreteField.interpolate(interval_mesh, lambda x: x[:, 0])
    val = vx.integrate(interval_mesh, lambda x, u, gu: u * gu[:, 0], u=w)
    assert val == pytest.approx(0.5, abs=1e-13)


def test_integrate_rejects_non_finite(interval_mesh):
    def poisoned(x, u, gu):
        vals = np.ones(len(x))
        vals[len(x) // 2] = np.nan
        return vals

    with pytest.raises(vx.NonFiniteIntegrand):
        vx.integrate(interval_mesh, poisoned)
    with pytest.raises(vx.ConfigError):
        vx.integrate(interval_mesh, lambda x, u, gu: np.ones(3))


def test_cutoff_profile_values():
    n = 2.0
    s = np.array([0.0, 1.5, 2.0, 12.0])
    g = vx.cutoff_profile(s, n)
    assert np.allclose(g[:3], s[:3])  # identity through |s| = n
    assert n < g[3] <= n + 1.0
    assert g[3] == pytest.approx(n + 1.0 - np.exp(-10.0), abs=1e-12)
    # odd symmetry
    assert np.allclose(vx.cutoff_profile(-s, n), -g, atol=1e-15)


def test_cutoff_profile_slope_and_range(rng):
    n = 3.0
    s = np.sort(rng.uniform(-8.0, 8.0, 400))
    g = vx.cutoff_profile(s, n)
    assert np.all(np.abs(g) <= np.minimum(np.abs(s), n + 1.0) + 1e-12)
    h = 1e-7
    slope = (vx.cutoff_profile(s + h, n) - vx.cutoff_profile(s - h, n)) / (2 * h)
    assert np.all(slope >= -1e-8) and np.all(slope <= 1.0 + 1e-8)
    # slope continuity at the knee, and saturation far out
    assert (vx.cutoff_profile(n + 1e-9, n) -
            vx.cutoff_profile(n - 1e-9, n)) / 2e-9 == pytest.approx(1.0, abs=1e-6)
    far = (vx.cutoff_profile(n + 10 + h, n) -
           vx.cutoff_profile(n + 10 - h, n)) / (2 * h)
    assert far == pytest.approx(np.exp(-10.0), rel=1e-4)


def test_cutoff_identity_below_level(interval_mesh):
    u = vx.DiscreteField.interpolate(interval_mesh,
                                     lambda x: np.sin(np.pi * x[:, 0]))
    v = vx.cutoff(u, 5.0)
    assert np.array_equal(v.values, u.values)
    with pytest.raises(vx.ConfigError):
        vx.cutoff(u, 0.0)


def test_mollify_is_averaging(fine_interval_mesh, rng):
    mesh = fine_interval_mesh
    u = vx.DiscreteField(mesh, rng.uniform(0.0, 2.0, mesh.nnodes))
    m = vx.mollify(u, 0.03)
    assert m.values.max() <= u.values.max() + 1e-12
    assert m.values.min() >= 0.0  # nonnegativity preserved
    assert np.all(m.values[mesh.boundary_nodes] == 0.0)


def test_mollify_preserves_interior_plateau(fine_interval_mesh):
    mesh = fine_interval_mesh
    u = vx.DiscreteField.interpolate(mesh, lambda x: np.ones(len(x)))
    radius = 0.05
    m = vx.mollify(u, radius)
    safe = mesh.boundary_distance() > 2 * radius + 2 * mesh.h
    assert np.max(np.abs(m.values[safe] - 1.0)) <= 1e-12
    layer = mesh.boundary_distance() <= radius + mesh.h
    assert np.all(m.values[layer] == 0.0)


def test_mollify_radius_halving_contracts(fine_interval_mesh):
    mesh = fine_interval_mesh
    u = vx.DiscreteField.interpolate(
        mesh, lambda x: np.abs(np.sin(3 * np.pi * x[:, 0])) ** 2, zero_trace=True)
    dists = []
    for radius in (0.16, 0.08, 0.04, 0.02):
        m = vx.mollify(u, radius)
        dists.append(vx.mesh_l2(m - u))
    assert dists[0] > dists[1] > dists[2] > dists[3]


def mollify_every_node(u, radius):
    """Loop-form oracle: average at every node, then zero the boundary
    layer."""
    mesh = u.mesh
    nodes = mesh.nodes
    nv = mesh.cells.shape[1]
    lumped = np.zeros(mesh.nnodes)
    np.add.at(lumped, mesh.cells.ravel(), np.repeat(mesh.cell_volumes / nv, nv))
    out = np.empty(mesh.nnodes)
    r2 = radius * radius
    for i, nbrs in enumerate(cKDTree(nodes).query_ball_point(nodes, radius)):
        idx = np.asarray(nbrs, dtype=np.int64)
        d2 = np.sum((nodes[idx] - nodes[i]) ** 2, axis=1)
        wk = (1.0 - d2 / r2) ** 3 * lumped[idx]
        out[i] = float(wk @ u.values[idx]) / float(wk.sum())
    out[mesh.boundary_distance() <= radius + mesh.h + 1e-12] = 0.0
    return out


@pytest.mark.parametrize("kind", ["disk", "interval"])
def test_mollify_matches_every_node_oracle(kind, rng):
    if kind == "disk":
        mesh = vx.build_mesh(vx.Domain.disk((0.0, 0.0), 1.0), 0.1)
    else:
        mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.01)
    u = vx.DiscreteField(mesh, rng.standard_normal(mesh.nnodes))
    big = float(mesh.boundary_distance().max())  # the layer covers every node
    for radius in (0.5 * mesh.h, 0.2 * big, big):
        got = vx.mollify(u, radius).values
        assert np.array_equal(got, mollify_every_node(u, radius))
    assert not np.any(vx.mollify(u, big).values)


def test_mollify_rejects_bad_radius(fine_interval_mesh):
    u = vx.DiscreteField.zeros(fine_interval_mesh)
    with pytest.raises(vx.ConfigError):
        vx.mollify(u, -0.1)


def test_l2_project_reproduces_p1(square_mesh):
    u = vx.DiscreteField.interpolate(square_mesh,
                                     lambda x: 1.0 + x[:, 0] - 0.5 * x[:, 1])
    samples = vx.field_on_quadrature(u)
    proj = vx.l2_project(square_mesh, samples)
    assert np.max(np.abs(proj.values - u.values)) <= 1e-11


def test_l2_project_moment_match(square_mesh, rng):
    # <Pf, phi_i> = <f, phi_i> for every P1 hat function, same quadrature
    pts, w, bary = square_mesh.quadrature()
    f = rng.standard_normal(w.shape)
    proj = vx.l2_project(square_mesh, f)
    fq = vx.field_on_quadrature(proj)
    b_f = np.zeros(square_mesh.nnodes)
    b_p = np.zeros(square_mesh.nnodes)
    np.add.at(b_f, square_mesh.cells.ravel(),
              np.einsum("cq,qv->cv", w * f, bary).ravel())
    np.add.at(b_p, square_mesh.cells.ravel(),
              np.einsum("cq,qv->cv", w * fq, bary).ravel())
    assert np.max(np.abs(b_f - b_p)) <= 1e-12
    with pytest.raises(vx.ConfigError):
        vx.l2_project(square_mesh, np.ones(7))


def test_mass_matrix_row_sums(square_mesh):
    M = vx.mass_matrix(square_mesh)
    assert M.sum() == pytest.approx(square_mesh.volume, abs=1e-12)
    ones = np.ones(square_mesh.nnodes)
    lumped = M @ ones
    assert np.all(lumped > 0)
