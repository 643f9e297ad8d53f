"""P1 fields: gradients, integration, truncation, mollification, projection."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.linalg import splu, spsolve
from scipy.spatial import cKDTree

import vexlab as vx
from vexlab import fem
from vexlab.fem import sample, stiffness_matrix
from vexlab.solvers import mollifier_radius

EPS = np.finfo(float).eps


def test_field_construction(interval_mesh):
    u = vx.DiscreteField.interpolate(interval_mesh, lambda x: x[:, 0],
                                     zero_trace=True)
    assert np.all(u.values[interval_mesh.boundary_nodes] == 0.0)
    assert not hasattr(u, "zero_trace")  # a construction step, not a flag
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


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_sample_gathers_once_for_both(kind, interval_mesh, square_mesh, rng):
    mesh = interval_mesh if kind == "interval" else square_mesh
    z = rng.standard_normal(mesh.nnodes)
    g, zq = sample(mesh, z)
    u = vx.DiscreteField(mesh, z)
    assert np.array_equal(g, vx.gradient(u))
    assert np.array_equal(zq, vx.field_on_quadrature(u))


def test_mesh_l2(interval_mesh):
    u = vx.DiscreteField.interpolate(interval_mesh,
                                     lambda x: np.sin(np.pi * x[:, 0]))
    assert vx.mesh_l2(u) == pytest.approx(np.sqrt(0.5), rel=1e-3)


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
    for n in (0.0, np.nan):  # NaN used to give an all-NaN field
        with pytest.raises(vx.ConfigError):
            vx.cutoff(u, n)


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
    # the numerator and the denominator are the same sums, so exactly 1
    assert np.all(m.values[safe] == 1.0)
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
        ref = mollify_every_node(u, radius)
        # mollify sums the pairs in another order than the oracle's dot
        assert np.array_equal(got == 0, ref == 0)
        assert np.max(np.abs(got - ref)) <= 4 * EPS * np.max(np.abs(u.values))
    assert not np.any(vx.mollify(u, big).values)


# sha256 of the one-pass mollify below at each radius, pinned before its
# squared distances became column sums; a change here moved at least one ulp.
MOLLIFY_DIGESTS = {
    "disk": [
        "9185d3ecf38d3b43796a9e0b123b54c25f2e3196b5bf09936633ded86307a0ba",
        "29ad7fa3f88216e2badc951c64c391be64755840e6033716e3787f502357f702",
        "39443a3926f8993188ce9484a41f9dd098bf0b241fd74f4a82bde6be95533295",
        "2e1dbbe1dfc1743117be7872f72f952e57eb87c61ef449675b19133d10120b50",
    ],
    "interval": [
        "ae658c997bad38ec429c180c49a448a1aec1cf899a19511470bec4b7512d3412",
        "bda93ecc5d7a4e65fbfd466dae22687c2200d2ca838f685141e87ac1316e7598",
        "94da0df548b37c0e391842708d37150a907b3064713ade9c4dbe0d24db66d5c7",
        "5560728cd337269adfd6161f2c48cdffaaeff9eca07f5fd09956967cf4c87e2f",
    ],
}


@pytest.mark.parametrize("kind", ["disk", "interval"])
def test_mollify_slices_match_one_pass(kind, rng, monkeypatch):
    if kind == "disk":
        mesh = vx.build_mesh(vx.Domain.disk((0.0, 0.0), 1.0), 0.05)
    else:
        mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.005)
    u = vx.DiscreteField(mesh, rng.standard_normal(mesh.nnodes))
    radii = (0.02, 0.1, 0.3, 0.6)
    one_pass = [vx.mollify(u, radius).values for radius in radii]
    assert [hashlib.sha256(v.tobytes()).hexdigest()
            for v in one_pass] == MOLLIFY_DIGESTS[kind]
    for nodes_per_slice in (1, 3, 50):
        monkeypatch.setattr(vx.fem, "_MOLLIFY_PAIRS", nodes_per_slice * mesh.nnodes)
        for radius, ref in zip(radii, one_pass):
            assert np.array_equal(vx.mollify(u, radius).values, ref)


@pytest.mark.parametrize("nodes_per_slice", [None, 50])
@pytest.mark.parametrize("kind", ["disk", "interval"])
def test_mollify_kernel_cache_is_bit_for_bit(kind, nodes_per_slice, rng, monkeypatch):
    # what solvers.cascade passes: one table of kernels by radius, reused
    if kind == "disk":
        mesh = vx.build_mesh(vx.Domain.disk((0.0, 0.0), 1.0), 0.05)
    else:
        mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.005)
    if nodes_per_slice:
        monkeypatch.setattr(vx.fem, "_MOLLIFY_PAIRS", nodes_per_slice * mesh.nnodes)
    fields = [vx.DiscreteField(mesh, rng.standard_normal(mesh.nnodes))
              for _ in range(3)]
    radii = (0.02, 0.1, 0.3, 0.6)
    plain = [[vx.mollify(u, r).values for r in radii] for u in fields]
    assert [hashlib.sha256(v.tobytes()).hexdigest()
            for v in plain[0]] == MOLLIFY_DIGESTS[kind]
    kept = {}
    cached = [[vx.mollify(u, r, kept).values for r in radii] for u in fields]
    # only a kernel of one slice is kept: at most _MOLLIFY_PAIRS pairs each
    assert all(len(kernel) == 1 for kernel in kept.values())
    assert (set(kept) == set(radii)) == (nodes_per_slice is None)
    for got, ref in zip(cached, plain):
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("kind", ["interval", "square", "disk"])
def test_mollify_self_only_kernel_is_the_tree_kernel(kind, unit_square, rng,
                                                     monkeypatch):
    # at the schedule's radii below the kept nodes' least gap to another node,
    # mollify pairs each node with itself alone and builds no k-d tree
    domain, h = {"interval": (vx.Domain.interval(0.0, 1.0), 0.02),
                 "square": (unit_square, 0.15),
                 "disk": (vx.Domain.disk((0.0, 0.0), 1.0), 0.05)}[kind]
    mesh = vx.build_mesh(domain, h)
    u = vx.DiscreteField(mesh, rng.standard_normal(mesh.nnodes))
    radii = sorted(mollifier_radius(eps, mesh)
                   for eps in vx.SolveConfig().eps_schedule())

    def outputs():  # plain, then a kernel kept in a table and reused
        kept = {}
        return [vx.mollify(u, r, table).values
                for r in radii for table in (None, kept, kept)]

    fast = outputs()
    with monkeypatch.context() as patch:  # zero gaps: the tree path throughout
        patch.setitem(mesh.__dict__, "_node_gap", np.zeros(mesh.nnodes))
        tree = outputs()
    assert all(np.array_equal(a, b) for a, b in zip(fast, tree))

    def no_tree(*args, **kwargs):
        raise AssertionError("k-d tree built")

    monkeypatch.setattr(fem, "cKDTree", no_tree)
    bdist = mesh.boundary_distance()
    gaps = [mesh._node_gap[bdist > r + mesh.h + 1e-12].min(initial=np.inf)
            for r in radii]
    below = [r for r, gap in zip(radii, gaps) if r < gap]
    assert below == radii[:len(below)] and 0 < len(below) < len(radii)
    for r in below:
        vx.mollify(u, r)
        vx.mollify(u, r, {})
    with pytest.raises(AssertionError, match="k-d tree built"):
        vx.mollify(u, radii[len(below)])


@pytest.fixture(scope="module", params=["disk", "interval"])
def mollify_mesh(request):
    if request.param == "disk":
        return vx.build_mesh(vx.Domain.disk((0.0, 0.0), 1.0), 0.1)
    return vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.01)


FIELD_VALUES = st.floats(-1e100, 1e100)  # sums of weighted values cannot overflow


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_mollify_properties(mollify_mesh, data):
    mesh = mollify_mesh
    diam = float(np.ptp(mesh.nodes, axis=0).max())
    radius = data.draw(st.floats(0.0, diam, exclude_min=True)
                       .filter(lambda r: r * r > 0), label="radius")
    f = data.draw(arrays(float, mesh.nnodes, elements=FIELD_VALUES), label="f")
    out = vx.mollify(vx.DiscreteField(mesh, f), radius).values
    kept = mesh.boundary_distance() > radius + mesh.h + 1e-12
    assert np.all(out[~kept] == 0.0)
    assert np.max(np.abs(out)) <= np.max(np.abs(f)) * (1 + 4 * EPS)
    assert np.all(vx.mollify(vx.DiscreteField(mesh, np.abs(f)), radius).values >= 0)
    c = data.draw(FIELD_VALUES, label="c")
    flat = vx.mollify(vx.DiscreteField(mesh, np.full(mesh.nnodes, c)), radius)
    assert np.all(flat.values[kept] == c)


def test_mollify_rejects_bad_radius(fine_interval_mesh):
    u = vx.DiscreteField.zeros(fine_interval_mesh)
    for radius in (-0.1, 0.0, np.nan, 1e-170):  # 1e-170 squares to 0
        with pytest.raises(vx.ConfigError):
            vx.mollify(u, radius)


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


ASSEMBLY_MESHES = {
    "interval": lambda: vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.02),
    "square": lambda: vx.build_mesh(vx.Domain.polygon(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]), 0.15),
    "disk": lambda: vx.build_mesh(vx.Domain.disk((0.0, 0.0), 1.0), 0.1),
    "l-shape": lambda: vx.build_mesh(vx.Domain.polygon(
        [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]),
        0.2),
    # nnodes^2 > 2^31: the pattern's CSC keys overflow in 32-bit integers
    "long-interval": lambda: vx.build_mesh(vx.Domain.interval(0.0, 1.0), 2e-5),
}


@pytest.mark.parametrize("name", ASSEMBLY_MESHES)
def test_mass_and_stiffness_are_the_coo_assembly_bit_for_bit(name, coo_assembly):
    # the full-node pattern sums each entry's cell terms as COO -> CSR does
    mesh = ASSEMBLY_MESHES[name]()
    every = np.arange(mesh.nnodes)
    for matrix, elem in ((vx.mass_matrix, fem._cell_mass(mesh, mesh.quadrature()[1])),
                         (stiffness_matrix, fem._cell_stiffness(mesh))):
        M = matrix(mesh)
        ref = coo_assembly(mesh, elem, every)
        assert M.format == "csc" and M.shape == (mesh.nnodes,) * 2
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(M, attr), getattr(ref, attr))
    assert list(mesh._patterns) == [every.tobytes()]


# the disk at h = 0.04: 4,096 nodes, too wide a band for _BAND_WORK
L2_MESHES = {**ASSEMBLY_MESHES,
             "disk-0.04": lambda: vx.build_mesh(vx.Domain.disk(), 0.04)}


@pytest.mark.parametrize("name", L2_MESHES)
def test_l2_project_solves_by_the_factor_rule_bit_for_bit(name):
    # fem._factor's rule: the all-node mass pattern's band LU where it has
    # one, else one SuperLU factor; both agree with scipy's spsolve
    mesh = L2_MESHES[name]()
    vals = np.random.default_rng(9).standard_normal(mesh.quadrature()[1].shape)
    b = fem._load_vector(mesh, vals)
    data, pattern = fem._assemble(mesh, fem._cell_mass(mesh, mesh.quadrature()[1]),
                                  np.arange(mesh.nnodes))
    band, M = pattern[2], vx.mass_matrix(mesh)
    assert (band is None) == (name == "disk-0.04")
    expected = splu(M).solve(b) if band is None else band(data)(b)
    got = vx.l2_project(mesh, vals).values
    assert np.array_equal(got, expected)
    ref = spsolve(M, b, use_umfpack=False)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_stiffness_matrix_dirichlet_energy(interval_mesh, square_mesh):
    # symmetric, constants in its kernel, u.K.u = int |grad u|^2 for linear u
    for mesh, slope in ((interval_mesh, [3.0]), (square_mesh, [1.0, 2.0])):
        K = stiffness_matrix(mesh)
        assert abs(K - K.T).max() == 0.0
        assert np.max(np.abs(K @ np.ones(mesh.nnodes))) <= 1e-12
        u = mesh.nodes @ np.array(slope)
        assert u @ (K @ u) == pytest.approx(np.dot(slope, slope) * mesh.volume,
                                            rel=1e-12)
