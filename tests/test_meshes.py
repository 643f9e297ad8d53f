"""Meshing, quadrature, boundary data, and the text file format."""

import hashlib
from math import factorial

import numpy as np
import pytest

import vexlab as vx
from vexlab import meshes
from vexlab.domains import _point_segment_distance_many


def ref_triangle_monomial(a, b):
    # integral of x^a y^b over the triangle (0,0),(1,0),(0,1)
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_interval_mesh_basics(interval_mesh):
    assert interval_mesh.dim == 1
    assert interval_mesh.volume == pytest.approx(1.0, abs=1e-14)
    assert interval_mesh.h <= 0.04
    assert len(interval_mesh.boundary_nodes) == 2
    # endpoint normals point outward
    facets = interval_mesh.boundary_facets[:, 0]
    xs = interval_mesh.nodes[facets, 0]
    for x, nu in zip(xs, interval_mesh.facet_normals[:, 0]):
        assert nu == (-1.0 if x < 0.5 else 1.0)


def test_square_mesh_exact_area(square_mesh):
    assert square_mesh.volume == pytest.approx(1.0, abs=1e-12)
    assert square_mesh.h <= 0.3


def test_normals_unit_and_outward(square_mesh):
    norms = np.linalg.norm(square_mesh.facet_normals, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    mids = square_mesh.nodes[square_mesh.boundary_facets].mean(axis=1)
    center = np.array([0.5, 0.5])
    assert np.all(np.einsum("fd,fd->f", mids - center,
                            square_mesh.facet_normals) > 0)


def test_divergence_self_test_all_kinds(interval_mesh, square_mesh):
    disk_mesh = vx.build_mesh(vx.Domain.disk((0, 0), 1.0), 0.2)
    for mesh in (interval_mesh, square_mesh, disk_mesh):
        lhs, rhs, rel = mesh.divergence_check()
        assert rel <= 1e-6, (lhs, rhs)


def test_disk_area_and_perimeter_converge():
    defects_a, defects_p = [], []
    for h in (0.2, 0.1):
        mesh = vx.build_mesh(vx.Domain.disk((0, 0), 1.0), h)
        defects_a.append(abs(mesh.volume - np.pi))
        per = vx.boundary_integral(mesh, lambda x, nu: np.ones(len(x)))
        defects_p.append(abs(per - 2 * np.pi))
    # inscribed-polygon error is O(h^2): halving h should cut both defects
    assert defects_a[1] <= 0.6 * defects_a[0]
    assert defects_p[1] <= 0.6 * defects_p[0]
    assert defects_a[1] < 2e-2 and defects_p[1] < 5e-2


def test_facet_rule_maps_onto_facet_measures(interval_mesh, square_mesh):
    # one rule per facet shape: the end point itself in 1D, Gauss-Legendre on
    # 2D edges; either way the weights add up to each facet's measure
    pts, w = interval_mesh.facet_quadrature()
    assert pts.shape == (2, 1, 1) and w.shape == (2, 1)
    ends = interval_mesh.boundary_facets[:, 0]
    assert np.array_equal(pts[:, 0], interval_mesh.nodes[ends])
    assert np.array_equal(w[:, 0], interval_mesh.facet_measures)
    pts, w = square_mesh.facet_quadrature()
    assert pts.shape == (len(square_mesh.boundary_facets), 3, 2)
    assert np.allclose(w.sum(axis=1), square_mesh.facet_measures, rtol=1e-15)


def test_boundary_integral_divergence_oracle():
    sq = vx.Domain.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    mesh = vx.build_mesh(sq, 0.5)
    val = vx.boundary_integral(mesh, lambda x, nu: np.sum(x * nu, axis=1))
    assert val == pytest.approx(8.0, abs=1e-12)  # 2 * area of [-1,1]^2


# the mesh's one triangle rule, the 3-point rule, is exact through degree 2
@pytest.mark.parametrize("degree", [2])
def test_triangle_rule_exactness(degree):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = vx.Mesh(nodes, np.array([[0, 1, 2]]))
    pts, w, _ = mesh.quadrature()
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(np.sum(w * pts[:, :, 0] ** a * pts[:, :, 1] ** b))
            assert got == pytest.approx(ref_triangle_monomial(a, b), abs=1e-15)


def test_segment_rule_exactness(interval_mesh):
    # the segment rule is 3-point Gauss, exact through degree 5
    pts, w, _ = interval_mesh.quadrature()
    for k in range(6):
        got = float(np.sum(w * pts[:, :, 0] ** k))
        assert got == pytest.approx(1.0 / (k + 1), abs=1e-14)


def test_quadrature_shapes_and_weights(square_mesh):
    pts, w, bary = square_mesh.quadrature()
    assert pts.shape == (square_mesh.ncells, len(bary), 2)
    assert w.shape == pts.shape[:2]
    assert np.sum(w) == pytest.approx(square_mesh.volume, abs=1e-12)
    assert np.allclose(bary.sum(axis=1), 1.0)


def test_boundary_distance(interval_mesh, square_mesh):
    d = interval_mesh.boundary_distance()
    xs = interval_mesh.nodes[:, 0]
    assert np.allclose(d, np.minimum(xs, 1 - xs), atol=1e-14)
    d2 = square_mesh.boundary_distance()
    assert np.all(d2[square_mesh.boundary_nodes] <= 1e-14)
    assert d2.max() <= 0.5 + 1e-12


def test_mesh_write_read_round_trip(tmp_path, square_mesh):
    p1 = tmp_path / "m1.txt"
    p2 = tmp_path / "m2.txt"
    vx.write_mesh(square_mesh, p1)
    again = vx.read_mesh(p1)
    vx.write_mesh(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert again.volume == pytest.approx(square_mesh.volume, abs=1e-15)


# sha256 of the files write_mesh makes for two 2D meshes at h = 0.1, taken
# before the writer formatted by columns: the round trip above cannot see a
# format change that still reads back the same mesh.
MESH_FILE_DIGESTS = {
    "square":
        "28fe7279ab16404954712fb68eee2f12cb008e459f45c28e95a29a401d7e5813",
    "disk":
        "94efdea06705d5f6530b5dfc2894e816d0faa32a54965f4c38185fb5bca9bc22",
}


@pytest.mark.parametrize("kind", ["square", "disk"])
def test_mesh_file_bytes_pinned(kind, tmp_path, unit_square):
    domain = unit_square if kind == "square" else vx.Domain.disk()
    path = tmp_path / "m.txt"
    vx.write_mesh(vx.build_mesh(domain, 0.1), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MESH_FILE_DIGESTS[kind]


def test_read_mesh_rejects_tampered_facets(tmp_path, interval_mesh):
    path = tmp_path / "m.txt"
    vx.write_mesh(interval_mesh, path)
    lines = path.read_text().splitlines()
    parts = lines[-1].split()
    parts[1] = "1"  # point the last facet at an interior node
    lines[-1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(vx.MeshFailure):
        vx.read_mesh(path)


def test_read_mesh_rejects_bad_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("nonsense header\n")
    with pytest.raises(vx.MeshFailure):
        vx.read_mesh(path)
    path.write_text("")
    with pytest.raises(vx.MeshFailure):
        vx.read_mesh(path)


def _rewrite_line(path, index, edit):
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def test_read_mesh_rejects_non_numeric_coordinate(tmp_path, square_mesh):
    path = tmp_path / "m.txt"
    for value in ("abc", "nan", "inf"):
        vx.write_mesh(square_mesh, path)
        _rewrite_line(path, 1, lambda ln: f"0 {value} 0.0")
        with pytest.raises(vx.MeshFailure):
            vx.read_mesh(path)
    nodes = square_mesh.nodes.copy()
    nodes[0, 0] = np.nan
    with pytest.raises(vx.MeshFailure, match="finite"):
        vx.Mesh(nodes, square_mesh.cells)


def test_read_mesh_rejects_short_node_line(tmp_path, square_mesh):
    path = tmp_path / "m.txt"
    vx.write_mesh(square_mesh, path)
    _rewrite_line(path, 2, lambda ln: ln.rsplit(" ", 1)[0])
    with pytest.raises(vx.MeshFailure):
        vx.read_mesh(path)


def test_read_mesh_rejects_unknown_node_in_cell(tmp_path, square_mesh):
    path = tmp_path / "m.txt"
    vx.write_mesh(square_mesh, path)
    _rewrite_line(path, 1 + square_mesh.nnodes, lambda ln: "0 0 1 999")
    with pytest.raises(vx.MeshFailure):
        vx.read_mesh(path)


def test_degenerate_cell_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(vx.DegenerateCell):
        vx.Mesh(nodes, np.array([[0, 1, 2]]))


def test_build_mesh_argument_validation(interval):
    for h in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(vx.ConfigError):
            vx.build_mesh(interval, h)
    with pytest.raises(vx.MeshFailure):
        vx.build_mesh(vx.Domain.ball(np.zeros(3), 1.0), 0.1)


@pytest.mark.parametrize("h", [1e-9, 5e-324])
def test_mesh_size_bounded_before_allocation(unit_square, h):
    # rejected on the predicted cell count, before any array is built
    for domain in (vx.Domain.interval(0.0, 1.0), unit_square, vx.Domain.disk()):
        with pytest.raises(vx.MeshFailure, match="cells"):
            vx.build_mesh(domain, h)


@pytest.mark.parametrize("domain, h", [
    (vx.Domain.interval(0.0, 1.0), 0.01),
    (vx.Domain.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), 0.1),
    (vx.Domain.disk(), 0.2),
])
def test_mesh_size_prediction_is_exact(monkeypatch, domain, h):
    ncells = vx.build_mesh(domain, h).ncells
    monkeypatch.setattr(meshes, "_MAX_CELLS", ncells)
    assert vx.build_mesh(domain, h).ncells == ncells
    monkeypatch.setattr(meshes, "_MAX_CELLS", ncells - 1)
    with pytest.raises(vx.MeshFailure, match="cells"):
        vx.build_mesh(domain, h)


def test_nonconvex_polygon_meshes_cleanly():
    domain = vx.Domain.polygon(
        [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)])
    mesh = vx.build_mesh(domain, 0.25)
    assert mesh.volume == pytest.approx(3.0, abs=1e-10)
    inside = mesh.nodes[mesh.ncells // 2]
    assert domain.contains(inside[None, :])[0]


@pytest.mark.parametrize("vertices, area", [
    ([(0.5, 0), (1, 0), (1, 1), (0, 1), (0, 0)], 1.0),
    ([(1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 1), (0, 0)], 3.0),
])
def test_collinear_vertices_mesh_exactly(vertices, area):
    # the first corner is flat, so ear clipping must skip it, not clip it
    mesh = vx.build_mesh(vx.Domain.polygon(vertices), 0.25)
    assert mesh.volume == pytest.approx(area, abs=1e-12)
    lhs, rhs, rel = mesh.divergence_check()
    assert rel <= 1e-12, (lhs, rhs)


# -- oracles: the loop forms the array code replaced ------------------------

ORACLE_DOMAINS = {
    "square": (vx.Domain.polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.1),
    "l_shape": (vx.Domain.polygon(
        [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), 0.1),
    "disk": (vx.Domain.disk((0.3, -0.2), 1.5), 0.15),
    "skewed_triangle": (vx.Domain.polygon([(0.1, 0.2), (1.7, 0.5), (0.6, 1.9)]), 0.1),
}


def ref_refine_red(nodes, tris):
    """Red refinement numbering midpoints through an edge dict."""
    nodes = [tuple(x) for x in nodes]
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            xi, xj = nodes[i], nodes[j]
            nodes.append(((xi[0] + xj[0]) / 2.0, (xi[1] + xj[1]) / 2.0))
            midpoint[key] = len(nodes) - 1
        return midpoint[key]

    out = []
    for a, b, c in tris:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return np.array(nodes), np.array(out)


def ref_boundary(mesh):
    """Boundary facets, normals, lengths and cells from an edge-count dict."""
    owners = {}
    for ci, cell in enumerate(mesh.cells.tolist()):
        for k in range(3):
            v0, v1 = cell[k], cell[(k + 1) % 3]
            owners.setdefault((min(v0, v1), max(v0, v1)), []).append((ci, v0, v1))
    facets, normals, measures, fcells = [], [], [], []
    for key in sorted(owners):
        if len(owners[key]) == 1:
            ci, v0, v1 = owners[key][0]
            a, b = mesh.nodes[v0], mesh.nodes[v1]
            t = b - a
            length = float(np.linalg.norm(t))
            n = np.array([t[1], -t[0]]) / length
            if n @ (0.5 * (a + b) - mesh.nodes[mesh.cells[ci]].mean(axis=0)) < 0:
                n = -n
            facets.append([v0, v1])
            normals.append(n)
            measures.append(length)
            fcells.append(ci)
    return (np.array(facets), np.array(normals), np.array(measures),
            np.array(fcells))


def ref_boundary_distance(mesh):
    """Distance to the boundary, measuring every facet at every node."""
    d = np.full(mesh.nnodes, np.inf)
    for f in mesh.boundary_facets:
        d = np.minimum(d, _point_segment_distance_many(
            mesh.nodes, mesh.nodes[f[0]], mesh.nodes[f[1]]))
    return d


@pytest.fixture(scope="module", params=sorted(ORACLE_DOMAINS))
def oracle_mesh(request):
    domain, h = ORACLE_DOMAINS[request.param]
    return vx.build_mesh(domain, h)


@pytest.mark.parametrize("name", ["square", "l_shape", "skewed_triangle"])
def test_refine_red_matches_edge_dict(name):
    domain = ORACLE_DOMAINS[name][0]
    nodes = np.asarray(domain.vertices, dtype=float)
    tris = np.asarray(meshes._ear_clip(nodes), dtype=np.int64)
    ref_nodes, ref_tris = nodes, tris
    for _ in range(3):
        nodes, tris = meshes._refine_red(nodes, tris)
        ref_nodes, ref_tris = ref_refine_red(ref_nodes, ref_tris)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(tris, ref_tris)


def test_boundary_matches_edge_dict(oracle_mesh):
    facets, normals, measures, fcells = ref_boundary(oracle_mesh)
    assert np.array_equal(oracle_mesh.boundary_facets, facets)
    assert np.array_equal(oracle_mesh.facet_normals, normals)
    assert np.array_equal(oracle_mesh.facet_measures, measures)
    assert np.array_equal(oracle_mesh.facet_cells, fcells)
    assert np.array_equal(oracle_mesh.boundary_nodes, np.unique(facets))


def test_boundary_distance_matches_all_facets(oracle_mesh):
    d = vx.Mesh(oracle_mesh.nodes, oracle_mesh.cells).boundary_distance()
    assert np.array_equal(d, ref_boundary_distance(oracle_mesh))


def test_clockwise_cells_reoriented(square_mesh):
    clockwise = square_mesh.cells[:, [0, 2, 1]]
    given = clockwise.copy()
    again = vx.Mesh(square_mesh.nodes, clockwise)
    assert np.array_equal(clockwise, given)  # the caller's array is left alone
    assert np.array_equal(again.cells, square_mesh.cells)
    assert np.array_equal(again.cell_volumes, square_mesh.cell_volumes)
    assert np.array_equal(again.basis_grads, square_mesh.basis_grads)


def test_edge_shared_by_three_cells_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(vx.MeshFailure, match="shared by 3 cells"):
        vx.Mesh(nodes, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))


# sha256 of the unit-square h = 0.1 mesh's arrays and boundary distance.  The
# solver benchmarks' stalled epsilon levels depend on these exact bytes, so a
# change that renumbers nodes or cells, or rounds a normal differently, must
# show here first.
SQUARE_DIGESTS = {
    "nodes":
        "92bd99a208fda130dbc3ebf2e9f9ff7c21b6e7220415d481e1912e7ea8c6fd8a",
    "cells":
        "e5a1d898819f5b1c85e2941dadcc08cbc0e1d467e5d9bf95fdbc080aa86b2791",
    "boundary_facets":
        "7c651bd463c561452ae595ee6e5f8ff6a36f188a5cee7d3cbd367f2b9c79aaea",
    "facet_normals":
        "c4463eaa1ce2cdfe7e868d2cbd4162f2df7357553f9008470595d9398ad3dde2",
    "facet_measures":
        "e5b7e3f2f4a76fe96a891f4ee2f18288307487fa737181eee833d01e6b779dbe",
    "facet_cells":
        "a41bb14bd9b3ae84a65d4d6f6ae8ed06dadd01b53628be8ce41c907086359c4d",
    "boundary_distance":
        "463b7f8e290375f25b90e1b0328e9c66ce77b7fbd2115a93d24f5afc7566eecf",
}


def test_unit_square_mesh_bytes_pinned(unit_square):
    mesh = vx.build_mesh(unit_square, 0.1)
    arrays = {name: getattr(mesh, name) for name in SQUARE_DIGESTS
              if name != "boundary_distance"}
    arrays["boundary_distance"] = mesh.boundary_distance()
    digests = {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
               for name, a in arrays.items()}
    assert digests == SQUARE_DIGESTS
