"""Meshing, quadrature, boundary data, and the text file format."""

import hashlib
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    with pytest.raises(vx.ConfigError, match="one value per point"):
        vx.boundary_integral(mesh, lambda x, nu: x * nu)


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


# sha256 of the files for the disk at h = 0.02 (15,876 nodes: ids past five
# digits) and the unit interval at h = 0.1 (facet lines mix ints and floats),
# taken before write_mesh formatted a whole block with one %-format.
WIDE_MESH_FILE_DIGESTS = {
    "disk_h0.02":
        "983c1c0cfd986f983294278b9d75f30267029c9dad482755af7495a6df5d8b56",
    "interval_h0.1":
        "6cad50978c7648136fa9c04ac303d042cd61e580080bc1edb99350f98b22221f",
}


@pytest.mark.parametrize("kind", sorted(WIDE_MESH_FILE_DIGESTS))
def test_mesh_file_bytes_pinned_past_five_digit_ids(kind, tmp_path, interval):
    domain, h = ((vx.Domain.disk(), 0.02) if kind == "disk_h0.02"
                 else (interval, 0.1))
    path = tmp_path / "m.txt"
    vx.write_mesh(vx.build_mesh(domain, h), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_MESH_FILE_DIGESTS[kind]


def _assert_groups_as_np_unique(keys):
    first, counts, order, new = meshes._group(keys)
    inverse = np.empty(len(keys), dtype=np.int64)  # as _refine_red builds it
    inverse[order] = np.cumsum(new) - 1
    _, ref_first, ref_inverse, ref_counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    assert np.array_equal(first, ref_first)  # np.unique's sort is stable
    assert np.array_equal(inverse, ref_inverse)
    assert np.array_equal(counts, ref_counts)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_group_matches_np_unique(data):
    # few distinct keys from the whole int64 range, so that most repeat
    pool = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                              max_size=8, unique=True), label="pool")
    keys = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=400),
                     label="keys")
    _assert_groups_as_np_unique(np.array(keys, dtype=np.int64))


def test_group_matches_np_unique_on_long_runs(rng):
    # long enough that the unstable sort leaves ties out of index order
    keys = rng.integers(0, 1000, 100_000)
    assert not np.array_equal(np.argsort(keys), np.argsort(keys, kind="stable"))
    _assert_groups_as_np_unique(keys)


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
    path.write_text("3 4 1 4\n")
    with pytest.raises(vx.MeshFailure, match="bad mesh header"):
        vx.read_mesh(path)
    path.write_text("1 2 1 2\n0 0.0\n1 1.0\n0 0 1\n")  # no facet lines
    with pytest.raises(vx.MeshFailure, match="wrong line count"):
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


def test_read_mesh_rejects_node_ids_out_of_order(tmp_path, unit_square):
    # two interior node lines swapped whole: without the id check this read
    # back as another mesh, of volume 1.046875; an id of 999 read back too
    mesh = vx.build_mesh(unit_square, 0.1)
    path = tmp_path / "m.txt"
    i, j = 1 + mesh.interior_nodes[:2]
    for edit in ("swap", "999"):
        vx.write_mesh(mesh, path)
        lines = path.read_text().splitlines()
        if edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = "999 " + lines[i].split(" ", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(vx.MeshFailure, match="ids are not 0..288 in order"):
            vx.read_mesh(path)


@pytest.mark.parametrize("section, edit", [
    ("nodes", lambda ln: ln + " 7"),
    ("cells", lambda ln: ln + " 5"),
    ("facets", lambda ln: ln + " 0.0"),
    ("facets", lambda ln: ln.rsplit(" ", 2)[0]),  # the normal dropped
], ids=["node-extra", "cell-extra", "facet-extra", "facet-no-normal"])
def test_read_mesh_rejects_wrong_token_count(tmp_path, unit_square, section, edit):
    # each line holds exactly its id and its section's fields: a surplus
    # token, as in "0 0.0 0.0 7" or "0 3 81 83 5", is not dropped unread
    mesh = vx.build_mesh(unit_square, 0.1)
    path = tmp_path / "m.txt"
    vx.write_mesh(mesh, path)
    first = {"nodes": 1, "cells": 1 + mesh.nnodes,
             "facets": 1 + mesh.nnodes + mesh.ncells}[section]
    _rewrite_line(path, first, edit)
    with pytest.raises(vx.MeshFailure, match="malformed line"):
        vx.read_mesh(path)


def test_read_mesh_rejects_orphan_node(tmp_path, square_mesh):
    # a node that no cell uses would count as interior, and its row of every
    # stiffness matrix would be empty
    path = tmp_path / "m.txt"
    vx.write_mesh(square_mesh, path)
    lines = path.read_text().splitlines()
    dim, nn, nc, nf = lines[0].split()
    lines[0] = f"{dim} {int(nn) + 1} {nc} {nf}"
    lines.insert(1 + int(nn), f"{nn} 0.5 0.5")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(vx.MeshFailure, match=f"node {nn} belongs to no cell"):
        vx.read_mesh(path)
    nodes = np.vstack([square_mesh.nodes, [0.5, 0.5]])
    with pytest.raises(vx.MeshFailure, match="belongs to no cell"):
        vx.Mesh(nodes, square_mesh.cells)


@pytest.mark.parametrize("nodes, cells, match", [
    (np.eye(4, 3), [[0, 1, 2, 3]], "only 1D/2D meshes"),
    (np.eye(3, 2), [[0, 1]], r"cells must be \(ncells, dim\+1\)"),
    (np.eye(3, 2), np.zeros((0, 3), dtype=int), "no cells"),
], ids=["nodes_3d", "cells_wrong_width", "no_cells"])
def test_mesh_rejects_malformed_arrays(nodes, cells, match):
    with pytest.raises(vx.MeshFailure, match=match):
        vx.Mesh(nodes, cells)


def test_mesh_takes_flat_nodes_as_one_dimensional():
    flat = vx.Mesh([0.0, 0.5, 1.0], [[0, 1], [1, 2]])
    column = vx.Mesh([[0.0], [0.5], [1.0]], [[0, 1], [1, 2]])
    assert flat.dim == 1 and np.array_equal(flat.nodes, column.nodes)
    assert flat.boundary_nodes.tolist() == column.boundary_nodes.tolist() == [0, 2]


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


@pytest.mark.parametrize("k", range(-40, 41, 10))
def test_polygon_meshes_alike_at_every_scale(k):
    # ear clipping weighs orientations, which are areas, against the squared
    # longest side, and scaling by a power of two is exact: a scaled L-shape
    # meshes into the unit one's cells with exactly scaled nodes
    l_shape = np.array([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], float)
    unit = vx.build_mesh(vx.Domain.polygon(l_shape), 0.25)
    mesh = vx.build_mesh(vx.Domain.polygon(2.0**k * l_shape), 2.0**k * 0.25)
    assert np.array_equal(mesh.cells, unit.cells)
    assert np.array_equal(mesh.nodes, 2.0**k * unit.nodes)


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


def long_facet_strip():
    """Rows of short facets over a bottom facet of length 1: from the nodes
    just above it, the three nearest facet midpoints are short facets'."""
    x = np.linspace(0.0, 1.0, 21)
    rows = [np.column_stack([x, np.full(21, y)]) for y in (0.05, 0.1, 0.15, 0.2)]
    nodes = np.vstack([[[0.0, 0.0], [1.0, 0.0]], *rows])  # row r, column j: 2 + 21r + j
    j = np.arange(20)
    cells = [[[0, 1, 22]], np.column_stack([np.zeros(20, int), 3 + j, 2 + j])]
    for a in (2 + 21 * r + j for r in range(3)):
        cells += [np.column_stack([a, a + 1, a + 22]),
                  np.column_stack([a, a + 22, a + 21])]
    return vx.Mesh(nodes, np.vstack(cells))


def test_boundary_distance_bowtie_strip_and_off_center_disk():
    # two refined triangles meeting at one vertex, which has four facets; a
    # strip whose nearest facet lies beyond the three nearest midpoints; and
    # a disk whose center is not the origin
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [2, 4, 3]])
    for _ in range(3):
        nodes, cells = meshes._refine_red(nodes, cells)
    bowtie = vx.Mesh(nodes, cells)
    pinch = int(np.flatnonzero(np.all(bowtie.nodes == 0.5, axis=1))[0])
    assert np.sum(bowtie.boundary_facets == pinch) == 4
    strip = long_facet_strip()
    assert strip.facet_measures.max() == 1.0
    disk = vx.build_mesh(vx.Domain.disk((0.4, -0.3), 1.7), 0.05)
    for mesh in (bowtie, strip, disk):
        assert np.array_equal(mesh.boundary_distance(), ref_boundary_distance(mesh))
    # the nodes just above the long facet are nearest to it
    assert np.allclose(strip.boundary_distance()[3:22], 0.05, rtol=1e-13, atol=0.0)


def test_matvec_rounds_as_swapped_rowdot():
    # boundary_distance measures many facets at once through this identity:
    # the (k, 2) @ (2,) matvec of k >= 2 rows rounds each row as _rowdot does
    # on contiguous column-swapped copies, and a single row as _rowdot does
    # unswapped.  A numpy or BLAS change that breaks it fails here first.
    rng = np.random.default_rng(7)
    for k in range(1, 65):
        d = rng.standard_normal((k, 2)) * rng.uniform(0.01, 100.0, (k, 1))
        ab = rng.standard_normal(2)
        rows = np.tile(ab, (k, 1))
        if k == 1:
            assert np.array_equal(d @ ab, meshes._rowdot(d, rows))
        else:
            assert np.array_equal(
                d @ ab, meshes._rowdot(d[:, ::-1].copy(), rows[:, ::-1].copy()))


@pytest.mark.parametrize("nverts", [1, 2, 3])
def test_simplex_rule_matches_einsum(nverts):
    rng = np.random.default_rng(nverts)
    nodes = rng.standard_normal((40, 1 if nverts == 1 else 2))
    nodes[3] = -0.0
    simplices = rng.integers(0, 40, (200, nverts))
    simplices[:5] = 3  # simplices at the -0.0 node only
    measures = rng.uniform(0.1, 1.0, 200)
    pts, w, bary = meshes._simplex_rule(nodes, simplices, measures)
    ref = np.einsum("qv,svd->sqd", bary, nodes[simplices])
    assert pts.flags.c_contiguous
    assert pts.tobytes() == ref.tobytes()  # -0.0 summed from +0.0 as well
    assert np.array_equal(w, measures[:, None] * meshes._RULES[nverts][1])


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


def test_mesh_without_boundary_facet_rejected():
    # two copies of one triangle share each of its edges
    with pytest.raises(vx.MeshFailure, match="mesh has no boundary facets"):
        vx.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2], [0, 1, 2]])


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


def mesh_digests(mesh, names):
    """sha256 of the named Mesh attributes, methods (boundary_distance) called."""
    def digest(name):
        value = getattr(mesh, name)
        value = value() if callable(value) else value
        return hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()

    return {name: digest(name) for name in names}


def test_unit_square_mesh_bytes_pinned(unit_square):
    mesh = vx.build_mesh(unit_square, 0.1)
    assert mesh_digests(mesh, SQUARE_DIGESTS) == SQUARE_DIGESTS


# -- the 1D path, pinned like the square ------------------------------------


def nonuniform_interval_mesh():
    """Graded nodes on [-1, 2] in increasing id order; every third cell is
    given right to left and the cells are listed out of order."""
    x = -1.0 + 3.0 * (1.0 - np.cos(np.linspace(0.0, np.pi / 2, 14)))
    cells = np.column_stack([np.arange(13), np.arange(1, 14)])
    cells[::3] = cells[::3, ::-1]
    return vx.Mesh(x[:, None], cells[np.random.default_rng(7).permutation(13)])


# sha256 of two 1D meshes' arrays, mesh size and boundary distance: the
# interval [0, 1] at h = 0.1 from build_mesh and nonuniform_interval_mesh().
INTERVAL_DIGESTS = {
    "uniform": {
        "nodes":
            "f0552784a8c8aa31a1f50071b2cfc0a35264691eb979cceb2dc96e621eb41453",
        "cells":
            "c9ebdb784e59d67168f469d615391b72eea2b29db2c9e6b24cba68ca33a721e0",
        "cell_volumes":
            "e3cc6247dfd235632c2847e091da1fdf308812b29838f13fa25d9bea4068ac44",
        "basis_grads":
            "11856f11ac3d5277b955fbaf7b866f91307f21b441ba775508a691d2dcce843b",
        "boundary_facets":
            "4ab5e45571b9db4e2d397a37fe9ef3b436ccd6f764544c306518f679774e5f37",
        "facet_normals":
            "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5",
        "facet_measures":
            "5f07eef034c5a21fedede8ef2f970fefbcc8ea44c02fd970117dacbee5483005",
        "facet_cells":
            "67c78fdc208c019f15520b78bfd1df7820340a7c1eba5d1d37eb2ac0c8c301f2",
        "interior_nodes":
            "ceb56e57db5af8695e2e81ff43946339e01802cd523f8472c10a67bda25a22e0",
        "boundary_distance":
            "ca00c6649a4d670b67cbf21c44725455662261cbfd0b062ef714afe2701ba268",
        "h":
            "785b98d01c31b1dd6f3ac127c38f422ef7bae693f476c0894a42fa6238edd3f5",
    },
    "nonuniform": {
        "nodes":
            "901c9409c6ed892b565da594baa07615673f202f13ee8239727c098e2d499c82",
        "cells":
            "86b4c0d27d836093ab5a23fa8127a88e5d3e27d5ad33b9c7b0529b0ebabad111",
        "cell_volumes":
            "4f2fec44675a1f8a75e0b4226deee13976fa28f81c7f262dbac03bc1a7c3ab43",
        "basis_grads":
            "54d84da0def6ff53ead3bef7f705a2dc78de186bf56f19b2152c96d53cecd049",
        "boundary_facets":
            "c9f02aed3d8bbc6a23eb3173c19d361fc322adb8535b4148d320642760748d98",
        "facet_normals":
            "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5",
        "facet_measures":
            "5f07eef034c5a21fedede8ef2f970fefbcc8ea44c02fd970117dacbee5483005",
        "facet_cells":
            "92efcee53c47cddb0adf55c2c88947787d7744a1c384d99976493419ac9feed9",
        "interior_nodes":
            "a2a5d426b0027a8e8cc28cfd6ee59b118d01d66a1a21c92c874e5f85902cba2e",
        "boundary_distance":
            "e01868011ab8d733f90f1d5872f7ab9334431ca4719d9ed93b1ea17da2a7db26",
        "h":
            "9744af4546a6a78ab3f8fe923973a6a03325062e2f5c918bbdd358c4b85279bd",
    },
}


@pytest.mark.parametrize("name", sorted(INTERVAL_DIGESTS))
def test_interval_mesh_bytes_pinned(name, interval):
    mesh = (vx.build_mesh(interval, 0.1) if name == "uniform"
            else nonuniform_interval_mesh())
    pins = INTERVAL_DIGESTS[name]
    assert mesh_digests(mesh, pins) == pins


def test_interval_boundary_distance_is_the_nearer_end():
    # one path for every mesh: where facets are points, the distance to the
    # nearest boundary vertex is the answer, and it has the bytes of the
    # plain formula on offset, scaled and graded intervals
    rng = np.random.default_rng(3)
    ends = [(0.0, 1.0), (-1.0, 3.0), (2.5, 2.501), (-7e4, 2.3e5), (1e-6, 3e-6)]
    ends += [(a, a + w) for a, w in zip(rng.normal(0.0, 100.0, 20),
                                        10.0 ** rng.uniform(-3.0, 3.0, 20))]
    cases = [vx.build_mesh(vx.Domain.interval(a, b), (b - a) / n)
             for a, b in ends for n in (1, 2, 7, 50, 333)]
    for mesh in [*cases, nonuniform_interval_mesh()]:
        plain = np.abs(mesh.nodes - mesh.nodes[mesh.boundary_nodes].T).min(axis=1)
        assert mesh.boundary_distance().tobytes() == plain.tobytes()


def test_reversed_interval_cells_reoriented(interval_mesh):
    reversed_cells = interval_mesh.cells[:, ::-1]
    given = reversed_cells.copy()
    again = vx.Mesh(interval_mesh.nodes, reversed_cells)
    assert np.array_equal(reversed_cells, given)  # the caller's array is left alone
    for name in ("cells", "cell_volumes", "basis_grads", "boundary_facets",
                 "facet_normals", "facet_measures", "facet_cells", "interior_nodes"):
        assert np.array_equal(getattr(again, name), getattr(interval_mesh, name)), name
    assert again.h == interval_mesh.h


def test_interval_mesh_with_gap_rejected():
    nodes = np.linspace(0.0, 1.0, 6)[:, None]
    with pytest.raises(vx.MeshFailure, match="4 endpoints"):
        vx.Mesh(nodes, np.array([[0, 1], [1, 2], [3, 4], [4, 5]]))
