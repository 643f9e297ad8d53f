"""Simplicial meshes (segments in 1D, triangles in 2D) with P1 structure.

Polygons are meshed by ear clipping followed by uniform red refinement
(exact area, conforming by construction).  Disks are meshed by mapping a
structured triangulated square onto the disk; boundary nodes land exactly
on the circle, so the mesh is an inscribed polygon and the O(h^2) area
defect is reported rather than hidden.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property, reduce
from itertools import chain

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.spatial import cKDTree

from .domains import _orient
from .errors import ConfigError, DegenerateCell, MeshFailure, NonFiniteIntegrand

# Largest mesh build_mesh makes: 2^22 cells, 64 times the 65,536 cells of an
# L-shape at h = 0.025.  Red refinement of a polygon at h = 1e-9 would ask
# for about 4^31 cells.
_MAX_CELLS = 2**22
# Size ratios are capped here before rounding, so that one that overflows
# (a tiny h) still gives a cell count, which _MAX_CELLS then rejects.
_RATIO_CAP = 2.0**64
_EAR_TOL = 1e-12  # a vertex this close to an ear's triangle blocks the ear

# The one quadrature rule per simplex, by its vertex count, as barycentric
# points and weights summing to one: the point itself (1D boundary facets),
# 3-point Gauss-Legendre on segments (1D cells and 2D boundary facets), exact
# for degree 5, and the symmetric 3-point rule on triangles, exact for
# polynomials of degree 2.
_xi, _wi = leggauss(3)
_ti = 0.5 * (_xi + 1.0)
_RULES = {
    1: (np.ones((1, 1)), np.ones(1)),
    2: (np.column_stack([1.0 - _ti, _ti]), 0.5 * _wi),
    3: (np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
        np.full(3, 1 / 3)),
}


def _rowdot(u, v):
    """Row-wise dot products, rounded as np.dot rounds each row on its own.
    A (k, 2) @ (2,) matvec with k >= 2 rounds each row as _rowdot does on
    contiguous copies with both columns swapped (strided views may not)."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _simplex_rule(nodes, simplices, measures):
    """_RULES mapped onto simplices of the given measures: points (ns, nq,
    dim), weights (ns, nq) and the rule's barycentric points (nq, nverts);
    points sum over the vertices from +0.0, in einsum's order."""
    bary, wref = _RULES[simplices.shape[1]]
    corners = _corners(nodes, simplices)
    pts = reduce(np.add, map(np.multiply.outer, bary.T, corners), 0.0)
    return pts.transpose(2, 0, 1).copy(), measures[:, None] * wref[None, :], bary


def _corners(nodes, simplices):
    """The simplices' vertex coordinates, (vertex, coordinate, simplex)."""
    return np.take(nodes.T, simplices.T, axis=1).swapaxes(0, 1)


def _det(a):
    """Determinants of the (m, m, ...) matrices a by first-row expansion; a
    0 x 0 matrix has determinant 1."""
    if len(a) == 0:
        return np.ones(a.shape[2:])
    return reduce(np.add, a[0] * _cross(a[1:]))


def _cross(rows):
    """Generalized cross product of the (d - 1, d, ...) rows: entry j is
    (-1)^j times the minor without column j."""
    return np.stack([(-1) ** j * _det(np.delete(rows, j, axis=1))
                     for j in range(rows.shape[1])])


def _cell_geometry(nodes, cells):
    """Every edge x_j - x_i (i < j) of every cell, (pairs, dim, ncells), and
    the determinant and cofactor matrix (dim, dim, ncells) of each cell's
    edge matrix E, whose rows are x_k - x_0: det is E's first row dotted
    with cofactor row 0."""
    d = nodes.shape[1]
    corners = _corners(nodes, cells)
    i, j = np.triu_indices(d + 1, 1)
    edges = corners[j] - corners[i]
    E = edges[:d]
    cof = np.stack([(-1) ** k * _cross(np.delete(E, k, axis=0)) for k in range(d)])
    return edges, reduce(np.add, E[0] * cof[0]), cof


class Mesh:
    """Nodes plus simplices, with precomputed P1 machinery.

    Attributes of note: cell_volumes, basis_grads (per-cell gradients of the
    barycentric basis, shape (ncells, dim+1, dim)), boundary_facets with unit
    outward facet_normals / facet_measures / adjacent facet_cells, and
    interior_nodes / boundary_nodes index arrays.  Built on first use and
    cached: quadrature, facet quadrature, boundary distance, the nodes' kd-tree,
    fem._assemble's ordered CSC pattern per node set and live exponents' samples.
    """

    def __init__(self, nodes, cells):
        self.nodes = np.asarray(nodes, dtype=float)
        if self.nodes.ndim == 1:
            self.nodes = self.nodes[:, None]
        self.cells = np.asarray(cells, dtype=np.int64)
        self.dim = self.nodes.shape[1]
        if self.dim not in (1, 2):
            raise MeshFailure(f"only 1D/2D meshes supported, got dim {self.dim}")
        if self.cells.ndim != 2 or self.cells.shape[1] != self.dim + 1:
            raise MeshFailure("cells must be (ncells, dim+1) vertex indices")
        if len(self.cells) == 0:
            raise MeshFailure("mesh has no cells")
        if self.cells.min() < 0 or self.cells.max() >= len(self.nodes):
            raise MeshFailure(f"cells name nodes outside 0..{len(self.nodes) - 1}")
        if not np.all(np.isfinite(self.nodes)):
            raise MeshFailure("mesh node coordinates must be finite")
        uses = np.bincount(self.cells.ravel(), minlength=len(self.nodes))
        if uses.min() == 0:
            raise MeshFailure(f"node {int(np.argmin(uses))} belongs to no cell")
        self._setup()
        self._find_boundary()
        self._quad = None
        self._facet_quad = None
        self._bdist = None
        self._patterns = {}  # fem._assemble's CSC pattern and column order by node set
        self._exponent_samples = weakref.WeakKeyDictionary()
        self._mollifiers = None  # fem.mollify's kernels by radius, in a cascade

    # -- construction details ---------------------------------------------

    def _setup(self):
        d = self.dim
        edges, det, cof = _cell_geometry(self.nodes, self.cells)
        flip = det < 0
        if np.any(flip):  # a new array: the caller's cells stay as given
            swap = np.r_[: d - 1, d, d - 1]  # the last two vertices
            self.cells = np.where(flip[:, None], self.cells[:, swap], self.cells)
            edges, det, cof = _cell_geometry(self.nodes, self.cells)
        self.cell_volumes = det / math.factorial(d)
        vmax = float(self.cell_volumes.max())
        if vmax <= 0 or np.any(self.cell_volumes < 1e-13 * vmax):
            bad = int(np.argmin(self.cell_volumes))
            raise DegenerateCell(f"cell {bad} has volume {self.cell_volumes[bad]:.3e}")
        grads = cof / det  # grads[k - 1]: the basis gradient of vertex k >= 1
        self.basis_grads = np.empty((len(det), d + 1, d))
        self.basis_grads[:, 0] = -reduce(np.add, grads).T
        self.basis_grads[:, 1:] = grads.transpose(2, 0, 1)
        self.volume = float(self.cell_volumes.sum())
        self.h = float(np.sqrt((edges * edges).sum(axis=1).max()))

    def _find_boundary(self):
        # face k * ncells + ci is cell ci's vertices k, ..., k + dim - 1 (mod
        # dim + 1); a boundary facet is a face whose (min, max) key occurs once
        d, n, nc = self.dim, len(self.nodes), len(self.cells)
        cols = [np.roll(self.cells.T, -k, axis=0).ravel() for k in range(d)]
        keys = reduce(np.minimum, cols) * n + reduce(np.maximum, cols)
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        if counts.max() > 2:
            k = int(np.argmax(counts > 2))
            face = tuple(sorted(int(c[first[k]]) for c in cols))
            raise MeshFailure(f"facet {face} shared by {counts[k]} cells")
        once = first[counts == 1]
        if d == 1 and len(once) != 2:
            raise MeshFailure(f"1D mesh has {len(once)} endpoints, expected 2")
        if len(once) == 0:
            raise MeshFailure("mesh has no boundary facets")
        self.boundary_facets = np.column_stack([c[once] for c in cols])
        self.facet_cells = once % nc
        # measure sqrt(det(T T^T)) and normal cross(T) / measure from the
        # facet's edge vectors T (a point facet: 1 and +1), turned away from
        # its cell's centroid
        corners = _corners(self.nodes, self.boundary_facets)
        t = corners[1:] - corners[:1]
        self.facet_measures = np.sqrt(_det((t.transpose(2, 0, 1) @ t.T).T))
        normals = (_cross(t) / self.facet_measures).T.copy()
        centroid = _corners(self.nodes, self.cells[self.facet_cells]).mean(axis=0)
        normals[_rowdot(normals, (corners.mean(axis=0) - centroid).T) < 0] *= -1.0
        self.facet_normals = normals
        self.boundary_nodes = np.unique(self.boundary_facets.ravel())
        self.interior_nodes = np.delete(np.arange(n), self.boundary_nodes)

    # -- quadrature --------------------------------------------------------

    @property
    def nnodes(self):
        return len(self.nodes)

    @property
    def ncells(self):
        return len(self.cells)

    def quadrature(self):
        """(points (nc, nq, dim), weights (nc, nq), bary (nq, nverts)), cached."""
        if self._quad is None:
            self._quad = _simplex_rule(self.nodes, self.cells, self.cell_volumes)
        return self._quad

    def facet_quadrature(self):
        """(points (nf, nq, dim), weights (nf, nq)) on boundary facets, cached."""
        if self._facet_quad is None:
            self._facet_quad = _simplex_rule(self.nodes, self.boundary_facets,
                                             self.facet_measures)[:2]
        return self._facet_quad

    @cached_property
    def _node_tree(self):  # fem.mollify's pair search
        return cKDTree(self.nodes)

    def boundary_distance(self):
        """Distance from each node x to the boundary (cached).

        d_v, the distance to the nearest boundary vertex, is the answer where
        facets are points and an upper bound where they are segments.  If a
        segment's point p nearest x lies inside it, x - p is normal to it, so
        its midpoint lies within reach = sqrt(d_v^2 + half^2) of x, and that
        segment lowers d_v: it is among the 3 nearest midpoints or in a ball
        query.  Else p is a vertex.  t rounds as one facet's matvec: _rowdot.
        """
        if self._bdist is not None:
            return self._bdist
        nodes, facets = self.nodes, self.boundary_facets
        d = cKDTree(nodes[self.boundary_nodes]).query(nodes)[0]
        if facets.shape[1] == 2:
            a = nodes[facets[:, 0]]
            ab = nodes[facets[:, 1]] - a
            half = 0.5 * self.facet_measures.max()
            reach = np.sqrt(d * d + half * half) + 1e-9 * (half + np.abs(nodes).max())
            tree = cKDTree(a + 0.5 * ab)
            dist, near3 = tree.query(nodes, k=3)
            more = np.flatnonzero(dist[:, -1] <= reach)  # the third is within reach
            wide = tree.query_ball_point(nodes[more], reach[more])
            node, k = np.nonzero(dist <= reach[:, None])
            facet = np.r_[near3[node, k], np.fromiter(chain(*wide), np.int64)]
            node = np.r_[node, np.repeat(more, [len(f) for f in wide])]
            x, a, ab, ab2 = nodes[node], a[facet], ab[facet], _rowdot(ab, ab)[facet]
            t = _rowdot((x - a)[:, ::-1].copy(), ab[:, ::-1].copy()) / ab2
            x -= a + np.clip(t, 0.0, 1.0)[:, None] * ab
            np.minimum.at(d, node, np.sqrt((x * x).sum(axis=1)))
        self._bdist = d
        return d

    def divergence_check(self):
        """Return (boundary integral of x.nu, dim * volume, relative error)."""
        lhs = boundary_integral(self, lambda x, nu: np.sum(x * nu, axis=1))
        rhs = self.dim * self.volume
        return lhs, rhs, abs(lhs - rhs) / abs(rhs)


def boundary_integral(mesh, density):
    """Integrate density(x, nu) over the mesh boundary.

    density is called with x (npts, dim) and the matching outward unit
    normals nu (npts, dim), and must return values (npts,).
    """
    pts, w = mesh.facet_quadrature()
    nf, nq, dim = pts.shape
    nu = np.repeat(mesh.facet_normals[:, None, :], nq, axis=1)
    vals = np.asarray(density(pts.reshape(-1, dim), nu.reshape(-1, dim)), dtype=float)
    if vals.shape != (nf * nq,):
        raise ConfigError("boundary density must return one value per point")
    if not np.all(np.isfinite(vals)):
        bad = pts.reshape(-1, dim)[~np.isfinite(vals)][0]
        raise NonFiniteIntegrand(f"non-finite boundary integrand at x = {bad}")
    return float(np.sum(vals.reshape(nf, nq) * w))


# -- mesh generation -------------------------------------------------------


def build_mesh(domain, h_target):
    """Mesh a domain with target resolution h_target (post: h <= 2*h_target).

    The cell count is predicted before anything is allocated, and a mesh of
    more than _MAX_CELLS cells raises MeshFailure.
    """
    if not (h_target > 0 and math.isfinite(h_target)):
        raise ConfigError(f"h_target must be positive and finite, got {h_target}")
    if domain.kind == "interval":
        a, b = domain.vertices[:, 0].tolist()
        n = max(1, math.ceil(min((b - a) / h_target, _RATIO_CAP)))
        _check_cells(n)
        nodes = np.linspace(a, b, n + 1)[:, None]
        cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        mesh = Mesh(nodes, cells)
        _check_volume(mesh, domain.volume())
    elif domain.kind == "polygon":
        mesh = _mesh_polygon(domain, h_target)
        _check_volume(mesh, domain.volume())
    elif domain.kind == "disk":
        mesh = _mesh_disk(domain, h_target)
    else:
        raise MeshFailure(f"domain kind {domain.kind!r} is analytic-only, not meshable")
    lhs, rhs, rel = mesh.divergence_check()
    if rel > 1e-6:
        raise MeshFailure(
            f"divergence self-test failed: bnd integral {lhs:.12g} vs {rhs:.12g}"
        )
    if mesh.h > 2 * h_target * (1 + 1e-12):
        raise MeshFailure(f"mesh h = {mesh.h:.3g} exceeds 2 * h_target")
    return mesh


def _check_cells(count):
    if count > _MAX_CELLS:
        raise MeshFailure(f"mesh would have {count} cells, more than {_MAX_CELLS}")


def _check_volume(mesh, exact):
    if abs(mesh.volume - exact) > 1e-8 * abs(exact):
        raise MeshFailure(
            f"mesh volume {mesh.volume:.12g} != domain volume {exact:.12g}"
        )


def _mesh_polygon(domain, h_target):
    nodes = np.asarray(domain.vertices, dtype=float)
    tris = np.asarray(_ear_clip(nodes), dtype=np.int64)
    corners = nodes[tris]
    edges = (corners - np.roll(corners, -1, axis=1)).reshape(-1, 2)
    d0 = float(np.sqrt(_rowdot(edges, edges)).max())
    ratio = min(d0 / h_target, _RATIO_CAP)
    levels = max(0, math.ceil(math.log2(ratio))) if d0 > h_target else 0
    _check_cells(len(tris) * 4**levels)
    for _ in range(levels):
        nodes, tris = _refine_red(nodes, tris)
    return Mesh(nodes, tris)


def _refine_red(nodes, tris):
    """Split each triangle (a, b, c) into four at its edge midpoints.

    Midpoints are appended to the nodes in order of first appearance over
    each triangle's edges ab, bc, ca.
    """
    a, b, c = tris.T
    ends = np.stack([a, b, b, c, c, a], axis=1).reshape(-1, 2)
    keys = ends.min(axis=1) * len(nodes) + ends.max(axis=1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    ab, bc, ca = (len(nodes) + rank[inverse]).reshape(-1, 3).T
    new = ends[np.sort(first)]
    nodes = np.vstack([nodes, (nodes[new[:, 0]] + nodes[new[:, 1]]) / 2.0])
    out = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return nodes, out.reshape(-1, 3)


def _ear_clip(verts):
    """Triangulate a simple CCW polygon, which always has an ear, into triples."""
    remaining = list(range(len(verts)))
    tris = []
    while len(remaining) > 3:
        m = len(remaining)
        for k in range(m):
            corner = remaining[k - 1], remaining[k], remaining[(k + 1) % m]
            a, b, c = verts[list(corner)]
            if _orient(a, b, c) <= 1e-14:
                continue
            others = [j for j in remaining if j not in corner]
            if np.any(_in_triangle(verts[others], a, b, c)):
                continue
            tris.append(corner)
            remaining.pop(k)
            break
        else:
            raise MeshFailure("ear clipping found no ear; is the polygon simple?")
    tris.append(tuple(remaining))
    return tris


def _in_triangle(pts, a, b, c):
    s1, s2, s3 = _orient(a, b, pts), _orient(b, c, pts), _orient(c, a, pts)
    return (s1 > -_EAR_TOL) & (s2 > -_EAR_TOL) & (s3 > -_EAR_TOL)


def _mesh_disk(domain, h_target):
    # One grid serves: its spacing 2R/m is at most 0.8 h_target and the map
    # does not lengthen edges, so h stays well below build_mesh's 2 h_target.
    R, center = domain.radius, domain.center
    m = max(2, math.ceil(min(2.5 * R / h_target, _RATIO_CAP)))
    _check_cells(2 * m * m)
    s = np.linspace(-1.0, 1.0, m + 1)
    X, Y = np.meshgrid(s, s, indexing="ij")
    # square -> disk map; the square boundary lands exactly on the circle
    U = X * np.sqrt(1.0 - 0.5 * Y**2)
    V = Y * np.sqrt(1.0 - 0.5 * X**2)
    nodes = np.column_stack([U.ravel(), V.ravel()]) * R + center

    # two cells per grid square (i, j), squares in row-major order
    i, j = np.divmod(np.arange(m * m), m)
    n00 = i * (m + 1) + j
    n10, n01, n11 = n00 + m + 1, n00 + 1, n00 + m + 2
    cells = np.where(
        ((i < m // 2) == (j < m // 2))[:, None],
        np.column_stack([n00, n10, n11, n00, n11, n01]),
        np.column_stack([n00, n10, n01, n10, n11, n01]),
    )
    return Mesh(nodes, cells.reshape(-1, 3))


# -- plain-text mesh exchange format ---------------------------------------


def write_mesh(mesh, path):
    """Write the text format: header "N nodes cells facets", then node lines
    "id x [y]", cell lines "id n0 n1 [n2]", facet lines "id n0 [n1] nx [ny]".
    """
    lines = [
        f"{mesh.dim} {mesh.nnodes} {mesh.ncells} {len(mesh.boundary_facets)}",
        *_numbered(mesh.nodes),
        *_numbered(mesh.cells),
        *_numbered(mesh.boundary_facets, mesh.facet_normals),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _numbered(*blocks):
    """Lines "i v0 v1 ..." of the blocks' columns, formatted column by column."""
    cols = [map(repr, col.tolist()) for block in blocks for col in block.T]
    return map(" ".join, zip(map(str, range(len(blocks[0]))), *cols))


def read_mesh(path):
    """Read the text format written by write_mesh and rebuild the mesh.

    Facet lines are validated against the boundary derived from the cells;
    a mismatch, or a malformed line, raises MeshFailure.
    """
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise MeshFailure(f"empty mesh file {path}")
    try:
        dim, nn, nc, nf = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise MeshFailure(f"bad mesh header in {path}") from exc
    if dim not in (1, 2) or min(nn, nc, nf) < 1:
        raise MeshFailure(f"bad mesh header in {path}")
    if len(lines) != 1 + nn + nc + nf:
        raise MeshFailure(f"mesh file {path} has wrong line count")
    try:
        nodes = _columns(lines[1 : 1 + nn], dim, float)
        cells = _columns(lines[1 + nn : 1 + nn + nc], dim + 1, np.int64)
        declared = _columns(lines[1 + nn + nc :], dim, np.int64)
    except ValueError as exc:
        raise MeshFailure(f"malformed line in {path}: {exc}") from exc
    mesh = Mesh(nodes, cells)
    if not np.array_equal(
        np.unique(np.sort(declared, axis=1), axis=0),
        np.unique(np.sort(mesh.boundary_facets, axis=1), axis=0),
    ):
        raise MeshFailure(f"facets in {path} disagree with cell boundary")
    return mesh


def _columns(lines, ncols, dtype):
    """The ncols values after the leading id of each line, as an array."""
    return np.loadtxt(lines, dtype=dtype, usecols=range(1, 1 + ncols), ndmin=2,
                      comments=None)
