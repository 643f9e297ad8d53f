"""P1 fields on meshes: gradients, truncation, mollification, integration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve
from scipy.spatial import cKDTree

from .errors import ConfigError, NonFiniteIntegrand


class DiscreteField:
    """Nodal values of a piecewise-linear function on a mesh.

    zero_trace=True zeroes the boundary nodes on construction and keeps
    them zero, so the field lies in the discrete zero-trace space.
    """

    def __init__(self, mesh, values, zero_trace=False):
        self.mesh = mesh
        self.values = np.array(values, dtype=float).ravel()
        if len(self.values) != mesh.nnodes:
            raise ConfigError(
                f"field has {len(self.values)} values for {mesh.nnodes} nodes"
            )
        self.zero_trace = bool(zero_trace)
        if self.zero_trace:
            self.values[mesh.boundary_nodes] = 0.0

    @classmethod
    def zeros(cls, mesh, zero_trace=True):
        return cls(mesh, np.zeros(mesh.nnodes), zero_trace=zero_trace)

    @classmethod
    def interpolate(cls, mesh, fn, zero_trace=False):
        """Nodal interpolation of fn(points) -> values."""
        return cls(mesh, np.asarray(fn(mesh.nodes), dtype=float), zero_trace)

    def copy(self):
        return DiscreteField(self.mesh, self.values.copy(), self.zero_trace)

    def __add__(self, other):
        self._compat(other)
        return DiscreteField(
            self.mesh, self.values + other.values, self.zero_trace and other.zero_trace
        )

    def __sub__(self, other):
        self._compat(other)
        return DiscreteField(
            self.mesh, self.values - other.values, self.zero_trace and other.zero_trace
        )

    def __mul__(self, scalar):
        return DiscreteField(self.mesh, self.values * float(scalar), self.zero_trace)

    __rmul__ = __mul__

    def __neg__(self):
        return DiscreteField(self.mesh, -self.values, self.zero_trace)

    def _compat(self, other):
        if other.mesh is not self.mesh:
            raise ConfigError("fields live on different meshes")


@dataclass
class GradientField:
    """Per-cell constant gradient of a P1 field."""

    mesh: object
    vectors: np.ndarray

    def magnitude(self):
        return np.linalg.norm(self.vectors, axis=1)


def gradient(u):
    """Exact per-cell gradient of a P1 field."""
    mesh = u.mesh
    vec = np.einsum("cv,cvd->cd", u.values[mesh.cells], mesh.basis_grads)
    return GradientField(mesh=mesh, vectors=vec)


def field_on_quadrature(u):
    """Values of the P1 field at the cell quadrature points, (nc, nq)."""
    _, _, bary = u.mesh.quadrature()
    return np.einsum("qv,cv->cq", bary, u.values[u.mesh.cells])


def mesh_l2(u):
    """Mesh-level L2 norm computed with the cell quadrature."""
    _, w, _ = u.mesh.quadrature()
    vals = field_on_quadrature(u)
    return float(np.sqrt(np.sum(w * vals**2)))


def integrate(mesh, integrand, u=None):
    """Quadrature integral of integrand(x, u(x), grad u(x)) over the mesh.

    integrand receives x (npts, dim) and, when u is given, the interpolated
    values (npts,) and per-cell gradients (npts, dim); otherwise None for
    both.  Raises NonFiniteIntegrand at the first bad point.
    """
    pts, w, _ = mesh.quadrature()
    nc, nq, dim = pts.shape
    x = pts.reshape(-1, dim)
    if u is not None:
        uq = field_on_quadrature(u).reshape(-1)
        gq = np.repeat(gradient(u).vectors[:, None, :], nq, axis=1).reshape(-1, dim)
    else:
        uq = gq = None
    vals = np.asarray(integrand(x, uq, gq), dtype=float)
    if vals.shape != (nc * nq,):
        raise ConfigError("integrand must return one value per quadrature point")
    if not np.all(np.isfinite(vals)):
        bad = x[~np.isfinite(vals)][0]
        raise NonFiniteIntegrand(f"non-finite integrand at x = {bad}")
    return float(np.sum(vals.reshape(nc, nq) * w))


# -- truncation ------------------------------------------------------------


def cutoff_profile(s, n):
    """C^1 truncation: identity up to n, then a saturating exponential
    approach to n+1 (value n and slope 1 at |s| = n; |g| < n+1)."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    out = np.where(a <= n, a, (n + 1.0) - np.exp(-(np.maximum(a, n) - n)))
    return np.sign(s) * out


def cutoff(u, n):
    """Apply the nodal truncation g_n to a field."""
    if n <= 0:
        raise ConfigError("cutoff level n must be positive")
    return DiscreteField(u.mesh, cutoff_profile(u.values, n), u.zero_trace)


# -- mollification ---------------------------------------------------------


def mollify(u, radius):
    """Discrete mollification with a polynomial bump kernel.

    Each node gets the mass-weighted kernel average of its neighbors within
    `radius` (kernel (1 - r^2/radius^2)^3, normalized per node, so the
    output is a convex combination: sup norm never grows and nonnegativity
    is preserved).  Nodes within radius + h of the boundary are not averaged
    and stay zero, so the result has zero trace.
    """
    if radius <= 0:
        raise ConfigError("mollifier radius must be positive")
    mesh = u.mesh
    nodes = mesh.nodes
    nv = mesh.cells.shape[1]
    lumped = np.zeros(mesh.nnodes)
    np.add.at(lumped, mesh.cells.ravel(),
              np.repeat(mesh.cell_volumes / nv, nv))

    out = np.zeros(mesh.nnodes)
    keep = np.flatnonzero(mesh.boundary_distance() > radius + mesh.h + 1e-12)
    tree = cKDTree(nodes)
    neighborhoods = tree.query_ball_point(nodes[keep], radius)
    r2 = radius * radius
    for i, nbrs in zip(keep, neighborhoods):
        idx = np.asarray(nbrs, dtype=np.int64)
        d2 = np.sum((nodes[idx] - nodes[i]) ** 2, axis=1)
        wk = (1.0 - d2 / r2) ** 3 * lumped[idx]
        out[i] = float(wk @ u.values[idx]) / float(wk.sum())
    return DiscreteField(mesh, out, zero_trace=True)


# -- projection ------------------------------------------------------------


def _assemble_matrix(mesh, elem):
    """Sum per-cell (nv, nv) blocks into a CSR matrix over the mesh nodes."""
    nv = mesh.cells.shape[1]
    rows = np.repeat(mesh.cells, nv, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, nv)).ravel()
    n = mesh.nnodes
    return sparse.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def mass_matrix(mesh):
    """Consistent P1 mass matrix (CSR) by the mesh quadrature."""
    _, w, bary = mesh.quadrature()
    return _assemble_matrix(mesh, np.einsum("cq,qv,qw->cvw", w, bary, bary))


def l2_project(mesh, values_on_quadrature):
    """L2-project quadrature-point samples (nc, nq) onto the P1 space.

    The projection satisfies <Pf, phi_i> = <f, phi_i> for the same
    quadrature, which is what keeps source terms consistent between the
    continuous expression and its nodal representation.
    """
    _, w, bary = mesh.quadrature()
    vals = np.asarray(values_on_quadrature, dtype=float)
    if vals.shape != w.shape:
        raise ConfigError("expected quadrature-point samples of shape (nc, nq)")
    b = np.zeros(mesh.nnodes)
    np.add.at(b, mesh.cells.ravel(), np.einsum("cq,qv->cv", w * vals, bary).ravel())
    coeffs = spsolve(mass_matrix(mesh).tocsc(), b)
    return DiscreteField(mesh, coeffs, zero_trace=False)
