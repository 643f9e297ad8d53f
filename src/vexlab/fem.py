"""P1 fields on meshes: truncation, mollification, integration, and the
one layer that turns nodal values into per-cell gradients and quadrature
samples and sums per-cell terms back onto the nodes."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spilu, spsolve
from scipy.spatial import cKDTree

from .errors import ConfigError, NonFiniteIntegrand

# Most kernel pairs one mollify slice holds at once (about 70 bytes each,
# temporaries included), which bounds its memory at any radius.
_MOLLIFY_PAIRS = 2**23


class DiscreteField:
    """Nodal values of a piecewise-linear function on a mesh.

    zero_trace=True zeroes the boundary nodes on construction, so the field
    starts in the discrete zero-trace space; no flag is kept.
    """

    def __init__(self, mesh, values, zero_trace=False):
        self.mesh = mesh
        self.values = np.array(values, dtype=float).ravel()
        if len(self.values) != mesh.nnodes:
            raise ConfigError(
                f"field has {len(self.values)} values for {mesh.nnodes} nodes"
            )
        if zero_trace:
            self.values[mesh.boundary_nodes] = 0.0

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.nnodes))

    @classmethod
    def interpolate(cls, mesh, fn, zero_trace=False):
        """Nodal interpolation of fn(points) -> values."""
        return cls(mesh, np.asarray(fn(mesh.nodes), dtype=float), zero_trace)

    def copy(self):
        return DiscreteField(self.mesh, self.values.copy())

    def __add__(self, other):
        self._compat(other)
        return DiscreteField(self.mesh, self.values + other.values)

    def __sub__(self, other):
        self._compat(other)
        return DiscreteField(self.mesh, self.values - other.values)

    def __mul__(self, scalar):
        return DiscreteField(self.mesh, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return DiscreteField(self.mesh, -self.values)

    def _compat(self, other):
        if other.mesh is not self.mesh:
            raise ConfigError("fields live on different meshes")


def _bump_profile(mesh):
    """The boundary distance over its maximum; zeros if no node is interior."""
    d = mesh.boundary_distance()
    return d / d.max() if d.max() > 0 else np.zeros_like(d)


def gradient(u):
    """Exact per-cell gradient of a P1 field, (nc, dim)."""
    return _cell_gradients(u.mesh, u.values[u.mesh.cells])


def field_on_quadrature(u):
    """Values of the P1 field at the cell quadrature points, (nc, nq)."""
    return _cell_samples(u.mesh, u.values[u.mesh.cells])


def sample(mesh, z):
    """gradient and field_on_quadrature of the P1 field with nodal values z,
    from one gather z[mesh.cells]."""
    zc = z[mesh.cells]
    return _cell_gradients(mesh, zc), _cell_samples(mesh, zc)


def _cell_gradients(mesh, zc):
    return np.einsum("cv,cvd->cd", zc, mesh.basis_grads)


def _cell_samples(mesh, zc):
    return np.einsum("qv,cv->cq", mesh.quadrature()[2], zc)


def _scatter(mesh, cell_terms, out=None):
    """Sum per-cell nodal terms (nc, nv) onto the nodes, into out if given."""
    if out is None:
        out = np.zeros(mesh.nnodes)
    np.add.at(out, mesh.cells.ravel(), np.ravel(cell_terms))
    return out


def _load_vector(mesh, samples, out=None):
    """Entries <f, phi_i> of quadrature samples f (nc, nq), into out if given."""
    _, w, bary = mesh.quadrature()
    return _scatter(mesh, np.einsum("cq,qv->cv", w * samples, bary), out)


def _cell_mass(mesh, weights):
    """Per-cell blocks sum_q weights[c, q] phi_v phi_w, (nc, nv, nv)."""
    _, _, bary = mesh.quadrature()
    return np.einsum("cq,qv,qw->cvw", weights, bary, bary)


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
        g, uq = sample(mesh, u.values)
        uq, gq = uq.reshape(-1), np.repeat(g, nq, axis=0)
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
    return DiscreteField(u.mesh, cutoff_profile(u.values, n))


# -- mollification ---------------------------------------------------------


def mollify(u, radius):
    """Discrete mollification with a polynomial bump kernel.

    One pass over the (node, neighbor) pairs within `radius` weighs each by
    the kernel (1 - r^2/radius^2)^3 and the neighbor's lumped mass; a node
    gets its weighted sum over its sum of weights, clipped to the range of u
    against roundoff: sup norm never grows, nonnegativity and constants are
    kept.  Nodes within radius + h of the boundary stay zero (zero trace).
    The kept nodes go in slices of _MOLLIFY_PAIRS // nnodes, so at most
    _MOLLIFY_PAIRS pairs are held at once.  While solvers.cascade runs,
    mesh._mollifiers keeps each kernel of one slice by radius for reuse.
    """
    if not (radius > 0 and radius * radius > 0):
        raise ConfigError(f"mollifier radius {radius!r} is not positive or underflows")
    mesh = u.mesh
    f = u.values
    lo, hi = f.min(), f.max()
    out = np.zeros(mesh.nnodes)
    kept = (mesh._mollifiers or {}).get(radius)
    for part, row, col, wk, den in kept or _mollifier_slices(mesh, radius):
        out[part] = np.clip(np.bincount(row, wk * f[col], len(part)) / den, lo, hi)
    return DiscreteField(mesh, out, zero_trace=True)


def _mollifier_slices(mesh, radius):
    """Yield mollify's kernel slices (part, row, col, wk, den): kept nodes
    part, pairs (part[row], col) of weights wk, each node's sum of weights
    den.  Stores a kernel of one slice in mesh._mollifiers, if that is set."""
    nodes = mesh.nodes
    nv = mesh.cells.shape[1]
    lumped = _scatter(mesh, np.repeat(mesh.cell_volumes / nv, nv))
    keep = np.flatnonzero(mesh.boundary_distance() > radius + mesh.h + 1e-12)
    step = max(1, _MOLLIFY_PAIRS // mesh.nnodes)
    parts = np.split(keep, range(step, len(keep), step))
    for part in parts:
        pairs = cKDTree(nodes[part]).sparse_distance_matrix(
            mesh._node_tree, radius, output_type="ndarray")
        row, col = pairs["i"], pairs["j"]
        d2 = sum((x[col] - x[part[row]]) ** 2 for x in nodes.T)
        wk = (1.0 - d2 / (radius * radius)) ** 3 * lumped[col]
        piece = (part, row, col, wk, np.bincount(row, wk, len(part)))
        if len(parts) == 1 and mesh._mollifiers is not None:
            mesh._mollifiers[radius] = [piece]
        yield piece


# -- projection ------------------------------------------------------------


def _assemble(mesh, elem, free):
    """Sum per-cell (nv, nv) blocks elem over the sorted nodes free into a CSC
    matrix M with its columns in SuperLU's default order for the pattern (its
    COLAMD and etree postorder), and return (M, perm).  M[:, perm] is the
    COO -> CSR sum sliced to free and turned to CSC, and a solve on M with
    permc_spec="NATURAL" taken at perm is its default solve, bit for bit.
    One bincount fills the pattern cached on the mesh for that node set: slot
    lists the free-free terms in the order COO -> CSR sums them (stable by
    row, then sort_indices' unstable sort of each row), target their entries.
    The order reads the structure alone, so a probe on the pattern finds it."""
    key = free.tobytes()
    if key not in mesh._patterns:
        cells, n, nv, m = mesh.cells, mesh.nnodes, mesh.cells.shape[1], len(free)
        rows = np.repeat(cells, nv, axis=1).ravel()
        cols = np.tile(cells, (1, nv)).ravel()
        order = np.argsort(rows, kind="stable")
        ptr = np.searchsorted(rows[order], np.arange(n + 1))
        csr = sparse.csr_matrix((order, cols[order], ptr), shape=(n, n))
        csr.sort_indices()
        slot = csr.data[np.isin(rows[csr.data], free) & np.isin(csr.indices, free)]
        r, c = np.searchsorted(free, rows[slot]), np.searchsorted(free, cols[slot])
        # strictly diagonally dominant (each diagonal sum outweighs all the -1s);
        # its incomplete factor, which drops the fill, orders it as splu does
        probe = sparse.coo_matrix((np.where(r == c, len(slot), -1.0), (r, c)), (m, m))
        perm = spilu(probe.tocsc(), drop_tol=1.0, fill_factor=1).perm_c.astype(np.int64)
        c = perm[c]  # column j moves to perm[j]
        csc = sparse.coo_matrix((np.ones(len(slot)), (r, c)), (m, m)).tocsc()
        target = np.unique(c * n + r, return_inverse=True)[1]  # in CSC order
        mesh._patterns[key] = (slot, target, csc.indices, csc.indptr, perm)
    slot, target, indices, indptr, perm = mesh._patterns[key]
    data = np.bincount(target, elem.ravel()[slot], len(indices))
    return sparse.csc_matrix((data, indices, indptr), (len(perm),) * 2, float), perm


def _cell_stiffness(mesh):
    """Per-cell blocks |cell| grad phi_v . grad phi_w, (nc, nv, nv)."""
    G = mesh.basis_grads
    return mesh.cell_volumes[:, None, None] * np.einsum("cvd,cwd->cvw", G, G)


def mass_matrix(mesh):
    """Consistent P1 mass matrix (CSC) by the mesh quadrature."""
    M, perm = _assemble(mesh, _cell_mass(mesh, mesh.quadrature()[1]),
                        np.arange(mesh.nnodes))
    return M[:, perm]


def stiffness_matrix(mesh):
    """P1 stiffness matrix (CSC): entries int grad phi_i . grad phi_j."""
    K, perm = _assemble(mesh, _cell_stiffness(mesh), np.arange(mesh.nnodes))
    return K[:, perm]


def l2_project(mesh, values_on_quadrature):
    """L2-project quadrature-point samples (nc, nq) onto the P1 space.

    The projection satisfies <Pf, phi_i> = <f, phi_i> for the same
    quadrature, which is what keeps source terms consistent between the
    continuous expression and its nodal representation.
    """
    vals = np.asarray(values_on_quadrature, dtype=float)
    if vals.shape != mesh.quadrature()[1].shape:
        raise ConfigError("expected quadrature-point samples of shape (nc, nq)")
    M, perm = _assemble(mesh, _cell_mass(mesh, mesh.quadrature()[1]),
                        np.arange(mesh.nnodes))
    coeffs = spsolve(M, _load_vector(mesh, vals), permc_spec="NATURAL",
                     use_umfpack=False)
    return DiscreteField(mesh, coeffs[perm])
