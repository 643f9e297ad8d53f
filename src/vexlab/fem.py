"""P1 fields on meshes: truncation, mollification, integration, and the
one layer that turns nodal values into per-cell gradients and quadrature
samples and sums per-cell terms back onto the nodes."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .errors import ConfigError

# Most kernel pairs one mollify slice holds at once (about 70 bytes each,
# temporaries included), which bounds its memory at any radius.
_MOLLIFY_PAIRS = 2**23
# Largest m * bw^2 (m free nodes, bw the half-bandwidth in reverse
# Cuthill-McKee order) that _band_lu factors by LAPACK's banded LU; larger
# systems go to SuperLU in its own COLAMD order.  gbsv's (gbtrf + gbtrs) time
# per one-shot solve over SuperLU's, one thread, best of 15 in each of 3 runs,
# by disk (h): m * bw^2, ratio: (0.05) 22.6M, 0.66-0.73; (0.04) 58.2M,
# 0.90-0.94; (0.03) 187.6M, 1.06-1.18; (0.025) 380.4M, 1.32-1.46; below 22.6M
# it won on every mesh tried (ROADMAP item 13).  The largest power of two
# below the least loss would be 2^27; 2^25 keeps the disk at h = 0.04 on SuperLU.
_BAND_WORK = 2**25


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
    return zc @ mesh.quadrature()[2].T


def _scatter(mesh, cell_terms, out=None):
    """Sum per-cell nodal terms (nc, nv) onto the nodes, into out if given."""
    if out is None:
        out = np.zeros(mesh.nnodes)
    np.add.at(out, mesh.cells.ravel(), np.ravel(cell_terms))
    return out


def _load_vector(mesh, samples, out=None):
    """Entries <f, phi_i> of quadrature samples f (nc, nq), into out if given."""
    _, w, bary = mesh.quadrature()
    return _scatter(mesh, (w * samples) @ bary, out)


def _cell_mass(mesh, weights):
    """Per-cell blocks sum_q weights[c, q] phi_v phi_w, (nc, nv, nv)."""
    _, _, bary = mesh.quadrature()
    nq, nv = bary.shape
    outer = (bary[:, :, None] * bary[:, None, :]).reshape(nq, nv * nv)
    return (weights @ outer).reshape(-1, nv, nv)


def mesh_l2(u):
    """Mesh-level L2 norm computed with the cell quadrature."""
    _, w, _ = u.mesh.quadrature()
    vals = field_on_quadrature(u)
    return float(np.sqrt(np.sum(w * vals**2)))


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
    if not n > 0:  # NaN included
        raise ConfigError("cutoff level n must be positive")
    return DiscreteField(u.mesh, cutoff_profile(u.values, n))


# -- mollification ---------------------------------------------------------


def mollify(u, radius, kernels=None):
    """Discrete mollification with a polynomial bump kernel.

    One pass over the (node, neighbor) pairs within `radius` weighs each by
    the kernel (1 - r^2/radius^2)^3 and the neighbor's lumped mass; a node
    gets its weighted sum over its sum of weights, clipped to the range of u
    against roundoff: sup norm never grows, nonnegativity and constants are
    kept.  Nodes within radius + h of the boundary stay zero (zero trace).
    The kept nodes go in slices of _MOLLIFY_PAIRS // nnodes, so at most
    _MOLLIFY_PAIRS pairs are held at once; a slice whose nodes lie farther
    than radius from all others pairs each with itself alone, searching no
    tree.  A dict kernels (solvers.cascade passes one) keeps each kernel of
    one slice by radius for reuse.
    """
    if not (radius > 0 and radius * radius > 0):
        raise ConfigError(f"mollifier radius {radius!r} is not positive or underflows")
    mesh = u.mesh
    f = u.values
    lo, hi = f.min(), f.max()
    out = np.zeros(mesh.nnodes)
    kept = (kernels or {}).get(radius)
    for part, row, col, wk, den in kept or _mollifier_slices(mesh, radius, kernels):
        out[part] = np.clip(np.bincount(row, wk * f[col], len(part)) / den, lo, hi)
    return DiscreteField(mesh, out, zero_trace=True)


def _mollifier_slices(mesh, radius, kernels=None):
    """Yield mollify's kernel slices (part, row, col, wk, den): kept nodes
    part, pairs (part[row], col) of weights wk, each node's sum of weights
    den.  Stores a kernel of one slice in the dict kernels, if one is given."""
    nodes = mesh.nodes
    nv = mesh.cells.shape[1]
    lumped = _scatter(mesh, np.repeat(mesh.cell_volumes / nv, nv))
    keep = np.flatnonzero(mesh.boundary_distance() > radius + mesh.h + 1e-12)
    step = max(1, _MOLLIFY_PAIRS // mesh.nnodes)
    parts = np.split(keep, range(step, len(keep), step))
    for part in parts:
        if np.all(mesh._node_gap[part] > radius):  # each node its only pair
            row, col = np.arange(len(part)), part
        else:
            pairs = cKDTree(nodes[part]).sparse_distance_matrix(
                mesh._node_tree, radius, output_type="ndarray")
            row, col = (np.ascontiguousarray(pairs[k]) for k in "ij")
            del pairs  # only the contiguous copies outlive the search
        d2 = sum((x[col] - x[part[row]]) ** 2 for x in nodes.T)
        wk = (1.0 - d2 / (radius * radius)) ** 3 * lumped[col]
        piece = (part, row, col, wk, np.bincount(row, wk, len(part)))
        if len(parts) == 1 and kernels is not None:
            kernels[radius] = [piece]
        yield piece


# -- projection ------------------------------------------------------------


def _assemble(mesh, elem, free):
    """Sum per-cell (nv, nv) blocks elem over the sorted nodes free into the
    float data of the CSC matrix _csc(data, pattern), pattern = (indices,
    indptr, band): the COO -> CSR sum sliced to free and turned to CSC, bit
    for bit, and _band_lu's factor; return (data, pattern).  One bincount
    fills the record cached on the mesh per node set: slot lists the free-free
    terms in the order COO -> CSR sums them (stable by row, then
    sort_indices' unstable sort of each row), target their entries."""
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
        csc = sparse.coo_matrix((np.ones(len(slot)), (r, c)), (m, m)).tocsc()
        target = np.unique(c * n + r, return_inverse=True)[1]  # in CSC order
        mesh._patterns[key] = (slot, target, (csc.indices, csc.indptr, _band_lu(csc)))
    slot, target, pattern = mesh._patterns[key]
    data = np.bincount(target, elem.ravel()[slot], len(pattern[0]))
    return data.astype(float, copy=False), pattern  # bincount of no term is int64


def _csc(data, pattern):
    """The CSC matrix of _assemble's (data, pattern)."""
    indices, indptr, _ = pattern
    return sparse.csc_matrix((data, indices, indptr), (len(indptr) - 1,) * 2)


def _band_lu(csc):
    """The factor data -> (b -> x) of data on the symmetric pattern of the
    m x m CSC matrix csc by LAPACK's banded LU in reverse Cuthill-McKee order:
    gbtrf (partial pivoting) once, gbtrs per solve, so each solve is gbsv's bit
    for bit.  None when m = 0 or m * bw^2 exceeds _BAND_WORK.  A zero pivot
    raises LinAlgError, an argument gbtrf refuses ValueError; gbtrs gets the
    arguments gbtrf took and m rows of b, so its info is 0."""
    m = csc.shape[0]
    if m == 0:  # reverse_cuthill_mckee has no order to give
        return None
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    order = reverse_cuthill_mckee(csc, symmetric_mode=True)
    pos = np.argsort(order)
    i, j = pos[csc.indices], pos[np.repeat(np.arange(m), np.diff(csc.indptr))]
    bw = int(np.abs(i - j).max())
    if m * bw * bw > _BAND_WORK:
        return None
    # ab[2 bw + i - j, j] = A[i, j] below bw rows of fill, column-major
    flat = j * (3 * bw + 1) + 2 * bw + i - j
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=float)

    def factor(data):
        ab = np.zeros(m * (3 * bw + 1))
        ab[flat] = data
        lu, piv, info = gbtrf(ab.reshape(m, -1).T, bw, bw, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"gbtrf: pivot {info} is exactly zero")
        if info < 0:
            raise ValueError(f"gbtrf: illegal value in argument {-info}")
        return lambda b: gbtrs(lu, bw, bw, b[order], piv, overwrite_b=True)[0][pos]

    return factor


def _factor(system):
    """The solve b -> x of _assemble's system = (data, pattern), the one rule
    for every P1 system: the pattern's band LU if it has one, else SuperLU's."""
    data, pattern = system
    if pattern[2] is not None:
        return pattern[2](data)
    return splu(_csc(data, pattern)).solve


def _solve(system, b):
    """x with _csc(*system) x = b, by _factor."""
    return _factor(system)(b)


def _cell_stiffness(mesh):
    """Per-cell blocks |cell| grad phi_v . grad phi_w, (nc, nv, nv)."""
    return mesh.cell_volumes[:, None, None] * mesh._gram


def mass_matrix(mesh):
    """Consistent P1 mass matrix (CSC) by the mesh quadrature."""
    return _csc(*_assemble(mesh, _cell_mass(mesh, mesh.quadrature()[1]),
                           np.arange(mesh.nnodes)))


def stiffness_matrix(mesh):
    """P1 stiffness matrix (CSC): entries int grad phi_i . grad phi_j."""
    return _csc(*_assemble(mesh, _cell_stiffness(mesh), np.arange(mesh.nnodes)))


def l2_project(mesh, values_on_quadrature):
    """L2-project quadrature-point samples (nc, nq) onto the P1 space.

    The projection satisfies <Pf, phi_i> = <f, phi_i> for the same
    quadrature, which is what keeps source terms consistent between the
    continuous expression and its nodal representation.
    """
    vals = np.asarray(values_on_quadrature, dtype=float)
    if vals.shape != mesh.quadrature()[1].shape:
        raise ConfigError("expected quadrature-point samples of shape (nc, nq)")
    solve = _factor(_assemble(mesh, _cell_mass(mesh, mesh.quadrature()[1]),
                              np.arange(mesh.nnodes)))
    return DiscreteField(mesh, solve(_load_vector(mesh, vals)))
