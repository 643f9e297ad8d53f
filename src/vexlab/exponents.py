"""Variable exponent fields p(x) and the calculus on them.

Four concrete kinds (constant, affine, radial, tabulated-on-a-mesh) plus
derived fields (pointwise conjugate, Sobolev conjugate) built by smooth
monotone transforms.  Bounds are closed-form wherever the geometry allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .domains import sample_points
from .errors import (ConfigError, ExponentTooLarge, NonElliptic, check_keys,
                     config_number, read_nodal_file)
from .fem import DiscreteField, field_on_quadrature, gradient

_ELLIPTIC_EDGE = 1.0 + 1e-12


@dataclass
class LogHolderReport:
    """Sampled log-Holder modulus estimate.

    c_hat bounds |p(x)-p(y)| * (-log|x-y|) over sampled pairs with
    |x-y| <= 1/2; ball_form_max is the matching |B|^(pB- - pB+) statistic
    over sampled balls.
    """

    c_hat: float
    worst_pair: tuple
    ball_form_max: float
    pairs_used: int


class ExponentField:
    """Base class: a scalar field x -> p(x) with a gradient.

    A subclass defines value_at(x), the values (n,) at the points x (see
    _as_points), gradient_at(x), the gradients (n, dim) there, and
    bounds(domain=None), the (min, max) of p over the domain.
    """

    dim = None

    # fast paths used by the quadrature pipeline; default is generic
    def eval_on_quadrature(self, mesh):
        """Samples (nc, nq), read-only, cached on the mesh while self lives."""
        pq = mesh._exponent_samples.get(self)
        if pq is None:
            pts, _, _ = mesh.quadrature()
            nc, nq, dim = pts.shape
            pq = self.value_at(pts.reshape(-1, dim)).reshape(nc, nq)
            pq.flags.writeable = False
            mesh._exponent_samples[self] = pq
        return pq

    def grad_on_quadrature(self, mesh):
        pts, _, _ = mesh.quadrature()
        nc, nq, dim = pts.shape
        return self.gradient_at(pts.reshape(-1, dim)).reshape(nc, nq, dim)

    def _as_points(self, x):
        """x as an (n, dim) array: a scalar or 1-D x is one point when dim > 1
        and 1D points otherwise; ConfigError for points of another dim."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim < 2:
            pts = pts.reshape(-1, 1) if self.dim in (None, 1) else pts.reshape(1, -1)
        if pts.ndim != 2 or self.dim not in (None, pts.shape[1]):
            raise ConfigError(f"points of shape {np.shape(x)} for a "
                              f"{self.dim}-dimensional exponent")
        return pts


class ConstantExponent(ExponentField):
    def __init__(self, value):
        self.value = config_number(value, "constant exponent value")

    def value_at(self, x):
        pts = self._as_points(x)
        return np.full(len(pts), self.value)

    def gradient_at(self, x):
        pts = self._as_points(x)
        return np.zeros_like(pts)

    def bounds(self, domain=None):
        return _checked_bounds(self.value, self.value)


class AffineExponent(ExponentField):
    """p(x) = a + b . x"""

    def __init__(self, a, b):
        self.a = config_number(a, "affine exponent a")
        self.b = config_number(b, "affine exponent b", ndim=1)
        self.dim = len(self.b)

    def value_at(self, x):
        pts = self._as_points(x)
        return self.a + pts @ self.b

    def gradient_at(self, x):
        pts = self._as_points(x)
        return np.broadcast_to(self.b, pts.shape).copy()

    def bounds(self, domain=None):
        if domain is None:
            raise ConfigError("affine exponent bounds need a domain")
        lo, hi = domain.range_of_linear(self.b)
        return _checked_bounds(self.a + lo, self.a + hi)


class RadialExponent(ExponentField):
    """p(x) = base + amp * |x - center|^2 (smooth through the center)."""

    def __init__(self, base, amp, center):
        self.base = config_number(base, "radial exponent base")
        self.amp = config_number(amp, "radial exponent amp")
        self.center = config_number(center, "radial exponent center", ndim=1)
        self.dim = len(self.center)

    def value_at(self, x):
        pts = self._as_points(x)
        r2 = sum((col - c) ** 2 for col, c in zip(pts.T, self.center))
        return self.base + self.amp * r2

    def gradient_at(self, x):
        pts = self._as_points(x)
        return 2.0 * self.amp * (pts - self.center)

    def bounds(self, domain=None):
        if domain is None:
            raise ConfigError("radial exponent bounds need a domain")
        rmin, rmax = domain.range_of_radius(self.center)
        v1 = self.base + self.amp * rmin**2
        v2 = self.base + self.amp * rmax**2
        return _checked_bounds(min(v1, v2), max(v1, v2))


class TabulatedExponent(ExponentField):
    """Nodal values on a mesh, interpolated piecewise-linearly.

    Gradients are the per-cell constants of the P1 interpolant.  Bounds are
    the nodal extrema, which are exact for the interpolant.  One path in 1D
    and 2D locates a point: the cell of the nearest centroid if it holds the
    point, else the cell of the 12 nearest whose least barycentric
    coordinate is largest (a nearby cell for a point outside the mesh).
    """

    def __init__(self, mesh, values):
        self.mesh = mesh
        self.dim = mesh.dim
        self._field = DiscreteField(mesh, values)  # ConfigError unless one per node
        self.values = self._field.values
        self.cell_grads = gradient(self._field)

    @cached_property
    def _tree(self):
        return cKDTree(self.mesh.nodes[self.mesh.cells].mean(axis=1))

    def _barycentric(self, pts, cells):
        """lambda(x) = e0 + basis_grads[c] . (x - x_c0), shape (n, dim + 1)."""
        mesh = self.mesh
        lam = np.einsum("pvd,pd->pv", mesh.basis_grads[cells],
                        pts - mesh.nodes[mesh.cells[cells, 0]])
        lam[:, 0] += 1.0
        return lam

    def _locate(self, pts):
        """(cells, barycentric coordinates) of the cell holding each point."""
        _, cells = self._tree.query(pts)
        lam = self._barycentric(pts, cells)
        out = np.flatnonzero(lam.min(axis=1) < -1e-12)
        if len(out):
            k = min(12, self.mesh.ncells)
            cand = self._tree.query(pts[out], k=k)[1].reshape(len(out), k)
            lams = self._barycentric(np.repeat(pts[out], k, axis=0), cand.ravel())
            lams = lams.reshape(len(out), k, -1)
            best = lams.min(axis=2).argmax(axis=1)
            cells[out] = cand[np.arange(len(out)), best]
            lam[out] = lams[np.arange(len(out)), best]
        return cells, lam

    def value_at(self, x):
        cells, lam = self._locate(self._as_points(x))
        lam = np.clip(lam, 0.0, 1.0)
        lam /= lam.sum(axis=1, keepdims=True)
        return np.einsum("pv,pv->p", lam, self.values[self.mesh.cells[cells]])

    def gradient_at(self, x):
        return self.cell_grads[self._locate(self._as_points(x))[0]]

    def bounds(self, domain=None):
        return _checked_bounds(float(self.values.min()), float(self.values.max()))

    def eval_on_quadrature(self, mesh):
        if mesh is self.mesh:
            return field_on_quadrature(self._field)
        return super().eval_on_quadrature(mesh)

    def grad_on_quadrature(self, mesh):
        if mesh is self.mesh:
            nq = mesh.quadrature()[1].shape[1]
            return np.repeat(self.cell_grads[:, None, :], nq, axis=1)
        return super().grad_on_quadrature(mesh)


class TransformedExponent(ExponentField):
    """f(p(x)) for a smooth monotone f, with chain-rule gradients."""

    def __init__(self, base, fn, dfn, validator):
        self.base = base
        self.fn = fn
        self.dfn = dfn
        self.validator = validator
        self.dim = base.dim

    def _checked_base(self, x):
        pv = self.base.value_at(x)
        self.validator(pv)
        return pv

    def value_at(self, x):
        return self.fn(self._checked_base(x))

    def gradient_at(self, x):
        pv = self._checked_base(x)
        return self.dfn(pv)[:, None] * self.base.gradient_at(x)

    def bounds(self, domain=None):
        lo, hi = self.base.bounds(domain)
        self.validator(np.array([lo, hi]))
        v1, v2 = float(self.fn(np.array([lo]))[0]), float(self.fn(np.array([hi]))[0])
        return _checked_bounds(min(v1, v2), max(v1, v2))

    def eval_on_quadrature(self, mesh):
        pv = self.base.eval_on_quadrature(mesh)
        self.validator(pv)
        return self.fn(pv)


def _checked_bounds(lo, hi):
    if not (lo > 1.0 and math.isfinite(hi)):
        raise NonElliptic(f"exponent bounds ({lo:.6g}, {hi:.6g}) leave (1, inf)")
    return float(lo), float(hi)


# -- derived fields --------------------------------------------------------


def _elliptic_validator(pv):
    if np.any(pv <= _ELLIPTIC_EDGE):
        raise NonElliptic(f"exponent reaches {float(np.min(pv)):.6g} <= 1")


def conjugate(p):
    """Pointwise Holder conjugate p'(x) = p(x)/(p(x)-1)."""
    return TransformedExponent(
        p,
        fn=lambda t: t / (t - 1.0),
        dfn=lambda t: -1.0 / (t - 1.0) ** 2,
        validator=_elliptic_validator,
    )


def sobolev_conjugate(p, N):
    """p*(x) = N p(x) / (N - p(x)); raises ExponentTooLarge if p >= N."""
    N = float(N)

    def validator(pv):
        _elliptic_validator(pv)
        if np.any(pv >= N - 1e-12):
            raise ExponentTooLarge(
                f"p reaches {float(np.max(pv)):.6g} >= N = {N:g}"
            )

    return TransformedExponent(
        p,
        fn=lambda t: N * t / (N - t),
        dfn=lambda t: N**2 / (N - t) ** 2,
        validator=validator,
    )


def embedding_gap(p, q, domain, N=None):
    """min over samples of (p*(x) - q(x)); positive means compact range.
    The samples are a grid of the domain and the nodes of a tabulated p or q."""
    N = float(N if N is not None else domain.dim)
    pts = np.vstack([sample_points(domain)] + [
        e.mesh.nodes for e in (p, q) if isinstance(e, TabulatedExponent)])
    pstar = sobolev_conjugate(p, N).value_at(pts)
    qv = q.value_at(pts)
    return float(np.min(pstar - qv))


def log_holder_estimate(p, domain, pairs=2000, seed=0):
    """Sample the log-Holder modulus of p over the domain.

    Returns a LogHolderReport with c_hat = max |p(x)-p(y)| (-log|x-y|) over
    accepted pairs (|x-y| <= 1/2, both points inside), the worst pair, and
    the max of the ball form |B|^(pB- - pB+) over sampled interior balls.
    """
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    span = hi - lo

    xs, ys = [], []
    kept = 0
    drawn = 0
    while kept < pairs and drawn < 200 * pairs:
        n = pairs - kept
        drawn += n
        x = lo + span * rng.random((n, domain.dim))
        keep = domain.contains(x)
        x = x[keep]
        if len(x) == 0:
            continue
        r = np.exp(rng.uniform(np.log(1e-6), np.log(0.5), len(x)))
        r = np.minimum(r, 0.5)
        direction = rng.standard_normal((len(x), domain.dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        y = x + r[:, None] * direction
        keep = domain.contains(y)
        xs.append(x[keep])
        ys.append(y[keep])
        kept += len(xs[-1])
    if kept == 0:
        raise ConfigError("log-Holder sampling produced no admissible pairs")
    x = np.vstack(xs)[:pairs]
    y = np.vstack(ys)[:pairs]

    sep = np.linalg.norm(x - y, axis=1)
    vals = np.abs(p.value_at(x) - p.value_at(y)) * (-np.log(sep))
    k = int(np.argmax(vals))

    ball_max = _ball_form_max(p, domain, rng, nballs=max(64, len(x) // 8))
    return LogHolderReport(
        c_hat=float(vals[k]),
        worst_pair=(x[k].copy(), y[k].copy()),
        ball_form_max=ball_max,
        pairs_used=len(x),
    )


def _ball_form_max(p, domain, rng, nballs):
    """Max of |B|^(pB- - pB+) over nballs interior balls, 24 points each."""
    lo, hi = domain.bounding_box()
    span = hi - lo
    N = domain.dim
    unit_vol = math.pi ** (N / 2) / math.gamma(N / 2 + 1)
    best = 0.0
    made = 0
    guard = 0
    while made < nballs and guard < 100 * nballs:
        guard += 1
        c = lo + span * rng.random(N)
        if not domain.contains(c[None, :])[0]:
            continue
        dist = domain.boundary_distance(c)
        if dist <= 1e-12:
            continue
        rad = dist * rng.uniform(0.1, 0.95)
        direction = rng.standard_normal((24, N))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = rad * rng.random(24) ** (1.0 / N)
        pts = c + radii[:, None] * direction
        pv = p.value_at(pts)
        vol = unit_vol * rad**N
        best = max(best, float(vol ** (pv.min() - pv.max())))
        made += 1
    return best


# -- config parsing --------------------------------------------------------


# The closed-form kinds: each constructor and the spec keys it takes, in order.
_KINDS = {"constant": (ConstantExponent, ("value",)),
          "affine": (AffineExponent, ("a", "b")),
          "radial": (RadialExponent, ("base", "amp", "center"))}


def exponent_from_spec(spec, mesh=None, base_dir=None):
    """Build an exponent field from a JSON-style dict.

    kinds: {"kind": "constant", "value": 2.0}
           {"kind": "affine", "a": 2.0, "b": [0.5, 0.0]}
           {"kind": "radial", "base": 2.0, "amp": 0.5, "center": [0, 0]}
           {"kind": "tabulated", "file": "values.txt"}   (one value per node)
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("exponent spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "tabulated":
        if mesh is None:
            raise ConfigError("tabulated exponent needs the scenario mesh")
        return TabulatedExponent(mesh, read_nodal_file(
            spec, base_dir, mesh.nnodes, "tabulated exponent"))
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown exponent kind {kind!r}")
    cls, keys = _KINDS[kind]
    check_keys(spec, ("kind", *keys), f"{kind} exponent", required=keys)
    return cls(*(spec[key] for key in keys))
