"""Variable exponent fields p(x) and the calculus on them.

Four concrete kinds (constant, affine, radial, tabulated-on-a-mesh) plus
derived fields (pointwise conjugate, Sobolev conjugate) built by smooth
monotone transforms.  Bounds are closed-form wherever the geometry allows;
a deterministic sampled fallback exists and is monotone under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .domains import sample_points
from .errors import ConfigError, ExponentTooLarge, NonElliptic, reject_unknown_keys
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
    """Base class: a scalar field x -> p(x) with a gradient."""

    dim = None

    def value_at(self, x):
        raise NotImplementedError

    def gradient_at(self, x):
        raise NotImplementedError

    def bounds(self, domain=None):
        raise NotImplementedError

    # fast paths used by the quadrature pipeline; default is generic
    def eval_on_quadrature(self, mesh):
        pts, _, _ = mesh.quadrature()
        nc, nq, dim = pts.shape
        return self.value_at(pts.reshape(-1, dim)).reshape(nc, nq)

    def grad_on_quadrature(self, mesh):
        pts, _, _ = mesh.quadrature()
        nc, nq, dim = pts.shape
        return self.gradient_at(pts.reshape(-1, dim)).reshape(nc, nq, dim)

    @staticmethod
    def _as_points(x):
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if pts.size > 1 else pts[None, :]
        return pts


class ConstantExponent(ExponentField):
    def __init__(self, value):
        self.value = float(value)

    def value_at(self, x):
        pts = self._as_points(x)
        return np.full(len(pts), self.value)

    def gradient_at(self, x):
        pts = self._as_points(x)
        return np.zeros_like(pts)

    def bounds(self, domain=None):
        return _checked_bounds(self.value, self.value)

    def __repr__(self):
        return f"ConstantExponent({self.value})"


class AffineExponent(ExponentField):
    """p(x) = a + b . x"""

    def __init__(self, a, b):
        self.a = float(a)
        self.b = _vector("affine exponent b", b)
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
        self.base = float(base)
        self.amp = float(amp)
        self.center = _vector("radial exponent center", center)
        self.dim = len(self.center)

    def value_at(self, x):
        pts = self._as_points(x)
        r2 = np.sum((pts - self.center) ** 2, axis=1)
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
    the nodal extrema, which are exact for the interpolant.
    """

    def __init__(self, mesh, values):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float).ravel()
        if len(self.values) != mesh.nnodes:
            raise ConfigError(
                f"tabulated exponent has {len(self.values)} values for "
                f"{mesh.nnodes} mesh nodes"
            )
        self.dim = mesh.dim
        self.cell_grads = gradient(DiscreteField(mesh, self.values))
        self._tree = None
        self._order = None

    def _locate(self, pts):
        """Containing-cell index per point (nearest cell for outliers)."""
        mesh = self.mesh
        if mesh.dim == 1:
            if self._order is None:
                self._order = np.argsort(mesh.nodes[mesh.cells[:, 0], 0])
                self._lefts = mesh.nodes[mesh.cells[self._order, 0], 0]
            idx = np.searchsorted(self._lefts, pts[:, 0], side="right") - 1
            idx = np.clip(idx, 0, mesh.ncells - 1)
            return self._order[idx]
        if self._tree is None:
            centroids = mesh.nodes[mesh.cells].mean(axis=1)
            self._tree = cKDTree(centroids)
        k = min(12, mesh.ncells)
        _, cand = self._tree.query(pts, k=k)
        cand = np.atleast_2d(cand)
        out = cand[:, 0].copy()
        best = np.full(len(pts), -np.inf)
        for col in range(cand.shape[1]):
            cells = cand[:, col]
            lam = self._barycentric(pts, cells)
            score = lam.min(axis=1)
            better = score > best
            out[better] = cells[better]
            best[better] = score[better]
            if np.all(best >= -1e-12):
                break
        return out

    def _barycentric(self, pts, cells):
        mesh = self.mesh
        a = mesh.nodes[mesh.cells[cells, 0]]
        b = mesh.nodes[mesh.cells[cells, 1]]
        c = mesh.nodes[mesh.cells[cells, 2]]
        v0, v1, v2 = b - a, c - a, pts - a
        d00 = np.sum(v0 * v0, axis=1)
        d01 = np.sum(v0 * v1, axis=1)
        d11 = np.sum(v1 * v1, axis=1)
        d20 = np.sum(v2 * v0, axis=1)
        d21 = np.sum(v2 * v1, axis=1)
        denom = d00 * d11 - d01 * d01
        lb = (d11 * d20 - d01 * d21) / denom
        lc = (d00 * d21 - d01 * d20) / denom
        return np.column_stack([1.0 - lb - lc, lb, lc])

    def value_at(self, x):
        pts = self._as_points(x)
        cells = self._locate(pts)
        if self.mesh.dim == 1:
            n0 = self.mesh.cells[cells, 0]
            n1 = self.mesh.cells[cells, 1]
            x0 = self.mesh.nodes[n0, 0]
            x1 = self.mesh.nodes[n1, 0]
            t = np.clip((pts[:, 0] - x0) / (x1 - x0), 0.0, 1.0)
            return (1 - t) * self.values[n0] + t * self.values[n1]
        lam = np.clip(self._barycentric(pts, cells), 0.0, 1.0)
        lam /= lam.sum(axis=1, keepdims=True)
        return np.einsum("pv,pv->p", lam, self.values[self.mesh.cells[cells]])

    def gradient_at(self, x):
        pts = self._as_points(x)
        return self.cell_grads[self._locate(pts)]

    def bounds(self, domain=None):
        return _checked_bounds(float(self.values.min()), float(self.values.max()))

    def eval_on_quadrature(self, mesh):
        if mesh is self.mesh:
            return field_on_quadrature(DiscreteField(mesh, self.values))
        return super().eval_on_quadrature(mesh)

    def grad_on_quadrature(self, mesh):
        if mesh is self.mesh:
            _, w, _ = mesh.quadrature()
            nq = w.shape[1]
            return np.repeat(self.cell_grads[:, None, :], nq, axis=1)
        return super().grad_on_quadrature(mesh)


class TransformedExponent(ExponentField):
    """f(p(x)) for a smooth monotone f, with chain-rule gradients."""

    def __init__(self, base, fn, dfn, name, validator):
        self.base = base
        self.fn = fn
        self.dfn = dfn
        self.name = name
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

    def grad_on_quadrature(self, mesh):
        pv = self.base.eval_on_quadrature(mesh)
        self.validator(pv)
        return self.dfn(pv)[..., None] * self.base.grad_on_quadrature(mesh)

    def __repr__(self):
        return f"{self.name}({self.base!r})"


def _vector(name, v):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1 or len(arr) == 0:
        raise ConfigError(f"{name} must be a nonempty list of numbers")
    return arr


def _checked_bounds(lo, hi):
    if not (lo > 1.0 and math.isfinite(hi)):
        raise NonElliptic(f"exponent bounds ({lo:.6g}, {hi:.6g}) leave (1, inf)")
    return float(lo), float(hi)


# -- derived fields --------------------------------------------------------


def bounds(p, domain=None):
    """(p_minus, p_plus) over the domain; raises NonElliptic at p <= 1."""
    return p.bounds(domain)


def sampled_bounds(p, domain, resolution=64):
    """Grid-sampled bounds; monotone under doubling of the resolution."""
    pts = sample_points(domain, resolution)
    vals = p.value_at(pts)
    return float(vals.min()), float(vals.max())


def _elliptic_validator(pv):
    if np.any(pv <= _ELLIPTIC_EDGE):
        raise NonElliptic(f"exponent reaches {float(np.min(pv)):.6g} <= 1")


def conjugate(p):
    """Pointwise Holder conjugate p'(x) = p(x)/(p(x)-1)."""
    return TransformedExponent(
        p,
        fn=lambda t: t / (t - 1.0),
        dfn=lambda t: -1.0 / (t - 1.0) ** 2,
        name="conjugate",
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
        name="sobolev_conjugate",
        validator=validator,
    )


def embedding_gap(p, q, domain, N=None, resolution=64):
    """min over samples of (p*(x) - q(x)); positive means compact range."""
    N = float(N if N is not None else domain.dim)
    pts = sample_points(domain, resolution)
    if isinstance(p, TabulatedExponent):
        pts = np.vstack([pts, p.mesh.nodes])
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
    diam = domain.diameter()

    xs, ys = [], []
    kept = 0
    attempts = 0
    while kept < pairs and attempts < 200 * pairs:
        attempts += 1
        n = pairs - kept
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


def _ball_form_max(p, domain, rng, nballs=256, per_ball=24):
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
        direction = rng.standard_normal((per_ball, N))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = rad * rng.random(per_ball) ** (1.0 / N)
        pts = c + radii[:, None] * direction
        pv = p.value_at(pts)
        vol = unit_vol * rad**N
        best = max(best, float(vol ** (pv.min() - pv.max())))
        made += 1
    return best


# -- config parsing --------------------------------------------------------


def exponent_from_spec(spec, mesh=None, base_dir=None):
    """Build an exponent field from a JSON-style dict.

    kinds: {"kind": "constant", "value": 2.0}
           {"kind": "affine", "a": 2.0, "b": [0.5, 0.0]}
           {"kind": "radial", "base": 2.0, "amp": 0.5, "center": [0, 0]}
           {"kind": "tabulated", "file": "values.txt"}   (one value per node)
    """
    if isinstance(spec, (int, float)):
        return ConstantExponent(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("exponent spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    try:
        if kind == "constant":
            reject_unknown_keys(spec, ("kind", "value"), "constant exponent")
            return ConstantExponent(spec["value"])
        if kind == "affine":
            reject_unknown_keys(spec, ("kind", "a", "b"), "affine exponent")
            return AffineExponent(spec["a"], spec["b"])
        if kind == "radial":
            reject_unknown_keys(spec, ("kind", "base", "amp", "center"),
                                "radial exponent")
            return RadialExponent(spec["base"], spec["amp"], spec["center"])
        if kind == "tabulated":
            reject_unknown_keys(spec, ("kind", "file"), "tabulated exponent")
            if mesh is None:
                raise ConfigError("tabulated exponent needs the scenario mesh")
            path = spec["file"]
            if base_dir is not None:
                import os

                path = os.path.join(base_dir, path)
            try:
                values = np.loadtxt(path).ravel()
            except OSError as exc:
                raise ConfigError(f"cannot read tabulated values: {exc}") from exc
            return TabulatedExponent(mesh, values)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad exponent spec for kind {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown exponent kind {kind!r}")
