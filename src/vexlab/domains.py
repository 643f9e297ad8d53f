"""Domain geometry: intervals, polygons, disks, analytic balls.

Domains carry the exact geometry (the mesh is built separately).  They come
in two families: polytopes (intervals and polygons), stored as vertices and
the outward unit normals of their facets, and round domains (disks and
balls), stored as center and radius.  Star-shape queries are closed-form:
per facet for polytopes, radial for round domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import ConfigError, NotStarShaped, check_keys, config_number

_GEOM_TOL = 1e-10
# Width of the band around the boundary that Domain.contains counts as inside.
_CONTAINS_TOL = 1e-12
# Edge triples solved at once by find_star_center: a batch holds k 3x3
# systems and the margins of their k vertices over all m edges, k (9 + m)
# floats, so a fixed k bounds the memory however many edges a polygon has.
_TRIPLE_CHUNK = 4096
# find_star_center scores C(m, 3) vertices against m edges, O(m^4) work:
# about 0.1 s at this many edges on one core, and 1 s at twice as many.
_MAX_STAR_EDGES = 64
# The geometry keys of each domain kind, all of them required.
_KEYS = {"interval": ("a", "b"), "polygon": ("vertices",),
         "disk": ("center", "radius"), "ball": ("center", "radius")}
_ROUND = ("disk", "ball")


@dataclass
class StarShapeReport:
    """Result of a star-shape query with respect to a chosen origin.

    min_xdotnu is the minimum of (x - origin) . nu over the boundary;
    nonnegative means star-shaped, strictly positive means strictly so.
    """

    origin: np.ndarray
    min_xdotnu: float
    is_star: bool
    strict_rho: float


class Domain:
    """A bounded domain of one of four kinds.

    kinds: "interval" (a, b); "polygon" (simple: no two non-adjacent edges
    meet; vertices CCW); "disk" (center, radius, dim 2); "ball" (center,
    radius, any dim, analytic only, not meshable).

    A polytope (interval or polygon) has vertices, (m, dim), and normals,
    (m, dim): row i is the outward unit normal of facet i, which starts at
    vertex i.  An interval's facets are its ends, [[a], [b]], with normals
    [[-1], [1]]; a polygon's facet i is the edge from vertex i to vertex
    i + 1.  A disk or ball has center and radius.
    """

    def __init__(self, kind, **geom):
        if not isinstance(kind, str) or kind not in _KEYS:
            raise ConfigError(f"unknown domain kind {kind!r}")
        check_keys(geom, _KEYS[kind], f"{kind} domain", required=_KEYS[kind])
        self.kind = kind
        if kind == "interval":
            a = config_number(geom["a"], "interval end a")
            b = config_number(geom["b"], "interval end b")
            if not b > a:
                raise ConfigError(f"interval needs b > a, got ({a}, {b})")
            self.vertices = np.array([[a], [b]])
            self.normals = np.array([[-1.0], [1.0]])
            self.dim = 1
        elif kind == "polygon":
            verts = config_number(geom["vertices"], "polygon vertices", ndim=2)
            if verts.shape[1] != 2:
                raise ConfigError("polygon vertices must be two-dimensional")
            # a vertex equal to the next one (a closed ring's last one, say)
            # is dropped: its zero-length edge has no normal
            verts = verts[np.any(verts != np.roll(verts, -1, axis=0), axis=1)]
            if len(verts) < 3:
                raise ConfigError("polygon needs >= 3 distinct vertices")
            area = _shoelace(verts)
            if not math.isfinite(area):
                raise ConfigError(f"polygon area {area} is not finite")
            if area < 0:
                verts = verts[::-1].copy()
            if abs(_shoelace(verts)) < _GEOM_TOL:
                raise ConfigError("polygon has (numerically) zero area")
            _check_simple(verts)
            self.vertices = verts
            self.normals = np.array([_outward_normal(p, q)
                                     for p, q in _polygon_edges(verts)])
            self.dim = 2
        else:
            self.center = config_number(geom["center"], f"{kind} center", ndim=1)
            self.radius = config_number(geom["radius"], f"{kind} radius")
            if self.radius <= 0:
                raise ConfigError("radius must be positive")
            self.dim = len(self.center)
            if kind == "disk" and self.dim != 2:
                raise ConfigError("disk center must be 2-dimensional")

    # -- constructors ------------------------------------------------------

    @classmethod
    def interval(cls, a, b):
        return cls("interval", a=a, b=b)

    @classmethod
    def polygon(cls, vertices):
        return cls("polygon", vertices=vertices)

    @classmethod
    def disk(cls, center=(0.0, 0.0), radius=1.0):
        return cls("disk", center=center, radius=radius)

    @classmethod
    def ball(cls, center, radius=1.0):
        return cls("ball", center=center, radius=radius)

    @classmethod
    def from_spec(cls, spec):
        """Build from a JSON-style dict, e.g. {"kind": "interval", "a": 0, "b": 1}."""
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError("domain spec must be a dict with a 'kind' key")
        spec = dict(spec)
        kind = spec.pop("kind")
        if kind == "ball_analytic":
            kind = "ball"
        return cls(kind, **spec)

    # -- basic geometry ----------------------------------------------------

    def volume(self):
        """Analytic volume (length / area / N-volume) of the domain."""
        if self.kind == "interval":
            a, b = self.vertices[:, 0].tolist()
            return b - a
        if self.kind == "polygon":
            return _shoelace(self.vertices)
        n = self.dim
        return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * self.radius**n

    def bounding_box(self):
        if self.kind in _ROUND:
            return self.center - self.radius, self.center + self.radius
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def contains(self, points):
        """Boolean mask: which points lie in the closed domain (or within
        _CONTAINS_TOL of it)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "interval":
            x, (a, b) = pts[:, 0], self.vertices[:, 0].tolist()
            return (x >= a - _CONTAINS_TOL) & (x <= b + _CONTAINS_TOL)
        if self.kind == "polygon":
            return _points_in_polygon(pts, self.vertices)
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius + _CONTAINS_TOL

    # -- closed-form ranges used for exponent bounds -----------------------

    def range_of_linear(self, b):
        """(min, max) of x . b over the closed domain."""
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.kind in _ROUND:
            mid = float(self.center @ b)
            spread = float(np.linalg.norm(b)) * self.radius
            return mid - spread, mid + spread
        vals = self.vertices @ b
        return float(vals.min()), float(vals.max())

    def range_of_radius(self, center):
        """(min, max) of |x - center| over the closed domain."""
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if self.kind in _ROUND:
            d = float(np.linalg.norm(c - self.center))
            return max(0.0, d - self.radius), d + self.radius
        v = self.vertices - c  # scaled by a power of two: no overflow, same bits
        e = np.frexp(np.abs(v).max())[1]
        rmax = float(np.ldexp(np.linalg.norm(np.ldexp(v, -e), axis=1).max(), e))
        if bool(self.contains(c[None, :])[0]):
            return 0.0, rmax
        return self.boundary_distance(c), rmax

    def boundary_distance(self, point):
        """Distance to the boundary: from a polytope's nearest facet for any
        point, and for a disk or ball, radius - |x - center|, from a point
        of the closed domain."""
        x = np.atleast_1d(np.asarray(point, dtype=float))
        if self.kind == "interval":
            return float(np.abs(self.vertices - x).min())
        if self.kind == "polygon":
            return min(_point_segment_distance(x, a, b)
                       for a, b in _polygon_edges(self.vertices))
        return self.radius - float(np.linalg.norm(x - self.center))

    # -- star shape --------------------------------------------------------

    def _min_xdotnu(self, origin):
        """min over the boundary of (x - origin) . nu: per facet, at its
        first vertex, for a polytope; radial for a disk or ball."""
        o = np.atleast_1d(np.asarray(origin, dtype=float))
        if self.kind in _ROUND:
            return self.radius - float(np.linalg.norm(o - self.center))
        return min(float((v - o) @ nu) for v, nu in zip(self.vertices, self.normals))


def star_shape_report(domain, origin):
    """Check whether the domain is star-shaped with respect to origin; every
    kind admits an exact evaluation (per facet for polygons)."""
    o = np.atleast_1d(np.asarray(origin, dtype=float))
    if len(o) != domain.dim:
        raise ConfigError(f"origin has dim {len(o)}, domain has dim {domain.dim}")
    m = domain._min_xdotnu(o)
    return StarShapeReport(
        origin=o,
        min_xdotnu=float(m),
        is_star=bool(m >= -_GEOM_TOL),
        strict_rho=float(max(m, 0.0)),
    )


def find_star_center(domain):
    """The origin maximizing min over the boundary of (x - origin) . nu.

    For a polygon that is the linear program: maximize t subject to
    nu_e . o + t <= a_e . nu_e for every edge e (a_e its first vertex, nu_e
    its outward unit normal).  The optimum is attained at a vertex of the
    feasible set, where three constraints hold with equality, so the 3x3
    system of every non-singular edge triple is solved and its solution o
    scored by its margin min_e (a_e - o) . nu_e.  When the optimum is not
    unique, the mean of the vertices whose margin is within _GEOM_TOL of the
    best one is returned; the optimal set is convex, so it holds that mean.
    Raises ConfigError above _MAX_STAR_EDGES edges, and NotStarShaped when
    even the best origin leaves min_xdotnu < 0.
    """
    if domain.kind in _ROUND:
        return domain.center.copy()
    if domain.kind == "interval":
        return 0.5 * domain.vertices.sum(axis=0)

    if len(domain.vertices) > _MAX_STAR_EDGES:
        raise ConfigError(f"find_star_center takes polygons of at most "
                          f"{_MAX_STAR_EDGES} edges, got {len(domain.vertices)}")
    nu = domain.normals
    rhs = np.sum(domain.vertices * nu, axis=1)
    best, kept = -np.inf, []
    for o, m in _lp_vertices(nu, rhs):
        best = max(best, m.max(initial=-np.inf))
        kept.append((o[m >= best - _GEOM_TOL], m[m >= best - _GEOM_TOL]))
    o, m = (np.concatenate(a) for a in zip(*kept))
    origin = o[m >= best - _GEOM_TOL].mean(axis=0)
    margin = domain._min_xdotnu(origin)
    if not margin >= -_GEOM_TOL:  # NaN too
        raise NotStarShaped(f"no admissible star center found (best "
                            f"min_xdotnu = {margin:.3e})")
    return origin


def _lp_vertices(nu, rhs):
    """Yield (o, margin) for the non-singular edge triples, one batch of
    _TRIPLE_CHUNK triples at a time: o solves nu_e . o + t = rhs_e on the
    triple's edges, and margin is min_e (rhs_e - nu_e . o) over all edges."""
    rows = np.column_stack([nu, np.ones(len(nu))])
    triples = combinations(range(len(nu)), 3)
    while batch := list(islice(triples, _TRIPLE_CHUNK)):
        idx = np.array(batch)
        A, b = rows[idx], rhs[idx]
        ok = np.abs(np.linalg.det(A)) > 1e-12  # parallel edges meet nowhere
        o = np.linalg.solve(A[ok], b[ok][:, :, None])[:, :2, 0]
        yield o, (rhs - o @ nu.T).min(axis=1)


def sample_points(domain, resolution=64):
    """Deterministic grid sample of the closed domain, (npts, dim).

    Grid nodes are lo + (hi-lo)*i/resolution, so doubling the resolution
    refines the sample into a superset (bounds estimates are monotone
    under refinement).
    """
    resolution = int(resolution)
    if resolution < 1:
        raise ConfigError("sampling resolution must be >= 1")
    lo, hi = domain.bounding_box()
    axes = [lo[d] + (hi[d] - lo[d]) * np.arange(resolution + 1) / resolution
            for d in range(domain.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    return pts[domain.contains(pts)]


# -- polygon helpers -------------------------------------------------------


def _shoelace(verts):
    x, y = verts[:, 0], verts[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # Domain refuses inf, nan
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _check_simple(verts):
    """Raise ConfigError if two non-adjacent edges cross (their ends on strict
    opposite sides) or touch (an end of orientation sign exactly 0 in the
    other's bounding box), one edge against the later ones at a time."""
    edges = np.stack([verts, np.roll(verts, -1, axis=0)])  # (2, m, 2): the ends
    for i in range(len(verts) - 2):
        # edge i against the later edges not adjacent to it
        e, f = edges[:, i:i + 1], edges[:, i + 2:len(verts) - (i == 0)]
        se, sf = np.sign(_orient(f[0], f[1], e)), np.sign(_orient(e[0], e[1], f))
        on_f = (se == 0) & np.all((f.min(0) <= e) & (e <= f.max(0)), axis=-1)
        on_e = (sf == 0) & np.all((e.min(0) <= f) & (f <= e.max(0)), axis=-1)
        meet = (se.prod(0) < 0) & (sf.prod(0) < 0) | on_f.any(0) | on_e.any(0)
        if meet.any():
            raise ConfigError(f"polygon is not simple: edges {i} and "
                              f"{i + 2 + meet.argmax()} touch or cross")


def _orient(p, q, r):
    """The cross product (q - p) x (r - p), broadcast over rows: positive
    when r lies left of the line from p to q."""
    u, v = q - p, r - p
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _polygon_edges(verts):
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def _outward_normal(a, b):
    """Unit outward normal of edge a->b of a CCW polygon (interior on the left),
    normed after an exact scaling by a power of two, so no square overflows."""
    t = b - a
    n = np.ldexp([t[1], -t[0]], -np.frexp(np.abs(t).max())[1])
    return n / np.linalg.norm(n)


def _points_in_polygon(pts, verts):
    """Ray-casting inside test, with a band of _CONTAINS_TOL around the
    edges."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    for (xi, yi), (xj, yj) in zip(verts, np.roll(verts, 1, axis=0)):
        cond = (yi > y) != (yj > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = (xj - xi) * (y - yi) / (yj - yi) + xi
        inside ^= cond & (x < xcross)
    for a, b in _polygon_edges(verts):
        inside |= _point_segment_distance_many(pts, a, b) <= _CONTAINS_TOL
    return inside


def _point_segment_distance(p, a, b):
    return float(_point_segment_distance_many(p[None, :], a, b)[0])


def _point_segment_distance_many(pts, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.sqrt(sum((x - y) ** 2 for x, y in zip(pts.T, proj.T)))
