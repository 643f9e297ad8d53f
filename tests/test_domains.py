"""Geometry kernel: volumes, membership queries, star-shape machinery."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import vexlab as vx
from vexlab.domains import (_point_segment_distance, _point_segment_distance_many,
                            _shoelace)

L_SHAPE = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]
# A "C" with the channel cut in from the right; its kernel is empty because
# the notch floor forces o_y <= 1 while the notch ceiling forces o_y >= 2.
C_SHAPE = [(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0), (1.0, 2.0),
           (3.0, 2.0), (3.0, 3.0), (0.0, 3.0)]


def lp_star_center(verts):
    """Independent kernel oracle via linear programming.

    Variables (ox, oy, rho); maximize rho subject to rho + o.nu_e <= a_e.nu_e
    for every edge e (a_e is an edge point, nu_e the outward unit normal).
    The optimum rho* equals the best achievable min (x - o).nu.
    """
    verts = np.asarray(verts, float)
    rows, rhs = [], []
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        t = b - a
        nu = np.array([t[1], -t[0]])
        nu /= np.linalg.norm(nu)
        rows.append([nu[0], nu[1], 1.0])
        rhs.append(float(a @ nu))
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.asarray(rows),
                  b_ub=np.asarray(rhs), bounds=[(None, None)] * 3,
                  method="highs")
    assert res.status == 0
    return res.x[:2], float(res.x[2])


def test_volumes():
    assert vx.Domain.interval(-1.0, 3.0).volume() == 4.0
    tri = vx.Domain.polygon([(0, 0), (1, 0), (0, 1)])
    assert tri.volume() == pytest.approx(0.5, abs=1e-15)
    assert vx.Domain.polygon(L_SHAPE).volume() == pytest.approx(3.0, abs=1e-14)
    assert vx.Domain.disk((0, 0), 2.0).volume() == pytest.approx(4 * np.pi)
    ball3 = vx.Domain.ball(np.zeros(3), 1.0)
    assert ball3.volume() == pytest.approx(4 * np.pi / 3)
    ball4 = vx.Domain.ball(np.zeros(4), 1.0)
    assert ball4.volume() == pytest.approx(np.pi**2 / 2)


def test_vertex_order_normalized():
    # Clockwise input is flipped to counterclockwise, volume unchanged.
    cw = vx.Domain.polygon(L_SHAPE[::-1])
    assert cw.volume() == pytest.approx(3.0, abs=1e-14)


def test_bounding_box():
    dom = vx.Domain.polygon(L_SHAPE)
    lo, hi = dom.bounding_box()
    assert np.allclose(lo, [0, 0]) and np.allclose(hi, [2, 2])


def test_contains():
    dom = vx.Domain.polygon(L_SHAPE)
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5], [2.5, 0.5]])
    assert list(dom.contains(pts)) == [True, True, True, False, False]

    ball = vx.Domain.ball(np.zeros(3), 1.0)
    pts3 = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.9, 0.9, 0.0]])
    assert list(ball.contains(pts3)) == [True, True, False]

    iv = vx.Domain.interval(0.0, 1.0)
    assert list(iv.contains(np.array([[0.5], [1.5]]))) == [True, False]


@pytest.mark.parametrize("scale", [2.0**-40, 2.0**-20, 1.0, 2.0**20, 2.0**40])
def test_contains_band_scales_with_the_domain(scale):
    # the band is 1e-12 of the bounding box's longest side: a point 2.5e-13 of
    # that side outside the boundary is in it, one 5e-12 outside is not.
    # Scaling by a power of two is exact, so every scaled copy classifies alike.
    offsets = np.array([-0.125, 2.5e-13, 5e-12])
    shape = vx.Domain.polygon(scale * np.array(L_SHAPE))  # longest side 2 scale
    mids = (shape.vertices + np.roll(shape.vertices, -1, axis=0)) / 2
    probes = np.concatenate([mids + 2 * scale * d * shape.normals for d in offsets])
    assert shape.contains(probes).tolist() == [True] * 12 + [False] * 6
    disk = vx.Domain.disk((0.0, scale), scale)  # longest side 2 scale
    probes = np.column_stack([scale + 2 * scale * offsets, np.full(3, scale)])
    assert disk.contains(probes).tolist() == [True, True, False]
    iv = vx.Domain.interval(0.0, scale)
    probes = scale * np.concatenate([-offsets, 1.0 + offsets])[:, None]
    assert iv.contains(probes).tolist() == [True, True, False] * 2


def test_zero_area_test_scales_with_the_domain():
    # a unit square scaled by 1e-6 fills its bounding box and builds
    small = vx.Domain.polygon(1e-6 * np.array([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert small.volume() == pytest.approx(1e-12, rel=1e-12)
    # a diagonal sliver of 5e-12 of its box's area is refused at any size
    for scale in (1e-6, 1.0, 1e6):
        with pytest.raises(vx.ConfigError, match="zero area"):
            vx.Domain.polygon(scale * np.array([(0, 0), (1, 1), (0.5, 0.5 + 1e-11)]))


def test_range_of_linear():
    sq = vx.Domain.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert sq.range_of_linear([1.0, 0.0]) == (0.0, 1.0)
    assert vx.Domain.polygon(L_SHAPE).range_of_linear([1.0, 1.0]) == (0.0, 3.0)
    lo, hi = vx.Domain.disk((1.0, 0.0), 2.0).range_of_linear([3.0, 4.0])
    assert (lo, hi) == pytest.approx((3.0 - 10.0, 3.0 + 10.0))


def test_range_of_radius():
    disk = vx.Domain.disk((0.0, 0.0), 1.0)
    assert disk.range_of_radius([0.0, 0.0]) == (0.0, 1.0)
    assert disk.range_of_radius([2.0, 0.0]) == pytest.approx((1.0, 3.0))
    sq = vx.Domain.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    rmin, rmax = sq.range_of_radius([2.0, 0.5])
    assert rmin == pytest.approx(1.0)
    assert rmax == pytest.approx(np.sqrt(4 + 0.25))

    # Domain.boundary_distance, which the polytope arm above relies on,
    # against the minimum over the boundary's facets
    assert sq.boundary_distance([2.0, 0.5]) == rmin
    interval = vx.Domain.interval(-1.0, 3.0)
    for x in (-3.5, -1.0, 0.25, 2.5, 3.0, 4.25):
        assert interval.boundary_distance([x]) == min(abs(x + 1.0), abs(3.0 - x))
    shape = vx.Domain.polygon(L_SHAPE)
    edges = list(zip(shape.vertices, np.roll(shape.vertices, -1, axis=0)))
    for x in vx.sample_points(shape, 8):
        per_edge = [_point_segment_distance(x, a, b) for a, b in edges]
        assert shape.boundary_distance(x) == min(per_edge)
    # the disk against an inscribed 1024-gon, which lies within
    # 1 - cos(pi / 1024) < 5e-6 of the circle
    disk = vx.Domain.disk((0.5, -0.25), 1.0)
    t = 2.0 * np.pi * np.arange(1024) / 1024
    ring = disk.center + np.column_stack([np.cos(t), np.sin(t)])
    pts = vx.sample_points(disk, 8)
    per_edge = np.min([_point_segment_distance_many(pts, a, b)
                       for a, b in zip(ring, np.roll(ring, -1, axis=0))], axis=0)
    got = [disk.boundary_distance(x) for x in pts]
    assert np.allclose(got, per_edge, rtol=0.0, atol=5e-6)


def test_interval_is_the_one_dimensional_polytope():
    unit = vx.Domain.interval(0.0, 1.0)
    assert unit.vertices.tolist() == [[0.0], [1.0]]
    assert unit.normals.tolist() == [[-1.0], [1.0]]
    # the distance to the nearer end from any point, as a polygon's distance
    # to its nearest edge
    assert [unit.boundary_distance([x]) for x in (2.0, -0.5, 0.25)] == [1.0, 0.5, 0.25]
    # a center within the contains band outside counts as inside, for an
    # interval as for a polygon
    assert unit.range_of_radius([1.0 + 1e-13]) == (0.0, 1.0 + 1e-13)
    assert unit.range_of_radius([-2.0]) == (2.0, 3.0)
    square = vx.Domain.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert square.range_of_radius([1.0 + 1e-13, 0.0])[0] == 0.0
    # rmax through a norm scaled by a power of two: it neither overflows nor
    # underflows where the plain norm of the vertex offsets would
    assert vx.Domain.interval(0.0, 1e200).range_of_radius([0.0]) == (0.0, 1e200)
    # (the contains band scales with the interval, so this center a tenth of
    # its length outside is outside)
    tiny = vx.Domain.interval(0.0, 1e-170).range_of_radius([-1e-171])
    assert tiny == (1e-171, 1e-170 + 1e-171)
    assert not vx.Domain.interval(0.0, 1e-9).contains([[-5e-13]])[0]

    # clockwise input is stored counterclockwise, each edge's normal
    # pointing out of the L
    shape = vx.Domain.polygon(L_SHAPE[::-1])
    assert shape.vertices.tolist() == [list(v) for v in L_SHAPE]
    assert shape.normals.tolist() == [[0, -1], [1, 0], [0, 1], [1, 0], [0, 1], [-1, 0]]


def test_star_report_disk_and_square():
    disk = vx.Domain.disk((0.0, 0.0), 1.0)
    rep = vx.star_shape_report(disk, [0.0, 0.0])
    assert rep.is_star and rep.min_xdotnu == pytest.approx(1.0)
    rep = vx.star_shape_report(disk, [0.4, 0.0])
    assert rep.min_xdotnu == pytest.approx(0.6)

    sq = vx.Domain.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    rep = vx.star_shape_report(sq, [0.0, 0.0])
    assert rep.is_star and rep.min_xdotnu == pytest.approx(1.0)
    rep = vx.star_shape_report(sq, [2.0, 0.0])
    assert not rep.is_star and rep.strict_rho == 0.0


def test_star_report_translation_invariance():
    dom = vx.Domain.polygon(L_SHAPE)
    shift = np.array([10.0, -7.0])
    moved = vx.Domain.polygon(np.asarray(L_SHAPE) + shift)
    o = np.array([0.5, 0.5])
    a = vx.star_shape_report(dom, o).min_xdotnu
    b = vx.star_shape_report(moved, o + shift).min_xdotnu
    assert abs(a - b) <= 1e-12


def test_l_shape_star_wrt_corner_square():
    dom = vx.Domain.polygon(L_SHAPE)
    # Star-shaped w.r.t. the unit corner square, not w.r.t. the far lobes.
    assert vx.star_shape_report(dom, [0.5, 0.5]).is_star
    assert not vx.star_shape_report(dom, [1.5, 0.5]).is_star


def test_find_star_center_simple_kinds():
    assert np.allclose(vx.find_star_center(vx.Domain.interval(2.0, 6.0)), [4.0])
    assert np.allclose(vx.find_star_center(vx.Domain.disk((3.0, -1.0), 2.0)),
                       [3.0, -1.0])


@pytest.mark.parametrize("verts", [
    [(0, 0), (2, 0), (2, 1), (0, 1)],
    [(0, 0), (3, 0), (1.5, 2.0)],
    L_SHAPE,
])
def test_find_star_center_matches_lp(verts):
    dom = vx.Domain.polygon(verts)
    origin = vx.find_star_center(dom)
    achieved = vx.star_shape_report(dom, origin).min_xdotnu
    _, rho_star = lp_star_center(dom.vertices)
    assert achieved <= rho_star + 1e-9
    assert achieved >= rho_star - 1e-12


def test_find_star_center_exact_and_tie_break():
    square = vx.Domain.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert vx.find_star_center(square).tolist() == [0.5, 0.5]
    assert vx.find_star_center(vx.Domain.polygon(L_SHAPE)).tolist() == [0.5, 0.5]
    # the optimal set of the 2x1 rectangle is the segment y = 1/2,
    # 1/2 <= x <= 3/2; its two vertices are averaged
    rect = vx.Domain.polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
    assert vx.find_star_center(rect).tolist() == [1.0, 0.5]


def test_find_star_center_many_edges_matches_lp():
    # 40 edges give 9,880 edge triples, so several batches are solved
    ang = 2 * np.pi * np.arange(40) / 40
    verts = np.column_stack([np.cos(ang) + 0.3 * np.cos(3 * ang), np.sin(ang)])
    dom = vx.Domain.polygon(verts)
    origin = vx.find_star_center(dom)
    _, rho_star = lp_star_center(dom.vertices)
    achieved = vx.star_shape_report(dom, origin).min_xdotnu
    assert abs(achieved - rho_star) <= 1e-12


def test_closed_ring_polygon_drops_repeated_vertex():
    ring = vx.Domain.polygon([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert len(ring.vertices) == 4
    assert vx.find_star_center(ring).tolist() == [0.5, 0.5]
    with pytest.raises(vx.ConfigError):
        vx.Domain.polygon([(0, 0), (1, 0), (1, 0), (0, 0)])


@pytest.mark.parametrize("verts, area", [
    ([(0, 0), (1e200, 0), (0, 1e200)], "inf"),
    ([(1e200, 1e200), (2e200, 1e200), (1e200, 2e200)], "nan"),
])
def test_polygon_with_overflowing_area_refused(verts, area):
    # a shoelace term overflows; the polygon is refused, with no warning,
    # before its simplicity check and its edge normals run
    with pytest.raises(vx.ConfigError, match=f"polygon area {area} is not finite"):
        vx.Domain.polygon(verts)


@pytest.mark.filterwarnings("error")
def test_long_edge_normals_neither_overflow_nor_move():
    # an edge past 1e154 with a finite area: its normal is normed after a
    # power-of-two scaling, with no overflow warning and no zero normal
    thin = vx.Domain.polygon([(0, 0), (1e155, 0), (0, 1e-155)])
    assert thin.volume() == 0.5
    assert thin.normals.tolist() == [[0.0, -1.0], [1e-310, 1.0], [-1.0, 0.0]]
    # normal-size edges keep the plain t-perp / |t-perp| bit for bit
    rng = np.random.default_rng(4)
    for scale in (1e-3, 1.0, 1e3, 1e100):
        verts = rng.standard_normal((3, 2)) * scale
        verts = verts if _shoelace(verts) > 0 else verts[::-1]
        t = np.roll(verts, -1, axis=0) - verts
        plain = np.column_stack([t[:, 1], -t[:, 0]])
        plain /= np.linalg.norm(plain, axis=1)[:, None]
        assert np.array_equal(vx.Domain.polygon(verts).normals, plain)


def segments_meet(p, q, r, s):
    """Whether the closed segments pq and rs of integer points share a
    point, in exact arithmetic: the crossing parameters of their lines, or,
    for segments on one line, the overlap of their projections on an axis
    the line is not perpendicular to."""
    d, e = (q[0] - p[0], q[1] - p[1]), (s[0] - r[0], s[1] - r[1])
    w = (r[0] - p[0], r[1] - p[1])
    den = d[0] * e[1] - d[1] * e[0]
    if den:
        t = Fraction(w[0] * e[1] - w[1] * e[0], den)
        u = Fraction(w[0] * d[1] - w[1] * d[0], den)
        return 0 <= t <= 1 and 0 <= u <= 1
    if w[0] * d[1] - w[1] * d[0]:  # parallel lines, apart
        return False
    k = 0 if d[0] else 1
    return (max(min(p[k], q[k]), min(r[k], s[k]))
            <= min(max(p[k], q[k]), max(r[k], s[k])))


def is_simple(verts):
    """Loop-form oracle: after dropping each vertex equal to the next, at
    least three vertices, a triangle of nonzero area, and no two
    non-adjacent edges that meet."""
    verts = [v for i, v in enumerate(verts) if v != verts[(i + 1) % len(verts)]]
    m = len(verts)
    if m < 3:
        return False
    if m == 3:
        (ax, ay), (bx, by), (cx, cy) = verts
        return (bx - ax) * (cy - ay) != (by - ay) * (cx - ax)
    edges = [(verts[i], verts[(i + 1) % m]) for i in range(m)]
    return not any(segments_meet(*edges[i], *edges[j])
                   for i in range(m) for j in range(i + 2, m) if (i, j) != (0, m - 1))


def grid_polygons(count=3000, seed=0):
    """Random polygons of 3 to 8 vertices on the 4 x 4 integer grid, every
    other one sorted by angle about its centroid."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        pts = rng.integers(0, 4, size=(rng.integers(3, 9), 2))
        if k % 2:
            c = pts.mean(axis=0)
            pts = pts[np.argsort(np.arctan2(*(pts - c).T[::-1]), kind="stable")]
        yield pts.tolist()


def test_polygon_refused_exactly_when_not_simple():
    counts = {True: 0, False: 0}
    for verts in grid_polygons():
        simple = is_simple(verts)
        counts[simple] += 1
        if not simple:
            with pytest.raises(vx.ConfigError):
                vx.Domain.polygon(verts)
            continue
        mesh = vx.build_mesh(vx.Domain.polygon(verts), 10.0)
        x, y = np.array(verts, dtype=float).T
        area = abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2
        assert mesh.volume == pytest.approx(area, rel=1e-12)
        assert np.array_equal(np.unique(mesh.cells), np.arange(mesh.nnodes))
    assert min(counts.values()) > 1000, counts


def test_simplicity_check_memory_is_linear():
    ang = 2 * np.pi * np.arange(1000) / 1000
    verts = np.column_stack([np.cos(ang), np.sin(ang)])
    tracemalloc.start()
    try:
        vx.Domain.polygon(verts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_find_star_center_edge_limit():
    def regular(m):
        ang = 2 * np.pi * np.arange(m) / m
        return vx.Domain.polygon(np.column_stack([np.cos(ang), np.sin(ang)]))

    limit = vx.domains._MAX_STAR_EDGES
    assert np.abs(vx.find_star_center(regular(limit))).max() <= 1e-12
    with pytest.raises(vx.ConfigError, match=f"at most {limit} edges"):
        vx.find_star_center(regular(limit + 1))


def test_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(vx.__file__))
    code = "import sys, vexlab; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_find_star_center_rejects_c_shape():
    dom = vx.Domain.polygon(C_SHAPE)
    _, rho_star = lp_star_center(dom.vertices)
    assert rho_star < 0  # the LP agrees the kernel is empty
    with pytest.raises(vx.NotStarShaped):
        vx.find_star_center(dom)


GON_64 = np.column_stack([np.cos(2 * np.pi * np.arange(64) / 64),
                          np.sin(2 * np.pi * np.arange(64) / 64)])


@pytest.mark.parametrize("verts", [L_SHAPE, C_SHAPE, GON_64],
                         ids=["l_shape", "c_shape", "64_gon"])
def test_stacked_margin_is_the_per_origin_margin(verts):
    # find_star_center scores its candidate origins as one (k, 2) stack
    dom = vx.Domain.polygon(verts)
    lo, hi = dom.bounding_box()
    origins = probe_grid(dom, np.linspace(-0.25, 1.25, 13))
    stacked = dom._min_xdotnu(origins)
    assert stacked.shape == (len(origins),)
    single = np.array([dom._min_xdotnu(o) for o in origins])
    assert np.all(np.abs(stacked - single) <= 4 * np.spacing(np.max(hi - lo)))


# float.hex of find_star_center's origin, taken while it scored the LP's
# vertices with a margin formula of its own, and the C-shape's refusal
STAR_CENTER_PINS = {
    "l_shape": ["0x1.0000000000000p-1", "0x1.0000000000000p-1"],
    "64_gon": ["0x1.9856fd2aab925p-57", "0x1.00ff4baa1856fp-56"],
    "rectangle": ["0x1.0000000000000p+0", "0x1.0000000000000p-1"],
}


def test_star_centers_pinned():
    shapes = {"l_shape": L_SHAPE, "64_gon": GON_64,
              "rectangle": [(0, 0), (2, 0), (2, 1), (0, 1)]}
    assert {name: [x.hex() for x in vx.find_star_center(vx.Domain.polygon(v))]
            for name, v in shapes.items()} == STAR_CENTER_PINS
    with pytest.raises(vx.NotStarShaped, match=r"best min_xdotnu = -5\.000e-01\)$"):
        vx.find_star_center(vx.Domain.polygon(C_SHAPE))


@pytest.mark.parametrize("k", range(-40, 41, 10))
def test_star_verdict_scales_with_the_domain(k):
    # the margins are taken over the bounding box's longest side, and scaling
    # by a power of two is exact: the L-shape's center scales exactly, and
    # the C-shape is refused at every size
    scale = 2.0**k
    l_shape = vx.Domain.polygon(scale * np.array(L_SHAPE))
    assert vx.find_star_center(l_shape).tolist() == [0.5 * scale, 0.5 * scale]
    c_shape = vx.Domain.polygon(scale * np.array(C_SHAPE))
    with pytest.raises(vx.NotStarShaped):
        vx.find_star_center(c_shape)
    # (0.5, 1.5), one of the LP's best origins, misses by a sixth of the side
    rep = vx.star_shape_report(c_shape, scale * np.array([0.5, 1.5]))
    assert rep.min_xdotnu == -0.5 * scale and not rep.is_star


def test_sample_points_nested_under_doubling():
    dom = vx.Domain.polygon(L_SHAPE)
    coarse = vx.sample_points(dom, 8)
    fine = vx.sample_points(dom, 16)
    fine_set = {tuple(np.round(p, 12)) for p in fine}
    assert all(tuple(np.round(p, 12)) in fine_set for p in coarse)
    assert len(fine) > len(coarse)


def test_from_spec():
    dom = vx.Domain.from_spec({"kind": "interval", "a": 0, "b": 1})
    assert dom.kind == "interval" and dom.volume() == 1.0
    ball = vx.Domain.from_spec({"kind": "ball_analytic", "center": [0, 0, 0],
                                "radius": 1.0})
    assert ball.kind == "ball" and ball.dim == 3

    with pytest.raises(vx.ConfigError):
        vx.Domain.from_spec({"kind": "torus"})
    with pytest.raises(vx.ConfigError):
        vx.Domain.from_spec({"kind": "interval", "a": 1, "b": 1})
    with pytest.raises(vx.ConfigError):
        vx.Domain.from_spec("not a dict")
    for stray in ({"kind": "interval", "a": 0, "b": 1, "radius": 3},
                  {"kind": "polygon", "vertices": [(0, 0), (1, 0), (0, 1)],
                   "center": [0, 0]},
                  {"kind": "disk", "center": [0, 0], "radius": 1, "a": 0},
                  {"kind": "ball_analytic", "center": [0], "radius": 1, "b": 1}):
        with pytest.raises(vx.ConfigError):
            vx.Domain.from_spec(stray)


def test_missing_and_unknown_keys_named():
    with pytest.raises(vx.ConfigError,
                       match=r"^interval domain: missing keys \['b'\]$"):
        vx.Domain("interval", a=0)
    with pytest.raises(vx.ConfigError,
                       match=r"^polygon domain: missing keys \['vertices'\]$"):
        vx.Domain.from_spec({"kind": "polygon"})
    with pytest.raises(vx.ConfigError, match=r"^disk domain: unknown keys \['a'\] "
                                             r"and missing keys \['radius'\]$"):
        vx.Domain.from_spec({"kind": "disk", "center": [0, 0], "a": 0})
    with pytest.raises(vx.ConfigError, match="unknown domain kind"):
        vx.Domain.from_spec({"kind": ["interval"]})


@pytest.mark.parametrize("spec", [
    {"kind": "interval", "a": 0.0, "b": float("inf")},
    {"kind": "interval", "a": float("-inf"), "b": 1.0},
    {"kind": "polygon", "vertices": [(0, 0), (1, float("nan")), (0, 1)]},
    {"kind": "disk", "center": [0.0, 0.0], "radius": float("nan")},
    {"kind": "disk", "center": [float("inf"), 0.0], "radius": 1.0},
    {"kind": "ball_analytic", "center": [0.0, float("nan"), 0.0], "radius": 1.0},
])
def test_non_finite_geometry_rejected(spec):
    with pytest.raises(vx.ConfigError):
        vx.Domain.from_spec(spec)


def test_wrong_dimension_and_resolution_refused():
    with pytest.raises(vx.ConfigError, match="origin has dim 2, domain has dim 1"):
        vx.star_shape_report(vx.Domain.interval(0.0, 1.0), [0.5, 0.5])
    with pytest.raises(vx.ConfigError, match="resolution must be >= 1"):
        vx.sample_points(vx.Domain.polygon(L_SHAPE), 0)


def test_degenerate_polygon_rejected():
    with pytest.raises(vx.ConfigError):
        vx.Domain.polygon([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(vx.ConfigError):
        vx.Domain.disk((0, 0), 0.0)


# -- every query of every kind pinned ----------------------------------------


def pinned_domains():
    """Four fixed and 20 random intervals (seed 0), six polygons (the C-shape
    not star-shaped), a disk and a 3-ball."""
    rng = np.random.default_rng(0)
    ends = [(0.0, 1.0), (-1.0, 3.0), (2.0, 6.0), (0.0, 0.5)]
    ends += [(a, a + w)
             for a, w in rng.uniform([-10.0, 0.01], [10.0, 10.0], (20, 2))]
    ang = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    polygons = [[(0, 0), (1, 0), (1, 1), (0, 1)], L_SHAPE,
                [(0, 0), (2, 0), (2, 1), (0, 1)], [(0, 0), (3, 0), (1.5, 2.0)],
                np.column_stack([np.cos(ang), np.sin(ang)]), C_SHAPE]
    return ([vx.Domain.interval(a, b) for a, b in ends]
            + [vx.Domain.polygon(v) for v in polygons]
            + [vx.Domain.disk((0.5, -0.25), 1.0),
               vx.Domain.ball((0.1, -0.2, 0.3), 1.5)])


def probe_grid(dom, fractions):
    """The points lo + (hi - lo) t of the bounding box, t over fractions on
    every axis."""
    lo, hi = dom.bounding_box()
    axes = [lo[d] + (hi[d] - lo[d]) * np.asarray(fractions) for d in range(dom.dim)]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def query_values(dom):
    """Each pinned query's values on dom, as float arrays.  The radius
    centers keep clear of the boundary; boundary_distance is asked only at
    points of the closed domain."""
    probes = probe_grid(dom, [-0.25, 0.0, 0.3, 0.5, 0.7, 1.0, 1.25])
    centers = probe_grid(dom, [-0.25, 0.3, 0.5, 0.7, 1.25])
    directions = {1: [[1.0], [-2.5], [0.3]],
                  2: [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-0.3, 2.0]],
                  3: [[1.0, 0.0, 0.0], [0.5, -1.0, 2.0]]}[dom.dim]
    try:
        center = vx.find_star_center(dom)
    except vx.NotStarShaped:
        center = [np.nan]
    values = {
        "volume": [dom.volume()],
        "bounding_box": np.concatenate(dom.bounding_box()),
        "contains": dom.contains(probes),
        "range_of_linear": [dom.range_of_linear(b) for b in directions],
        "range_of_radius": [dom.range_of_radius(c) for c in centers],
        "boundary_distance": [dom.boundary_distance(x)
                              for x in vx.sample_points(dom, 8)],
        "min_xdotnu": [vx.star_shape_report(dom, o).min_xdotnu for o in probes],
        "find_star_center": center,
    }
    return {k: np.asarray(v, dtype=float).ravel() for k, v in values.items()}


# sha256 of each query's values over pinned_domains(): the interval and
# polygon paths must keep every bit of every nonzero value.  Zeros are hashed
# as +0.0, since the dot product x . b that the polytope path takes gives +0.0
# where the interval's plain product a b gave -0.0 (a = 0, b < 0).
DOMAIN_QUERY_DIGESTS = {
    "volume":
        "af7db9f906245a4a1cf82be0ac2542fe68774356abbf4a98ef499aad3e5f3a87",
    "bounding_box":
        "19ac614f9e81a0d08bb4aabbd73902151443c1b175eb5bfd8bc4406d013c52ed",
    "contains":
        "a80347996577ef85d58269d21f713bbe358ab714d8ba6cfb3d5f1c85ef9a3e27",
    "range_of_linear":
        "d712e6f9416265fd4b383e8de9e19b6a47ec2c946be45f0cbc8aa6bb4afa7193",
    "range_of_radius":
        "fd452d207cb1fc67cb67dd9b15a32e1d3ce711da2ba3619779ffad9173e95bde",
    "boundary_distance":
        "460805599aa4a8f40fb98721f2e0ecc978d7ba555553f77c6ebe248ec00eff2e",
    "min_xdotnu":
        "e050d2319edc7e6e69e850826672dadb9a1e07ad57b3462084b04c0e9f853de4",
    "find_star_center":
        "9c31dd21bb5e27b3d4bb8684935ae56399c9894238edfc69b8bb623353b68e44",
}


def test_domain_queries_pinned():
    per_domain = [query_values(dom) for dom in pinned_domains()]
    got = {name: hashlib.sha256((np.concatenate([v[name] for v in per_domain])
                                 + 0.0).tobytes()).hexdigest()
           for name in per_domain[0]}
    assert got == DOMAIN_QUERY_DIGESTS
