"""Geometry kernel: volumes, membership queries, star-shape machinery."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import vexlab as vx
from vexlab.domains import _point_segment_distance, _point_segment_distance_many

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


def test_bounding_box_and_diameter():
    dom = vx.Domain.polygon(L_SHAPE)
    lo, hi = dom.bounding_box()
    assert np.allclose(lo, [0, 0]) and np.allclose(hi, [2, 2])
    assert dom.diameter() == pytest.approx(np.sqrt(8.0))
    assert vx.Domain.disk((1, 1), 0.5).diameter() == pytest.approx(1.0)


def test_contains():
    dom = vx.Domain.polygon(L_SHAPE)
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5], [2.5, 0.5]])
    assert list(dom.contains(pts)) == [True, True, True, False, False]

    ball = vx.Domain.ball(np.zeros(3), 1.0)
    pts3 = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.9, 0.9, 0.0]])
    assert list(ball.contains(pts3)) == [True, True, False]

    iv = vx.Domain.interval(0.0, 1.0)
    assert list(iv.contains(np.array([[0.5], [1.5]]))) == [True, False]


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

    # Domain.boundary_distance, which the polygon branch above relies on,
    # against the minimum over the boundary's edges
    assert sq.boundary_distance([2.0, 0.5]) == rmin
    interval = vx.Domain.interval(-1.0, 3.0)
    for x in (-1.0, 0.25, 2.5, 3.0):
        assert interval.boundary_distance([x]) == min(x + 1.0, 3.0 - x)
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


def test_degenerate_polygon_rejected():
    with pytest.raises(vx.ConfigError):
        vx.Domain.polygon([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(vx.ConfigError):
        vx.Domain.disk((0, 0), 0.0)
