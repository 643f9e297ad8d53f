"""Exponent fields: bounds, conjugates, embedding gaps, log-Holder modulus."""

import gc

import numpy as np
import pytest

import vexlab as vx


def test_constant_bounds():
    p = vx.ConstantExponent(2.5)
    assert p.bounds() == (2.5, 2.5)
    assert np.allclose(p.value_at(np.array([[0.1], [0.9]])), 2.5)


def test_affine_bounds_on_half_interval():
    p = vx.AffineExponent(2.0, [1.0])
    dom = vx.Domain.interval(0.0, 0.5)
    assert p.bounds(dom) == (2.0, 2.5)
    assert p.bounds(vx.Domain.interval(0.0, 1.0)) == (2.0, 3.0)


def test_affine_bounds_exact_on_disk():
    p = vx.AffineExponent(2.0, [0.25, 0.0])
    dom = vx.Domain.disk((0.0, 0.0), 1.0)
    lo, hi = p.bounds(dom)
    assert (lo, hi) == pytest.approx((1.75, 2.25))


def test_radial_bounds():
    p = vx.RadialExponent(2.0, 0.5, [0.0, 0.0])
    disk = vx.Domain.disk((0.0, 0.0), 1.0)
    assert p.bounds(disk) == pytest.approx((2.0, 2.5))
    # center outside the domain: minimum sits on the near boundary
    q = vx.RadialExponent(2.0, 0.5, [2.0, 0.0])
    lo, hi = q.bounds(disk)
    assert (lo, hi) == pytest.approx((2.5, 6.5))


@pytest.mark.parametrize("p", [vx.AffineExponent(2.0, [0.5]),
                               vx.RadialExponent(2.0, 0.5, [0.0])],
                         ids=["affine", "radial"])
def test_domain_bounds_need_a_domain(p):
    with pytest.raises(vx.ConfigError, match="bounds need a domain"):
        p.bounds()


def test_non_elliptic_rejected():
    dom = vx.Domain.interval(0.0, 1.0)
    with pytest.raises(vx.NonElliptic):
        vx.AffineExponent(1.0, [0.5]).bounds(dom)  # p(0) = 1
    with pytest.raises(vx.NonElliptic):
        vx.ConstantExponent(0.9).bounds()


def test_conjugate_values_and_gradient():
    p = vx.AffineExponent(2.0, [1.0])
    pc = vx.conjugate(p)
    x = np.array([[1.0]])
    assert pc.value_at(x)[0] == pytest.approx(1.5)
    assert pc.gradient_at(x)[0, 0] == pytest.approx(-0.25)


def test_conjugate_identities(rng):
    p = vx.AffineExponent(2.0, [0.5, -0.25])
    pc = vx.conjugate(p)
    pcc = vx.conjugate(pc)
    x = rng.random((40, 2))
    assert np.max(np.abs(1 / p.value_at(x) + 1 / pc.value_at(x) - 1.0)) <= 1e-12
    assert np.max(np.abs(pcc.value_at(x) - p.value_at(x))) <= 1e-12
    # chain-rule gradient against finite differences
    h = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        fd = (pc.value_at(x + e) - pc.value_at(x - e)) / (2 * h)
        assert np.max(np.abs(fd - pc.gradient_at(x)[:, d])) <= 1e-6


def test_sobolev_conjugate_values():
    assert vx.sobolev_conjugate(vx.ConstantExponent(2.0), 3).value_at(
        np.array([[0.0]]))[0] == pytest.approx(6.0)
    assert vx.sobolev_conjugate(vx.ConstantExponent(2.0), 4).value_at(
        np.array([[0.0]]))[0] == pytest.approx(4.0)
    p = vx.AffineExponent(2.0, [0.25])
    ps = vx.sobolev_conjugate(p, 3)
    assert ps.value_at(np.array([[1.0]]))[0] == pytest.approx(9.0)


def test_sobolev_conjugate_dominates_p(rng):
    p = vx.AffineExponent(2.0, [0.5])
    ps = vx.sobolev_conjugate(p, 3)
    x = rng.random((50, 1))
    assert np.all(ps.value_at(x) > p.value_at(x))


def test_transformed_bounds_map_the_base_bounds(unit_square):
    p = vx.AffineExponent(1.5, [0.2, 0.1])  # 1.5 .. 1.8 on the unit square
    assert vx.conjugate(p).bounds(unit_square) == pytest.approx((2.25, 3.0),
                                                                rel=1e-12)
    assert vx.sobolev_conjugate(p, 2).bounds(unit_square) == pytest.approx(
        (6.0, 18.0), rel=1e-12)


def test_sobolev_conjugate_rejects_large_p():
    ps = vx.sobolev_conjugate(vx.ConstantExponent(3.0), 3)
    with pytest.raises(vx.ExponentTooLarge):
        ps.value_at(np.array([[0.0]]))
    with pytest.raises(vx.ExponentTooLarge):
        vx.sobolev_conjugate(vx.AffineExponent(2.0, [1.5]), 3).value_at(
            np.array([[0.9]]))


def test_embedding_gap_examples(interval):
    p2 = vx.ConstantExponent(2.0)
    assert vx.embedding_gap(p2, vx.ConstantExponent(4.0), interval, N=3) == \
        pytest.approx(2.0, abs=1e-12)
    assert vx.embedding_gap(p2, vx.ConstantExponent(6.0), interval, N=3) == \
        pytest.approx(0.0, abs=1e-12)
    # critical contact at the right endpoint only
    q = vx.AffineExponent(5.0, [1.0])
    assert vx.embedding_gap(p2, q, interval, N=3) == pytest.approx(0.0, abs=1e-12)


def test_embedding_gap_reads_tabulated_nodes():
    # one interior node at 1.2 sits between the sample grid's points, so
    # only the nodes themselves see p* = 3 there
    disk = vx.Domain.disk()
    mesh = vx.build_mesh(disk, 0.1)
    vals = np.full(mesh.nnodes, 1.9)
    interior = np.setdiff1d(np.arange(mesh.nnodes), mesh.boundary_nodes)
    node = interior[np.argmin(np.sum((mesh.nodes[interior] - [0.3, 0.2]) ** 2,
                                     axis=1))]
    vals[node] = 1.2
    gap = vx.embedding_gap(vx.TabulatedExponent(mesh, vals),
                           vx.ConstantExponent(4.0), disk)
    # the node is found by point location, so p there is 1.2 to roundoff
    assert gap == pytest.approx(2.0 * 1.2 / (2.0 - 1.2) - 4.0, abs=1e-12)


def test_embedding_gap_reads_tabulated_q_nodes():
    # p* = 3 everywhere (p = 1.5, N = 3); q = 2 but for 3.5 at the node
    # x = 0.33, which no sample grid point hits
    interval = vx.Domain.interval(0.0, 1.0)
    mesh = vx.build_mesh(interval, 0.01)
    vals = np.full(mesh.nnodes, 2.0)
    vals[33] = 3.5
    gap = vx.embedding_gap(vx.ConstantExponent(1.5), vx.TabulatedExponent(mesh, vals),
                           interval, N=3)
    assert gap == pytest.approx(-0.5, abs=1e-12)


def test_quadrature_samples_cached_per_mesh(unit_square):
    mesh = vx.build_mesh(unit_square, 0.25)
    p = vx.RadialExponent(1.6, 0.1, [0.5, 0.5])
    pq = p.eval_on_quadrature(mesh)
    assert p.eval_on_quadrature(mesh) is pq
    pts = mesh.quadrature()[0]
    assert np.array_equal(pq, p.value_at(pts.reshape(-1, 2)).reshape(pq.shape))
    with pytest.raises(ValueError):
        pq[0, 0] = 2.0
    for _ in range(3):  # derived fields read their base's samples, uncached
        pc = vx.conjugate(p).eval_on_quadrature(mesh)
        vx.sobolev_conjugate(p, 2).eval_on_quadrature(mesh)
    assert np.array_equal(pc, pq / (pq - 1.0))
    assert list(mesh._exponent_samples.keys()) == [p]
    del p
    gc.collect()
    assert len(mesh._exponent_samples) == 0


def test_derived_exponent_validates_every_call(unit_square):
    mesh = vx.build_mesh(unit_square, 0.25)
    pc = vx.conjugate(vx.ConstantExponent(1.0))
    ps = vx.sobolev_conjugate(vx.ConstantExponent(2.5), 2)
    for _ in range(2):  # the second call reads the cached base samples
        with pytest.raises(vx.NonElliptic):
            pc.eval_on_quadrature(mesh)
        with pytest.raises(vx.ExponentTooLarge):
            ps.eval_on_quadrature(mesh)
    assert len(mesh._exponent_samples) == 2


def test_tabulated_exponent_bounds(interval):
    mesh = vx.build_mesh(interval, 1e-4)
    vals = 2.0 + np.sin(np.pi * mesh.nodes[:, 0]) ** 2
    p = vx.TabulatedExponent(mesh, vals)
    lo, hi = p.bounds(interval)
    assert abs(lo - 2.0) <= 1e-3 and abs(hi - 3.0) <= 1e-3


def test_tabulated_matches_nodal_field(square_mesh):
    vals = 2.0 + 0.5 * square_mesh.nodes[:, 0]
    p = vx.TabulatedExponent(square_mesh, vals)
    ref = vx.AffineExponent(2.0, [0.5, 0.0])
    pts = square_mesh.nodes[::7] * 0.999 + 0.0005  # inside, off the nodes
    assert np.max(np.abs(p.value_at(pts) - ref.value_at(pts))) <= 1e-12


def test_tabulated_1d_matches_affine_off_nodes(interval, rng):
    mesh = vx.build_mesh(interval, 0.05)
    ref = vx.AffineExponent(2.0, [0.5])
    p = vx.TabulatedExponent(mesh, ref.value_at(mesh.nodes))
    mids = 0.5 * (mesh.nodes[mesh.cells[:, 0]] + mesh.nodes[mesh.cells[:, 1]])
    pts = np.vstack([mids, rng.random((200, 1))])
    assert np.max(np.abs(p.value_at(pts) - ref.value_at(pts))) <= 1e-14
    # per-cell difference quotients of the rounded nodal values
    assert np.allclose(p.gradient_at(pts), ref.gradient_at(pts), rtol=1e-12, atol=0)


def test_tabulated_on_another_mesh_samples_its_quadrature_points(unit_square):
    # a mesh other than the table's own falls through to the generic sampling
    # at that mesh's quadrature points, cached on that mesh
    own = vx.build_mesh(unit_square, 0.2)
    other = vx.build_mesh(vx.Domain.disk((0.5, 0.5), 0.4), 0.1)
    p = vx.TabulatedExponent(own, 2.0 + own.nodes[:, 0] * own.nodes[:, 1])
    pts = other.quadrature()[0].reshape(-1, 2)
    nc, nq = other.quadrature()[1].shape
    pq = p.eval_on_quadrature(other)
    assert np.array_equal(pq, p.value_at(pts).reshape(nc, nq))
    assert other._exponent_samples[p] is pq
    assert p.eval_on_quadrature(other) is pq
    assert p not in own._exponent_samples
    gq = p.grad_on_quadrature(other)
    assert np.array_equal(gq, p.gradient_at(pts).reshape(nc, nq, 2))


def test_tabulated_one_cell_triangle():
    mesh = vx.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    p = vx.TabulatedExponent(mesh, [2.0, 2.5, 3.0])
    pts = np.array([[0.2, 0.2], [0.5, 0.25], [2.0, 2.0], [-1.0, 0.5]])
    # 2 + x/2 + y inside; outside, the barycentric weights clip to the cell
    assert p.value_at(pts) == pytest.approx([2.3, 2.5, 2.75, 7 / 3], abs=1e-14)
    assert p.gradient_at(pts).tolist() == [[0.5, 1.0]] * 4


def test_log_holder_constant_exponent(interval):
    rep = vx.log_holder_estimate(vx.ConstantExponent(2.0), interval, pairs=500)
    assert rep.c_hat == 0.0
    assert rep.pairs_used == 500


def test_log_holder_affine(interval):
    p = vx.AffineExponent(2.0, [1.0])
    rep = vx.log_holder_estimate(p, interval, pairs=4000, seed=3)
    # |p(x)-p(y)| (-log|x-y|) = t(-log t) with t = |x-y| <= 1/2, whose max
    # over (0, 1/2] is 1/e at t = 1/e; sampling should get close from below
    assert 0.25 <= rep.c_hat <= 1.0 / np.e + 1e-9
    assert rep.ball_form_max >= 1.0  # |B|^(pB- - pB+) >= 1 for small balls
    x, y = rep.worst_pair
    assert abs(abs(x[0] - y[0]) - 1.0 / np.e) <= 0.1


def test_log_holder_samples_few_points():
    shape = vx.Domain.polygon(
        [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)])
    tested = []
    contains = shape.contains
    shape.contains = lambda pts, *a, **k: (tested.append(len(pts)),
                                           contains(pts, *a, **k))[1]
    rep = vx.log_holder_estimate(vx.RadialExponent(1.6, 0.1, [0.5, 0.5]), shape,
                                 pairs=500, seed=1)
    assert rep.pairs_used == 500
    # the L-shape fills 3/4 of its box, so a kept pair costs about 4/3 + 1
    # points; the ball form adds one point per ball tried
    assert sum(tested) <= 4 * 500


def test_log_holder_refuses_a_domain_without_pairs():
    # partners lie at least 1e-6 away, so none falls inside a 1e-9 interval
    with pytest.raises(vx.ConfigError, match="no admissible pairs"):
        vx.log_holder_estimate(vx.ConstantExponent(2.0), vx.Domain.interval(0, 1e-9),
                               pairs=1)


def test_log_holder_budget_counts_points_not_batches():
    # every batch draws pairs points and keeps no pair, so a budget of 200
    # batches would pass 2 * 200 * pairs**2 points (16,000,000) to contains
    narrow = vx.Domain.interval(0, 1e-9)
    tested = []
    contains = narrow.contains
    narrow.contains = lambda pts: (tested.append(len(pts)), contains(pts))[1]
    with pytest.raises(vx.ConfigError, match="no admissible pairs"):
        vx.log_holder_estimate(vx.ConstantExponent(2.0), narrow, pairs=200)
    assert sum(tested) <= 2 * 200 * 200


def test_exponent_from_spec(interval, tmp_path):
    p = vx.exponent_from_spec({"kind": "constant", "value": 2.0})
    assert isinstance(p, vx.ConstantExponent)
    p = vx.exponent_from_spec({"kind": "affine", "a": 2.0, "b": [1.0]})
    assert p.bounds(interval) == (2.0, 3.0)
    p = vx.exponent_from_spec({"kind": "radial", "base": 2.0, "amp": 0.5,
                               "center": [0.0]})
    assert isinstance(p, vx.RadialExponent)

    mesh = vx.build_mesh(interval, 0.1)
    path = tmp_path / "pvals.txt"
    np.savetxt(path, 2.0 + 0.1 * mesh.nodes[:, 0])
    p = vx.exponent_from_spec({"kind": "tabulated", "file": path.name},
                              mesh=mesh, base_dir=tmp_path)
    assert isinstance(p, vx.TabulatedExponent)
    with pytest.raises(vx.ConfigError):
        vx.exponent_from_spec({"kind": "tabulated", "file": path.name, "mesh": 1},
                              mesh=mesh, base_dir=tmp_path)

    with pytest.raises(vx.ConfigError):
        vx.exponent_from_spec({"kind": "mystery"})
    with pytest.raises(vx.ConfigError):
        vx.exponent_from_spec({"kind": "tabulated", "file": "x.txt"})  # no mesh


@pytest.mark.parametrize("spec", [
    {"kind": "constant", "value": 2.0, "vlaue": 9},
    {"kind": "affine", "a": 2.0, "b": [1.0], "c": 0},
    {"kind": "radial", "base": 2.0, "amp": 0.5, "center": [0.0], "radius": 1},
    {"kind": "affine", "a": 2.0, "b": []},
    {"kind": "affine", "a": 2.0, "b": [[]]},
    {"kind": "radial", "base": 2.0, "amp": 0.5, "center": [[0.0]]},
], ids=["constant_stray_key", "affine_stray_key", "radial_stray_key",
        "b_empty", "b_nested", "center_nested"])
def test_exponent_spec_rejects_malformed(spec):
    with pytest.raises(vx.ConfigError):
        vx.exponent_from_spec(spec)


def test_exponent_spec_names_missing_and_unknown_keys():
    with pytest.raises(vx.ConfigError, match=r"^affine exponent: unknown keys \['c'\] "
                                             r"and missing keys \['b'\]$"):
        vx.exponent_from_spec({"kind": "affine", "a": 2.0, "c": 0})
    with pytest.raises(vx.ConfigError, match=r"^radial exponent: missing keys "
                                             r"\['amp', 'center'\]$"):
        vx.exponent_from_spec({"kind": "radial", "base": 2.0})


@pytest.mark.parametrize("kind", ["affine", "radial", "tabulated"])
def test_points_take_their_shape_from_dim(kind, square_mesh):
    field = {
        "affine": vx.AffineExponent(2.0, [0.5, 0.25]),
        "radial": vx.RadialExponent(2.0, 0.5, [0.0, 0.0]),
        "tabulated": vx.TabulatedExponent(
            square_mesh, 2.0 + 0.5 * square_mesh.nodes[:, 0]
            + 0.25 * square_mesh.nodes[:, 1]),
    }[kind]
    expected = {"affine": 2.325, "radial": 2.29, "tabulated": 2.325}[kind]
    assert field.value_at([[0.3, 0.7]]) == pytest.approx([expected], abs=1e-14)
    assert field.gradient_at([[0.3, 0.7]]).shape == (1, 2)
    # one flat point is not read as a stack of one: points are (n, 2) only
    for bad in (0.3, [0.3, 0.7], [0.3, 0.7, 0.1], [[0.3, 0.7, 0.1]], [[[0.3, 0.7]]]):
        with pytest.raises(vx.ConfigError, match=r"must have shape \(n, 2\)"):
            field.value_at(bad)
        with pytest.raises(vx.ConfigError, match=r"must have shape \(n, 2\)"):
            field.gradient_at(bad)


def test_one_dimensional_and_constant_points():
    # in 1D points are (n, 1) as in any dim; a constant field takes any dim
    assert vx.AffineExponent(2.0, [0.5]).value_at([[0.2], [0.4]]) == \
        pytest.approx([2.1, 2.2], abs=1e-15)
    assert vx.RadialExponent(2.0, 1.0, [0.0]).value_at([[0.5]]) == pytest.approx([2.25])
    p = vx.ConstantExponent(2.0)
    assert np.array_equal(p.value_at([[0.3, 0.7, 0.1]]), [2.0])
    assert np.array_equal(p.value_at([[0.2], [0.4]]), [2.0, 2.0])
    assert p.gradient_at([[0.3, 0.7]]).shape == (1, 2)
    for bad in (0.3, [0.2, 0.4], np.zeros((1, 1, 2))):
        with pytest.raises(vx.ConfigError, match=r"must have shape \(n, dim\)"):
            p.value_at(bad)
    for bad in (0.5, [0.2, 0.4], [[0.2, 0.4]]):
        with pytest.raises(vx.ConfigError, match=r"must have shape \(n, 1\)"):
            vx.AffineExponent(2.0, [0.5]).value_at(bad)
