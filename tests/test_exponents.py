"""Exponent fields: bounds, conjugates, embedding gaps, log-Holder modulus."""

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


def test_sampled_bounds_monotone_under_refinement(interval):
    p = vx.AffineExponent(2.0, [1.0])
    lows, highs = zip(*(vx.sampled_bounds(p, interval, resolution=r)
                        for r in (8, 16, 32)))
    assert lows[0] >= lows[1] >= lows[2]
    assert highs[0] <= highs[1] <= highs[2]


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
