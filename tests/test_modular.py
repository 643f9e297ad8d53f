"""Modulars, Luxemburg norms, and the norm-modular consistency checks."""

import hashlib

import numpy as np
import pytest

import vexlab as vx
from vexlab.modular import _log_sum_exp


def affine_p():
    return vx.AffineExponent(2.0, [1.0])


def random_field(mesh, rng, scale=1.0):
    return vx.DiscreteField(mesh, scale * rng.standard_normal(mesh.nnodes))


def test_modular_closed_forms(interval_mesh):
    one = vx.DiscreteField.interpolate(interval_mesh, lambda x: np.ones(len(x)))
    assert vx.modular(one, affine_p()).value == pytest.approx(1.0, abs=1e-13)

    two = vx.DiscreteField.interpolate(interval_mesh,
                                       lambda x: np.full(len(x), 2.0))
    # integral of 2^(2+x) over (0,1) is 4/ln 2
    assert vx.modular(two, affine_p()).value == pytest.approx(
        4.0 / np.log(2.0), rel=1e-9)

    zero = vx.DiscreteField.zeros(interval_mesh)
    assert vx.modular(zero, affine_p()).value == 0.0


def test_gradient_modular(interval_mesh):
    lin = vx.DiscreteField.interpolate(interval_mesh, lambda x: x[:, 0])
    assert vx.gradient_modular(lin, affine_p()).value == pytest.approx(1.0,
                                                                       abs=1e-13)
    s = vx.DiscreteField.interpolate(interval_mesh,
                                     lambda x: np.sin(np.pi * x[:, 0]))
    got = vx.gradient_modular(s, vx.ConstantExponent(2.0)).value
    assert got == pytest.approx(np.pi**2 / 2, rel=2e-3)


def scalar_norm_oracle():
    """Luxemburg norm of u = 2 under p(x) = 2 + x on (0,1), by bisection on
    the closed-form modular rho(mu) = t^2 (t-1)/log t with t = 2/mu."""
    def rho(mu):
        t = 2.0 / mu
        if abs(t - 1.0) < 1e-14:
            return t * t
        return t * t * (t - 1.0) / np.log(t)

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_luxemburg_against_scalar_oracle(interval_mesh):
    two = vx.DiscreteField.interpolate(interval_mesh,
                                       lambda x: np.full(len(x), 2.0))
    got = vx.luxemburg_norm(two, affine_p())
    assert got == pytest.approx(scalar_norm_oracle(), rel=1e-7)


def test_luxemburg_constant_exponent_closed_form(square_mesh, rng):
    p = vx.ConstantExponent(2.7)
    for _ in range(5):
        u = random_field(square_mesh, rng)
        rho = vx.modular(u, p).value
        assert vx.luxemburg_norm(u, p) == pytest.approx(rho ** (1 / 2.7),
                                                        rel=1e-8)


def test_luxemburg_unit_volume_constant_one(interval_mesh):
    one = vx.DiscreteField.interpolate(interval_mesh, lambda x: np.ones(len(x)))
    assert vx.luxemburg_norm(one, affine_p()) == pytest.approx(1.0, abs=1e-8)


def test_luxemburg_homogeneity(interval_mesh, rng):
    p = affine_p()
    u = random_field(interval_mesh, rng)
    base = vx.luxemburg_norm(u, p)
    for c in (0.037, 2.0, 851.0):
        assert vx.luxemburg_norm(c * u, p) == pytest.approx(c * base, rel=1e-8)


def test_luxemburg_triangle_inequality(square_mesh, rng):
    p = vx.AffineExponent(2.0, [1.0, 0.5])
    for _ in range(10):
        u = random_field(square_mesh, rng)
        v = random_field(square_mesh, rng, scale=3.0)
        lhs = vx.luxemburg_norm(u + v, p)
        assert lhs <= vx.luxemburg_norm(u, p) + vx.luxemburg_norm(v, p) + 1e-9


def test_norm_unit_modular(interval_mesh, rng):
    p = affine_p()
    for _ in range(5):
        u = random_field(interval_mesh, rng, scale=10.0)
        mu = vx.luxemburg_norm(u, p)
        assert vx.modular((1.0 / mu) * u, p).value == pytest.approx(1.0,
                                                                    abs=1e-8)


def test_relations_log_sandwich(interval_mesh):
    three = vx.DiscreteField.interpolate(interval_mesh,
                                         lambda x: np.full(len(x), 3.0))
    rep = vx.verify_modular_relations(three, affine_p())
    assert rep.passed and rep.relation == "above"
    ratio = np.log(rep.modular_value) / np.log(rep.norm)
    assert rep.p_minus - 1e-9 <= ratio <= rep.p_plus + 1e-9
    assert 2.0 <= ratio <= 3.0


def test_relations_randomized(interval_mesh, square_mesh, rng):
    p1 = affine_p()
    p2 = vx.RadialExponent(2.0, 0.5, [0.5, 0.5])
    for mesh, p in ((interval_mesh, p1), (square_mesh, p2)):
        for _ in range(15):
            u = random_field(mesh, rng, scale=10.0 ** rng.uniform(-2, 2))
            rep = vx.verify_modular_relations(u, p)
            assert rep.passed, rep
            assert rep.unit_gap <= 1e-8
            assert rep.lower_slack >= -1e-8 and rep.upper_slack >= -1e-8


def test_relations_zero_field(interval_mesh):
    rep = vx.verify_modular_relations(vx.DiscreteField.zeros(interval_mesh),
                                      affine_p())
    assert rep.relation == "zero" and rep.passed


def test_relations_unit_norm(interval, rng):
    mesh = vx.build_mesh(interval, 0.05)
    u = random_field(mesh, rng)
    u = (1.0 / vx.luxemburg_norm(u, affine_p())) * u
    rep = vx.verify_modular_relations(u, affine_p())
    assert rep.relation == "unit" and rep.passed and rep.sign_consistent
    assert rep.modular_value == pytest.approx(1.0, abs=1e-12)


def test_holder_zero_partner(interval_mesh, rng):
    u = random_field(interval_mesh, rng)
    rep = vx.holder_check(u, vx.DiscreteField.zeros(interval_mesh), affine_p())
    assert rep.passed and rep.lhs == 0.0


def test_holder_equality_at_p_two(interval_mesh):
    u = vx.DiscreteField.interpolate(interval_mesh,
                                     lambda x: np.sin(np.pi * x[:, 0]))
    rep = vx.holder_check(u, u, vx.ConstantExponent(2.0))
    assert rep.constant == pytest.approx(1.0, abs=1e-12)
    assert rep.passed
    assert abs(rep.slack) <= 1e-8  # u = v saturates the bound when p = 2


def test_holder_randomized(interval_mesh, rng):
    p = affine_p()
    for _ in range(20):
        u = random_field(interval_mesh, rng, scale=4.0)
        v = random_field(interval_mesh, rng, scale=0.3)
        rep = vx.holder_check(u, v, p)
        assert rep.passed and rep.slack >= -1e-9 * (1 + rep.rhs)
    assert rep.constant == pytest.approx(7.0 / 6.0, abs=5e-3)


def luxemburg_bisection(vals, pq, w):
    """Bisection on sum w (vals / mu)^p = 1, run until the midpoint stops
    moving: the oracle for the log-domain root."""
    def excess(mu):
        return float(np.sum(w * (vals / mu) ** pq)) - 1.0

    lo = hi = float(vals.max())
    while excess(hi) > 0.0:
        hi *= 2.0
    while excess(lo) < 0.0:
        lo *= 0.5
    mid = 0.5 * (lo + hi)
    while True:
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        new = 0.5 * (lo + hi)
        if new == mid:
            return mid
        mid = new


def quadrature_samples(u, p):
    _, w, _ = u.mesh.quadrature()
    return np.abs(vx.field_on_quadrature(u)), p.eval_on_quadrature(u.mesh), w


def test_luxemburg_constant_exponent_exact(square_mesh, rng):
    for pv in (1.3, 2.7):
        p = vx.ConstantExponent(pv)
        for _ in range(5):
            u = random_field(square_mesh, rng, scale=10.0 ** rng.uniform(-3, 3))
            vals, pq, w = quadrature_samples(u, p)
            exact = float(np.sum(w * vals**pv)) ** (1.0 / pv)
            assert vx.luxemburg_norm(u, p) == pytest.approx(exact, rel=1e-14)


def test_luxemburg_matches_bisection(interval_mesh, square_mesh, rng):
    for mesh, p in ((interval_mesh, affine_p()),
                    (square_mesh, vx.RadialExponent(1.4, 0.8, [0.5, 0.5]))):
        for _ in range(5):
            u = random_field(mesh, rng, scale=10.0 ** rng.uniform(-3, 3))
            oracle = luxemburg_bisection(*quadrature_samples(u, p))
            assert vx.luxemburg_norm(u, p) == pytest.approx(oracle, rel=1e-13)


def test_luxemburg_extreme_scales(square_mesh, rng):
    p = vx.AffineExponent(2.0, [1.0, 0.5])
    u = random_field(square_mesh, rng)
    base = vx.luxemburg_norm(u, p)
    for c in (1e-150, 1e150):
        got = vx.luxemburg_norm(c * u, p)
        assert np.isfinite(got)
        assert got == pytest.approx(c * base, rel=1e-13)


def test_luxemburg_rejects_non_finite(interval_mesh, rng):
    p = affine_p()
    for bad in (np.nan, np.inf):
        u = random_field(interval_mesh, rng)
        u.values[len(u.values) // 2] = bad
        with pytest.raises(vx.NonFiniteIntegrand):
            vx.luxemburg_norm(u, p)
        with pytest.raises(vx.NonFiniteIntegrand):
            vx.gradient_luxemburg_norm(u, p)
        with pytest.raises(vx.NonFiniteIntegrand):
            vx.verify_modular_relations(u, p)
        v = random_field(interval_mesh, rng)  # finite: u v has both signs of inf
        for pair in ((u, v), (v, u)):
            with pytest.raises(vx.NonFiniteIntegrand):
                vx.holder_check(*pair, p)


def test_log_sum_exp_matches_plain_formula():
    # _log_sum_exp works in one array in place; the formula it replaced,
    # with its temporaries, must give the same bits
    rng = np.random.default_rng(11)
    for n in (1, 7, 1000):
        l = rng.standard_normal(n) * 30.0
        e = rng.uniform(-4.0, 4.0, n)
        for s in (0.0, 0.37, -0.37, 5.0):
            x = l + e * s
            m = x.max()
            wts = np.exp(x - m)
            tot = wts.sum()
            r = np.log(tot)
            want = (m + r, float(wts @ e) / tot, abs(m) + r)
            got = _log_sum_exp(l, e, s)
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


# float.hex of the modular and Holder reports on the L-shape at h = 0.1 with
# radial p and seeded fields, pinned before p's samples were cached on the
# mesh; a change here means a result moved by at least one ulp.  The sums
# absorb a 1-ulp change of p at a point, so p's samples are pinned too.
# "holder" was re-pinned when the quadrature samples moved from einsum to
# matmul (tests/repin_compare.py: within 4.2e-16 relative).
FIELDS_PINS = {
    "samples":
        "b9c58b30bbe194ef891c2e270f623a9b8950fffa6b7ced86861d23266e356baa",
    "relations": {
        "norm": "0x1.4a15e7a50eafbp+0", "modular_value": "0x1.88d5602de6dabp+0",
        "lower_slack": "0x1.0bbc7ed835e40p-5",
        "upper_slack": "0x1.0a3d39962de20p-4",
        "unit_gap": "0x1.0000000000000p-52",
    },
    "holder": {
        "lhs": "0x1.6eb2930c35cccp-5", "rhs": "0x1.a68893a9b5afep+0",
        "slack": "0x1.9b12ff1154018p+0",
    },
}


def test_fields_layer_pinned():
    shape = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]
    mesh = vx.build_mesh(vx.Domain.polygon(shape), 0.1)
    p = vx.RadialExponent(1.6, 0.1, [0.5, 0.5])
    rng = np.random.default_rng(17)
    u, v, w = (random_field(mesh, rng) for _ in range(3))
    got = {"relations": vx.verify_modular_relations(u, p),
           "holder": vx.holder_check(v, w, p)}
    samples = p.eval_on_quadrature(mesh).tobytes()
    assert hashlib.sha256(samples).hexdigest() == FIELDS_PINS["samples"]
    for name, report in got.items():
        pins = FIELDS_PINS[name]
        assert {key: float.hex(getattr(report, key)) for key in pins} == pins, name
