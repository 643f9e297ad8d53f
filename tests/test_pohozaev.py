"""Balance terms, boundary remainder, the identity checks, and the verdict."""

import dataclasses
import warnings

import numpy as np
import pytest

import vexlab as vx


P2 = vx.ConstantExponent(2.0)
Q4 = vx.ConstantExponent(4.0)


def sin_field(mesh):
    return vx.DiscreteField.interpolate(
        mesh, lambda x: np.sin(np.pi * x[:, 0]), zero_trace=True)


def synthetic_run(mesh, values, n, eps):
    field = vx.DiscreteField(mesh, values, zero_trace=True)
    return vx.SolveResult(field=field, energy=0.0, el_residual=0.0,
                          iterations=0, converged=True,
                          diagnostics={"n": n, "epsilon": eps})


def synthetic_cascade(mesh, values, ns, epss):
    """Runs shaped as cascade returns them: per n, the last epsilon level,
    holding every level of that n under eps_runs; values() gives each
    level's nodal values, in schedule order."""
    runs = []
    for n in ns:
        levels = [synthetic_run(mesh, values(), n, e) for e in epss]
        levels[-1].diagnostics["eps_runs"] = levels
        runs.append(levels[-1])
    return runs


# -- the guarded log factor -------------------------------------------------


def test_tloge_values():
    assert vx.tloge(0.0) == 0.0
    assert vx.tloge(1e-301) == 0.0  # guarded, not -inf
    assert vx.tloge(1.0) == pytest.approx(-1.0, abs=1e-15)
    assert vx.tloge(np.e) == pytest.approx(0.0, abs=1e-15)
    arr = vx.tloge(np.array([0.0, 1.0, np.e, 10.0]))
    assert arr.shape == (4,)
    assert np.all(np.isfinite(arr))


# -- volume terms -----------------------------------------------------------


def test_terms_zero_field(interval_mesh):
    u = vx.DiscreteField.zeros(interval_mesh)
    rep = vx.pohozaev_terms(u, P2, Q4, origin=[0.5])
    assert (rep.t1, rep.t2, rep.t3, rep.t4) == (0.0, 0.0, 0.0, 0.0)
    assert rep.total == 0.0 and rep.r_proxy == 0.0
    assert rep.class_e and rep.class_p
    assert rep.identity_gap == 0.0
    assert rep.p_dagger == 2.0


def test_terms_constant_exponents_kill_log_terms(fine_interval_mesh):
    u = 1.7 * sin_field(fine_interval_mesh)
    rep = vx.pohozaev_terms(u, P2, Q4, origin=[0.5])
    assert rep.t3 == 0.0 and rep.t4 == 0.0  # exactly: grad p = grad q = 0
    assert rep.class_e


def test_terms_sin_oracle(fine_interval_mesh):
    u = sin_field(fine_interval_mesh)
    rep = vx.pohozaev_terms(u, P2, P2, origin=[0.5])
    assert rep.t1 == pytest.approx(-0.25, abs=5e-4)
    assert rep.t2 == pytest.approx(-np.pi**2 / 4, abs=5e-3)
    assert rep.total == pytest.approx(rep.t1 + rep.t2 + rep.t3 - rep.t4,
                                      abs=1e-15)


def test_terms_identity_gap_matches_modulars(fine_interval_mesh):
    u = 1.3 * sin_field(fine_interval_mesh)
    p = vx.AffineExponent(2.0, [0.5])
    q = vx.AffineExponent(2.0, [0.25])
    rep = vx.pohozaev_terms(u, p, q, origin=[0.3])
    manual = abs(vx.modular(u, q).value - vx.gradient_modular(u, p).value)
    assert rep.identity_gap == pytest.approx(manual, abs=1e-12)
    assert rep.p_dagger == 2.0


def test_class_e_integral_cross_check(fine_interval_mesh):
    u = 1.3 * sin_field(fine_interval_mesh)
    p = vx.AffineExponent(2.0, [0.5])
    q = vx.AffineExponent(2.0, [0.25])
    rep = vx.pohozaev_terms(u, p, q, origin=[0.0])
    other = vx.class_e_integral(u, p, q, origin=[0.0])
    scale = 1 + abs(rep.t3) + abs(rep.t4)
    assert abs((rep.t3 - rep.t4) - other) <= 1e-12 * scale
    assert rep.class_e == (rep.t3 - rep.t4 >= -1e-9)


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_terms_tabulated_match_affine(kind, interval, unit_square):
    # the tabulated exponents' values and per-cell gradients on quadrature
    if kind == "interval":
        mesh, origin = vx.build_mesh(interval, 0.01), [0.3]
        p, q = vx.AffineExponent(1.8, [0.4]), vx.AffineExponent(3.0, [0.5])
    else:
        mesh, origin = vx.build_mesh(unit_square, 0.1), [0.4, 0.5]
        p = vx.AffineExponent(1.5, [0.2, 0.1])
        q = vx.AffineExponent(3.0, [0.5, -0.25])
    u = 2.0 * vx.DiscreteField.interpolate(
        mesh, lambda x: np.prod(np.sin(np.pi * x), axis=1), zero_trace=True)
    ref = vx.pohozaev_terms(u, p, q, origin)
    got = vx.pohozaev_terms(u, vx.TabulatedExponent(mesh, p.value_at(mesh.nodes)),
                            vx.TabulatedExponent(mesh, q.value_at(mesh.nodes)),
                            origin)
    for term in ("t1", "t2", "t3", "t4"):
        assert getattr(got, term) == pytest.approx(getattr(ref, term),
                                                   rel=1e-12, abs=0)


def test_terms_reject_overflow(interval_mesh):
    u = vx.DiscreteField.interpolate(
        interval_mesh, lambda x: np.full(len(x), 1e200), zero_trace=True)
    with pytest.raises(vx.NonFiniteIntegrand):
        vx.pohozaev_terms(u, P2, Q4, origin=[0.5])


def test_report_with_remainder_and_csv(fine_interval_mesh):
    rep = vx.pohozaev_terms(sin_field(fine_interval_mesh), P2, Q4,
                            origin=[0.5])
    rep2 = rep.with_remainder(0.125)
    assert rep2.r_proxy == 0.125
    assert rep2.total == pytest.approx(
        rep.t1 + rep.t2 + rep.t3 - rep.t4 + 0.125, abs=1e-15)
    d = dataclasses.asdict(rep2)
    assert d["origin"] == (0.5,) and d["r_proxy"] == 0.125


# -- boundary term and the remainder proxy ----------------------------------


def test_boundary_term_zero_field_closed_form(interval_mesh):
    u = vx.DiscreteField.zeros(interval_mesh)
    # density eps^(p/2) (x - o).nu; both endpoints contribute eps * 1/2
    for eps in (0.5, 0.25):
        got = vx.boundary_term(u, P2, eps, origin=[0.5])
        assert got == pytest.approx(eps, abs=1e-14)


def test_boundary_term_sin_oracle(fine_interval_mesh):
    u = sin_field(fine_interval_mesh)
    eps = 1e-3
    got = vx.boundary_term(u, P2, eps, origin=[0.5])
    assert got == pytest.approx(np.pi**2 + eps, rel=1e-3)


def test_remainder_zero_fields_exact(interval_mesh):
    runs = synthetic_cascade(interval_mesh, lambda: np.zeros(interval_mesh.nnodes),
                             (1, 2), (0.5, 0.25))
    r = vx.remainder_R(runs, P2, interval_mesh, origin=[0.5])
    # trailing-half max of the eps list is 0.25; coefficient (2-1)/2
    assert r == pytest.approx(0.125, abs=1e-14)
    # a repeated truncation level adds no epsilon level to its n
    repeated = synthetic_cascade(interval_mesh,
                                 lambda: np.zeros(interval_mesh.nnodes),
                                 (1, 2, 2), (0.5, 0.25))
    assert vx.remainder_R(repeated, P2, interval_mesh, origin=[0.5]) == r


def test_remainder_nonnegative_for_star_origin(interval_mesh, rng):
    runs = synthetic_cascade(interval_mesh,
                             lambda: rng.standard_normal(interval_mesh.nnodes),
                             (1, 2, 4), (1.0, 0.5, 0.25))
    r = vx.remainder_R(runs, vx.AffineExponent(2.0, [0.5]), interval_mesh,
                       origin=[0.5])
    assert r >= 0.0


def test_remainder_insufficient_runs(interval_mesh):
    def zeros():
        return np.zeros(interval_mesh.nnodes)

    with pytest.raises(vx.InsufficientRuns):
        vx.remainder_R([], P2, interval_mesh, origin=[0.5])
    only_one_n = synthetic_cascade(interval_mesh, zeros, (1,), (0.5, 0.25))
    with pytest.raises(vx.InsufficientRuns):
        vx.remainder_R(only_one_n, P2, interval_mesh, origin=[0.5])
    one_eps_each = synthetic_cascade(interval_mesh, zeros, (1, 2), (0.5,))
    with pytest.raises(vx.InsufficientRuns):
        vx.remainder_R(one_eps_each, P2, interval_mesh, origin=[0.5])
    missing_tags = [vx.SolveResult(
        field=vx.DiscreteField.zeros(interval_mesh), energy=0.0,
        el_residual=0.0, iterations=0, converged=True, diagnostics={})]
    with pytest.raises(vx.InsufficientRuns):
        vx.remainder_R(missing_tags, P2, interval_mesh, origin=[0.5])
    with pytest.raises(vx.InsufficientRuns):
        vx.remainder_table(missing_tags, P2, origin=[0.5])


def test_remainder_table_rows(interval_mesh):
    runs = synthetic_cascade(interval_mesh, lambda: np.zeros(interval_mesh.nnodes),
                             (1, 2), (0.5, 0.25))
    rows = vx.remainder_table(runs, P2, origin=[0.5])
    assert len(rows) == 4
    assert rows[0][:2] == (1, 0.5)
    assert rows[0][2] == pytest.approx(0.5, abs=1e-14)


# -- Pucci-Serrin identity --------------------------------------------------


def test_pucci_serrin_trivial_fields(interval_mesh):
    w = vx.DiscreteField.zeros(interval_mesh)
    v = vx.DiscreteField.zeros(interval_mesh)
    lhs, rhs, gap = vx.verify_pucci_serrin(w, P2, P2, v, eps=0.01, a=0.0,
                                           origin=[0.5])
    assert lhs == pytest.approx(0.01 / 2, abs=1e-15)
    assert gap <= 1e-12


def test_pucci_serrin_gap_contracts_under_refinement(interval):
    eps = 1e-4
    gaps = []
    for h in (0.04, 0.02, 0.01):
        mesh = vx.build_mesh(interval, h)
        v = vx.DiscreteField.interpolate(
            mesh, lambda x: (1 + np.pi**2) * np.sin(np.pi * x[:, 0]))
        res = vx.solve_regularized(v, P2, P2, vx.SolveConfig(epsilon=eps))
        assert res.converged
        _, _, gap = vx.verify_pucci_serrin(res.field, P2, P2, v, eps=eps, a=0.0,
                                           origin=[0.5])
        gaps.append(gap)
    assert gaps[1] <= 0.7 * gaps[0]
    assert gaps[2] <= 0.7 * gaps[1]


# -- radial source-term identity --------------------------------------------


def test_radial_identity_zero_field(interval_mesh):
    u = vx.DiscreteField.zeros(interval_mesh)
    lhs, rhs = vx.radial_identity_sides(u, Q4, origin=[0.5])
    assert abs(lhs - rhs) == 0.0


def test_radial_identity_constant_q_exact(fine_interval_mesh):
    u = sin_field(fine_interval_mesh)
    lhs, rhs = vx.radial_identity_sides(u, P2, origin=[0.5])
    assert abs(lhs - rhs) <= 1e-12  # quadrature integrates both sides exactly
    assert lhs == pytest.approx(-0.25, abs=2e-4)
    assert rhs == pytest.approx(-0.25, abs=2e-4)


def test_radial_identity_variable_q_refines(interval):
    q = vx.AffineExponent(2.0, [1.0])
    gaps = []
    for h in (0.02, 0.005):
        mesh = vx.build_mesh(interval, h)
        u = vx.DiscreteField.interpolate(
            mesh, lambda x: x[:, 0] * (1 - x[:, 0]) * np.exp(x[:, 0]),
            zero_trace=True)
        lhs, rhs = vx.radial_identity_sides(u, q, origin=[0.25])
        gaps.append(abs(lhs - rhs))
    assert gaps[1] <= 0.5 * gaps[0]
    assert gaps[1] <= 1e-5


# -- pinned balance layer in 2D ----------------------------------------------

# float.hex of every balance result on two 2D cases with variable exponents
# (the config digests cover only 1D runs with constant p and q, where
# t3 = t4 = 0 exactly).  Pinned before the balance layer was restructured;
# a change here means a result moved by at least one ulp.  "square" was
# re-pinned when the quadrature samples moved from einsum to matmul
# (tests/repin_compare.py: within 2.3e-16 relative).
BALANCE_PINS = {
    "square": {
        "t1": "-0x1.e811b224adca9p-1", "t2": "0x1.338896ecf6030p+1",
        "t3": "0x1.596cd063c938cp-3", "t4": "0x1.9dd9d795df526p-9",
        "identity_gap": "0x1.3fcbba7dd0b57p+3",
        "boundary_term": "0x1.699cb4a7f40f8p+4",
        "class_e_integral": "0x1.52f5690571bb9p-3",
        "pucci_serrin": ("-0x1.20bcbe58170b7p+3", "-0x1.1249418b831a7p+1",
                         "0x1.5f74972e58775p-1"),
        "radial_sides": ("-0x1.e9b0800342480p-1", "-0x1.e9af8bfc43a9ep-1"),
    },
    "disk": {
        "t1": "-0x1.d48163e7fdf60p+0", "t2": "0x1.8251175d8d908p+0",
        "t3": "0x1.fed022cc3ad3dp-1", "t4": "-0x1.74dea64928913p-5",
        "identity_gap": "0x1.3827824e570f6p+3",
        "boundary_term": "0x1.7dced4a38d762p+5",
        "class_e_integral": "0x1.0b0f069866ae8p+0",
        "pucci_serrin": ("-0x1.62430a5a2f4efp+4", "-0x1.06828bfd1b4b3p+2",
                         "0x1.8f20065b88d22p-1"),
        "radial_sides": ("-0x1.c8dc1c447b3b6p+0", "-0x1.c8da6eb5b4b16p+0"),
    },
}


def balance_case(kind, unit_square):
    """(u, v, p, q, origin): the unit square at h = 0.1 with affine p and q,
    or the unit disk at h = 0.1 with radial p and q."""
    if kind == "square":
        mesh, origin = vx.build_mesh(unit_square, 0.1), [0.4, 0.5]
        p = vx.AffineExponent(1.5, [0.2, 0.1])
        q = vx.AffineExponent(3.0, [0.5, -0.25])
        u = 2.0 * vx.DiscreteField.interpolate(
            mesh, lambda x: np.prod(np.sin(np.pi * x), axis=1), zero_trace=True)
    else:
        mesh, origin = vx.build_mesh(vx.Domain.disk(), 0.1), [0.1, -0.2]
        p = vx.RadialExponent(1.6, 0.3, [0.2, 0.1])
        q = vx.RadialExponent(3.0, 0.5, [-0.1, 0.0])
        u = vx.DiscreteField.interpolate(
            mesh, lambda x: 1.5 * (1 - np.sum(x * x, axis=1)) * (1 + 0.5 * x[:, 0]),
            zero_trace=True)
    v = vx.DiscreteField.interpolate(mesh, lambda x: np.cos(x[:, 0]) + x[:, 1])
    return u, v, p, q, origin


@pytest.mark.parametrize("kind", ["square", "disk"])
def test_balance_layer_pinned(kind, unit_square):
    u, v, p, q, origin = balance_case(kind, unit_square)
    pins = BALANCE_PINS[kind]
    rep = vx.pohozaev_terms(u, p, q, origin)
    got = {t: getattr(rep, t) for t in ("t1", "t2", "t3", "t4", "identity_gap")}
    got["boundary_term"] = vx.boundary_term(u, p, 1e-3, origin)
    got["class_e_integral"] = vx.class_e_integral(u, p, q, origin)
    got["pucci_serrin"] = vx.verify_pucci_serrin(u, p, q, v, eps=0.01, a=0.3,
                                                 origin=origin)
    for name, val in got.items():
        want = pins[name]
        if isinstance(want, tuple):
            assert tuple(float.fromhex(x) for x in want) == val, name
        else:
            assert float.fromhex(want) == val, name
    sides = vx.radial_identity_sides(u, q, origin)
    for side, want in zip(sides, pins["radial_sides"]):
        assert side == pytest.approx(float.fromhex(want), rel=1e-15, abs=0)


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_boundary_layer_rejects_overflow(kind, interval_mesh, square_mesh):
    mesh, origin = ((interval_mesh, [0.5]) if kind == "interval"
                    else (square_mesh, [0.5, 0.5]))
    p = vx.ConstantExponent(1.5)
    u = vx.DiscreteField.interpolate(
        mesh, lambda x: np.full(len(x), 1e200), zero_trace=True)
    v = vx.DiscreteField.zeros(mesh)
    with pytest.raises(vx.NonFiniteIntegrand):
        vx.boundary_term(u, p, 1e-3, origin)
    with pytest.raises(vx.NonFiniteIntegrand):
        vx.verify_pucci_serrin(u, p, Q4, v, eps=0.01, a=0.3, origin=origin)


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_balance_functions_raise_on_overflow_without_warnings(
        kind, interval_mesh, square_mesh):
    # a zero-trace 1e200 field overflows |u|^q and |grad u|^2: every balance
    # function must raise NonFiniteIntegrand, not return NaN, and let no
    # RuntimeWarning escape on the way
    mesh, origin = ((interval_mesh, [0.5]) if kind == "interval"
                    else (square_mesh, [0.5, 0.5]))
    p = vx.AffineExponent(1.5, [0.2] * mesh.dim)
    q = vx.AffineExponent(3.0, [0.5] * mesh.dim)
    u = vx.DiscreteField.interpolate(
        mesh, lambda x: np.full(len(x), 1e200), zero_trace=True)
    v = vx.DiscreteField.zeros(mesh)
    calls = {
        "pohozaev_terms": lambda: vx.pohozaev_terms(u, p, q, origin),
        "class_e_integral": lambda: vx.class_e_integral(u, p, q, origin),
        "radial_identity_sides": lambda: vx.radial_identity_sides(u, q, origin),
        "boundary_term": lambda: vx.boundary_term(u, p, 1e-3, origin),
        "verify_pucci_serrin": lambda: vx.verify_pucci_serrin(
            u, p, q, v, eps=0.01, a=0.3, origin=origin),
    }
    for call in calls.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(vx.NonFiniteIntegrand):
                call()


# -- nonexistence verdict ---------------------------------------------------


def test_verdict_sweep_cases():
    ball = vx.Domain.ball(np.zeros(3), 1.0)
    cases = []
    coeffs = []
    for qv in (4.0, 5.0, 6.0, 7.0):
        rep = vx.nonexistence_verdict(ball, P2, vx.ConstantExponent(qv))
        cases.append(rep.case)
        coeffs.append(rep.coefficient)
        assert rep.p_plus_star == pytest.approx(6.0, abs=1e-12)
    assert cases == ["none", "none", "ii", "i"]
    assert coeffs == pytest.approx([-0.25, -0.1, 0.0, 0.5 - 3.0 / 7.0],
                                   abs=1e-12)
    assert [c > 0 for c in coeffs] == [False, False, False, True]


def test_verdict_variable_exponents():
    ball = vx.Domain.ball(np.zeros(3), 1.0)
    p = vx.RadialExponent(1.8, 0.2, np.zeros(3))  # p+ = 2 on the sphere
    q = vx.RadialExponent(7.0, -0.5, np.zeros(3))  # q- = 6.5 > (p+)* = 6
    rep = vx.nonexistence_verdict(ball, p, q)
    assert rep.applies and rep.case == "i"
    assert rep.q_minus == pytest.approx(6.5)
    assert rep.p_plus == pytest.approx(2.0)


def test_verdict_rejects_p_at_least_n():
    ball = vx.Domain.ball(np.zeros(3), 1.0)
    with pytest.raises(vx.ExponentTooLarge):
        vx.nonexistence_verdict(ball, vx.ConstantExponent(3.0), Q4)
    with pytest.raises(vx.ExponentTooLarge):
        vx.nonexistence_verdict(vx.Domain.interval(0, 1), P2, Q4)  # N = 1


def test_verdict_rejects_negative_tol():
    # with tol = -1 the subcritical q = 5.5 < p* = 6 would get case "i"
    ball = vx.Domain.ball(np.zeros(3), 1.0)
    q = vx.ConstantExponent(5.5)
    assert vx.nonexistence_verdict(ball, P2, q, tol=0.0).case == "none"
    for tol in (-1.0, -1e-12, np.nan):
        with pytest.raises(vx.ConfigError):
            vx.nonexistence_verdict(ball, P2, q, tol=tol)


def test_verdict_non_star_domain_defaults_to_none():
    c_shape = vx.Domain.polygon(
        [(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0), (1.0, 2.0),
         (3.0, 2.0), (3.0, 3.0), (0.0, 3.0)])
    rep = vx.nonexistence_verdict(c_shape, vx.ConstantExponent(1.5),
                                  vx.ConstantExponent(9.0))
    assert not rep.applies and rep.case == "none"
    assert not rep.is_star


def test_verdict_monotone_in_q(rng):
    ball = vx.Domain.ball(np.zeros(3), 1.0)
    for _ in range(100):
        pv = rng.uniform(1.2, 2.5)
        p_star = 3 * pv / (3 - pv)
        q1 = p_star + rng.uniform(0.01, 2.0)
        q2 = q1 + rng.uniform(0.0, 3.0)
        r1 = vx.nonexistence_verdict(ball, vx.ConstantExponent(pv),
                                     vx.ConstantExponent(q1))
        r2 = vx.nonexistence_verdict(ball, vx.ConstantExponent(pv),
                                     vx.ConstantExponent(q2))
        assert r1.applies and r1.case == "i"
        assert r2.applies and r2.case == "i"  # worsening q keeps the verdict
        assert r2.coefficient >= r1.coefficient - 1e-12
