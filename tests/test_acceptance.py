"""Acceptance gate: eleven numbered criteria, one printed line each.

Each test prints "PASS criterion NN: ..." or "FAIL criterion NN: ..." with
the governing numbers and elapsed time, then asserts.  The lines go straight
to the terminal (capture disabled), so a plain pytest run shows the full
scoreboard.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import vexlab as vx

P2 = vx.ConstantExponent(2.0)
RNG_SEED = 91


@contextmanager
def criterion(capsys, num, cap_seconds):
    rec = {"ok": False, "detail": ""}
    t0 = time.monotonic()
    try:
        yield rec
    except Exception as exc:
        with capsys.disabled():
            print(f"FAIL criterion {num:02d}: raised {exc!r}")
        raise
    elapsed = time.monotonic() - t0
    ok = bool(rec["ok"]) and elapsed < cap_seconds
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: "
              f"{rec['detail']} [{elapsed:.1f}s < {cap_seconds:g}s]")
    assert ok, f"criterion {num:02d}: {rec['detail']}"


def _meshes_1d_2d():
    m1 = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.02)
    m2 = vx.build_mesh(
        vx.Domain.polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.15)
    return m1, m2


def test_c01_norm_modular_relations(capsys):
    with criterion(capsys, 1, 30) as rec:
        rng = np.random.default_rng(RNG_SEED)
        m1, m2 = _meshes_1d_2d()
        setups = [(m1, vx.AffineExponent(2.0, [1.0])),
                  (m2, vx.RadialExponent(2.0, 0.5, [0.5, 0.5]))]
        worst_gap = 0.0
        all_passed = True
        for mesh, p in setups:
            for _ in range(100):
                scale = 10.0 ** rng.uniform(-3, 3)
                u = vx.DiscreteField(mesh,
                                     scale * rng.standard_normal(mesh.nnodes))
                rep = vx.verify_modular_relations(u, p)
                all_passed = all_passed and rep.passed
                worst_gap = max(worst_gap, rep.unit_gap)

        worst_cf = 0.0
        for _ in range(50):
            pv = rng.uniform(1.5, 4.0)
            u = vx.DiscreteField(m1, rng.standard_normal(m1.nnodes))
            mu = vx.luxemburg_norm(u, vx.ConstantExponent(pv))
            closed = vx.modular(u, vx.ConstantExponent(pv)).value ** (1 / pv)
            worst_cf = max(worst_cf, abs(mu - closed) / closed)

        rec["ok"] = all_passed and worst_gap <= 1e-8 and worst_cf <= 1e-8
        rec["detail"] = (f"200 relation pairs all passed = {all_passed}, "
                         f"worst unit gap {worst_gap:.2e} <= 1e-8, "
                         f"constant-p closed form rel err {worst_cf:.2e}")


def test_c02_holder_inequality(capsys):
    with criterion(capsys, 2, 30) as rec:
        rng = np.random.default_rng(RNG_SEED + 1)
        mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.02)
        p = vx.AffineExponent(2.0, [1.0])
        worst = np.inf
        all_passed = True
        for _ in range(1000):
            u = vx.DiscreteField(
                mesh, 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(mesh.nnodes))
            v = vx.DiscreteField(
                mesh, 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(mesh.nnodes))
            rep = vx.holder_check(u, v, p)
            all_passed = all_passed and rep.passed
            worst = min(worst, rep.slack)
        rec["ok"] = all_passed and worst >= 0.0
        rec["detail"] = (f"1000 pairs, min slack {worst:.3e} >= 0, "
                         f"all passed = {all_passed}")


def test_c03_operator_matches_energy_gradient(capsys):
    with criterion(capsys, 3, 10) as rec:
        rng = np.random.default_rng(RNG_SEED + 2)
        m1, m2 = _meshes_1d_2d()
        setups = [(m1, vx.AffineExponent(2.0, [1.0])),
                  (m2, vx.RadialExponent(2.0, 0.5, [0.5, 0.5]))]
        h = 1e-6
        worst = 0.0
        for mesh, p in setups:
            for _ in range(25):
                z = vx.DiscreteField(mesh, rng.standard_normal(mesh.nnodes),
                                     zero_trace=True)
                d = vx.DiscreteField(mesh, rng.standard_normal(mesh.nnodes),
                                     zero_trace=True)
                eps = 10.0 ** rng.uniform(-4, 0)
                pairing = float(vx.operator_action(z, p, eps).values @ d.values)
                fd = (vx.phi_energy(z + h * d, p, eps)
                      - vx.phi_energy(z - h * d, p, eps)) / (2 * h)
                worst = max(worst, abs(pairing - fd) / (1 + abs(fd)))
        rec["ok"] = worst <= 1e-5
        rec["detail"] = f"50 directional triples, worst rel defect {worst:.2e} <= 1e-5"


def test_c04_manufactured_convergence_order(capsys):
    with criterion(capsys, 4, 60) as rec:
        errs = []
        for h in (0.02, 0.01, 0.005):
            mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), h)
            v = vx.DiscreteField.interpolate(
                mesh, lambda x: (1 + np.pi**2) * np.sin(np.pi * x[:, 0]))
            res = vx.solve_regularized(v, P2, P2, vx.SolveConfig(epsilon=1e-6))
            assert res.converged
            exact = vx.DiscreteField.interpolate(
                mesh, lambda x: np.sin(np.pi * x[:, 0]), zero_trace=True)
            errs.append(vx.mesh_l2(res.field - exact))
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        rec["ok"] = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
        rec["detail"] = (f"error ratios per halving {r1:.3f}, {r2:.3f} "
                         f"in [3.5, 4.5]")


def test_c05_initialization_independence(capsys):
    with criterion(capsys, 5, 60) as rec:
        rng = np.random.default_rng(RNG_SEED + 3)
        mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.005)
        p = vx.AffineExponent(2.0, [1.0])
        q = vx.AffineExponent(2.0, [0.5])
        v = vx.DiscreteField.interpolate(
            mesh, lambda x: 4.0 * np.sin(2 * np.pi * x[:, 0]), zero_trace=True)
        cfg = vx.SolveConfig(epsilon=1e-4, grad_tol=1e-8)
        sols = []
        monotone = True
        for _ in range(5):
            z0 = vx.DiscreteField(mesh, rng.standard_normal(mesh.nnodes))
            res = vx.solve_regularized(v, p, q, cfg=cfg, z0=z0)
            assert res.converged
            hist = np.asarray(res.diagnostics["energy_history"])
            monotone = monotone and bool(
                np.all(np.diff(hist) <= 1e-12 * (1 + np.abs(hist[:-1]))))
            sols.append(res.field)
        spread = max(vx.mesh_l2(a - b)
                     for i, a in enumerate(sols) for b in sols[i + 1:])
        rec["ok"] = spread <= 10 * cfg.grad_tol and monotone
        rec["detail"] = (f"5 random inits, max pairwise mesh-L2 distance "
                         f"{spread:.2e} <= {10 * cfg.grad_tol:.0e}, "
                         f"energies monotone = {monotone}")


def test_c06_pucci_serrin_gap_contracts(capsys):
    with criterion(capsys, 6, 120) as rec:
        eps = 1e-4
        gaps = []
        for h in (0.04, 0.02, 0.01, 0.005):
            mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), h)
            v = vx.DiscreteField.interpolate(
                mesh, lambda x: (1 + np.pi**2) * np.sin(np.pi * x[:, 0]))
            res = vx.solve_regularized(v, P2, P2, vx.SolveConfig(epsilon=eps))
            assert res.converged
            _, _, gap = vx.verify_pucci_serrin(res.field, P2, P2, v, eps=eps,
                                               a=0.0, origin=[0.5])
            gaps.append(gap)
        ratios = [gaps[i + 1] / gaps[i] for i in range(3)]
        rec["ok"] = all(r < 0.7 for r in ratios)
        rec["detail"] = ("identity gap ratios per halving "
                         + ", ".join(f"{r:.3f}" for r in ratios) + " all < 0.7")


def test_c07_radial_identity(capsys):
    with criterion(capsys, 7, 10) as rec:
        mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 1e-3)
        u = vx.DiscreteField.interpolate(
            mesh, lambda x: np.sin(np.pi * x[:, 0]), zero_trace=True)
        lhs, rhs = vx.radial_identity_sides(u, P2, origin=[0.5])
        gap_const = abs(lhs - rhs)
        lhs_var, rhs_var = vx.radial_identity_sides(
            u, vx.AffineExponent(2.0, [1.0]), origin=[0.5])
        gap_var = abs(lhs_var - rhs_var)
        rec["ok"] = (gap_const <= 1e-3 and gap_var <= 1e-3
                     and abs(lhs + 0.25) <= 1e-3 and abs(rhs + 0.25) <= 1e-3)
        rec["detail"] = (f"sides {lhs:.6f} / {rhs:.6f} near -1/4, "
                         f"gaps {gap_const:.1e} (constant q), "
                         f"{gap_var:.1e} (variable q) <= 1e-3")


def test_c08_balance_terms_constant_exponents(capsys):
    with criterion(capsys, 8, 10) as rec:
        mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 1e-3)
        u = vx.DiscreteField.interpolate(
            mesh, lambda x: np.sin(np.pi * x[:, 0]), zero_trace=True)
        rep = vx.pohozaev_terms(u, P2, P2, origin=[0.5])
        rec["ok"] = (rep.t3 == 0.0 and rep.t4 == 0.0
                     and abs(rep.t1 + 0.25) <= 1e-4
                     and abs(rep.t2 + np.pi**2 / 4) <= 1e-4)
        rec["detail"] = (f"t3 = {rep.t3}, t4 = {rep.t4} (exact zeros), "
                         f"t1 = {rep.t1:.6f} ~ -1/4, "
                         f"t2 = {rep.t2:.6f} ~ -pi^2/4, both within 1e-4")


def test_c09_verdict_sweep_and_monotonicity(capsys):
    with criterion(capsys, 9, 5) as rec:
        ball = vx.Domain.ball(np.zeros(3), 1.0)
        cases = [vx.nonexistence_verdict(ball, P2, vx.ConstantExponent(qv)).case
                 for qv in (4.0, 5.0, 6.0, 7.0)]
        sweep_ok = cases == ["none", "none", "ii", "i"]

        rng = np.random.default_rng(RNG_SEED + 4)
        mono_ok = True
        for _ in range(100):
            pv = rng.uniform(1.2, 2.5)
            p_star = 3 * pv / (3 - pv)
            q1 = p_star + rng.uniform(0.01, 2.0)
            q2 = q1 + rng.uniform(0.0, 3.0)
            r1 = vx.nonexistence_verdict(ball, vx.ConstantExponent(pv),
                                         vx.ConstantExponent(q1))
            r2 = vx.nonexistence_verdict(ball, vx.ConstantExponent(pv),
                                         vx.ConstantExponent(q2))
            mono_ok = mono_ok and r1.applies and r2.applies \
                and r2.coefficient >= r1.coefficient - 1e-12
        rec["ok"] = sweep_ok and mono_ok
        rec["detail"] = (f"q sweep 4..7 gives {cases}, "
                         f"100 random (p+, q-) pairs stay in case i with "
                         f"monotone coefficient = {mono_ok}")


_CANDIDATE_CACHE = {}


def _ground_state():
    if "res" not in _CANDIDATE_CACHE:
        mesh = vx.build_mesh(vx.Domain.interval(0.0, 1.0), 0.005)
        q4 = vx.ConstantExponent(4.0)
        res = vx.nehari_candidate(P2, q4, mesh)
        _CANDIDATE_CACHE.update(res=res, mesh=mesh, q=q4)
    return _CANDIDATE_CACHE["res"], _CANDIDATE_CACHE["mesh"], _CANDIDATE_CACHE["q"]


def test_c10_candidate_solves_limit_problem(capsys):
    with criterion(capsys, 10, 120) as rec:
        res, mesh, q4 = _ground_state()
        peak = float(np.max(np.abs(res.field.values)))
        rep = vx.pohozaev_terms(res.field, P2, q4, origin=[0.5])
        rec["ok"] = (peak > 1.0
                     and res.diagnostics["identity_gap"] <= 1e-6
                     and res.el_residual <= 1e-6
                     and rep.total <= 1e-2)
        rec["detail"] = (f"nontrivial (max |u| = {peak:.3f}), "
                         f"identity gap {res.diagnostics['identity_gap']:.1e} "
                         f"<= 1e-6, residual {res.el_residual:.1e} <= 1e-6, "
                         f"balance total {rep.total:.3f} <= 1e-2")


def test_c11_cascade_recovers_candidate(capsys):
    with criterion(capsys, 11, 300) as rec:
        res, mesh, q4 = _ground_state()
        cfg = vx.SolveConfig(n_schedule=(1, 2, 4, 8))
        runs = vx.cascade(res.field, P2, q4, cfg=cfg)
        gg = [r.diagnostics["gap_grad_modular"] for r in runs]
        gq = [r.diagnostics["gap_q_modular"] for r in runs]
        tail_ok = all(
            seq[i + 1] <= seq[i] * (1 + 1e-9) + 1e-12
            for seq in (gg[-3:], gq[-3:]) for i in range(2))
        rec["ok"] = gg[-1] <= 1e-4 and gq[-1] <= 1e-4 and tail_ok
        rec["detail"] = (f"final gaps {gg[-1]:.2e} (gradient), "
                         f"{gq[-1]:.2e} (source) <= 1e-4, "
                         f"nonincreasing over n = {cfg.n_schedule[-3:]}")
