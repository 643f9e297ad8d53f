"""Energy descent for the regularized Dirichlet problems.

The discrete unknown is a zero-trace P1 field.  All problems minimize

    F(z) = int (|grad z|^2 + eps)^(p(x)/2) / p(x)
         + q_sign * int |z|^q(x) / q(x)  -  int (load) z

which is strictly convex for q_sign = +1 and eps > 0.  Every solve, the
Nehari polish (q_sign = -1, a saddle) included, runs the one damped Newton
driver _minimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from numbers import Integral, Real

import numpy as np
from scipy.sparse.linalg import spsolve

from .errors import CollapseToZero, ConfigError, NoScalingRoot, reject_unknown_keys
from .fem import (
    DiscreteField,
    _assemble_matrix,
    _cell_mass,
    _load_vector,
    _scatter,
    cutoff,
    field_on_quadrature,
    gradient,
    l2_project,
    mesh_l2,
    mollify,
)
from .modular import (
    _balance_root,
    gradient_luxemburg_norm,
    gradient_modular,
    modular,
)

_TINY = 1e-300
_EPS = np.finfo(float).eps
_ARMIJO_C1 = 1e-4
_ARMIJO_SHRINK = 0.5
_BACKTRACKS = 60
# Longest epsilon schedule a config may ask for; each level is one Newton
# solve per truncation level (the benchmark's longest schedule has 21).
_MAX_EPS_LEVELS = 1000


@dataclass
class SolveConfig:
    """Solver and schedule parameters (JSON keys match the field names)."""

    epsilon: float = 1e-6
    epsilon0: float = 1.0
    eps_factor: float = 0.5
    eps_min: float = 1e-6
    grad_tol: float = 1e-8
    max_iters: int = 500
    n_schedule: tuple = (1, 2, 4, 8)
    seed: int = 42
    collapse_tol: float = 1e-6

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("solver config must be a JSON object")
        types = {name: f.type for name, f in cls.__dataclass_fields__.items()}
        reject_unknown_keys(data, types, "solver config")
        for key, value in data.items():
            kind = {"float": Real, "int": Integral}.get(types[key])
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                raise ConfigError(f"solver {key!r}: {value!r} is not {types[key]}")
            if kind is Real and not math.isfinite(value):
                raise ConfigError(f"solver {key!r}: {value!r} is not finite")
        cfg = cls(**data)
        levels = cfg.n_schedule
        if (not isinstance(levels, (list, tuple)) or not levels
                or any(isinstance(n, bool) or not isinstance(n, Integral) or n < 1
                       for n in levels)):
            raise ConfigError(f"solver 'n_schedule': {levels!r} is not a "
                              "nonempty list of positive integers")
        cfg.n_schedule = tuple(levels)
        if cfg.seed < 0:
            raise ConfigError(f"solver 'seed': {cfg.seed} is negative")
        if cfg.epsilon0 <= 0 or cfg.eps_min <= 0 or not 0 < cfg.eps_factor < 1:
            raise ConfigError("epsilon schedule parameters out of range")
        cfg.eps_schedule()  # raises past _MAX_EPS_LEVELS levels
        return cfg

    def eps_schedule(self):
        """Geometric schedule epsilon0, epsilon0*f, ... terminated at eps_min.

        Raises ConfigError once it passes _MAX_EPS_LEVELS levels."""
        out = []
        e = self.epsilon0
        while e > self.eps_min * (1 + 1e-12):
            out.append(e)
            if len(out) == _MAX_EPS_LEVELS:
                raise ConfigError(
                    f"epsilon schedule has more than {_MAX_EPS_LEVELS} levels")
            e *= self.eps_factor
        out.append(self.eps_min)
        return out


@dataclass
class SolveResult:
    field: DiscreteField
    energy: float
    el_residual: float
    iterations: int
    converged: bool
    diagnostics: dict = dataclass_field(default_factory=dict)


def _phi(g, eps, pq, w):
    """int (|g|^2 + eps)^(p/2) / p for per-cell gradients g, by quadrature."""
    s = np.sum(g * g, axis=1)[:, None] + eps
    with np.errstate(over="ignore"):
        return float(np.sum(w * s ** (pq / 2.0) / pq))


def _flux_action(mesh, g, eps, pq, w):
    """Nodal entries <(|g|^2 + eps)^((p-2)/2) g, grad phi_i>, the first
    variation of _phi."""
    s = np.sum(g * g, axis=1)[:, None] + eps
    with np.errstate(over="ignore", divide="ignore"):
        scale = np.sum(w * np.maximum(s, _TINY) ** ((pq - 2.0) / 2.0), axis=1)
    flux = scale[:, None] * g
    return _scatter(mesh, np.einsum("cd,cvd->cv", flux, mesh.basis_grads))


class _EnergyProblem:
    """Precomputed quadrature data for one energy; evaluates F, F', F''."""

    def __init__(self, mesh, p, q, eps, load_q=None, q_sign=1.0):
        self.mesh = mesh
        self.eps = float(eps)
        self.q_sign = float(q_sign)
        self.w = mesh.quadrature()[1]
        self.pq = p.eval_on_quadrature(mesh)
        self.qq = q.eval_on_quadrature(mesh)
        self.load_q = load_q  # (nc, nq) or None

    def _at(self, z):
        zf = DiscreteField(self.mesh, z)
        return gradient(zf), field_on_quadrature(zf)

    def energy(self, z):
        g, zq = self._at(z)
        e_phi = _phi(g, self.eps, self.pq, self.w)
        with np.errstate(over="ignore"):
            e_q = self.q_sign * np.sum(self.w * np.abs(zq) ** self.qq / self.qq)
        e_load = 0.0 if self.load_q is None else np.sum(self.w * self.load_q * zq)
        return float(e_phi + e_q - e_load)

    def grad(self, z):
        g, zq = self._at(z)
        out = _flux_action(self.mesh, g, self.eps, self.pq, self.w)
        dens = self.q_sign * _signed_power(zq, self.qq)
        if self.load_q is not None:
            dens = dens - self.load_q
        # onto the finished flux entries; summing per cell first moves roundoff
        return _load_vector(self.mesh, dens, out)

    def hess(self, z):
        g, zq = self._at(z)
        g2 = np.sum(g * g, axis=1)
        s = g2[:, None] + self.eps
        s_safe = np.maximum(s, _TINY)
        with np.errstate(over="ignore", divide="ignore"):
            a1 = np.sum(self.w * s_safe ** ((self.pq - 2.0) / 2.0), axis=1)
            a2 = np.sum(self.w * (self.pq - 2.0) * s_safe ** ((self.pq - 4.0) / 2.0),
                        axis=1)
        a2 = np.where(g2 > _TINY, a2, 0.0)
        dim = self.mesh.dim
        eye = np.eye(dim)
        A = a1[:, None, None] * eye + a2[:, None, None] * np.einsum(
            "cd,ce->cde", g, g
        )
        G = self.mesh.basis_grads
        elem = np.einsum("cvd,cde,cwe->cvw", G, A, G)

        az = np.maximum(np.abs(zq), 1e-14)
        with np.errstate(over="ignore"):
            m = self.w * self.q_sign * (self.qq - 1.0) * az ** (self.qq - 2.0)
        elem = elem + _cell_mass(self.mesh, m)
        return _assemble_matrix(self.mesh, elem)


def _newton_step(problem, z, free, gf, gn, F0):
    """One damped step along the Newton direction, or None.

    The merit is the energy (Armijo) while the step's predicted decrease
    s*slope is above the energy's roundoff eps*(1 + |F|), and the residual
    norm (sufficient decrease) otherwise; the latter also covers a Newton
    direction that ascends the energy, as at a saddle.  Returns the new
    iterate with its energy and free gradient (None when not yet computed),
    or None when neither merit accepts a step.
    """
    H = problem.hess(z)[free][:, free].tocsc()
    try:
        d = spsolve(H, -gf)
    except Exception:
        d = -gf
    if not np.all(np.isfinite(d)):
        d = -gf
    slope = float(d @ gf)
    floor = _EPS * (1.0 + abs(F0))
    s = 1.0
    for _ in range(_BACKTRACKS):
        if s * slope >= -floor:
            break
        ztry = z.copy()
        ztry[free] += s * d
        Ft = problem.energy(ztry)
        if Ft <= F0 + _ARMIJO_C1 * s * slope:
            return ztry, Ft, None
        s *= _ARMIJO_SHRINK
    s = 1.0
    for _ in range(_BACKTRACKS):
        ztry = z.copy()
        ztry[free] += s * d
        gt = problem.grad(ztry)[free]
        if float(np.linalg.norm(gt)) < (1.0 - _ARMIJO_C1 * s) * gn:
            return ztry, problem.energy(ztry), gt
        s *= _ARMIJO_SHRINK
    return None


def _minimize(problem, z0, free, cfg):
    """Damped Newton on the free nodes until the residual norm reaches
    cfg.grad_tol, no step passes either merit of _newton_step, or
    cfg.max_iters steps are taken.

    Returns (z, energy history, residual norm, steps, stop) with stop one of
    "converged", "stalled" or "max_iters".
    """
    z = np.array(z0, dtype=float)
    hist = [problem.energy(z)]
    gf = problem.grad(z)[free]
    gn = float(np.linalg.norm(gf))
    iters = 0
    while gn > cfg.grad_tol and iters < cfg.max_iters:
        step = _newton_step(problem, z, free, gf, gn, hist[-1])
        if step is None:
            break
        z, F, gf = step
        hist.append(F)
        if gf is None:
            gf = problem.grad(z)[free]
        gn = float(np.linalg.norm(gf))
        iters += 1
    if gn <= cfg.grad_tol:
        stop = "converged"
    elif iters == cfg.max_iters:
        stop = "max_iters"
    else:
        stop = "stalled"
    return z, hist, gn, iters, stop


# -- public energies and actions -------------------------------------------


def regularized_energy(z, v, p, q, eps):
    """F_eps(z) with linear load v (a P1 field paired by quadrature)."""
    load_q = None if v is None else field_on_quadrature(v)
    prob = _EnergyProblem(z.mesh, p, q, eps, load_q=load_q)
    return prob.energy(z.values)


def phi_energy(z, p, eps):
    """The bare gradient part int (|grad z|^2 + eps)^(p/2) / p; its first
    variation in zero-trace directions is operator_action."""
    mesh = z.mesh
    return _phi(gradient(z), float(eps), p.eval_on_quadrature(mesh),
                mesh.quadrature()[1])


def source_energy(z, source, p, q):
    """The eps = 0 energy with doubled power-type source:

        int |grad z|^p/p + int |z|^q/q - 2 int |source|^(q-2) source z
    """
    mesh = z.mesh
    qq = q.eval_on_quadrature(mesh)
    sq = field_on_quadrature(source)
    load_q = 2.0 * _signed_power(sq, qq)
    prob = _EnergyProblem(mesh, p, q, 0.0, load_q=load_q)
    return prob.energy(z.values)


def _signed_power(vals, qq):
    """|t|^(q-2) t, extended by 0 at t = 0 (safe for q < 2)."""
    av = np.abs(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(av > _TINY, av ** (qq - 2.0) * vals, 0.0)


def operator_action(z, p, eps):
    """Weak action of the regularized operator on the zero-trace basis:
    entries <(|grad z|^2 + eps)^((p-2)/2) grad z, grad phi_i>, boundary
    entries zeroed."""
    mesh = z.mesh
    out = _flux_action(mesh, gradient(z), float(eps),
                       p.eval_on_quadrature(mesh), mesh.quadrature()[1])
    return DiscreteField(mesh, out, zero_trace=True)


def power_source(u, q, factor=2.0):
    """L2-projection of factor * |u|^(q-2) u onto P1.

    Projecting the quadrature-point composition (rather than interpolating
    nodal values) keeps <v, phi_i> exactly equal to the composed load, so
    the truncated problem reproduces the candidate once truncation is
    inactive.
    """
    qq = q.eval_on_quadrature(u.mesh)
    sq = field_on_quadrature(u)
    return l2_project(u.mesh, factor * _signed_power(sq, qq))


def mollifier_radius(eps, mesh):
    """Schedule coupling: radius(eps) = sqrt(eps) * diam(Omega) / 4."""
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    return float(np.sqrt(eps) * np.linalg.norm(hi - lo) / 4.0)


# -- solvers ---------------------------------------------------------------


def solve_regularized(v, p, q, cfg=None, epsilon=None, z0=None):
    """Minimize the strictly convex F_eps with linear load v."""
    cfg = cfg or SolveConfig()
    eps = cfg.epsilon if epsilon is None else float(epsilon)
    if eps <= 0:
        raise ConfigError("epsilon must be positive")
    mesh = v.mesh
    load_q = field_on_quadrature(v)
    prob = _EnergyProblem(mesh, p, q, eps, load_q=load_q)
    if z0 is None:
        z0 = np.zeros(mesh.nnodes)
    elif isinstance(z0, DiscreteField):
        z0 = z0.values
    z0 = np.array(z0, dtype=float)
    z0[mesh.boundary_nodes] = 0.0
    z, hist, gn, iters, stop = _minimize(prob, z0, mesh.interior_nodes, cfg)
    return SolveResult(
        field=DiscreteField(mesh, z, zero_trace=True),
        energy=hist[-1],
        el_residual=gn,
        iterations=iters,
        converged=stop == "converged",
        diagnostics={"energy_history": hist, "epsilon": eps, "stop": stop},
    )


def solve_truncated(u, p, q, n, cfg=None):
    """Solve the truncated problem for one n down the epsilon schedule.

    Builds u_n = cutoff(u, n) and the mollified doubled source, then runs
    solve_regularized along the schedule with warm starts.  Diagnostics
    carry the per-epsilon series: gradient modular, regularized modular,
    q-modular, and successive-iterate distances in mesh-L2 and q-modular.
    The per-epsilon SolveResults are kept under diagnostics["eps_runs"].
    """
    cfg = cfg or SolveConfig()
    mesh = u.mesh
    u_n = cutoff(u, n)
    f_node = power_source(u_n, q, factor=2.0)

    runs = []
    series = {"epsilon": [], "grad_modular": [], "phi_modular": [],
              "q_modular": [], "l2_delta": [], "q_modular_delta": []}
    z = u_n.values.copy()
    prev = None
    pq = p.eval_on_quadrature(mesh)
    _, w, _ = mesh.quadrature()
    for eps in cfg.eps_schedule():
        v_eps = mollify(f_node, mollifier_radius(eps, mesh))
        res = solve_regularized(v_eps, p, q, cfg, epsilon=eps, z0=z)
        wfield = res.field
        z = wfield.values
        g2 = np.sum(gradient(wfield) ** 2, axis=1)[:, None]
        series["epsilon"].append(eps)
        series["grad_modular"].append(gradient_modular(wfield, p).value)
        series["phi_modular"].append(float(np.sum(w * (g2 + eps) ** (pq / 2.0))))
        series["q_modular"].append(modular(wfield, q).value)
        if prev is None:
            series["l2_delta"].append(np.nan)
            series["q_modular_delta"].append(np.nan)
        else:
            diff = wfield - prev
            series["l2_delta"].append(mesh_l2(diff))
            series["q_modular_delta"].append(modular(diff, q).value)
        prev = wfield
        res.diagnostics["n"] = n
        runs.append(res)

    final = runs[-1]
    final.diagnostics.update(
        n=n,
        series=series,
        eps_runs=runs,
        truncation_active=bool(np.any(np.abs(u.values) > n)),
    )
    return final


def cascade(u, p, q, cfg=None):
    """Run solve_truncated along cfg.n_schedule; report gaps against u.

    Each returned SolveResult carries two diagnostics: gap_grad_modular,
    the difference in gradient modular between the truncated solution and
    the candidate u, and gap_q_modular, the same difference for the source
    modular.  Both shrink to zero once the truncation level clears max |u|.
    """
    cfg = cfg or SolveConfig()
    gm_u = gradient_modular(u, p).value
    qm_u = modular(u, q).value
    out = []
    for n in cfg.n_schedule:
        res = solve_truncated(u, p, q, n, cfg)
        series = res.diagnostics["series"]  # the last entries are res.field's
        res.diagnostics["gap_grad_modular"] = abs(series["grad_modular"][-1] - gm_u)
        res.diagnostics["gap_q_modular"] = abs(series["q_modular"][-1] - qm_u)
        out.append(res)
    return out


# -- Nehari-type candidate generator ---------------------------------------


def _nehari_scale(gmag, zq_abs, logw, pq, qq):
    """Root t of sum w t^p |grad u|^p = sum w t^q |u|^q, solved for log t."""
    if not (np.all(np.isfinite(gmag)) and np.all(np.isfinite(zq_abs))):
        raise NoScalingRoot("non-finite candidate")
    if float(gmag.max()) <= 0.0 or float(zq_abs.max()) <= 0.0:
        raise NoScalingRoot("degenerate candidate: zero gradient or zero field")
    with np.errstate(divide="ignore"):
        la = (logw + pq * np.log(gmag)).ravel()
        lb = (logw + qq * np.log(zq_abs)).ravel()
    return float(np.exp(_balance_root(la, pq.ravel(), lb, qq.ravel())))


def nehari_candidate(p, q, mesh, cfg=None):
    """Generate a nontrivial critical-point candidate by projected descent
    on the scaling manifold, polished by a Newton iteration on the full
    optimality system.

    Requires q- > p+ on the mesh (monotone scaling projection); raises
    NoScalingRoot otherwise, and CollapseToZero when the polished
    candidate's gradient norm is below cfg.collapse_tol.
    diagnostics["descent_stop"] says why the descent ended: "tolerance"
    (small gradient), "no_decrease" (60 step halvings found no lower
    energy) or "max_iters" (its 400-step cap).
    """
    cfg = cfg or SolveConfig()
    rng = np.random.default_rng(cfg.seed)
    pq = p.eval_on_quadrature(mesh)
    qq = q.eval_on_quadrature(mesh)
    if float(qq.min()) <= float(pq.max()) + 1e-12:
        raise NoScalingRoot(
            f"scaling projection needs q- > p+, got q- = {qq.min():.4g}, "
            f"p+ = {pq.max():.4g}"
        )
    eps_guard = 0.0 if float(pq.min()) >= 2.0 else 1e-14
    prob = _EnergyProblem(mesh, p, q, eps_guard, q_sign=-1.0)
    free = mesh.interior_nodes

    logw = np.log(prob.w)

    def project(zvals):
        g, zq = prob._at(zvals)
        gmag = np.linalg.norm(g, axis=1)[:, None]
        return _nehari_scale(gmag, np.abs(zq), logw, pq, qq) * zvals

    bump = mesh.boundary_distance()
    bump = bump / bump.max()
    u = bump * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, mesh.nnodes))
    u[mesh.boundary_nodes] = 0.0
    u = project(u)

    hist = [prob.energy(u)]
    step = 1.0
    for iters1 in range(1, 401):
        r = prob.grad(u)
        gn = float(np.linalg.norm(r[free]))
        if gn <= max(1e-3, 50.0 * cfg.grad_tol):
            descent_stop = "tolerance"
            break
        accepted = False
        s = step
        for _ in range(60):
            trial = u.copy()
            trial[free] -= s * r[free]
            try:
                trial = project(trial)
            except NoScalingRoot:
                s *= 0.5
                continue
            Jt = prob.energy(trial)
            if Jt < hist[-1] - 1e-14 * (1.0 + abs(hist[-1])):
                accepted = True
                break
            s *= 0.5
        if not accepted:
            descent_stop = "no_decrease"
            break
        u = trial
        hist.append(Jt)
        step = min(s * 2.0, 1e3)
    else:
        descent_stop = "max_iters"

    u, _, gn, iters2, stop = _minimize(prob, u, free, cfg)

    ufield = DiscreteField(mesh, u, zero_trace=True)
    if gradient_luxemburg_norm(ufield, p) < cfg.collapse_tol:
        raise CollapseToZero("candidate collapsed toward the trivial solution")
    identity_gap = abs(gradient_modular(ufield, p).value - modular(ufield, q).value)
    return SolveResult(
        field=ufield,
        energy=prob.energy(u),
        el_residual=gn,
        iterations=iters1 + iters2,
        converged=stop == "converged",
        diagnostics={
            "stop": stop,
            "identity_gap": identity_gap,
            "energy_history": hist,
            "descent_iterations": iters1,
            "descent_stop": descent_stop,
            "newton_iterations": iters2,
            "seed": cfg.seed,
        },
    )
