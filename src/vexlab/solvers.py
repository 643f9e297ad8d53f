"""Energy descent for the regularized Dirichlet problems.

The discrete unknown is a zero-trace P1 field.  All problems minimize

    F(z) = int (|grad z|^2 + eps)^(p(x)/2) / p(x)
         + q_sign * int |z|^q(x) / q(x)  -  int (load) z

which is strictly convex for q_sign = +1 and eps > 0.  Every solve, the
Nehari polish (q_sign = -1, a saddle) included, runs the one damped Newton
driver _minimize.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np
from scipy.sparse.linalg import splu, spsolve

from .errors import (CollapseToZero, ConfigError, InsufficientRuns, NoScalingRoot,
                     check_keys, config_number)
from .fem import (
    DiscreteField,
    _assemble,
    _bump_profile,
    _cell_mass,
    _cell_stiffness,
    _load_vector,
    _scatter,
    cutoff,
    field_on_quadrature,
    l2_project,
    mollify,
    sample,
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
# A polished Nehari candidate whose gradient Luxemburg norm falls below
# this has collapsed toward u = 0.
_COLLAPSE_TOL = 1e-6
# Longest epsilon schedule a config may ask for; each level is one Newton
# solve per truncation level (the benchmark's longest schedule has 21).
_MAX_EPS_LEVELS = 1000
# The Nehari descent steps along the H^1_0 (Sobolev) gradient and hands
# over to the Newton polish once its H^-1 residual falls to the first of
# these fractions of its value at the seed (1e-2 let the polish reach a far
# critical point on a variable-exponent disk); each resumed descent exits at
# the next one.  All descents share one budget of _DESCENT_STEPS steps.
_DESCENT_EXITS = (1e-3, 1e-4, 1e-5, 1e-6)
_DESCENT_STEPS = 400
# The polish may climb this fraction above the descent's last energy, and
# never to zero or below, where no nontrivial critical point lies.  Polishes
# that ended at the Nehari level rose at most 6% on the way (unit disk,
# p = 1.5, q = 6, h = 0.1, seeds 1-8); those that walked to far critical
# points jumped by a factor of 2.5 or more, or plunged below zero first.
_NEHARI_SLACK = 0.1


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

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("solver config must be a JSON object")
        types = {name: f.type for name, f in cls.__dataclass_fields__.items()}
        check_keys(data, types, "solver config")
        cfg = cls(**{key: config_number(value, f"solver {key!r}",
                                        integer=types[key] in ("int", "tuple"),
                                        ndim=int(types[key] == "tuple"))
                     for key, value in data.items()})
        cfg.n_schedule = tuple(int(n) for n in cfg.n_schedule)
        if min(cfg.n_schedule) < 1:
            raise ConfigError(f"solver 'n_schedule': {cfg.n_schedule} has a "
                              "level below 1")
        for key in ("seed", "max_iters"):
            if getattr(cfg, key) < 0:
                raise ConfigError(f"solver {key!r}: {getattr(cfg, key)} is negative")
        if cfg.grad_tol <= 0:  # no residual norm would reach it
            raise ConfigError(f"solver 'grad_tol': {cfg.grad_tol} is not positive")
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


class _EnergyProblem:
    """The one energy of this module: samples p and q at the quadrature
    points once and evaluates F, F' and F''.  q=None drops the power term
    (hess needs q)."""

    def __init__(self, mesh, p, q, eps, load_q=None, q_sign=1.0):
        self.mesh = mesh
        self.eps = float(eps)
        self.q_sign = float(q_sign)
        self.w = mesh.quadrature()[1]
        self.pq = p.eval_on_quadrature(mesh)
        self.qq = None if q is None else q.eval_on_quadrature(mesh)
        self.load_q = load_q  # (nc, nq) or None
        self.fallbacks = 0  # Newton steps that fell back to -g

    def energy(self, z):
        g, zq = sample(self.mesh, z)
        s = np.sum(g * g, axis=1)[:, None] + self.eps
        with np.errstate(over="ignore"):
            e = np.sum(self.w * s ** (self.pq / 2.0) / self.pq)
            if self.qq is not None:
                e = e + self.q_sign * np.sum(self.w * np.abs(zq) ** self.qq / self.qq)
        if self.load_q is not None:
            e = e - np.sum(self.w * self.load_q * zq)
        return float(e)

    def grad(self, z):
        g, zq = sample(self.mesh, z)
        s = np.sum(g * g, axis=1)[:, None] + self.eps
        with np.errstate(over="ignore", divide="ignore"):
            scale = np.sum(self.w * np.maximum(s, _TINY) ** ((self.pq - 2.0) / 2.0),
                           axis=1)
        out = _scatter(self.mesh, np.einsum("cd,cvd->cv", scale[:, None] * g,
                                            self.mesh.basis_grads))
        if self.qq is None and self.load_q is None:
            return out
        dens = 0.0 if self.qq is None else self.q_sign * _signed_power(zq, self.qq)
        if self.load_q is not None:
            dens = dens - self.load_q
        # onto the finished flux entries; summing per cell first moves roundoff
        return _load_vector(self.mesh, dens, out)

    def hess(self, z):
        """F''(z) on the interior nodes, as fem._assemble's (CSC, perm)."""
        g, zq = sample(self.mesh, z)
        g2 = np.sum(g * g, axis=1)
        s_safe = np.maximum(g2[:, None] + self.eps, _TINY)
        with np.errstate(over="ignore", divide="ignore"):
            a1 = np.sum(self.w * s_safe ** ((self.pq - 2.0) / 2.0), axis=1)
            a2 = np.sum(self.w * (self.pq - 2.0) * s_safe ** ((self.pq - 4.0) / 2.0),
                        axis=1)
        a2 = np.where(g2 > _TINY, a2, 0.0)
        A = (a1[:, None, None] * np.eye(self.mesh.dim)
             + a2[:, None, None] * np.einsum("cd,ce->cde", g, g))
        G = self.mesh.basis_grads
        # G A G^T term by term, d outer and e inner: einsum's sums, bit for bit
        elem = sum((G[:, :, None, d] * A[:, None, None, d, e]) * G[:, None, :, e]
                   for d in range(self.mesh.dim) for e in range(self.mesh.dim))

        az = np.maximum(np.abs(zq), 1e-14)
        with np.errstate(over="ignore"):
            m = self.w * self.q_sign * (self.qq - 1.0) * az ** (self.qq - 2.0)
        elem = elem + _cell_mass(self.mesh, m)
        return _assemble(self.mesh, elem, self.mesh.interior_nodes)


def _newton_step(problem, z, free, gf, gn, F0):
    """One damped step along the Newton direction, or None.  When the sparse
    solve fails, the direction is -g and problem.fallbacks counts the step.

    The merit is the energy (Armijo) while the step's predicted decrease
    s*slope is above the energy's roundoff eps*(1 + |F|), and the residual
    norm (sufficient decrease) otherwise; the latter also covers a Newton
    direction that ascends the energy, as at a saddle.  Returns the new
    iterate with its energy and free gradient, or None when neither merit
    accepts a step.
    """
    H, perm = problem.hess(z)
    try:
        d = spsolve(H, -gf, permc_spec="NATURAL", use_umfpack=False)[perm]
    except RuntimeError:  # what SuperLU raises on a singular factor
        d = None
    if d is None or not np.all(np.isfinite(d)):
        problem.fallbacks += 1
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
            return ztry, Ft, problem.grad(ztry)[free]
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


def _minimize(problem, z0, free, cfg, bounds=(-np.inf, np.inf)):
    """Damped Newton on the free nodes until the residual norm reaches
    cfg.grad_tol, no step passes either merit of _newton_step, cfg.max_iters
    steps are taken, or a step would take the energy out of the open-closed
    interval bounds.

    Returns (z, energy history, residual norm, steps, stop) with stop one of
    "converged", "stalled", "max_iters" or "left_nehari" (the refused step
    is not taken).
    """
    z = np.array(z0, dtype=float)
    hist = [problem.energy(z)]
    gf = problem.grad(z)[free]
    gn = float(np.linalg.norm(gf))
    iters = 0
    stop = "max_iters"
    while gn > cfg.grad_tol and iters < cfg.max_iters:
        step = _newton_step(problem, z, free, gf, gn, hist[-1])
        if step is None or not bounds[0] < step[1] <= bounds[1]:
            stop = "stalled" if step is None else "left_nehari"
            break
        z, F, gf = step
        hist.append(F)
        gn = float(np.linalg.norm(gf))
        iters += 1
    if gn <= cfg.grad_tol:
        stop = "converged"
    return z, hist, gn, iters, stop


# -- public energies and actions -------------------------------------------


def regularized_energy(z, v, p, q, eps):
    """F_eps(z) with linear load v (a P1 field paired by quadrature)."""
    load_q = None if v is None else field_on_quadrature(v)
    return _EnergyProblem(z.mesh, p, q, eps, load_q=load_q).energy(z.values)


def phi_energy(z, p, eps):
    """The bare gradient part int (|grad z|^2 + eps)^(p/2) / p; its first
    variation in zero-trace directions is operator_action."""
    return _EnergyProblem(z.mesh, p, None, eps).energy(z.values)


def source_energy(z, source, p, q):
    """The eps = 0 energy with doubled power-type source:

        int |grad z|^p/p + int |z|^q/q - 2 int |source|^(q-2) source z
    """
    load_q = _doubled_source(source, q)
    return _EnergyProblem(z.mesh, p, q, 0.0, load_q=load_q).energy(z.values)


def _signed_power(vals, qq):
    """|t|^(q-2) t, extended by 0 at t = 0 (safe for q < 2)."""
    av = np.abs(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(av > _TINY, av ** (qq - 2.0) * vals, 0.0)


def _doubled_source(u, q):
    """2 |u|^(q-2) u at the quadrature points, (nc, nq)."""
    return 2.0 * _signed_power(field_on_quadrature(u), q.eval_on_quadrature(u.mesh))


def operator_action(z, p, eps):
    """Weak action of the regularized operator on the zero-trace basis:
    entries <(|grad z|^2 + eps)^((p-2)/2) grad z, grad phi_i>, boundary
    entries zeroed."""
    return DiscreteField(z.mesh, _EnergyProblem(z.mesh, p, None, eps).grad(z.values),
                         zero_trace=True)


def power_source(u, q):
    """L2-projection of 2 |u|^(q-2) u onto P1.

    Projecting the quadrature-point composition (rather than interpolating
    nodal values) keeps <v, phi_i> exactly equal to the composed load, so
    the truncated problem reproduces the candidate once truncation is
    inactive.
    """
    return l2_project(u.mesh, _doubled_source(u, q))


def mollifier_radius(eps, mesh):
    """Schedule coupling: radius(eps) = sqrt(eps) * diam(Omega) / 4."""
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
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
        diagnostics={"energy_history": hist, "epsilon": eps, "stop": stop,
                     "newton_fallbacks": prob.fallbacks},
    )


def solve_truncated(u, p, q, n, cfg=None):
    """Solve the truncated problem for one n down the epsilon schedule.

    Builds u_n = cutoff(u, n) and the mollified doubled source, then runs
    solve_regularized along the schedule with warm starts.  Returns the
    last epsilon level, recorded by _level.
    """
    cfg = cfg or SolveConfig()
    z = cutoff(u, n)  # u_n, also the first warm start
    f_node = power_source(z, q)
    runs = []
    for eps in cfg.eps_schedule():
        v_eps = mollify(f_node, mollifier_radius(eps, u.mesh))
        runs.append(solve_regularized(v_eps, p, q, cfg, epsilon=eps, z0=z))
        z = runs[-1].field
    return _level(u, n, runs)


def _level(u, n, runs, reused_from_n=None):
    """The record of truncation level n: tags each epsilon level of runs with
    diagnostics n (and reused_from_n, when runs are copies of that level's),
    and returns the last, which holds them all under diagnostics["eps_runs"]
    plus truncation_active (whether max |u| exceeds n)."""
    for lv in runs:
        lv.diagnostics["n"] = n
        if reused_from_n is not None:
            lv.diagnostics["reused_from_n"] = reused_from_n
    runs[-1].diagnostics.update(
        eps_runs=runs, truncation_active=bool(np.any(np.abs(u.values) > n)))
    return runs[-1]


def cascade(u, p, q, cfg=None):
    """Run solve_truncated along cfg.n_schedule; report gaps against u.

    Each returned SolveResult carries two diagnostics: gap_grad_modular,
    the difference in gradient modular between the truncated solution and
    the candidate u, and gap_q_modular, the same difference for the source
    modular.  Both shrink to zero once the truncation level clears max |u|.
    A level whose cutoff(u, n) is byte-equal to an earlier level's poses the
    same problem, so its epsilon levels are copies of that level's, each
    tagged with diagnostics reused_from_n.  fem.mollify keeps its kernels on
    the mesh for the length of this call only.
    cascade_levels walks the epsilon levels of the returned runs.
    """
    cfg = cfg or SolveConfig()
    gm_u = gradient_modular(u, p).value
    qm_u = modular(u, q).value
    out = []
    solved = {}  # cutoff(u, n) bytes -> (n, epsilon levels) of the level solving it
    u.mesh._mollifiers = {}
    try:
        for n in cfg.n_schedule:
            key = cutoff(u, n).values.tobytes()
            if key in solved:
                n0, levels = solved[key]
                copies = []
                for lv in levels:  # each with its own field, dict and history
                    diag = {**lv.diagnostics,
                            "energy_history": list(lv.diagnostics["energy_history"])}
                    copies.append(replace(lv, field=lv.field.copy(), diagnostics=diag))
                res = _level(u, n, copies, n0)
            else:
                res = solve_truncated(u, p, q, n, cfg)
                solved[key] = (n, res.diagnostics["eps_runs"])
            res.diagnostics["gap_grad_modular"] = abs(
                gradient_modular(res.field, p).value - gm_u)
            res.diagnostics["gap_q_modular"] = abs(modular(res.field, q).value - qm_u)
            out.append(res)
    finally:
        u.mesh._mollifiers = None
    return out


def cascade_levels(runs):
    """Every epsilon level of cascade's runs, in schedule order, each tagged
    with diagnostics n and epsilon.  InsufficientRuns for a run without
    diagnostics["eps_runs"]."""
    if not all("eps_runs" in res.diagnostics for res in runs):
        raise InsufficientRuns("every run must carry its epsilon levels")
    return [lv for res in runs for lv in res.diagnostics["eps_runs"]]


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


def _projected_step(prob, u, free, d, s, project, J0):
    """Step from u along -d and project, shrinking s by _ARMIJO_SHRINK up to
    _BACKTRACKS times until the energy falls below J0 by more than roundoff:
    (trial, energy, s), or None.
    """
    for _ in range(_BACKTRACKS):
        trial = u.copy()
        trial[free] -= s * d
        try:
            trial = project(trial)
        except NoScalingRoot:
            s *= _ARMIJO_SHRINK
            continue
        J = prob.energy(trial)
        if J < J0 - 1e-14 * (1.0 + abs(J0)):
            return trial, J, s
        s *= _ARMIJO_SHRINK
    return None


def nehari_candidate(p, q, mesh, cfg=None):
    """Generate a nontrivial critical-point candidate by projected descent
    on the scaling manifold, polished by a Newton iteration on the full
    optimality system.

    The descent steps along the H^1_0 gradient d = K^-1 r, with K the P1
    stiffness matrix on the free nodes (factored once per call) and r the
    energy gradient, so its step count does not grow as the mesh is refined.
    It hands over to the polish once the H^-1 residual sqrt(r . d) falls to
    _DESCENT_EXITS[0] of its value at the seed (or to 50 * cfg.grad_tol).
    The polish must keep the energy in (0, (1 + _NEHARI_SLACK) * E], E the
    descent's last energy; when it would leave, the descent resumes with the
    next, tighter exit from where it stopped, within its one 400-step budget.

    Requires q- > p+ on the mesh (monotone scaling projection); raises
    NoScalingRoot otherwise, and CollapseToZero when the polished
    candidate's gradient norm is below _COLLAPSE_TOL.
    diagnostics["stop"] is the polish's stop reason (see _minimize);
    "left_nehari" means its last attempt would have left that energy band,
    and the field is its last iterate inside it.
    diagnostics["descent_stop"] says why the last descent ended: "tolerance"
    (its exit residual), "no_decrease" (_BACKTRACKS step halvings found no
    lower energy) or "max_iters" (the 400-step budget).
    """
    cfg = cfg or SolveConfig()
    rng = np.random.default_rng(cfg.seed)
    prob = _EnergyProblem(mesh, p, q, 0.0, q_sign=-1.0)
    pq, qq = prob.pq, prob.qq
    if float(qq.min()) <= float(pq.max()) + 1e-12:
        raise NoScalingRoot(
            f"scaling projection needs q- > p+, got q- = {qq.min():.4g}, "
            f"p+ = {pq.max():.4g}"
        )
    prob.eps = 0.0 if float(pq.min()) >= 2.0 else 1e-14
    free = mesh.interior_nodes

    logw = np.log(prob.w)

    def project(zvals):
        g, zq = sample(mesh, zvals)
        gmag = np.linalg.norm(g, axis=1)[:, None]
        return _nehari_scale(gmag, np.abs(zq), logw, pq, qq) * zvals

    u = _bump_profile(mesh) * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, mesh.nnodes))
    u = project(u)

    K, perm = _assemble(mesh, _cell_stiffness(mesh), free)
    K = splu(K, permc_spec="NATURAL")
    hist = [prob.energy(u)]
    step = 1.0
    iters1 = iters2 = 0
    res0 = None
    for fraction in _DESCENT_EXITS:
        descent_stop = "max_iters"
        while iters1 < _DESCENT_STEPS:
            r = prob.grad(u)[free]
            d = K.solve(r)[perm]
            res = float(np.sqrt(abs(r @ d)))
            res0 = res if res0 is None else res0
            if res <= max(fraction * res0, 50.0 * cfg.grad_tol):
                descent_stop = "tolerance"
                break
            iters1 += 1
            found = _projected_step(prob, u, free, d, step, project, hist[-1])
            if found is None:
                descent_stop = "no_decrease"
                break
            u, J, s = found
            hist.append(J)
            step = min(s * 2.0, 1e3)
        z, _, gn, n, stop = _minimize(prob, u, free, cfg, bounds=(
            0.0, hist[-1] * (1.0 + _NEHARI_SLACK)))
        iters2 += n
        if stop != "left_nehari" or descent_stop != "tolerance":
            break
    u = z

    ufield = DiscreteField(mesh, u, zero_trace=True)
    if gradient_luxemburg_norm(ufield, p) < _COLLAPSE_TOL:
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
            "newton_fallbacks": prob.fallbacks,
            "seed": cfg.seed,
        },
    )
