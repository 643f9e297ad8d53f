"""Pohozaev-type balance of a candidate solution, and the verdict built on it.

Multiplying the equation by (x - origin) . grad u and integrating by parts
produces a balance of four volume terms plus a boundary remainder.  This
module evaluates every term by quadrature, estimates the remainder from a
family of regularized solves, checks the underlying Pucci-Serrin identity
on manufactured cases, and turns the exponent arithmetic into a
machine-readable nonexistence verdict.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .domains import find_star_center, star_shape_report
from .errors import ExponentTooLarge, InsufficientRuns, NonFiniteIntegrand, NotStarShaped
from .exponents import bounds as exponent_bounds
from .exponents import conjugate
from .fem import field_on_quadrature, gradient
from .modular import gradient_modular, modular
from .solvers import _signed_power

_GUARD = 1e-300


def tloge(t):
    """The map t -> t * (log t - 1) = t * log(t/e), extended by 0 at t = 0.

    Values below 1e-300 return exactly 0, so no NaN or infinity can leak
    out of the singular factor.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = t >= _GUARD
    tm = t[m]
    out[m] = tm * (np.log(tm) - 1.0)
    return out


@dataclass
class PohozaevReport:
    """Term-by-term balance.  total = t1 + t2 + t3 - t4 + r_proxy; a
    genuine solution in the admissible classes satisfies total <= 0 up to
    discretization error, so a strictly positive total is the nonexistence
    signal."""

    t1: float
    t2: float
    t3: float
    t4: float
    r_proxy: float
    total: float
    class_e: bool
    class_p: bool
    identity_gap: float
    p_dagger: float
    origin: tuple

    CSV_HEADER = (
        "t1,t2,t3,t4,r_proxy,total,class_e,class_p,identity_gap,p_dagger"
    )

    def with_remainder(self, r_proxy):
        base = self.t1 + self.t2 + self.t3 - self.t4
        return replace(self, r_proxy=float(r_proxy), total=base + float(r_proxy))

    def as_dict(self):
        return {**asdict(self), "origin": list(self.origin)}

    def csv_row(self):
        return (
            f"{self.t1!r},{self.t2!r},{self.t3!r},{self.t4!r},"
            f"{self.r_proxy!r},{self.total!r},{int(self.class_e)},"
            f"{int(self.class_p)},{self.identity_gap!r},{self.p_dagger!r}"
        )


def _origin(origin):
    return np.atleast_1d(np.asarray(origin, dtype=float))


def _quadrature_data(u, origin):
    """Weights, h = x - origin, u and grad u at the cell quadrature points."""
    pts, w, _ = u.mesh.quadrature()
    uq = field_on_quadrature(u)
    gu = np.repeat(gradient(u)[:, None, :], w.shape[1], axis=1)
    return w, pts - _origin(origin), uq, gu


def _exponent_data(p, mesh, h):
    """p and h . grad p at the cell quadrature points."""
    grad = p.grad_on_quadrature(mesh)
    return p.eval_on_quadrature(mesh), np.einsum("cqd,cqd->cq", h, grad)


def _facet_data(u, p, origin):
    """At the boundary facet quadrature points: |grad u|^2 taken one-sidedly
    from the facet's cell, p, (x - origin) . nu and the weights."""
    mesh = u.mesh
    gb = gradient(u)[mesh.facet_cells]
    g2 = np.sum(gb * gb, axis=1)[:, None]
    pts, w = mesh.facet_quadrature()
    nf, nq, dim = pts.shape
    pv = p.value_at(pts.reshape(-1, dim)).reshape(nf, nq)
    xdotnu = np.einsum("fqd,fd->fq", pts - _origin(origin), mesh.facet_normals)
    return g2, pv, xdotnu, w


def pohozaev_terms(u, p, q, origin, tol=1e-9):
    """Evaluate the four volume terms for a zero-trace field (r_proxy = 0).

    class_e is the sign of t3 - t4 (>= -tol); class_p checks that each
    component integral of |x_i| |u|^(q-1) in the conjugate-exponent modular
    is finite at quadrature precision; identity_gap compares the q-modular
    of u with the p-modular of its gradient (zero for an exact
    critical point of the natural energy).
    """
    mesh = u.mesh
    w, h, uq, gu = _quadrature_data(u, origin)
    pq, hdotgp = _exponent_data(p, mesh, h)
    qq, hdotgq = _exponent_data(q, mesh, h)
    N = mesh.dim
    with np.errstate(over="ignore", invalid="ignore"):
        g2 = np.sum(gu * gu, axis=2)
        grad_p = g2 ** (pq / 2.0)
        absu_q = np.abs(uq) ** qq

        t1 = -float(np.sum(w * (N / qq) * absu_q))
        t2 = float(np.sum(w * ((N - pq) / pq) * grad_p))
        t3 = float(np.sum(w * hdotgp * tloge(grad_p) / pq**2))
        t4 = float(np.sum(w * hdotgq * tloge(absu_q) / qq**2))
    for name, val in (("t1", t1), ("t2", t2), ("t3", t3), ("t4", t4)):
        if not np.isfinite(val):
            raise NonFiniteIntegrand(f"balance term {name} is not finite")

    pprime_q = conjugate(p).eval_on_quadrature(mesh)
    au = np.abs(uq)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        power = np.where(au > _GUARD, au ** (qq - 1.0), 0.0)
    class_p = True
    for i in range(mesh.dim):
        xi = np.abs(h[:, :, i])
        comp = float(np.sum(w * (xi * power) ** pprime_q))
        class_p = class_p and bool(np.isfinite(comp))

    identity_gap = abs(modular(u, q).value - gradient_modular(u, p).value)
    return PohozaevReport(
        t1=t1,
        t2=t2,
        t3=t3,
        t4=t4,
        r_proxy=0.0,
        total=t1 + t2 + t3 - t4,
        class_e=bool(t3 - t4 >= -tol),
        class_p=class_p,
        identity_gap=float(identity_gap),
        p_dagger=float(min(2.0, float(pq.min()))),
        origin=tuple(_origin(origin).tolist()),
    )


def class_e_integral(u, p, q, origin):
    """The t3 - t4 margin recomputed in one pass from the log-quotient form:

        int log( (|grad u|^p / e)^(h.grad p / p^2 |grad u|^p)
               / (|u|^q / e)^(h.grad q / q^2 |u|^q) )

    Used as an independent cross-check of the class_e decision.
    """
    w, h, uq, gu = _quadrature_data(u, origin)
    pq, hdotgp = _exponent_data(p, u.mesh, h)
    qq, hdotgq = _exponent_data(q, u.mesh, h)
    g2 = np.sum(gu * gu, axis=2)
    with np.errstate(over="ignore"):
        s = g2 ** (pq / 2.0)
        t = np.abs(uq) ** qq
    alpha = hdotgp / pq**2 * s
    beta = hdotgq / qq**2 * t
    with np.errstate(divide="ignore"):
        log_s = np.where(s >= _GUARD, np.log(np.maximum(s, _GUARD)) - 1.0, 0.0)
        log_t = np.where(t >= _GUARD, np.log(np.maximum(t, _GUARD)) - 1.0, 0.0)
    return float(np.sum(w * (alpha * log_s - beta * log_t)))


# -- boundary remainder -----------------------------------------------------


def boundary_term(u, p, eps, origin):
    """int over the boundary of (|grad u|^2 + eps)^(p/2) (x - origin).nu,
    with the gradient recovered one-sidedly from the facet's adjacent cell."""
    g2, pv, xdotnu, w = _facet_data(u, p, origin)
    with np.errstate(over="ignore"):
        dens = (g2 + float(eps)) ** (pv / 2.0) * xdotnu
    if not np.all(np.isfinite(dens)):
        raise NonFiniteIntegrand("non-finite boundary density in remainder term")
    return float(np.sum(dens * w))


def _flatten_runs(runs):
    flat = []
    for r in runs:
        inner = r.diagnostics.get("eps_runs")
        if inner:
            flat.extend(inner)
        else:
            flat.append(r)
    return flat


def remainder_R(runs, p, mesh, origin):
    """Conservative stand-in for the vanishing-regularization limit of the
    boundary term: per truncation level, the max over the trailing half of
    the epsilon schedule; then the max over the trailing half of the
    truncation schedule; scaled by (p_dagger - 1)/p_plus.

    Needs at least two epsilon levels per truncation level and two
    truncation levels (InsufficientRuns otherwise).  Nonnegative whenever
    the chosen origin star-shapes the domain.
    """
    by_n = {}
    for r in _flatten_runs(runs):
        n = r.diagnostics.get("n")
        eps = r.diagnostics.get("epsilon")
        if n is None or eps is None:
            raise InsufficientRuns(
                "every run must carry n and epsilon diagnostics"
            )
        by_n.setdefault(n, []).append((float(eps), r))
    if len(by_n) < 2:
        raise InsufficientRuns(
            f"need at least 2 truncation levels, got {len(by_n)}"
        )
    pq = p.eval_on_quadrature(mesh)
    p_dag = min(2.0, float(pq.min()))
    p_plus = float(pq.max())

    per_n = {}
    for n, pairs in by_n.items():
        if len(pairs) < 2:
            raise InsufficientRuns(
                f"need at least 2 epsilon levels at n = {n}, got {len(pairs)}"
            )
        pairs.sort(key=lambda t: -t[0])
        vals = [boundary_term(r.field, p, eps, origin)
                for eps, r in pairs]
        per_n[n] = max(vals[len(vals) // 2:])
    ns = sorted(per_n)
    proxy = max(per_n[n] for n in ns[len(ns) // 2:])
    return ((p_dag - 1.0) / p_plus) * proxy


def remainder_table(runs, p, origin):
    """Per-(n, epsilon) rows: (n, epsilon, boundary_term), schedule order."""
    rows = []
    for r in _flatten_runs(runs):
        n = r.diagnostics.get("n")
        eps = r.diagnostics.get("epsilon")
        rows.append((n, eps, boundary_term(r.field, p, eps, origin)))
    return rows


# -- nonexistence verdict ---------------------------------------------------


@dataclass
class VerdictReport:
    """Outcome of the exponent-versus-geometry test.

    case "i": star-shaped domain with q- strictly above the critical value
    (p+)* = N p+ / (N - p+); no nontrivial admissible solution exists.
    case "ii": strictly star-shaped and q- critical; rules out admissible
    solutions of definite sign.  case "none": hypotheses unmet.
    """

    applies: bool
    case: str
    q_minus: float
    p_plus: float
    p_plus_star: float
    coefficient: float
    origin: tuple
    min_xdotnu: float
    is_star: bool
    strict_rho: float
    tol: float

    def as_dict(self):
        return {**asdict(self), "origin": list(self.origin)}


def nonexistence_verdict(domain, p, q, N=None, origin=None, tol=1e-9):
    """Decide whether the supercritical/critical nonexistence test applies.

    The deciding numbers are q- versus (p+)* and the star-shape report at
    the chosen origin (found automatically when omitted).  The reported
    coefficient (N - p+)/p+ - N/q- is the prefactor whose sign drives the
    argument; it is negative exactly in the regime where the balance forces
    the solution to vanish.
    """
    N = float(N if N is not None else domain.dim)
    p_minus, p_plus = exponent_bounds(p, domain)
    q_minus, _ = exponent_bounds(q, domain)
    if p_plus >= N - 1e-12:
        raise ExponentTooLarge(f"p+ = {p_plus:.6g} >= N = {N:g}")
    p_star = N * p_plus / (N - p_plus)

    if origin is None:
        try:
            origin = find_star_center(domain)
        except NotStarShaped:
            lo, hi = domain.bounding_box()
            origin = 0.5 * (lo + hi)
    star = star_shape_report(domain, origin)

    if star.is_star and q_minus > p_star + tol:
        case = "i"
    elif star.strict_rho > 0.0 and abs(q_minus - p_star) <= tol:
        case = "ii"
    else:
        case = "none"
    return VerdictReport(
        applies=case != "none",
        case=case,
        q_minus=float(q_minus),
        p_plus=float(p_plus),
        p_plus_star=float(p_star),
        coefficient=float((N - p_plus) / p_plus - N / q_minus),
        origin=tuple(np.asarray(star.origin, dtype=float).tolist()),
        min_xdotnu=float(star.min_xdotnu),
        is_star=bool(star.is_star),
        strict_rho=float(star.strict_rho),
        tol=float(tol),
    )


# -- Pucci-Serrin identity check -------------------------------------------


def verify_pucci_serrin(w, p, q, v, eps, a, origin):
    """Both sides of the variational identity for the regularized energy
    density F = (|grad w|^2 + eps)^(p/2)/p + |w|^q/q - v w, with the field
    h = x - origin and a constant multiplier a on the equation term.

    Returns (lhs, rhs, gap) with gap = |lhs - rhs| / (1 + |lhs|).  For a
    converged solve the gap is pure discretization error and contracts
    under mesh refinement.
    """
    if hasattr(w, "field"):
        w = w.field
    mesh = w.mesh
    wq, h, uq, gu = _quadrature_data(w, origin)
    pq, hdotgp = _exponent_data(p, mesh, h)
    qq, hdotgq = _exponent_data(q, mesh, h)
    _, _, vq, gv = _quadrature_data(v, origin)
    N = mesh.dim
    eps = float(eps)
    a = float(a)
    g2 = np.sum(gu * gu, axis=2)
    A = g2 + eps
    with np.errstate(over="ignore", divide="ignore"):
        A_p2 = A ** (pq / 2.0)
        A_pm2 = np.where(A > _GUARD, A ** ((pq - 2.0) / 2.0), 0.0)
        absu_q = np.abs(uq) ** qq
    hdotgv = np.einsum("cqd,cqd->cq", h, gv)

    v1 = N * float(np.sum(wq * (absu_q / qq + A_p2 / pq - vq * uq)))
    v2 = float(np.sum(wq * hdotgq * tloge(absu_q) / qq**2))
    v3 = float(np.sum(wq * hdotgp * tloge(A_p2) / pq**2))
    v4 = -float(np.sum(wq * uq * hdotgv))
    v5 = -float(np.sum(wq * A_pm2 * g2))
    v6 = a * float(np.sum(wq * (vq * uq - absu_q)))
    v7 = -a * float(np.sum(wq * A_pm2 * g2))
    rhs = v1 + v2 + v3 + v4 + v5 + v6 + v7

    gb2, pf, hdotnu, fw = _facet_data(w, p, origin)
    Ab = gb2 + eps
    with np.errstate(over="ignore", divide="ignore"):
        dens = (
            Ab ** (pf / 2.0) / pf
            - np.where(Ab > _GUARD, Ab ** ((pf - 2.0) / 2.0), 0.0) * gb2
        ) * hdotnu
    lhs = float(np.sum(dens * fw))

    for name, val in (("lhs", lhs), ("rhs", rhs)):
        if not np.isfinite(val):
            raise NonFiniteIntegrand(f"Pucci-Serrin {name} is not finite")
    return lhs, rhs, abs(lhs - rhs) / (1.0 + abs(lhs))


# -- radial source-term identity -------------------------------------------


def radial_identity_sides(u, q, origin):
    """(lhs, rhs) of the integrated-by-parts radial source term:

        int |u|^(q-2) u (h . grad u)
            = -N int |u|^q / q + int (h . grad q) |u|^q / q^2 (1 - log|u|^q)
    """
    mesh = u.mesh
    w, h, uq, gu = _quadrature_data(u, origin)
    qq, hdotgq = _exponent_data(q, mesh, h)
    power = _signed_power(uq, qq)
    with np.errstate(over="ignore"):
        absu_q = np.abs(uq) ** qq
    hdotgu = np.einsum("cqd,cqd->cq", h, gu)
    lhs = float(np.sum(w * power * hdotgu))
    rhs = float(
        -np.sum(w * mesh.dim * absu_q / qq)
        - np.sum(w * hdotgq * tloge(absu_q) / qq**2)
    )
    return lhs, rhs


def check_radial_identity(u, q, origin):
    """Quadrature defect of the radial source-term identity (0 for u = 0,
    O(h^2) for smooth fields under refinement)."""
    lhs, rhs = radial_identity_sides(u, q, origin)
    return abs(lhs - rhs)
