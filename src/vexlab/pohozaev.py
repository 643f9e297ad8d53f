"""Pohozaev-type balance of a candidate solution, and the verdict built on it.

Multiplying the equation by (x - origin) . grad u and integrating by parts
produces a balance of four volume terms plus a boundary remainder.  This
module evaluates every term by quadrature, estimates the remainder from a
family of regularized solves, checks the underlying Pucci-Serrin identity
on manufactured cases, and turns the exponent arithmetic into a
machine-readable nonexistence verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domains import checked_points, find_star_center, star_shape_report
from .errors import (ConfigError, ExponentTooLarge, InsufficientRuns,
                     NonFiniteIntegrand, NotStarShaped)
from .exponents import conjugate
from .fem import gradient, sample
from .meshes import boundary_integral
from .modular import gradient_modular, modular
from .solvers import _TINY, _signed_power, cascade_levels

_CLASS_E_TOL = 1e-9


def tloge(t):
    """The map t -> t * (log t - 1) = t * log(t/e), extended by 0 at t = 0.

    Values below 1e-300 return exactly 0, so no NaN or infinity can leak
    out of the singular factor.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = t >= _TINY
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

    def with_remainder(self, r_proxy):
        base = self.t1 + self.t2 + self.t3 - self.t4
        return replace(self, r_proxy=float(r_proxy), total=base + float(r_proxy))


def _p_dagger(pq):
    """p-dagger = min(2, p-) over the exponent samples pq."""
    return min(2.0, float(pq.min()))


class _Balance:
    """Everything the balance terms read at the cell quadrature points,
    from one gather of u's nodal values: weights w, the origin (ConfigError
    unless one point of the mesh's dim), h = x - origin, u, grad u
    (one row per cell, broadcast over the points), g2 = |grad u|^2,
    A = g2 + eps, A^(p/2), |u|^q, p, q, h . grad p and h . grad q.
    p=None skips the p samples.  Overflow is not reported here: every
    public function that reads a _Balance runs its sums under np.errstate
    and raises NonFiniteIntegrand (_check_finite) on a non-finite result."""

    def __init__(self, u, p, q, origin, eps=0.0):
        mesh = u.mesh
        self.dim = mesh.dim
        self.origin = checked_points(origin, mesh.dim, "origin", one=True)
        pts, self.w, _ = mesh.quadrature()
        grad, self.u = sample(mesh, u.values)
        self.gu = grad[:, None, :]
        self.h = pts - self.origin
        self.q, self.hdotgq = self._exponent(q, mesh)
        with np.errstate(over="ignore"):
            self.g2 = np.sum(grad * grad, axis=1)[:, None]
            self.absu_q = np.abs(self.u) ** self.q
            if p is not None:
                self.p, self.hdotgp = self._exponent(p, mesh)
                self.A = self.g2 + eps
                self.A_p2 = self.A ** (self.p / 2.0)

    def _exponent(self, p, mesh):
        """p and h . grad p at the points."""
        grad = p.grad_on_quadrature(mesh)
        return p.eval_on_quadrature(mesh), np.einsum("cqd,cqd->cq", self.h, grad)

    def t1(self):
        return -float(np.sum(self.w * (self.dim / self.q) * self.absu_q))

    def t2(self):
        return float(np.sum(self.w * ((self.dim - self.p) / self.p) * self.A_p2))

    def t3(self):
        return float(np.sum(self.w * self.hdotgp * tloge(self.A_p2) / self.p**2))

    def t4(self):
        return float(np.sum(self.w * self.hdotgq * tloge(self.absu_q) / self.q**2))


def _check_finite(what, **values):
    """NonFiniteIntegrand naming the first non-finite value."""
    for name, val in values.items():
        if not np.isfinite(val):
            raise NonFiniteIntegrand(f"{what} {name} is not finite")


def _boundary_moment(u, origin, density):
    """int over the boundary of density(g2, x) (x - origin) . nu, where g2 is
    |grad u|^2 taken one-sidedly from each facet's cell."""
    mesh = u.mesh
    o = checked_points(origin, mesh.dim, "origin", one=True)
    gb = gradient(u)[mesh.facet_cells]
    nq = mesh.facet_quadrature()[1].shape[1]
    with np.errstate(over="ignore"):
        g2 = np.broadcast_to(np.sum(gb * gb, axis=1)[:, None], (len(gb), nq)).ravel()

    def integrand(x, nu):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return density(g2, x) * np.sum((x - o) * nu, axis=1)

    return boundary_integral(mesh, integrand)


def pohozaev_terms(u, p, q, origin):
    """Evaluate the four volume terms for a zero-trace field (r_proxy = 0).

    class_e is the sign of t3 - t4 (>= -_CLASS_E_TOL); class_p checks that
    each component integral of |x_i| |u|^(q-1) in the conjugate-exponent
    modular is finite at quadrature precision; identity_gap compares the
    q-modular of u with the p-modular of its gradient (zero for an exact
    critical point of the natural energy).
    """
    b = _Balance(u, p, q, origin)
    with np.errstate(over="ignore", invalid="ignore"):
        t1, t2, t3, t4 = b.t1(), b.t2(), b.t3(), b.t4()
    _check_finite("balance term", t1=t1, t2=t2, t3=t3, t4=t4)

    pprime_q = conjugate(p).eval_on_quadrature(u.mesh)
    au = np.abs(b.u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        power = np.where(au > _TINY, au ** (b.q - 1.0), 0.0)
    class_p = all(np.isfinite(np.sum(b.w * (np.abs(hi) * power) ** pprime_q))
                  for hi in np.moveaxis(b.h, 2, 0))

    identity_gap = abs(modular(u, q).value - gradient_modular(u, p).value)
    return PohozaevReport(
        t1=t1,
        t2=t2,
        t3=t3,
        t4=t4,
        r_proxy=0.0,
        total=t1 + t2 + t3 - t4,
        class_e=bool(t3 - t4 >= -_CLASS_E_TOL),
        class_p=class_p,
        identity_gap=float(identity_gap),
        p_dagger=_p_dagger(b.p),
        origin=tuple(b.origin.tolist()),
    )


def class_e_integral(u, p, q, origin):
    """The t3 - t4 margin recomputed in one pass from the log-quotient form:

        int log( (|grad u|^p / e)^(h.grad p / p^2 |grad u|^p)
               / (|u|^q / e)^(h.grad q / q^2 |u|^q) )

    Used as an independent cross-check of the class_e decision.
    NonFiniteIntegrand when it overflows.
    """
    b = _Balance(u, p, q, origin)
    s, t = b.A_p2, b.absu_q
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        alpha = b.hdotgp / b.p**2 * s
        beta = b.hdotgq / b.q**2 * t
        log_s = np.where(s >= _TINY, np.log(np.maximum(s, _TINY)) - 1.0, 0.0)
        log_t = np.where(t >= _TINY, np.log(np.maximum(t, _TINY)) - 1.0, 0.0)
        margin = float(np.sum(b.w * (alpha * log_s - beta * log_t)))
    _check_finite("class-E", integral=margin)
    return margin


# -- boundary remainder -----------------------------------------------------


def boundary_term(u, p, eps, origin):
    """int over the boundary of (|grad u|^2 + eps)^(p/2) (x - origin).nu,
    with the gradient recovered one-sidedly from the facet's adjacent cell."""
    eps = float(eps)
    return _boundary_moment(
        u, origin, lambda g2, x: (g2 + eps) ** (p.value_at(x) / 2.0))


def remainder_R(runs, p, mesh, origin):
    """Conservative stand-in for the vanishing-regularization limit of the
    boundary term: per truncation level, the max over the trailing half of
    the epsilon schedule; then the max over the trailing half of the
    truncation schedule; scaled by (p_dagger - 1)/p_plus.

    Needs at least two epsilon levels per truncation level and two
    truncation levels (InsufficientRuns otherwise).  Nonnegative whenever
    the chosen origin star-shapes the domain.
    """
    by_n = {}  # n -> {epsilon: boundary term}, in schedule order
    for n, eps, term in remainder_table(runs, p, origin):
        by_n.setdefault(n, {})[eps] = term  # a repeated n adds no level
    if len(by_n) < 2:
        raise InsufficientRuns(
            f"need at least 2 truncation levels, got {len(by_n)}"
        )
    pq = p.eval_on_quadrature(mesh)
    p_dag = _p_dagger(pq)
    p_plus = float(pq.max())

    per_n = {}
    for n, terms in by_n.items():
        terms = list(terms.values())
        if len(terms) < 2:
            raise InsufficientRuns(
                f"need at least 2 epsilon levels at n = {n}, got {len(terms)}"
            )
        per_n[n] = max(terms[len(terms) // 2:])
    ns = sorted(per_n)
    proxy = max(per_n[n] for n in ns[len(ns) // 2:])
    return ((p_dag - 1.0) / p_plus) * proxy


def remainder_table(runs, p, origin):
    """Per-(n, epsilon) rows (n, epsilon, boundary_term) over the epsilon
    levels of cascade's runs, in schedule order (see cascade_levels)."""
    return [(lv.diagnostics["n"], lv.diagnostics["epsilon"],
             boundary_term(lv.field, p, lv.diagnostics["epsilon"], origin))
            for lv in cascade_levels(runs)]


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


def nonexistence_verdict(domain, p, q, N=None, origin=None, tol=1e-9):
    """Decide whether the supercritical/critical nonexistence test applies.

    The deciding numbers are q- versus (p+)* and the star-shape report at
    the chosen origin (found automatically when omitted).  The reported
    coefficient (N - p+)/p+ - N/q- is the prefactor whose sign drives the
    argument; it is negative exactly in the regime where the balance forces
    the solution to vanish.  ConfigError unless tol >= 0: a negative tol
    would count a subcritical q- as supercritical.
    """
    if not tol >= 0:
        raise ConfigError(f"verdict tol must be nonnegative, got {tol!r}")
    N = float(N if N is not None else domain.dim)
    p_minus, p_plus = p.bounds(domain)
    q_minus, _ = q.bounds(domain)
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
    """Both sides of the variational identity at the DiscreteField w for the
    energy density F = (|grad w|^2 + eps)^(p/2)/p + |w|^q/q - v w, with the
    field h = x - origin and a constant multiplier a on the equation term.

    Returns (lhs, rhs, gap) with gap = |lhs - rhs| / (1 + |lhs|).  For a
    converged solve the gap is pure discretization error and contracts
    under mesh refinement.
    """
    mesh = w.mesh
    eps = float(eps)
    a = float(a)
    b = _Balance(w, p, q, origin, eps)
    gv, vq = sample(mesh, v.values)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A_pm2 = np.where(b.A > _TINY, b.A ** ((b.p - 2.0) / 2.0), 0.0)
        flux = float(np.sum(b.w * A_pm2 * b.g2))
        v1 = mesh.dim * float(np.sum(b.w * (b.absu_q / b.q + b.A_p2 / b.p - vq * b.u)))
        v4 = -float(np.sum(b.w * b.u * np.einsum("cqd,cqd->cq", b.h, gv[:, None, :])))
        v6 = a * float(np.sum(b.w * (vq * b.u - b.absu_q)))
        # the log terms are the balance's t4 and t3, taken at this eps
        rhs = v1 + b.t4() + b.t3() + v4 - flux + v6 - a * flux

    def density(g2, x):
        pf = p.value_at(x)
        Ab = g2 + eps
        return (Ab ** (pf / 2.0) / pf
                - np.where(Ab > _TINY, Ab ** ((pf - 2.0) / 2.0), 0.0) * g2)

    lhs = _boundary_moment(w, origin, density)
    _check_finite("Pucci-Serrin", lhs=lhs, rhs=rhs)
    return lhs, rhs, abs(lhs - rhs) / (1.0 + abs(lhs))


# -- radial source-term identity -------------------------------------------


def radial_identity_sides(u, q, origin):
    """(lhs, rhs) of the integrated-by-parts radial source term:

        int |u|^(q-2) u (h . grad u)
            = -N int |u|^q / q + int (h . grad q) |u|^q / q^2 (1 - log|u|^q)

    The right-hand side is t1 - t4 of the balance; |lhs - rhs| is 0 for
    u = 0 and O(h^2) for smooth fields.  NonFiniteIntegrand on overflow.
    """
    b = _Balance(u, None, q, origin)
    hdotgu = np.einsum("cqd,cqd->cq", b.h, b.gu)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = float(np.sum(b.w * _signed_power(b.u, b.q) * hdotgu))
        rhs = b.t1() - b.t4()
    _check_finite("radial identity", lhs=lhs, rhs=rhs)
    return lhs, rhs

